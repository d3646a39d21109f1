"""Reference definitions that the fast paths of the package are checked against.

Grid-based integrals: every routine evaluates the defining integrand on a
numerical grid and never touches the Hermite/Boys machinery. Documented
accuracy: 1e-6 absolute for overlap/kinetic/nuclear over the exponent and
separation ranges exercised by the tests (exponents in [0.1, 5], separations
up to ~3 Bohr). ERIs are good to 1e-5 absolute on the quartets the tests check
them on: exponents in [0.2, 3], centres in [-1.5, 1.5]^3, bra and ket exponent
sums p in [1.7, 3.8] and q in [1.2, 4.4], q/p <= 1.8. Not beyond that: the
outer 12-node Gauss-Hermite rule over the bra density misses a ket much more
compact than the bra. The s quartet (0.240, 0.223 | 1.034, 2.177), centres in
[-0.5, 0.5]^3, p = 0.46 and q/p = 6.9, is off by 4.2e-4 (4.6e-5 with 20 nodes).

Spin correlations: Tr[rho (sigma.u x sigma.w)] element by element, from
Kronecker products of the Pauli matrices, without the Pauli-pair contraction
of `h2ent.bell`.

CHSH value: E(a,b) + E(d,b) + E(d,c) - E(a,c) from those four traces.

Occupation entropy: -sum_k (n_k/2) log2(n_k/2) of one occupation array, over its
positive entries, where `h2ent.correlation` takes a stack of rows in one pass.

Fock matrix: J and K as two separate index contractions of the AO ERIs,
without the J - K/2 supermatrix of `h2ent.scf`.

Two-electron CI: the Hamiltonian on all K^2 determinants, triplets and
ungerade states included, of which `h2ent.fci` diagonalises only the
singlet-gerade block; dense annihilation operators over the whole Fock space,
with the place of each determinant in it, which fix every fermionic sign
without the Kronecker form.

Leading-pair state: the two-qubit state of the two leading natural orbitals,
renormalised, on which the Bell tests run CHSH.

Hermite Coulomb integrals: R_tuv by the McMurchie-Davidson recursion one
entry at a time, where `h2ent.integrals` builds a whole t+u+v level at once,
and the ERI contraction one (bra term, ket term) pair at a time, with the
quartet lists built by loops, where `h2ent.integrals` gathers every pair into
one array and builds the lists with numpy.

Exact ERIs: Boys' Gaussian transform of 1/r12, with Gauss-Hermite and
Gauss-Legendre rules, and no Boys function, Hermite expansion or code from
`h2ent.integrals`.

Exact nuclear attraction: the one-centre form of the same transform, 1/|r - C|,
with the same rules and the same independence from `h2ent.integrals`.
"""

import itertools

import numpy as np

from h2ent.bell import TwoQubitState
from h2ent.integrals import boys_table


def _eval_primitive(center, powers, exponent, points):
    """Unnormalized Cartesian Gaussian evaluated at points (..., 3)."""
    rel = points - np.asarray(center)
    val = np.exp(-exponent * np.einsum("...i,...i->...", rel, rel))
    for d in range(3):
        if powers[d]:
            val = val * rel[..., d] ** powers[d]
    return val


def _eval_contracted(func, points):
    val = 0.0
    for a, c in zip(func.exponents, func.coefficients):
        val = val + c * _eval_primitive(func.center, func.powers, a, points)
    return val


def _eval_laplacian_primitive(center, powers, exponent, points):
    """del^2 of a Cartesian primitive, obtained term by term from calculus."""
    rel = points - np.asarray(center)
    gauss = np.exp(-exponent * np.einsum("...i,...i->...", rel, rel))
    total = 0.0
    for d in range(3):
        i = powers[d]
        rest = np.ones_like(gauss)
        for e in range(3):
            if e != d and powers[e]:
                rest = rest * rel[..., e] ** powers[e]
        x = rel[..., d]
        term = -2.0 * exponent * (2 * i + 1) * x ** i + 4.0 * exponent ** 2 * x ** (i + 2)
        if i >= 2:
            term = term + i * (i - 1) * x ** (i - 2)
        total = total + term * rest * gauss
    return total


def _eval_laplacian_contracted(func, points):
    val = 0.0
    for a, c in zip(func.exponents, func.coefficients):
        val = val + c * _eval_laplacian_primitive(func.center, func.powers, a, points)
    return val


def _gauss_hermite_points(exponent, center, n):
    """Tensor-product Gauss-Hermite grid for weight exp(-exponent |r-center|^2).

    The Gaussian weight is divided out: integral f = sum w_i f(p_i) for any
    f that is smooth times that Gaussian.
    """
    x, w = np.polynomial.hermite.hermgauss(n)
    scale = np.sqrt(exponent)
    nodes = x / scale
    weights = w / scale * np.exp(x ** 2)
    px, py, pz = np.meshgrid(nodes, nodes, nodes, indexing="ij")
    points = np.stack([px.ravel(), py.ravel(), pz.ravel()], axis=-1) + np.asarray(center)
    wx, wy, wz = np.meshgrid(weights, weights, weights, indexing="ij")
    return points, (wx * wy * wz).ravel()


def _coulomb_grid_batch(centers_o, center_c, exponent, n_r, n_v, n_phi, span):
    """Spherical grids around each center in centers_o (N, 3), adapted to a
    Gaussian bump of the given exponent at center_c.

    Integrates rho(r)/|r - o| for rho ~ poly * exp(-exponent |r - c|^2): the
    1/r singularity cancels against the spherical Jacobian, and at each radius
    the polar grid is compressed onto the angular support of the bump (the
    integrand falls off as exp(-a v) in v = 1 - cos(theta) with
    a = 2 * exponent * r * |c - o|). The 1/|r - o| factor is folded into the
    returned weights. Returns (points (N, M, 3), weights (N, M)).
    """
    centers_o = np.atleast_2d(np.asarray(centers_o, float))
    center_c = np.asarray(center_c, float)
    nbatch = len(centers_o)
    d = center_c - centers_o
    rho0 = np.linalg.norm(d, axis=1)
    zaxis = np.where(rho0[:, None] > 1e-12, d / np.maximum(rho0, 1e-300)[:, None],
                     np.array([0.0, 0.0, 1.0]))
    ref = np.where(np.abs(zaxis[:, :1]) < 0.9,
                   np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
    xaxis = np.cross(zaxis, ref)
    xaxis /= np.linalg.norm(xaxis, axis=1)[:, None]
    yaxis = np.cross(zaxis, xaxis)

    half = 10.0 / np.sqrt(exponent)
    r_lo = np.maximum(0.0, rho0 - half)
    r_hi = rho0 + half
    xr, wr = np.polynomial.legendre.leggauss(n_r)
    r = 0.5 * (r_hi - r_lo)[:, None] * (xr + 1.0) + r_lo[:, None]         # (N, nr)
    wrad = 0.5 * (r_hi - r_lo)[:, None] * wr

    xv, wv = np.polynomial.legendre.leggauss(n_v)
    a_r = 2.0 * exponent * r * rho0[:, None]                               # (N, nr)
    v_hi = np.minimum(2.0, span / np.maximum(a_r, span / 2.0))
    v = 0.5 * v_hi[..., None] * (xv + 1.0)                                 # (N, nr, nv)
    wpol = 0.5 * v_hi[..., None] * wv

    phi = np.arange(n_phi) * (2.0 * np.pi / n_phi)
    wphi = 2.0 * np.pi / n_phi

    cos_t = 1.0 - v
    sin_t = np.sqrt(np.clip(1.0 - cos_t ** 2, 0.0, None))
    cp = np.cos(phi)
    sp = np.sin(phi)
    # direction vectors (N, nr, nv, nphi, 3)
    dirs = (sin_t[..., None, None] * cp[:, None] * xaxis[:, None, None, None, :]
            + sin_t[..., None, None] * sp[:, None] * yaxis[:, None, None, None, :]
            + cos_t[..., None, None] * np.ones(n_phi)[:, None] * zaxis[:, None, None, None, :])
    points = r[..., None, None, None] * dirs + centers_o[:, None, None, None, :]
    weights = (r * wrad)[..., None, None] * wpol[..., None] * wphi * np.ones(n_phi)
    return points.reshape(nbatch, -1, 3), weights.reshape(nbatch, -1)


def quadrature_oracle(f, g, kind, mol=None):
    """Reference value for <f|g>, -1/2<f|del^2|g> or the nuclear attraction."""
    if kind in ("overlap", "kinetic"):
        total = 0.0
        for a, ca in zip(f.exponents, f.coefficients):
            for b, cb in zip(g.exponents, g.coefficients):
                p = a + b
                center = (a * np.asarray(f.center) + b * np.asarray(g.center)) / p
                pts, w = _gauss_hermite_points(p, center, n=22)
                left = ca * _eval_primitive(f.center, f.powers, a, pts)
                if kind == "overlap":
                    right = cb * _eval_primitive(g.center, g.powers, b, pts)
                    total += float(np.sum(w * left * right))
                else:
                    right = cb * _eval_laplacian_primitive(g.center, g.powers, b, pts)
                    total += float(-0.5 * np.sum(w * left * right))
        return total
    if kind == "nuclear":
        if mol is None:
            raise ValueError("nuclear oracle needs a molecule")
        total = 0.0
        for charge, position in zip(mol.charges, mol.xyz[0]):
            for a, ca in zip(f.exponents, f.coefficients):
                for b, cb in zip(g.exponents, g.coefficients):
                    p = a + b
                    center = (a * np.asarray(f.center) + b * np.asarray(g.center)) / p
                    pts, w = _coulomb_grid_batch(position, center, p,
                                                 n_r=90, n_v=48, n_phi=16, span=45.0)
                    rho = (ca * _eval_primitive(f.center, f.powers, a, pts[0])
                           * cb * _eval_primitive(g.center, g.powers, b, pts[0]))
                    total -= charge * float(np.sum(w[0] * rho))
        return total
    raise ValueError(f"unknown oracle kind {kind!r}")


def quadrature_oracle_eri(f, g, h, k):
    """Reference (fg|hk): outer Gauss-Hermite nodes over the bra density, and
    for each node the ket potential from a singularity-cancelling spherical
    grid, batched over outer nodes."""
    total = 0.0
    for a, ca in zip(f.exponents, f.coefficients):
        for b, cb in zip(g.exponents, g.coefficients):
            p = a + b
            bra_center = (a * np.asarray(f.center) + b * np.asarray(g.center)) / p
            pts, w = _gauss_hermite_points(p, bra_center, n=12)
            rho_bra = (ca * _eval_primitive(f.center, f.powers, a, pts)
                       * cb * _eval_primitive(g.center, g.powers, b, pts))
            for c, cc in zip(h.exponents, h.coefficients):
                for d, cd in zip(k.exponents, k.coefficients):
                    q = c + d
                    ket_center = (c * np.asarray(h.center) + d * np.asarray(k.center)) / q
                    pot = np.empty(len(pts))
                    for lo in range(0, len(pts), 216):
                        chunk = pts[lo:lo + 216]
                        gpts, gw = _coulomb_grid_batch(chunk, ket_center, q,
                                                       n_r=40, n_v=20, n_phi=6,
                                                       span=30.0)
                        rho_ket = (cc * _eval_primitive(h.center, h.powers, c, gpts)
                                   * cd * _eval_primitive(k.center, k.powers, d, gpts))
                        pot[lo:lo + 216] = np.einsum("nm,nm->n", gw, rho_ket)
                    total += float(np.sum(w * rho_bra * pot))
    return total


_PAULI = (np.array([[0, 1], [1, 0]], dtype=complex),
          np.array([[0, -1j], [1j, 0]], dtype=complex),
          np.array([[1, 0], [0, -1]], dtype=complex))


def spin_observable(v):
    """sigma . v for a unit 3-vector v: a 2x2 Hermitian matrix with eigenvalues +-1."""
    v = np.asarray(v, dtype=float)
    if not abs(np.linalg.norm(v) - 1.0) <= 1e-12:
        raise ValueError(f"vector must have unit norm, |v| = {np.linalg.norm(v)}")
    return v[0] * _PAULI[0] + v[1] * _PAULI[1] + v[2] * _PAULI[2]


def correlation_tensor_by_trace(rho):
    """T_ij = Tr[rho sigma_i x sigma_j], one trace per element."""
    t = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            t[i, j] = np.trace(rho @ np.kron(_PAULI[i], _PAULI[j])).real
    return t


def correlation_by_trace(rho, u, w):
    """E(u, w) = Tr[rho (sigma.u x sigma.w)], u on party 1, w on party 2."""
    return float(np.trace(rho @ np.kron(spin_observable(u), spin_observable(w))).real)


def chsh_by_trace(rho, s):
    """E(a,b) + E(d,b) + E(d,c) - E(a,c) of MeasurementSettings s, each E a trace."""
    return (correlation_by_trace(rho, s.a, s.b) + correlation_by_trace(rho, s.d, s.b)
            + correlation_by_trace(rho, s.d, s.c) - correlation_by_trace(rho, s.a, s.c))


def von_neumann_entropy(occ):
    """S = -sum_k (n_k/2) log2(n_k/2) in bits for an occupation array, 0 log 0 = 0."""
    x = occ / 2.0
    x = x[x > 0.0]
    return float(-np.sum(x * np.log2(x)))


def determinant_hamiltonian(h, g):
    """Dense K^2 x K^2 Hamiltonian h (x) 1 + 1 (x) h + (ac|bd) on vec(C), index
    a*K + b, over every determinant: Kronecker products and one ERI reshape."""
    k = h.shape[0]
    one = np.eye(k)
    return np.kron(h, one) + np.kron(one, h) + g.transpose(0, 2, 1, 3).reshape(k * k, k * k)


def annihilation_matrix(i, n_spin_orbitals):
    """Dense a_i over the occupation-number basis (bit i set = occupied)."""
    dim = 1 << n_spin_orbitals
    m = np.zeros((dim, dim))
    for state in range(dim):
        if state >> i & 1:
            below = bin(state & ((1 << i) - 1)).count("1")
            m[state ^ (1 << i), state] = -1.0 if below % 2 else 1.0
    return m


def embed(k):
    """Fock-space index of each CI index a*K + b: alpha bit a, beta bit K + b."""
    return [(1 << a) | (1 << (k + b)) for a in range(k) for b in range(k)]


def leading_pair_state(occupations):
    """The renormalised state sqrt(p1)|00> + sqrt(p2)|11> of the two leading natural
    orbitals, p_k = n_k / (n_1 + n_2) from descending occupations, and (p1, p2).

    In the C[a, b] picture the alpha and the beta electron are two parties, and the
    Schmidt decomposition of C pairs their natural orbitals; the closed-shell spin
    factor is a singlet for HF too, so only the orbital part tells HF from CI."""
    p = occupations[:2] / (occupations[0] + occupations[1])
    psi = np.zeros(4)
    psi[0], psi[3] = np.sqrt(p)
    return TwoQubitState(np.outer(psi, psi)), p


def fock_by_einsum(hcore, d, eri):
    """F = Hcore + J - K/2, with J_mn = sum_ls D_ls (mn|sl) and K_mn = sum_ls D_ls (ml|sn)."""
    j = np.einsum("ls,mnsl->mn", d, eri)
    k = np.einsum("ls,mlsn->mn", d, eri)
    return hcore + j - 0.5 * k


def hermite_coulomb_by_entry(lmax, alpha, pq):
    """{(t, u, v): R_tuv} for t+u+v <= lmax, each entry from the ones below it; pq = P - Q."""
    fn = boys_table(lmax, alpha * sum(c * c for c in pq))
    r = {(0, 0, 0): np.stack([(-2.0 * alpha) ** n * fn[n] for n in range(lmax + 1)])}
    for length in range(1, lmax + 1):
        for t in range(length + 1):
            for u in range(length + 1 - t):
                tuv = (t, u, length - t - u)
                d = 0 if t else 1 if u else 2  # recur on the first nonzero index
                lower = [tuv[:d] + (tuv[d] - s,) + tuv[d + 1:] for s in (1, 2)]
                r[tuv] = pq[d] * r[lower[0]][1:]
                if tuv[d] > 1:
                    r[tuv] = r[tuv] + (tuv[d] - 1) * r[lower[1]][1:-1]
    return {tuv: val[0] for tuv, val in r.items()}


def eri_block_by_term_pairs(bra, ket):
    """`h2ent.integrals._eri_contract` of two `_ShellPairs` on the R_tuv of their
    `_eri_request`, one Hermite term pair at a time: the shell-pair combos (bra <= ket
    when `bra is ket`) and their bra-major distribution quartets are listed by loops,
    and each combo's sum lands in the block by a loop. An s-s shell pair's combo with
    itself lists its quartets with i <= j, those with i < j weighted 2."""
    combos = [(mb, mk) for mb in range(len(bra.start))
              for mk in range(mb if bra is ket else 0, len(ket.start))]
    first, qb, qk, weight = [], [], [], []
    for mb, mk in combos:
        first.append(len(qb))
        triangle = bra is ket and bra.l == 0 and mb == mk
        for i in range(bra.start[mb], bra.start[mb] + bra.count[mb]):
            for j in range(ket.start[mk], ket.start[mk] + ket.count[mk]):
                if not triangle or i <= j:
                    qb.append(i)
                    qk.append(j)
                    weight.append(2.0 if triangle and i < j else 1.0)
    pb, pk = bra.p[qb], ket.p[qk]
    rts = hermite_coulomb_by_entry(bra.l + ket.l, pb * pk / (pb + pk),
                                   bra.center[..., qb] - ket.center[..., qk])
    ek = [(-1.0) ** sum(key) * e[..., qk] for e, key in zip(ket.e, ket.tuv)]
    acc = 0.0
    for eb, (t, u, v) in zip(bra.e, bra.tuv):
        w = sum(e * rts[(t + s, u + r, v + q)] for e, (s, r, q) in zip(ek, ket.tuv))
        acc = acc + eb[..., qb][:, None] * w
    acc = acc * (2.0 * np.pi ** 2.5 * np.array(weight) / (pb * pk * np.sqrt(pb + pk)))
    sums = np.add.reduceat(acc, first, axis=-1)
    out = np.zeros((acc.shape[2], len(bra.start), len(bra.ij), len(ket.start), len(ket.ij)))
    for n, (mb, mk) in enumerate(combos):
        out[:, mb, :, mk] = sums[..., n].transpose(2, 0, 1)
    return out.reshape(out.shape[0], len(bra.start) * len(bra.ij), -1)


_HERMITE_4 = np.polynomial.hermite.hermgauss(4)
_LEGENDRE_64 = np.polynomial.legendre.leggauss(64)


def eri_by_gaussian_transform(quartets, chunk=256):
    """(fg|hk) for each (f, g, h, k) of contracted s/p functions, by Boys' transform
    1/r12 = (2/sqrt(pi)) int_0^inf exp(-u^2 r12^2) du (Proc. R. Soc. A 200, 542 (1950)).

    For each u a primitive quartet's integrand is a product over the axes of one 2-D
    Gaussian integral over (x1, x2). After the Gaussian products and completing the
    square, exp(-p (x1-P)^2 - q (x2-Q)^2 - u^2 (x1-x2)^2) is exp(-|y|^2) in
    y = L^T (x - mu), M = L L^T, times exp(-rho t^2 (P-Q)^2); the polynomial left has
    degree <= 4 in each y, so a 4 x 4 Gauss-Hermite rule is exact. u^2 = rho t^2 / (1 - t^2),
    rho = pq / (p + q), maps u to t in [0, 1). A 64-node Gauss-Legendre rule takes t over
    [0, b], b = min(1, 6.5 / sqrt(rho |P-Q|^2)), past which exp(-rho |P-Q|^2 t^2) < 5e-19,
    as `nuclear_by_gaussian_transform` does, so the rule resolves that factor at large
    separations too."""
    seg, coef, expo, center, power = [], [], [], [], []
    for n, funcs in enumerate(quartets):
        for prims in itertools.product(*(zip(f.exponents, f.coefficients) for f in funcs)):
            seg.append(n)
            coef.append(np.prod([c for _, c in prims]))
            expo.append([a for a, _ in prims])
            center.append([f.center for f in funcs])
            power.append([f.powers for f in funcs])
    expo, center, power = np.array(expo), np.array(center, dtype=float), np.array(power)
    values = np.concatenate([_transform_primitives(expo[n:n + chunk], center[n:n + chunk],
                                                   power[n:n + chunk])
                             for n in range(0, len(seg), chunk)])
    return np.bincount(seg, weights=np.array(coef) * values, minlength=len(quartets))


def _transform_primitives(expo, center, power):
    """(ab|cd) of unnormalised Cartesian primitives: expo (N, 4), center (N, 4, 3) and
    power (N, 4, 3), the last two in (a, b, c, d) order; arrays run over (N, t, axis) and
    then the Gauss-Hermite nodes (y1, y2)."""
    s, ws = (_LEGENDRE_64[0] + 1.0) / 2.0, _LEGENDRE_64[1] / 2.0
    y, wy = _HERMITE_4
    a, b, c, d = expo.T
    ca, cb, cc, cd = center.transpose(1, 0, 2)
    p, q = a + b, c + d
    rho = p * q / (p + q)
    pc = (a[:, None] * ca + b[:, None] * cb) / p[:, None]
    qc = (c[:, None] * cc + d[:, None] * cd) / q[:, None]
    top = np.minimum(1.0, 6.5 / np.sqrt(np.maximum(rho * ((pc - qc) ** 2).sum(1), 1e-300)))
    t, wt = top[:, None] * s, top[:, None] * ws
    k = np.exp(-(a * b / p) * ((ca - cb) ** 2).sum(1) - (c * d / q) * ((cc - cd) ** 2).sum(1))
    p, q = p[:, None], q[:, None]
    u2 = rho[:, None] * t ** 2 / (1.0 - t ** 2)
    l11 = np.sqrt(p + u2)
    l21 = -u2 / l11
    l22 = np.sqrt(q + p * u2 / (p + u2))  # sqrt(q + u^2 - l21^2), without the cancellation
    det = p * q + (p + q) * u2
    mu1 = ((q + u2) * p)[..., None] * pc[:, None] + (u2 * q)[..., None] * qc[:, None]
    mu2 = (u2 * p)[..., None] * pc[:, None] + ((p + u2) * q)[..., None] * qc[:, None]
    mu1, mu2 = (mu / det[..., None] for mu in (mu1, mu2))
    node = (..., None, None, None)
    x1 = mu1[..., None, None] + (1.0 / l11)[node] * y[:, None] - (l21 / (l11 * l22))[node] * y
    x2 = mu2[..., None, None] + (1.0 / l22)[node] * y
    poly, at = 1.0, (slice(None), None, slice(None), None, None)  # (N, 3) to (N, t, axis, y1, y2)
    for x, n in ((x1, 0), (x1, 1), (x2, 2), (x2, 3)):
        poly = poly * np.where(power[:, n][at] > 0, x - center[:, n][at], 1.0)
    axes = np.einsum("ntxij,i,j->ntx", poly, wy, wy) / (l11 * l22)[..., None]
    integrand = (2.0 / np.sqrt(np.pi) * np.sqrt(rho)[:, None] * (1.0 - t ** 2) ** -1.5
                 * np.exp(-rho[:, None] * t ** 2 * ((pc - qc) ** 2).sum(1)[:, None])
                 * axes.prod(-1))
    return k * (integrand * wt).sum(-1)


def nuclear_by_gaussian_transform(pairs, mol):
    """-sum_C Z_C <f| 1/|r - C| |g> for each (f, g) of contracted s/p functions, over the
    nuclei of mol's first geometry, by Boys' transform of 1/|r - C| as in
    `eri_by_gaussian_transform`.

    For each u the integrand of a primitive pair is a product over the axes of one 1-D
    Gaussian integral: exp(-p (x-P)^2 - u^2 (x-C)^2) is exp(-(p + u^2)(x - M)^2) times
    exp(-p t^2 (P-C)^2), with u^2 = p t^2 / (1 - t^2) and M = P + t^2 (C - P); a 4-node
    Gauss-Hermite rule takes each axis exactly. A 64-node Gauss-Legendre rule takes t over
    [0, b], b = min(1, 6.5 / sqrt(p |P-C|^2)), past which exp(-p |P-C|^2 t^2) < 5e-19, so
    the rule resolves that factor for a tight pair far from a nucleus too."""
    xyz, charges = np.asarray(mol.xyz[0], dtype=float), np.asarray(mol.charges, dtype=float)
    seg, coef, expo, center, power = [], [], [], [], []
    for n, (f, g) in enumerate(pairs):
        for (a, ca), (b, cb) in itertools.product(zip(f.exponents, f.coefficients),
                                                  zip(g.exponents, g.coefficients)):
            for z, c in zip(charges, xyz):
                seg.append(n)
                coef.append(-z * ca * cb)
                expo.append([a, b])
                center.append([f.center, g.center, c])
                power.append([f.powers, g.powers])
    values = _transform_nuclear(np.array(expo), np.array(center, dtype=float),
                                np.array(power))
    return np.bincount(seg, weights=np.array(coef) * values, minlength=len(pairs))


def _transform_nuclear(expo, center, power):
    """<a| 1/|r - C| |b> of unnormalised Cartesian primitives: expo (N, 2), center (N, 3, 3)
    in (A, B, C) order and power (N, 2, 3); arrays run over (N, t, axis, Gauss-Hermite node)."""
    s, ws = (_LEGENDRE_64[0] + 1.0) / 2.0, _LEGENDRE_64[1] / 2.0
    y, wy = _HERMITE_4
    a, b = expo.T
    ca, cb, cc = center.transpose(1, 0, 2)
    p = a + b
    pc = (a[:, None] * ca + b[:, None] * cb) / p[:, None]
    k = np.exp(-(a * b / p) * ((ca - cb) ** 2).sum(1))
    x = p * ((pc - cc) ** 2).sum(1)
    top = np.minimum(1.0, 6.5 / np.sqrt(np.maximum(x, 1e-300)))
    t, wt = top[:, None] * s, top[:, None] * ws
    mid = pc[:, None] + (t ** 2)[..., None] * (cc - pc)[:, None]
    node = mid[..., None] + np.sqrt((1.0 - t ** 2) / p[:, None])[..., None, None] * y
    poly, at = 1.0, (slice(None), None, slice(None), None)  # (N, 3) to (N, t, axis, y)
    for c, n in ((ca, 0), (cb, 1)):
        poly = poly * np.where(power[:, n][at] > 0, node - c[at], 1.0)
    axes = (poly * wy).sum(-1)
    integrand = np.exp(-x[:, None] * t ** 2) * axes.prod(-1)
    return k * 2.0 / (np.sqrt(np.pi) * p) * (integrand * wt).sum(-1)
