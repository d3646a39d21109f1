"""Analytic one- and two-electron integrals over contracted Cartesian Gaussians.

McMurchie-Davidson Hermite expansion with a Boys-function kernel shared by the
nuclear-attraction and electron-repulsion integrals, batched by shell-pair
class, with each geometry's nuclear repulsion beside them in the IntegralSet.
Everything is in Hartree atomic units.

The Boys function is tabulated (Helgaker, Jorgensen & Olsen, Molecular
Electronic-Structure Theory, sec. 9.8.2): F_m on the grid x = 0, 0.05, ...
is built at import. Below x = 36 a 7-term Taylor step from the nearest grid
point gives the top order and downward recursion the rest; from x = 36 on,
F_0 = sqrt(pi/x)/2 and upward recursion.

Every kernel is a whole-array pass over all geometries of a batch. `boys_table`
splits its arguments at the switch by flat index and reads the Taylor rows with
one `take`. `_hermite_coulomb_all` builds R_tuv one t+u+v level at a time from
index tables. `compute_all` checks inversion symmetry once, on the stacked matrices.
Each element meets the same operations in the same order in any batch, so a
geometry's integrals are its one-point values bit for bit. `_exp` runs numpy's
exp in place, where it takes one loop at every array size; do not swap it for an
out-of-place call, which may round differently by size.

The Coulomb kernels compute each primitive quartet once up to the permutations that
map an integral onto itself: `_ShellPairs` merges the (i, j) and (j, i) primitive pairs
of a shell paired with itself into one distribution, and `_quartets` lists only the
canonical combos of a diagonal class block. In an s-s block a shell pair's combo with
itself keeps only the canonical triangle of its distribution quartets, (q1|q2) and
(q2|q1) being one value there, and `_eri_contract` weights the off-diagonal ones by 2.
A p-type combo with itself keeps both orientations: (q1|q2) of component pairs (a, b)
is (q2|q1) of (b, a), another entry of the block.

`compute_all` collects the R_tuv requests of every class's nuclear attraction and
every class-pair block's ERIs and `_coulomb` serves them with one Boys/R_tuv pass per
t+u+v limit, on the requests' arguments put end to end; every step of the pass is
elementwise, so a request's values do not depend on its company. A quartet's bra is
the pair with the larger `_pair_key`; `compute_all` lays its rows out in falling key
order and reads every quartet from the upper triangle, the earlier row first. The
`eri` wrapper orders its pairs by the same key, with a center in place of its atom's
index, and takes one pair as both bra and ket when the keys are equal, and so
computes a quartet as `compute_all` does, bit for bit, when the atoms are listed in
ascending coordinate order, as `h2` lists them.
"""

from typing import NamedTuple

import numpy as np

from .basis import CARTESIAN_COMPONENTS, build_ao_basis
from .errors import SymmetryError
from .molecule import nuclear_repulsion

_BOYS_SWITCH = 36.0  # F_0 = sqrt(pi/x)/2 from here on drops erf(sqrt(x)): 1 - erf(6) ~ 2e-17
_BOYS_STEP = 0.05
_BOYS_MMAX = 16
_TAYLOR = 7  # terms; the first one left out, F_{m+7} 0.025^7 / 7!, is below 1e-16


def _exp(x):
    # in place, numpy runs one vector kernel at every size: batch-independent values
    return np.exp(x, out=x)


def _boys_grid():
    """F_m(x_k) for m < _BOYS_MMAX + _TAYLOR and x_k up to one step past the switch: the
    top order by its series e^-x sum_k (2x)^k / ((2m+1)(2m+3)...(2m+2k+1)), the rest downward."""
    x = np.arange(round(_BOYS_SWITCH / _BOYS_STEP) + 2) * _BOYS_STEP
    top = _BOYS_MMAX + _TAYLOR - 1
    term = np.full_like(x, 1.0 / (2 * top + 1))
    total, k = term.copy(), top
    while np.any(term > 1e-17 * total):
        k += 1
        term *= 2.0 * x / (2 * k + 1)
        total += term
    expx = _exp(-x)
    grid = np.empty((top + 1, x.size))
    grid[top] = expx * total
    for m in range(top, 0, -1):
        grid[m - 1] = (2.0 * x * grid[m] + expx) / (2 * m - 1)
    return grid


_BOYS_GRID = _boys_grid()


def boys_table(mmax, x):
    """Boys functions F_0..F_mmax (mmax <= 16) at x >= 0 (array ok), shape (mmax+1, ...)."""
    if mmax > _BOYS_MMAX:
        raise ValueError(f"Boys order {mmax} is above the tabulated {_BOYS_MMAX}")
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    out = np.empty((mmax + 1, flat.size))
    small = flat < _BOYS_SWITCH
    idx = np.flatnonzero(small)
    if idx.size:
        xs = flat.take(idx)
        if xs.min() < 0:
            raise ValueError(f"Boys function argument must be non-negative, got {xs.min()}")
        k = np.rint(xs / _BOYS_STEP).astype(np.intp)
        d = k * _BOYS_STEP - xs  # F_m' = -F_{m+1}, so the step is -(x - x_k)
        grid = _BOYS_GRID[mmax:mmax + _TAYLOR].take(k, axis=1)  # F_mmax.. at the x_k
        fm = grid[-1]  # Horner in place: grid is take's own copy
        for j in range(_TAYLOR - 1, 0, -1):
            fm *= d
            fm /= j
            fm += grid[j - 1]
        col = np.empty((mmax + 1, idx.size))
        col[mmax] = fm
        if mmax:  # e^-x and 2x feed the recursion alone
            expx, x2 = _exp(-xs), 2.0 * xs
        for m in range(mmax, 0, -1):
            f = np.multiply(x2, col[m], out=col[m - 1])
            f += expx
            f /= 2 * m - 1
        out[:, idx] = col
    idx = np.flatnonzero(~small)
    if idx.size:
        xl = flat.take(idx)
        col = np.empty((mmax + 1, idx.size))
        col[0] = 0.5 * np.sqrt(np.pi / xl)
        if mmax:
            expx, x2 = _exp(-xl), 2.0 * xl
        for m in range(mmax):
            f = np.multiply(2 * m + 1, col[m], out=col[m + 1])
            f -= expx
            f /= x2
        out[:, idx] = col
    return out.reshape((mmax + 1,) + x.shape)


_LMAX = 12  # t+u+v of R_tuv: 4 in s/p bases, 12 for four functions of powers <= 1 per axis
_TUV = [(t, u, n - t - u)
        for n in range(_LMAX + 1) for t in range(n + 1) for u in range(n + 1 - t)]
_TUV_ROW = np.zeros((_LMAX + 1,) * 3, dtype=np.intp)  # the row of R_tuv in `_TUV` order
_TUV_ROW[tuple(np.array(_TUV).T)] = np.arange(len(_TUV))


def _recursion_levels():
    """For each t+u+v level L >= 1 and each of its tuv: the axis d of the recursion (the
    first nonzero index), the row of tuv - e_d in level L-1, and, where tuv_d > 1, the row
    of tuv - 2 e_d in level L-2 with its factor tuv_d - 1; rows count from a level's start."""
    start = [n * (n + 1) * (n + 2) // 6 for n in range(_LMAX + 2)]  # tuv with t+u+v < n
    levels = []
    for n in range(1, _LMAX + 1):
        tuvs = np.array(_TUV[start[n]:start[n + 1]])
        d = np.argmax(tuvs > 0, axis=1)
        step = np.eye(3, dtype=np.intp)[d]
        high = np.flatnonzero(tuvs[np.arange(len(d)), d] > 1)
        low2 = tuvs[high] - 2 * step[high]
        levels.append((d, _TUV_ROW[tuple((tuvs - step).T)] - start[n - 1], high,
                       _TUV_ROW[tuple(low2.T)] - start[max(n - 2, 0)],
                       tuvs[high, d[high]] - 1.0))
    return levels


_LEVELS = _recursion_levels()


def _hermite_coulomb_all(lmax, alpha, pq):
    """R_tuv for t+u+v <= lmax (lmax <= 12), stacked in `_TUV` order; pq = P - Q, shape
    (3, ...), with alpha broadcasting into its other axes.

    Built one t+u+v level at a time, each level an array of R^n_tuv, n <= lmax - L,
    for all its tuv: R^n_tuv = pq_d R^(n+1)_(tuv-e_d) + (tuv_d - 1) R^(n+1)_(tuv-2e_d).
    Level 0 is R^n_000 = (-2 alpha)^n F_n, so at lmax 0 R_000 is the Boys row itself."""
    if lmax > _LMAX:
        raise ValueError(f"R_tuv order {lmax} is above the tabulated {_LMAX}")
    fn = boys_table(lmax, alpha * (pq[0] * pq[0] + pq[1] * pq[1] + pq[2] * pq[2]))
    if not lmax:
        return fn
    alpha = -2.0 * alpha
    for n in range(1, lmax + 1):
        fn[n] *= alpha ** n
    levels = [fn[None]]
    for d, low1, high, low2, factor in _LEVELS[:lmax]:
        r = pq[d][:, None] * levels[-1][low1, 1:]
        if high.size:
            r[high] += factor.reshape((-1,) + (1,) * (r.ndim - 1)) * levels[-2][low2, 1:-1]
        levels.append(r)
    return np.concatenate([level[:, 0] for level in levels])


def _coulomb(*requests):
    """R_tuv for Coulomb requests, with one `_hermite_coulomb_all` pass per t+u+v limit.

    A request is (lmax, alpha, pq): alpha of any shape and P - Q of (3,) + that shape.
    The passes run in falling lmax, each on its requests' arguments end to end. Returns
    each request's R_tuv, (tuv,) + alpha's shape, a view of its pass."""
    out = [None] * len(requests)
    for lmax in sorted({req[0] for req in requests}, reverse=True):
        mine = [n for n, req in enumerate(requests) if req[0] == lmax]
        alpha = np.concatenate([requests[n][1] for n in mine], axis=None)  # ravelled
        pq = np.concatenate([requests[n][2].reshape(3, -1) for n in mine], axis=1)
        rts, end = _hermite_coulomb_all(lmax, alpha, pq), 0
        for n in mine:
            start, end = end, end + requests[n][1].size
            out[n] = rts[:, start:end].reshape((-1,) + requests[n][1].shape)
    return out


class _ShellPairs:
    """The primitive pairs of shell pairs of one angular class in G geometries, stacked.

    A shell is (l, key, exponents, coefficients, Cartesian components, (3, G) centers).
    The overlap and kinetic energy run over every primitive pair, member (shell pair)
    after member from `pair_start`. The Coulomb kernels run over distributions. In a
    twin, a shell paired with itself, both centers coincide, so (i, j) and (j, i) have
    the same p and P and, E^{ij}_t depending on p alone, the same coefficients: they are
    one distribution, kept once with their coefficients summed, twice either. So n(n+1)/2
    distributions stand for n^2 pairs; member m's are `count[m]` from `start[m]`.
    `e[h, c, g, q]` is the coefficient of Hermite term `tuv[h]` of component pair `ij[c]`
    and distribution q in geometry g, weights included, for the terms not zero throughout
    (they would add exact zeros); `e_ket` is e times (-1)^(t+u+v). Integrals are (ij,
    geometry, shell pair) arrays."""

    def __init__(self, pairs):
        (la, *_, comps_a, _), (lb, *_, comps_b, _) = pairs[0]
        self.ij = [(i, j) for i in range(len(comps_a)) for j in range(len(comps_b))]
        # w: 0 for (i, j) with i > j in a twin, 2 for i < j (the distribution of both), else 1
        twin = [sa[:4] == sb[:4] for sa, sb in pairs]
        a, b, self.coef, w = np.array([(x, y, cx * cy, 1 + tw * ((i < j) - (i > j)))
                                       for (sa, sb), tw in zip(pairs, twin)
                                       for i, (x, cx) in enumerate(zip(sa[2], sa[3]))
                                       for j, (y, cy) in enumerate(zip(sb[2], sb[3]))]).T
        sizes = [len(sa[2]) * len(sb[2]) for sa, sb in pairs]
        ra, rb = (np.repeat(np.stack([pair[k][5] for pair in pairs], -1), sizes, -1)
                  for k in (0, 1))
        p, self.beta, self.l = a + b, b, la + lb
        # on one atom P is that atom exactly: (a A + b A) / p would round, and P - A ~ eps |A|
        # breaks the inversion symmetry to 1e-10 from R ~ 1e6 Bohr on
        center = np.where(ra == rb, ra, (a * ra + b * rb) / p)
        self.cube = np.pi / p * np.sqrt(np.pi / p)  # (pi/p)^(3/2)
        self.pair_start = np.cumsum(sizes) - sizes
        self.ia, self.jb = map(np.array, zip(*[(comps_a[i], comps_b[j]) for i, j in self.ij]))
        # E^{ij}_t of each dimension by the McMurchie-Davidson recurrences, up in i
        # then j, with j two higher for the kinetic energy; the last t slot stays zero
        imax, jmax, q, mu = self.ia.max(), self.jb.max() + 2, ra - rb, a * b / p
        self.e1 = e = np.zeros((imax + 1, jmax + 1, imax + jmax + 2) + q.shape)
        e[0, 0, 0] = _exp(-mu * q * q)
        up = np.arange(1.0, imax + jmax + 2)[:, None, None, None]
        for i in range(imax + 1):
            for j in range(jmax + 1):
                if i or j:
                    prev, x = (e[i, j - 1], mu * q / b) if j else (e[i - 1, 0], -mu * q / a)
                    e[i, j, :-1] = x * prev[:-1] + up * prev[1:]
                    e[i, j, 1:-1] += prev[:-2] / (2.0 * p)
        herm = [(t, u, v) for t in range(self.l + 1) for u in range(self.l + 1 - t)
                for v in range(self.l + 1 - t - u)]
        tuv = np.minimum(herm, e.shape[2] - 1)  # t > i + j reads zero
        g = e[self.ia, self.jb, tuv[:, None], np.arange(3)]
        e = self.coef * g[:, :, 0] * g[:, :, 1] * g[:, :, 2]
        self.s = e[0] * self.cube
        keep = np.flatnonzero(w)
        self.p, self.center, e = p[keep], center[..., keep], e[..., keep] * w[keep]
        self.start = np.searchsorted(keep, self.pair_start)
        self.count = np.append(self.start[1:], len(keep)) - self.start
        terms = [h for h in range(len(herm)) if not h or e[h].any()]
        self.tuv, self.e = np.array(herm)[terms], e[terms]
        self.e_ket = self.e * ((-1.0) ** self.tuv.sum(axis=1))[:, None, None, None]

    def contract(self, x):
        return np.add.reduceat(x, self.pair_start, axis=-1)

    def overlap(self):
        return self.contract(self.s)

    def kinetic(self):
        """-1/2 <a|del^2|b> by the exponent-shift relations on 1-D overlaps."""
        e, d, j = self.e1, np.arange(3), self.jb[..., None, None]
        s = e[self.ia, self.jb, 0, d]
        k = (self.beta * (2 * j + 1) * s - 2.0 * self.beta ** 2 * e[self.ia, self.jb + 2, 0, d]
             - 0.5 * j * (j - 1) * e[self.ia, np.maximum(self.jb - 2, 0), 0, d])
        cross = k[:, 0] * s[:, 1] * s[:, 2] + s[:, 0] * k[:, 1] * s[:, 2] \
            + s[:, 0] * s[:, 1] * k[:, 2]
        return self.contract(self.coef * self.cube * cross)

    def nuclear_request(self, xyz):
        """The Coulomb request of `nuclear` for the nuclei at xyz (3, atoms, G): alpha = p
        and P - C, atom x geometry x distribution."""
        pc = self.center[:, None] - xyz[..., None]
        return self.l, np.broadcast_to(self.p, pc.shape[1:]), pc

    def nuclear(self, rts, charges):
        """-sum_C Z_C <a| 1/|r-R_C| |b> in each geometry from the R_tuv of
        `nuclear_request`, the nuclei's charges in atom order."""
        acc = sum(e[:, None] * rts[row] for e, row in zip(self.e, _TUV_ROW[tuple(self.tuv.T)]))
        v = sum(-z * acc[:, n] for n, z in enumerate(charges))
        return np.add.reduceat(2.0 * np.pi / self.p * v, self.start, axis=-1)


def _quartets(bra, ket):
    """The distribution quartets of the shell-pair combos of two classes, in one flat list.

    A combo is a (bra member, ket member): in a diagonal block (`bra is ket`) those with
    bra <= ket in member order, in which shell-pair keys fall; elsewhere all of them. A
    combo's quartets are bra-major. In an s-s diagonal block a shell pair's combo with
    itself keeps those with bra <= ket distribution, weight 2 off the diagonal; a p-type
    one keeps both orientations (module docstring). Returns the combos' members, each
    combo's first quartet, each quartet's bra and ket distribution, and the weights (1
    or one per quartet)."""
    members = np.arange(len(bra.count))
    mb, mk = (np.nonzero(members[:, None] <= members) if bra is ket else
              np.divmod(np.arange(len(bra.count) * len(ket.count)), len(ket.count)))
    width = ket.count[mk]
    size = bra.count[mb] * width
    first = np.cumsum(size) - size
    at = np.repeat(np.array([first, width, bra.start[mb], ket.start[mk]]), size, axis=1)
    qb, qk = np.divmod(np.arange(at.shape[1]) - at[0], at[1])
    qb, qk, weight = at[2] + qb, at[3] + qk, 1
    if bra is ket and not bra.l:
        own = np.repeat(mb == mk, size)
        keep = ~own | (qb <= qk)
        size = np.add.reduceat(keep, first)
        first = np.cumsum(size) - size
        qb, qk, weight = qb[keep], qk[keep], np.where(own & (qb < qk), 2.0, 1.0)[keep]
    return mb, mk, first, qb, qk, weight


def _eri_request(bra, ket):
    """`_quartets(bra, ket)` and the Coulomb request of their R_tuv: alpha = pq/(p + q)
    and P - Q, geometry x quartet."""
    quartets = _quartets(bra, ket)
    qb, qk = quartets[3:5]
    pb, pk = bra.p[qb], ket.p[qk]
    pq = bra.center[..., qb] - ket.center[..., qk]
    return quartets, (bra.l + ket.l, np.broadcast_to(pb * pk / (pb + pk), pq.shape[1:]), pq)


def _eri_contract(bra, ket, quartets, rts):
    """(bra|ket) for the shell-pair combos of `quartets` and all their component pairs,
    from the R_tuv of `_eri_request`, as geometry x row x column, a row per (shell pair,
    component pair); the combos not computed read zero.

    R_(tuv+t'u'v') is gathered for every (ket term, bra term) at once, contracted with the
    ket and then the bra coefficients, and each combo's quartets are summed in one
    `reduceat`, each quartet scaled by its weight in the prefactor (a factor 2 is exact).
    Python's `sum` over a leading axis adds term after term, whatever the other axes'
    lengths; numpy's sum turns pairwise when they are all 1."""
    mb, mk, first, qb, qk, weight = quartets
    pb, pk = bra.p[qb], ket.p[qk]
    rt = rts[_TUV_ROW[tuple((ket.tuv[:, None] + bra.tuv).transpose(2, 0, 1))]]
    w = sum(ket.e_ket[..., qk][:, None] * rt[:, :, None])
    acc = sum(bra.e[..., qb][:, :, None] * w[:, None])
    acc = acc * (2.0 * np.pi ** 2.5 * weight / (pb * pk * np.sqrt(pb + pk)))
    out = np.zeros((acc.shape[2], len(bra.start), len(bra.ij), len(ket.start), len(ket.ij)))
    out[:, mb, :, mk] = np.add.reduceat(acc, first, axis=-1).transpose(3, 2, 0, 1)
    return out.reshape(out.shape[0], len(bra.start) * len(bra.ij), -1)


def _function_key(shell):
    """Functions are ordered by (l, center, exponents, coefficients, powers); `shell`
    holds the one function."""
    return shell[:4] + shell[4]


def _pair_key(kf, kg):
    """Pairs (kf >= kg) are ordered by angular class, shell pair, then components; the
    larger is the bra, so a combo of two shell pairs has one orientation."""
    return kf[0], kg[0], kf[:4], kg[:4], kf[4], kg[4]


def _pair(f, g):
    """(pair key, one-pair batch) of two functions, in `compute_all`'s order."""
    sf, sg = sorted(((sum(h.powers), tuple(h.center), tuple(h.exponents),
                      tuple(h.coefficients), (tuple(h.powers),), np.reshape(h.center, (3, 1)))
                     for h in (f, g)), key=_function_key, reverse=True)
    return _pair_key(_function_key(sf), _function_key(sg)), _ShellPairs([(sf, sg)])


def overlap(f, g):
    """<f|g> for contracted functions."""
    return float(_pair(f, g)[1].overlap()[0, 0, 0])


def kinetic(f, g):
    """-1/2 <f|del^2|g> via exponent-shift relations on overlaps."""
    return float(_pair(f, g)[1].kinetic()[0, 0, 0])


def nuclear_attraction(f, g, mol):
    """-sum_A Z_A <f| 1/|r-R_A| |g> over the nuclei of mol."""
    pair = _pair(f, g)[1]
    return float(pair.nuclear(*_coulomb(pair.nuclear_request(mol.xyz.T)), mol.charges)[0, 0, 0])


def eri(f, g, h, k):
    """Two-electron repulsion integral (fg|hk) in chemists' notation."""
    pairs = dict([_pair(f, g), _pair(h, k)])  # equal keys: one pair, combined with itself
    keys = sorted(pairs, reverse=True)
    bra, ket = pairs[keys[0]], pairs[keys[-1]]
    quartets, request = _eri_request(bra, ket)
    return float(_eri_contract(bra, ket, quartets, *_coulomb(request))[0, 0, 0])


class IntegralSet(NamedTuple):
    """The integrals of a batch of G geometries, each array with the batch axis first:
    (G, K, K) matrices, (G, K, K, K, K) ERIs in chemists' order, and e_nuclear."""
    overlap: np.ndarray
    kinetic: np.ndarray
    nuclear: np.ndarray
    hcore: np.ndarray      # kinetic + nuclear
    eri: np.ndarray
    inversion: np.ndarray  # signed AO permutation P of r -> -r about the molecular centre;
                           # the layout's own, one matrix broadcast over the batch
    e_nuclear: np.ndarray  # (G,) nuclear repulsion, Hartree, which later stages read here


def compute_all(basis, mols):
    """All one- and two-electron integrals of a batch of geometries in a loaded basis.

    mols is a Molecule, a batch of geometries. The AO layout, shells ordered by (l,
    atom, exponents, coefficients), is built once for the batch. One pass with a
    geometry axis on every primitive array gives one IntegralSet, with the nuclear
    repulsion; each geometry's values are bit for bit its one-point result.
    """
    ao = build_ao_basis(mols, basis)
    n_atoms = len(mols.elements)
    if n_atoms > 2:
        raise SymmetryError(f"{n_atoms} atoms: the engine handles one or two")
    xyz = mols.xyz.T  # (3, atoms, G)
    n_geom = xyz.shape[-1]
    shells = [(sh.angular_momentum, atom, sh.exponents, sh.coefficients,
               CARTESIAN_COMPONENTS[sh.angular_momentum], xyz[:, atom])
              for atom, sh in ao.shells]
    # a function's rank: its shell's place in falling key order, then its component's,
    # so that the lower rank of a pair is its larger function, which comes first
    order = sorted(range(len(shells)), key=lambda n: shells[n][:4], reverse=True)
    size = [len(shells[n][4]) for n in order]
    first = np.cumsum(size) - size
    rank = np.concatenate([first[order.index(n)] + np.arange(len(sh[4]))
                           for n, sh in enumerate(shells)])  # in AO order
    shells = [shells[n] for n in order]
    pairs = [(x, y) for x in range(len(shells)) for y in range(x, len(shells))]
    batches, offsets, row = [], [0], np.zeros((len(rank),) * 2, dtype=np.intp)
    for cls in sorted({(shells[x][0], shells[y][0]) for x, y in pairs}, reverse=True):
        x, y = np.array([(i, j) for i, j in pairs if (shells[i][0], shells[j][0]) == cls]).T
        batches.append(_ShellPairs([(shells[i], shells[j]) for i, j in zip(x, y)]))
        # a class's rows: shell pair after shell pair, each with its component pairs;
        # row[f, g] is the row of the functions ranked f and g
        na, nb = size[x[0]], size[y[0]]
        n = len(x) * na * nb
        row[first[x][:, None, None] + np.arange(na)[:, None], first[y][:, None, None]
            + np.arange(nb)] = offsets[-1] + np.arange(n).reshape(len(x), na, nb)
        offsets.append(offsets[-1] + n)
    # each class's nuclear attraction and each class-pair block's ERIs ask for R_tuv:
    # one Boys/R_tuv pass per t+u+v limit serves them all
    blocks = [(x, y, *_eri_request(bra, ket)) for x, bra in enumerate(batches)
              for y, ket in enumerate(batches[x:], x)]
    rts = _coulomb(*[b.nuclear_request(xyz) for b in batches], *[req for *_, req in blocks])
    s, t, v = (np.concatenate([m.transpose(1, 2, 0).reshape(n_geom, -1) for m in ms], axis=1)
               for ms in zip(*[(b.overlap(), b.kinetic(), b.nuclear(r, mols.charges))
                               for b, r in zip(batches, rts)]))
    g = np.zeros((n_geom, offsets[-1], offsets[-1]))
    for (x, y, quartets, _), r in zip(blocks, rts[len(batches):]):
        g[:, offsets[x]:offsets[x + 1], offsets[y]:offsets[y + 1]] = _eri_contract(
            batches[x], batches[y], quartets, r)
    # every pair and quartet reads the entry computed in its canonical order: the rows
    # fall in `_pair_key` order, so a quartet's bra is the earlier row, and the upper
    # triangle holds every entry computed with it (the lower, a twin's other orientation)
    src = row[np.minimum.outer(rank, rank), np.maximum.outer(rank, rank)]
    # P = D = diag((-1)^l) for one atom, [[0, D], [D, 0]] for two: atom B's
    # functions mirror atom A's in build order
    signs = np.array([(-1.0) ** sum(f.powers) for f in ao.functions])
    n = len(signs)
    p = signs[:, None] * np.eye(n)[np.roll(np.arange(n), n // 2 if n_atoms == 2 else 0)]
    # `take` keeps the batch axis outermost in memory
    s, t, v = (np.take(m, src, axis=1) for m in (s, t, v))
    hcore = t + v
    if any(np.max(np.abs(p @ m @ p.T - m)) > 1e-10 for m in (s, hcore)):
        raise SymmetryError("no inversion symmetry: the engine handles one atom or two "
                            "identical atoms")
    lo, hi = (f(src[:, :, None, None], src) for f in (np.minimum, np.maximum))
    g = np.take(g.reshape(n_geom, -1), lo * offsets[-1] + hi, axis=1)
    return IntegralSet(overlap=s, kinetic=t, nuclear=v, hcore=hcore, eri=g,
                       inversion=np.broadcast_to(p, s.shape), e_nuclear=nuclear_repulsion(mols))
