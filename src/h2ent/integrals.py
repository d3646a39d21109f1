"""Analytic one- and two-electron integrals over contracted Cartesian Gaussians.

McMurchie-Davidson Hermite expansion with a Boys-function kernel shared by the
nuclear-attraction and electron-repulsion integrals, batched by shell-pair
class. Everything is in Hartree atomic units.

The Boys function is tabulated (Helgaker, Jorgensen & Olsen, Molecular
Electronic-Structure Theory, sec. 9.8.2): F_m on the grid x = 0, 0.05, ...
is built at import. Below x = 36 a 7-term Taylor step from the nearest grid
point gives the top order and downward recursion the rest; from x = 36 on,
F_0 = sqrt(pi/x)/2 and upward recursion.

Every kernel is a whole-array pass over all geometries of a batch. `boys_table`
splits its arguments at the switch by flat index and reads each Taylor row with
`take`. `_hermite_coulomb_all` builds R_tuv one t+u+v level at a time from index
tables. `_eri_block` gathers R_tuv for every pair of Hermite terms of two classes
into one array and contracts it with the ket and then the bra coefficients.
`_batch` checks inversion symmetry once, on the stacked matrices. Each element
meets the same operations in the same order in any batch, so a geometry's
integrals are its one-point values bit for bit. `_exp` runs numpy's exp in place,
where it takes one loop at every array size; do not swap it for an
out-of-place call, which may round differently by size.
"""

from dataclasses import dataclass

import numpy as np

from .basis import CARTESIAN_COMPONENTS
from .errors import SymmetryError
from .molecule import Molecule

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
        expx = _exp(-xs)
        if xs.min() < 0:
            raise ValueError(f"Boys function argument must be non-negative, got {xs.min()}")
        k = np.rint(xs / _BOYS_STEP).astype(np.intp)
        d = k * _BOYS_STEP - xs  # F_m' = -F_{m+1}, so the step is -(x - x_k)
        fm = _BOYS_GRID[mmax + _TAYLOR - 1].take(k)
        for j in range(_TAYLOR - 1, 0, -1):
            fm = _BOYS_GRID[mmax + j - 1].take(k) + fm * d / j
        col = np.empty((mmax + 1, idx.size))
        col[mmax] = fm
        for m in range(mmax, 0, -1):
            col[m - 1] = (2.0 * xs * col[m] + expx) / (2 * m - 1)
        out[:, idx] = col
    idx = np.flatnonzero(~small)
    if idx.size:
        xl = flat.take(idx)
        expx = _exp(-xl)
        col = np.empty((mmax + 1, idx.size))
        col[0] = 0.5 * np.sqrt(np.pi / xl)
        for m in range(mmax):
            col[m + 1] = ((2 * m + 1) * col[m] - expx) / (2.0 * xl)
        out[:, idx] = col
    return out.reshape((mmax + 1,) + x.shape)


def boys(m, x):
    """Boys function F_m(x) = integral of t^(2m) exp(-x t^2) over [0, 1]."""
    if m < 0 or int(m) != m:
        raise ValueError(f"order must be a non-negative integer, got {m}")
    return float(boys_table(int(m), float(x))[int(m)])


_LMAX = _BOYS_MMAX  # t+u+v of R_tuv, as far as the Boys table reaches
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
    """R_tuv for t+u+v <= lmax, stacked in `_TUV` order; pq = P - Q, shape (3, ...), with
    alpha broadcasting into its other axes.

    Built one t+u+v level at a time, each level an array of R^n_tuv, n <= lmax - L,
    for all its tuv: R^n_tuv = pq_d R^(n+1)_(tuv-e_d) + (tuv_d - 1) R^(n+1)_(tuv-2e_d)."""
    fn = boys_table(lmax, alpha * sum(c * c for c in pq))
    levels = [np.stack([(-2.0 * alpha) ** n * fn[n] for n in range(lmax + 1)])[None]]
    for d, low1, high, low2, factor in _LEVELS[:lmax]:
        r = pq[d][:, None] * levels[-1][low1, 1:]
        if high.size:
            r[high] += factor.reshape((-1,) + (1,) * (r.ndim - 1)) * levels[-2][low2, 1:-1]
        levels.append(r)
    return np.concatenate([level[:, 0] for level in levels])


class _ShellPairs:
    """The primitive pairs of shell pairs of one angular class in G geometries, stacked.

    A shell is (l, key, exponents, coefficients, Cartesian components, (3, G) centers).
    `e[h, c, g, q]` is Hermite coefficient `herm[h]` of component pair `ij[c]` and
    primitive pair q in geometry g, weights included; integrals are (ij, geometry,
    shell pair) arrays."""

    def __init__(self, pairs):
        (la, *_, comps_a, _), (lb, *_, comps_b, _) = pairs[0]
        self.ij = [(i, j) for i in range(len(comps_a)) for j in range(len(comps_b))]
        a, b, self.coef = np.array([(x, y, cx * cy) for sa, sb in pairs for x, cx in
                                    zip(sa[2], sa[3]) for y, cy in zip(sb[2], sb[3])]).T
        sizes = [len(sa[2]) * len(sb[2]) for sa, sb in pairs]
        ra, rb = (np.repeat(np.stack([pair[k][5] for pair in pairs], -1), sizes, -1)
                  for k in (0, 1))
        self.p, self.beta, self.l = a + b, b, la + lb
        self.center = (a * ra + b * rb) / self.p
        self.cube = np.pi / self.p * np.sqrt(np.pi / self.p)  # (pi/p)^(3/2)
        self.start = np.cumsum([0] + sizes[:-1])
        self.ia, self.jb = map(np.array, zip(*[(comps_a[i], comps_b[j]) for i, j in self.ij]))
        # E^{ij}_t of each dimension by the McMurchie-Davidson recurrences, up in i
        # then j, with j two higher for the kinetic energy; the last t slot stays zero
        imax, jmax, q, mu = self.ia.max(), self.jb.max() + 2, ra - rb, a * b / self.p
        self.e1 = e = np.zeros((imax + 1, jmax + 1, imax + jmax + 2) + q.shape)
        e[0, 0, 0] = _exp(-mu * q * q)
        up = np.arange(1.0, imax + jmax + 2)[:, None, None, None]
        for i in range(imax + 1):
            for j in range(jmax + 1):
                if i or j:
                    prev, x = (e[i, j - 1], mu * q / b) if j else (e[i - 1, 0], -mu * q / a)
                    e[i, j, :-1] = x * prev[:-1] + up * prev[1:]
                    e[i, j, 1:-1] += prev[:-2] / (2.0 * self.p)
        self.herm = [(t, u, v) for t in range(self.l + 1) for u in range(self.l + 1 - t)
                     for v in range(self.l + 1 - t - u)]
        tuv = np.minimum(self.herm, e.shape[2] - 1)  # t > i + j reads zero
        g = e[self.ia, self.jb, tuv[:, None], np.arange(3)]
        self.e = self.coef * g[:, :, 0] * g[:, :, 1] * g[:, :, 2]
        # terms with all-zero coefficients add exact zeros; one-pair batches skip many
        self.terms = [(h, key) for h, key in enumerate(self.herm) if not h or self.e[h].any()]

    def contract(self, x):
        return np.add.reduceat(x, self.start, axis=-1)

    def overlap(self):
        return self.contract(self.e[0] * self.cube)

    def kinetic(self):
        """-1/2 <a|del^2|b> by the exponent-shift relations on 1-D overlaps."""
        e, d, j = self.e1, np.arange(3), self.jb[..., None, None]
        s = e[self.ia, self.jb, 0, d]
        k = (self.beta * (2 * j + 1) * s - 2.0 * self.beta ** 2 * e[self.ia, self.jb + 2, 0, d]
             - 0.5 * j * (j - 1) * e[self.ia, np.maximum(self.jb - 2, 0), 0, d])
        cross = k[:, 0] * s[:, 1] * s[:, 2] + s[:, 0] * k[:, 1] * s[:, 2] \
            + s[:, 0] * s[:, 1] * k[:, 2]
        return self.contract(self.coef * self.cube * cross)

    def nuclear(self, mols):
        """-sum_C Z_C <a| 1/|r-R_C| |b> in each geometry, all nuclei in one Boys/R_tuv pass."""
        xyz = np.array([[at.position for at in mol.atoms] for mol in mols]).T
        charges = -np.array([[at.nuclear_charge for at in mol.atoms] for mol in mols]).T
        rts = _hermite_coulomb_all(self.l, self.p, self.center[:, None] - xyz[..., None])
        acc = sum(self.e[h][:, None] * rts[_TUV_ROW[key]] for h, key in self.terms)
        v = sum(z[:, None] * acc[:, n] for n, z in enumerate(charges))
        return self.contract(2.0 * np.pi / self.p * v)


def _eri_block(bra, ket):
    """(bra|ket) for all shell and component pairs of two classes, as geometry x row x column.

    R_(tuv+t'u'v') is gathered for every (ket term, bra term) at once. Python's `sum` over
    a leading axis adds term after term, whatever the other axes' lengths; numpy's sum
    turns pairwise when they are all 1, as in a one-pair block of single primitives."""
    pb, pk = bra.p[:, None], ket.p[None, :]
    alpha = pb * pk / (pb + pk)
    rts = _hermite_coulomb_all(bra.l + ket.l, alpha,
                               bra.center[..., :, None] - ket.center[..., None, :])
    hb, tuv_b = map(np.array, zip(*bra.terms))
    hk, tuv_k = map(np.array, zip(*ket.terms))
    rt = rts[_TUV_ROW[tuple(np.moveaxis(tuv_k[:, None] + tuv_b, -1, 0))]]
    ek = ket.e[hk] * ((-1.0) ** tuv_k.sum(axis=1))[:, None, None, None]
    w = sum(ek[:, None, :, :, None, :] * rt[:, :, None])
    acc = sum(bra.e[hb][:, :, None, :, :, None] * w[:, None])
    acc = acc * (2.0 * np.pi ** 2.5 / (pb * pk * np.sqrt(pb + pk)))
    out = np.add.reduceat(np.add.reduceat(acc, ket.start, axis=-1), bra.start, axis=-2)
    return out.transpose(2, 0, 3, 1, 4).reshape(out.shape[2], len(bra.ij) * len(bra.start), -1)


def _function_key(shell, comp=0):
    """Functions are ordered by (l, center, exponents, coefficients, powers)."""
    return shell[:4] + (shell[4][comp],)


def _pair_key(kf, kg):
    """Pairs (kf >= kg) are ordered by angular class first; the larger is the bra."""
    return kf[0], kg[0], kf, kg


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
    return float(_pair(f, g)[1].nuclear([mol])[0, 0, 0])


def eri(f, g, h, k):
    """Two-electron repulsion integral (fg|hk) in chemists' notation."""
    (_, bra), (_, ket) = sorted((_pair(f, g), _pair(h, k)), key=lambda kb: kb[0], reverse=True)
    return float(_eri_block(bra, ket)[0, 0, 0])


@dataclass(frozen=True)
class IntegralSet:
    overlap: np.ndarray
    kinetic: np.ndarray
    nuclear: np.ndarray
    eri: np.ndarray
    inversion: np.ndarray  # signed AO permutation P of r -> -r about the molecular centre

    @property
    def hcore(self):
        return self.kinetic + self.nuclear


def _layout(basis):
    """The shells' sort keys in AO order, each center replaced by its rank among the centers."""
    centers = sorted({center for center, _ in basis.shells})
    return tuple((sh.angular_momentum, centers.index(center), sh.exponents, sh.coefficients)
                 for center, sh in basis.shells)


def compute_all(aos, mols):
    """All one- and two-electron integrals of AO bases in their molecules; deterministic.

    `compute_all(basis, mol)` returns one IntegralSet; `compute_all(aos, mols)` a list,
    one per geometry, from one pass with a geometry axis on every primitive array. Each
    geometry's values are bit for bit its one-point result, whatever the batch. Each
    unique pair and quartet is computed once per geometry, in the order of `_pair`.
    """
    if isinstance(mols, Molecule):
        return compute_all([aos], [mols])[0]
    keys = [(_layout(basis), len(mol.atoms)) for basis, mol in zip(aos, mols, strict=True)]
    out = {}
    for key in dict.fromkeys(keys):  # geometries whose shells sort alike share a batch
        ns = [n for n, k in enumerate(keys) if k == key]
        out.update(zip(ns, _batch(*key, [aos[n] for n in ns], [mols[n] for n in ns])))
    return [out[n] for n in range(len(keys))]


def _batch(layout, n_atoms, aos, mols):
    """`compute_all` for geometries of one layout: the bookkeeping is built once."""
    if n_atoms > 2:
        raise SymmetryError(f"{n_atoms} atoms: the engine handles one or two")
    xyz = np.array([[center for center, _ in basis.shells] for basis in aos]).T
    shells = [(l, key, exps, coefs, CARTESIAN_COMPONENTS[l], xyz[:, n])
              for n, (l, key, exps, coefs) in enumerate(layout)]
    fkeys = [_function_key(sh, c) for sh in shells for c in range(len(sh[4]))]  # AO order
    shells.sort(key=lambda sh: sh[:4], reverse=True)
    pairs = [(sa, sb) for x, sa in enumerate(shells) for sb in shells[x:]]
    batches, rows, offsets = [], [], [0]
    for cls in sorted({(sa[0], sb[0]) for sa, sb in pairs}, reverse=True):
        members = [(sa, sb) for sa, sb in pairs if (sa[0], sb[0]) == cls]
        batches.append(_ShellPairs(members))
        rows += [(_function_key(sa, i), _function_key(sb, j))
                 for i, j in batches[-1].ij for sa, sb in members]
        offsets.append(len(rows))
    s, t, v = (np.concatenate([np.moveaxis(integral(b), 1, 0).reshape(len(mols), -1)
                               for b in batches], axis=1)
               for integral in (_ShellPairs.overlap, _ShellPairs.kinetic,
                                lambda b: b.nuclear(mols)))
    g = np.zeros((len(mols), len(rows), len(rows)))
    for x, bra in enumerate(batches):
        for y, ket in enumerate(batches[x:], x):
            g[:, offsets[x]:offsets[x + 1], offsets[y]:offsets[y + 1]] = _eri_block(bra, ket)
    # every pair and quartet reads the entry computed in its canonical order
    row_of = {key: r for r, key in enumerate(rows)}
    src = np.array([[row_of[tuple(sorted((ki, kj), reverse=True))] for kj in fkeys]
                    for ki in fkeys])
    rank = np.argsort(sorted(range(len(rows)), key=lambda r: _pair_key(*rows[r])))
    g = np.where(rank[:, None] >= rank[None, :], g, g.transpose(0, 2, 1))
    # P = D = diag((-1)^l) for one atom, [[0, D], [D, 0]] for two: atom B's
    # functions mirror atom A's in build order
    signs = np.array([(-1.0) ** sum(f.powers) for f in aos[0].functions])
    n = len(signs)
    p = signs[:, None] * np.eye(n)[np.roll(np.arange(n), n // 2 if n_atoms == 2 else 0)]
    s, t, v = s[:, src], t[:, src], v[:, src]
    if any(np.max(np.abs(p @ m @ p.T - m)) > 1e-10 for m in (s, t + v)):
        raise SymmetryError("no inversion symmetry: the engine handles one atom or two "
                            "identical atoms")
    g = g[:, src[:, :, None, None], src]
    return [IntegralSet(overlap=sg, kinetic=tg, nuclear=vg, eri=gg, inversion=p.copy())
            for sg, tg, vg, gg in zip(s, t, v, g)]
