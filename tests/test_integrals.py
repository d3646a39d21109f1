"""Analytic Gaussian integrals against closed forms and the quadrature oracle."""

import hashlib

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from h2ent import integrals
from h2ent.basis import (BasisFunction, build_ao_basis, load_basis, parse_basis,
                         primitive_norm)
from h2ent.fci import run_fci
from h2ent.integrals import (_TUV_ROW, IntegralSet, _coulomb, _eri_contract, _eri_request,
                             _hermite_coulomb_all, _pair, boys_table, compute_all, eri, kinetic,
                             nuclear_attraction, overlap)
from h2ent.molecule import h2, molecule, nuclear_repulsion
from h2ent.scf import run_rhf_batch
from conftest import helium, stack, take
from oracles import (eri_block_by_term_pairs, eri_by_gaussian_transform,
                     hermite_coulomb_by_entry, nuclear_by_gaussian_transform,
                     quadrature_oracle, quadrature_oracle_eri)


def s_prim(alpha, center=(0.0, 0.0, 0.0)):
    """A single normalized s primitive as a contracted function."""
    return BasisFunction(tuple(center), (0, 0, 0), (alpha,),
                         (primitive_norm(alpha, (0, 0, 0)),))


def p_prim(alpha, powers, center=(0.0, 0.0, 0.0)):
    return BasisFunction(tuple(center), powers, (alpha,),
                         (primitive_norm(alpha, powers),))


def boys_quadrature(m, x, n=400):
    """F_m(x) by Gauss-Legendre quadrature; x may be an array."""
    t, w = leggauss(n)
    t = 0.5 * (t + 1.0)
    return np.sum(0.5 * w * t ** (2 * m) * np.exp(-np.multiply.outer(x, t * t)), axis=-1)


def test_boys_exact_at_zero():
    for m in range(9):
        assert boys_table(m, 0.0)[m] == 1.0 / (2 * m + 1)
    table = boys_table(8, 0.0)
    assert all(table[m] == 1.0 / (2 * m + 1) for m in range(9))


def test_boys_large_argument():
    for m in range(6):
        assert boys_table(m, 30.0)[m] == pytest.approx(boys_quadrature(m, 30.0), abs=1e-13)


def test_boys_agrees_with_quadrature_across_branches():
    for m in range(5):
        for x in (1e-8, 0.5, 3.0, 12.0, 24.9, 25.1, 60.0):
            assert boys_table(m, x)[m] == pytest.approx(boys_quadrature(m, x), abs=1e-13)


def test_boys_dense_sweep_against_quadrature():
    # grid midpoints are the longest Taylor steps; 36 is the asymptotic switch
    x = np.concatenate([0.025 + 0.05 * np.arange(1200), [35.99, 36.0, 36.01, 1e-8, 1e-14]])
    table = boys_table(8, x)
    for m in range(9):
        assert np.abs(table[m] - boys_quadrature(m, x)).max() < 1e-13


def test_boys_table_domain_errors():
    assert boys_table(16, 1.0)[16] == pytest.approx(boys_quadrature(16, 1.0), abs=1e-13)
    with pytest.raises(ValueError):
        boys_table(17, 1.0)
    with pytest.raises(ValueError):
        boys_table(2, np.array([1.0, -0.5]))


def test_boys_domain_errors():
    with pytest.raises(ValueError):
        boys_table(0, -1.0)  # a negative scalar argument


def test_boys_table_does_not_depend_on_where_an_argument_sits():
    # a batch's table is its scalar calls bit for bit: both branches, the switch
    # at 36 itself, zero and grid points, in any shape, view or order
    rng = np.random.default_rng(3)
    x = rng.uniform(0.0, 72.0, (5, 7, 9))
    flat = x.reshape(-1)
    flat[:8] = [36.0, 0.0, 0.05, 35.95, 36.05, 1e-14, 35.999999, 36.000001]
    flat[8::5] = 0.05 * rng.integers(0, 721, flat[8::5].size)
    for m in range(17):
        table = boys_table(m, x)
        assert table.shape == (m + 1,) + x.shape
        scalars = np.array([boys_table(m, float(v)) for v in x.flat]).T
        assert np.array_equal(table, scalars.reshape(table.shape)), m
        assert np.array_equal(boys_table(m, x[:, ::2, 1::3]), table[:, :, ::2, 1::3]), m
        assert np.array_equal(boys_table(m, np.array(x[1, 2, 3])), table[:, 1, 2, 3]), m
    mostly_large = np.full((4, 5), 40.0)
    mostly_large[2, 3] = -1e-3
    with pytest.raises(ValueError, match="non-negative"):
        boys_table(3, mostly_large)


# SHA-256 of boys_table(m, x).tobytes() (-0.0 as +0.0) on a fixed sweep over both
# branches, m = 0..4: any change to the order of the Taylor or recursion arithmetic
# moves a last bit somewhere in it.
BOYS_SWEEP_SHA256 = (
    "dcc7da0774236460c9401a976d967edb5a4f523a90c0d904aef110d315672426",
    "840023b02f1dd177b76ac08284d462fa9f6f6a85c67f9db727fd88463f72bfc4",
    "d1e47cd919fee3098b5dde053f9315500776778b02d0ebf2db98c7b24991844e",
    "7de929d2136b26a80a199d5a8112355d5a490a56454b8ca97987231ba68665fc",
    "e0461280f8d662c8409d0193f6005eabba8b636b60dea8edcc9022da34ed204d",
)


def boys_sweep():
    """0 to 60 in steps of 0.01, zero and the switch at 36, then 5000 seeded points."""
    return np.concatenate([np.linspace(0.0, 60.0, 6001), [0.0, 36.0],
                           np.random.default_rng(0).uniform(0.0, 60.0, 5000)])


@pytest.mark.parametrize("m", range(5))
def test_boys_table_is_pinned_bit_for_bit(m):
    out = boys_table(m, boys_sweep())
    assert hashlib.sha256((out + 0.0).tobytes()).hexdigest() == BOYS_SWEEP_SHA256[m]


@pytest.mark.parametrize("lmax", range(17))
def test_hermite_coulomb_levels_match_the_entrywise_recursion(lmax):
    # every order the Boys table serves: up to t+u+v = 12, all that integrals of
    # functions with powers <= 1 per axis read, the levels match bit for bit; above it
    # the kernel refuses what the entrywise recursion would still build
    rng = np.random.default_rng(lmax)
    for shape in ((1, 4, 3), (6, 2, 5)):  # (geometries, bra, ket), one geometry too
        alpha = rng.uniform(0.05, 3.0, shape[1:])
        pq = rng.uniform(-4.0, 4.0, (3,) + shape)
        pq[:, 0, 0, 0] = 0.0  # coincident centers
        if lmax > 12:
            with pytest.raises(ValueError, match=f"R_tuv order {lmax} is above"):
                _hermite_coulomb_all(lmax, alpha, pq)
            continue
        levels = _hermite_coulomb_all(lmax, alpha, pq)
        entries = hermite_coulomb_by_entry(lmax, alpha, pq)
        assert levels.shape == (len(entries),) + shape
        for tuv, r in entries.items():
            assert np.array_equal(levels[_TUV_ROW[tuv]], r), tuv


def test_overlap_closed_forms():
    f = s_prim(1.0)
    g = s_prim(1.0, (0.0, 0.0, 1.0))
    # equal exponents: S = exp(-alpha R^2 / 2)
    assert overlap(f, g) == pytest.approx(np.exp(-0.5), abs=1e-14)
    assert overlap(f, f) == pytest.approx(1.0, abs=1e-14)


def test_kinetic_closed_form():
    # normalized s primitive: T = 3 alpha / 2
    for alpha in (0.3, 1.0, 4.7):
        f = s_prim(alpha)
        assert kinetic(f, f) == pytest.approx(1.5 * alpha, abs=1e-12)


def test_nuclear_closed_form():
    # <s|1/r|s> at the center: 2 sqrt(2 alpha / pi)
    mol = molecule([("H", (0.0, 0.0, 0.0))])
    for alpha in (0.5, 1.0, 2.0):
        f = s_prim(alpha)
        assert nuclear_attraction(f, f, mol) \
            == pytest.approx(-2.0 * np.sqrt(2.0 * alpha / np.pi), abs=1e-12)


def test_eri_closed_form_same_center():
    # (ss|ss), all exponents alpha: 2 sqrt(alpha) / sqrt(pi) * sqrt(2)/sqrt(2)
    f = s_prim(1.0)
    assert eri(f, f, f, f) == pytest.approx(2.0 / np.sqrt(np.pi), abs=1e-12)


def test_eri_long_range_limit():
    # well-separated unit charge distributions interact like point charges
    f = s_prim(1.0)
    g = s_prim(1.3, (0.0, 0.0, 50.0))
    assert eri(f, f, g, g) == pytest.approx(1.0 / 50.0, abs=1e-6)


def test_translational_invariance():
    shift = np.array([0.31, -1.2, 0.77])
    f = s_prim(0.9, (0.1, 0.2, 0.3))
    g = p_prim(1.4, (0, 0, 1), (-0.5, 0.4, 1.1))
    f2 = BasisFunction(tuple(np.array(f.center) + shift), f.powers,
                       f.exponents, f.coefficients)
    g2 = BasisFunction(tuple(np.array(g.center) + shift), g.powers,
                       g.exponents, g.coefficients)
    assert overlap(f, g) == pytest.approx(overlap(f2, g2), abs=1e-12)
    assert kinetic(f, g) == pytest.approx(kinetic(f2, g2), abs=1e-12)
    assert eri(f, g, f, g) == pytest.approx(eri(f2, g2, f2, g2), abs=1e-12)


def test_one_electron_oracle_spot_checks():
    rng = np.random.default_rng(7)
    mol = h2(1.4)
    for _ in range(3):
        a1, a2 = rng.uniform(0.2, 3.0, 2)
        c1, c2 = rng.uniform(-1.2, 1.2, (2, 3))
        pw1 = tuple(rng.integers(0, 2, 3))
        pw2 = tuple(rng.integers(0, 2, 3))
        f = BasisFunction(tuple(c1), pw1, (a1,), (primitive_norm(a1, pw1),))
        g = BasisFunction(tuple(c2), pw2, (a2,), (primitive_norm(a2, pw2),))
        assert overlap(f, g) == pytest.approx(
            quadrature_oracle(f, g, "overlap"), abs=1e-6)
        assert kinetic(f, g) == pytest.approx(
            quadrature_oracle(f, g, "kinetic"), abs=1e-6)
        assert nuclear_attraction(f, g, mol) == pytest.approx(
            quadrature_oracle(f, g, "nuclear", mol), abs=1e-6)


def test_eri_oracle_spot_check():
    f = s_prim(0.8, (0.0, 0.0, 0.0))
    g = p_prim(1.1, (0, 0, 1), (0.0, 0.3, 1.0))
    h = s_prim(0.5, (0.4, -0.2, 0.6))
    k = p_prim(0.9, (1, 0, 0), (-0.3, 0.1, 0.2))
    assert eri(f, g, h, k) == pytest.approx(
        quadrature_oracle_eri(f, g, h, k), abs=1e-5)


def test_eri_block_matches_the_term_by_term_contraction():
    # bit for bit, also in one-pair blocks of (1, 1, 1) primitives: their 27 Hermite
    # terms are where numpy's sum over an axis would turn pairwise
    rng = np.random.default_rng(17)
    basis = build_ao_basis(h2(1.4), load_basis("6-31gss")).functions
    for n in range(40):
        funcs = [p_prim(rng.uniform(0.1, 3.0), (1, 1, 1) if n % 4 == 0 else
                        tuple(int(p) for p in rng.integers(0, 2, 3)), rng.uniform(-1.5, 1.5, 3))
                 if rng.random() < 0.7 else basis[rng.integers(len(basis))] for _ in range(4)]
        bra, ket = _pair(*funcs[:2])[1], _pair(*funcs[2:])[1]
        quartets, request = _eri_request(bra, ket)
        out = _eri_contract(bra, ket, quartets, *_coulomb(request))
        assert np.array_equal(out, eri_block_by_term_pairs(bra, ket)), n


def test_eri_blocks_of_compute_all_match_the_term_by_term_contraction(monkeypatch):
    # every class block of a batch, bit for bit: the diagonal ones hold several shell
    # pairs, where only the canonical triangle of combos is computed; a shell pair's
    # combo with itself holds both orientations in a p-type block and the weighted
    # canonical triangle of its quartets in the s-s block
    blocks = []

    def kept(bra, ket, quartets, rts):
        blocks.append((bra, ket, _eri_contract(bra, ket, quartets, rts)))
        return blocks[-1][2]

    monkeypatch.setattr(integrals, "_eri_contract", kept)
    mols = stack([h2(0.7), h2(1.4), h2(20.0), off_axis_h2(1.4)])
    for name in ("sto-3g", "6-31gss"):
        compute_all(load_basis(name), mols)
    assert len(blocks) == 1 + 6
    assert sum(bra is ket and len(bra.start) > 1 for bra, ket, _ in blocks) == 4
    for bra, ket, out in blocks:
        assert np.array_equal(out, eri_block_by_term_pairs(bra, ket))


@pytest.mark.parametrize("name, per_geometry", [("sto-3g", 231), ("6-31gss", 1552)])
def test_eri_kernel_computes_each_unique_distribution_quartet_once(monkeypatch, name,
                                                                  per_geometry):
    # the Boys arguments the ERI blocks ask for: one per distribution quartet of the
    # canonical shell-pair combos, a twin's (i, j) and (j, i) primitive pairs being one
    # distribution, and an s-s combo of a shell pair with itself keeping the n(n+1)/2
    # quartets of its canonical triangle. STO-3G: shell pairs AA, AB, BB with 6, 9, 6
    # distributions and combos AA-AA, AA-AB, AA-BB, AB-AB, AB-BB, BB-BB,
    # 21 + 54 + 36 + 45 + 54 + 21 = 231 of the 27 x 27 = 729 primitive quartets;
    # 6-31G**: 1552 of 2875, the full class blocks' 1630 less the 78 mirrored quartets
    # of the ss class's ten self-combos (6, 3, 9, 3, 1, 3, 1, 6, 3, 1 distributions)
    sent = []

    def eri_request(bra, ket):
        quartets, request = _eri_request(bra, ket)
        sent.append(request[1].size)
        return quartets, request

    monkeypatch.setattr(integrals, "_eri_request", eri_request)
    compute_all(load_basis(name), h2((0.7, 1.4, 20.0)))
    assert sum(sent) == per_geometry * 3


@pytest.mark.parametrize("name, passes", [("sto-3g", [0]), ("6-31gss", [4, 3, 2, 1, 0])])
def test_compute_all_makes_one_coulomb_pass_per_angular_momentum(monkeypatch, name, passes):
    # the nuclear attraction of every class and the ERIs of every class-pair block share
    # one Boys/R_tuv pass per L = l_bra + l_ket, whose arguments are all of theirs:
    # 6-31G** has classes pp, ps, ss (nuclear L = 2, 1, 0) and blocks of L = 4, 3, 2, 2,
    # 1, 0; STO-3G the one class ss
    lmaxes, boys, asked = [], [], []

    def hermite(lmax, alpha, pq):
        lmaxes.append(lmax)
        return _hermite_coulomb_all(lmax, alpha, pq)

    def counting(mmax, x):
        boys.append(np.size(x))
        return boys_table(mmax, x)

    def coulomb(*requests):
        asked.extend(alpha.size for _, alpha, _ in requests)
        return _coulomb(*requests)

    monkeypatch.setattr(integrals, "_hermite_coulomb_all", hermite)
    monkeypatch.setattr(integrals, "boys_table", counting)
    monkeypatch.setattr(integrals, "_coulomb", coulomb)
    compute_all(load_basis(name), h2((0.7, 1.4, 20.0)))
    assert lmaxes == passes
    assert len(boys) == len(passes) and sum(boys) == sum(asked)


def random_primitive(rng):
    alpha = rng.uniform(0.1, 3.0)
    powers = tuple(int(p) for p in rng.integers(0, 2, 3))
    return BasisFunction(tuple(rng.uniform(-1.5, 1.5, 3)), powers, (alpha,),
                         (primitive_norm(alpha, powers),))


def test_eri_matches_the_gaussian_transform_oracle_on_random_primitives():
    rng = np.random.default_rng(2025)
    quartets = [[random_primitive(rng) for _ in range(4)] for _ in range(200)]
    ref = eri_by_gaussian_transform(quartets)
    assert np.abs(np.array([eri(*q) for q in quartets]) - ref).max() < 1e-12


@pytest.mark.parametrize("name", ["sto-3g", "6-31gss"])
def test_compute_all_eris_match_the_gaussian_transform_oracle(name):
    # every unique AO quartet, so every quartet class; the oracle's t range shrinks with
    # rho |P-Q|^2, so its 64-node rule holds 1e-12 at 100 Bohr too
    for r in (0.3, 1.4, 5.0, 20.0, 100.0):
        mol = h2(r)
        ao = build_ao_basis(mol, load_basis(name))
        pairs = [(i, j) for i in range(len(ao.functions)) for j in range(i + 1)]
        quartets = np.array([ij + kl for x, ij in enumerate(pairs) for kl in pairs[:x + 1]])
        ref = eri_by_gaussian_transform([[ao.functions[m] for m in q] for q in quartets])
        g = compute_all(load_basis(name), mol).eri[0]
        assert np.abs(g[tuple(quartets.T)] - ref).max() < 1e-12, r


@pytest.mark.parametrize("name", ["sto-3g", "6-31gss"])
def test_compute_all_nuclear_attraction_matches_the_gaussian_transform_oracle(name):
    # every AO pair, so every angular class, against the exact one-centre transform
    for r in (0.3, 1.4, 5.0, 20.0):
        mol = h2(r)
        funcs = build_ao_basis(mol, load_basis(name)).functions
        ref = nuclear_by_gaussian_transform([(f, g) for f in funcs for g in funcs], mol)
        v = compute_all(load_basis(name), mol).nuclear[0]
        assert np.abs(v - ref.reshape(v.shape)).max() < 1e-12, r


# contracted p shells, which the bundled bases lack (their p shells have one primitive):
# a p-type shell pair's combo with itself then holds several distributions, and (q1|q2)
# of component pairs (a, b) is (q2|q1) of (b, a), so it must keep both orientations
CONTRACTED_P = {
    "p2": "H 0\nS 1 1.00\n 0.5 1.0\nP 2 1.00\n 1.1 0.5\n 0.3 0.6\n****\n",
    "sp3": "H 0\nSP 3 1.00\n 2.9412494 -0.09996723 0.15591627\n"
           " 0.6834831 0.39951283 0.60768372\n 0.2222899 0.70011547 0.39195739\n****\n",
}


@pytest.mark.parametrize("name", list(CONTRACTED_P))
def test_compute_all_matches_the_gaussian_transform_oracles_with_contracted_p_shells(name):
    basis = parse_basis(CONTRACTED_P[name], name)
    for mol in (h2(1.4), off_axis_h2(1.4)):
        funcs = build_ao_basis(mol, basis).functions
        ints = compute_all(basis, mol)
        pairs = [(i, j) for i in range(len(funcs)) for j in range(i + 1)]
        quartets = np.array([ij + kl for x, ij in enumerate(pairs) for kl in pairs[:x + 1]])
        ref = eri_by_gaussian_transform([[funcs[m] for m in q] for q in quartets])
        assert np.abs(ints.eri[0][tuple(quartets.T)] - ref).max() < 1e-12
        ref = nuclear_by_gaussian_transform([(f, g) for f in funcs for g in funcs], mol)
        assert np.abs(ints.nuclear[0] - ref.reshape(len(funcs), -1)).max() < 1e-12


def test_eri_eightfold_symmetry_exact():
    ao = build_ao_basis(h2(1.4), load_basis("6-31gss"))
    f, g, h, k = (ao.functions[i] for i in (0, 3, 6, 9))
    ref = eri(f, g, h, k)
    assert eri(g, f, h, k) == ref
    assert eri(f, g, k, h) == ref
    assert eri(h, k, f, g) == ref
    assert eri(k, h, g, f) == ref


def test_compute_all_matches_single_calls():
    mol = h2(1.4)
    ao = build_ao_basis(mol, load_basis("6-31gss"))
    ints = compute_all(load_basis("6-31gss"), mol)
    k_ao = len(ao.functions)
    rng = np.random.default_rng(11)
    for _ in range(20):
        # canonical index order reproduces the exact code path of compute_all
        i, j = sorted(rng.integers(0, k_ao, 2), reverse=True)
        k, l = sorted(rng.integers(0, k_ao, 2), reverse=True)
        if i * (i + 1) // 2 + j < k * (k + 1) // 2 + l:
            i, j, k, l = k, l, i, j
        fi, fj, fk, fl = (ao.functions[m] for m in (i, j, k, l))
        assert ints.eri[0, i, j, k, l] == eri(fi, fj, fk, fl)
    for i in range(k_ao):
        for j in range(i + 1):
            val = overlap(ao.functions[i], ao.functions[j])
            assert ints.overlap[0, i, j] == val
            assert ints.overlap[0, j, i] == val
    # the kinetic energy, and the nuclear attraction on its share of the Coulomb passes,
    # of every AO pair in both bases, on and off the z axis
    for name in ("sto-3g", "6-31gss"):
        for mol in (h2(1.4), off_axis_h2(1.4)):
            funcs = build_ao_basis(mol, load_basis(name)).functions
            ints = compute_all(load_basis(name), mol)
            for i, fi in enumerate(funcs):
                for j, fj in enumerate(funcs):
                    assert ints.kinetic[0, i, j] == kinetic(fi, fj), (name, i, j)
                    assert ints.nuclear[0, i, j] == nuclear_attraction(fi, fj, mol), (name, i, j)


def off_axis_h2(r):
    """H2 with a generic bond direction, so every Cartesian branch is used."""
    origin = np.array([0.3, -0.2, 0.1])
    direction = np.array([0.48, -0.6, 0.64])  # unit vector
    return molecule([("H", origin), ("H", origin + r * direction)])


def test_every_eri_of_compute_all_is_its_one_quartet_call():
    # bit for bit on all 1540 unique quartets: `compute_all` takes the pair with the
    # larger `_pair_key` as the bra, and `eri` does too; with a generic bond direction no
    # quartet is zero by symmetry, so an orientation the two disagree on shows in rounding
    mol = off_axis_h2(1.4)
    ao = build_ao_basis(mol, load_basis("6-31gss"))
    g = compute_all(load_basis("6-31gss"), mol).eri[0]
    pairs = [(i, j) for i in range(len(ao.functions)) for j in range(i + 1)]
    for x, (i, j) in enumerate(pairs):
        for k, l in pairs[:x + 1]:
            fi, fj, fk, fl = (ao.functions[m] for m in (i, j, k, l))
            assert g[i, j, k, l] == eri(fi, fj, fk, fl), (i, j, k, l)


def test_off_axis_h2_matches_bond_along_z():
    basis = load_basis("6-31gss")
    energies = []
    for mol in (h2(1.4), off_axis_h2(1.4)):
        ints = compute_all(basis, mol)
        scf = run_rhf_batch(ints)
        energies.append((scf.e_hf[0], run_fci(ints, scf).e_fci[0]))
    assert energies[1] == pytest.approx(energies[0], abs=1e-10)


def test_off_axis_one_electron_oracle_spot_checks():
    mol = off_axis_h2(1.4)
    ao = build_ao_basis(mol, load_basis("6-31gss"))
    ints = take(compute_all(load_basis("6-31gss"), mol), 0)
    # single-primitive s (0.161) and p (1.1) functions: inside the oracle's range
    for i, j in ((1, 7), (3, 8), (4, 6)):
        f, g = ao.functions[i], ao.functions[j]
        assert ints.overlap[i, j] == pytest.approx(
            quadrature_oracle(f, g, "overlap"), abs=1e-6)
        assert ints.kinetic[i, j] == pytest.approx(
            quadrature_oracle(f, g, "kinetic"), abs=1e-6)
        assert ints.nuclear[i, j] == pytest.approx(
            quadrature_oracle(f, g, "nuclear", mol), abs=1e-6)


def test_compute_all_is_deterministic_and_exactly_symmetric():
    mol = off_axis_h2(1.4)
    a, b = (compute_all(load_basis("6-31gss"), mol) for _ in range(2))
    for name in IntegralSet._fields:
        assert np.array_equal(getattr(a, name), getattr(b, name))
    g = a.eri[0]
    for axes in ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)):
        assert np.array_equal(g, g.transpose(axes))


def test_integral_matrices_well_formed():
    ints = take(compute_all(load_basis("6-31gss"), h2(1.4)), 0)
    assert np.array_equal(ints.hcore, ints.kinetic + ints.nuclear)
    assert np.array_equal(ints.overlap, ints.overlap.T)
    assert np.array_equal(ints.kinetic, ints.kinetic.T)
    assert np.array_equal(ints.nuclear, ints.nuclear.T)
    assert np.linalg.eigvalsh(ints.overlap).min() > 0.0
    assert np.all(ints.nuclear.diagonal() < 0.0)
    assert np.all(ints.kinetic.diagonal() > 0.0)


def test_nuclear_repulsion_comes_with_the_integrals():
    # the SCF and the FCI read it from the IntegralSet: bit for bit the geometries'
    # own, and exactly 0 for one atom
    mols = h2([0.3, 1.4, 100.0])
    for name in ("sto-3g", "6-31gss"):
        basis = load_basis(name)
        e_nuclear = compute_all(basis, mols).e_nuclear
        assert e_nuclear.shape == (3,)
        assert e_nuclear.tobytes() == nuclear_repulsion(mols).tobytes()
        assert compute_all(basis, helium()).e_nuclear.tobytes() == np.zeros(1).tobytes()


def assert_same_integrals(batch, singles):
    # geometry n of the batch against the batch of one singles[n], field by field
    for field in IntegralSet._fields:
        x = getattr(batch, field)
        assert len(x) == len(singles), field
        for n, single in enumerate(singles):
            y = getattr(single, field)
            assert y.shape == (1,) + x.shape[1:] and np.array_equal(x[n], y[0]), (field, n)


@pytest.mark.parametrize("name, rs", [
    ("sto-3g", [*np.geomspace(0.3, 100.0, 40), 20.0]),  # the stretch benchmark grid
    ("6-31gss", np.geomspace(0.3, 100.0, 12)),
])
def test_batched_compute_all_equals_one_point_calls(name, rs):
    basis = load_basis(name)
    singles = [compute_all(basis, h2(r)) for r in rs]
    assert_same_integrals(compute_all(basis, h2(rs)), singles)
    # and neither depends on the batch's size or order
    assert_same_integrals(compute_all(basis, h2(rs[::-3])), singles[::-3])


def test_each_layout_batch_is_its_one_point_calls():
    # every batch of one layout (one molecule's atoms, in one order) equals its
    # one-point calls, in either basis, whatever the geometries
    sto, pol = load_basis("sto-3g"), load_basis("6-31gss")
    flipped = molecule([("H", (0.0, 0.0, 1.4)), ("H", (0.0, 0.0, 0.0))])
    for basis, mols in ((pol, [h2(1.4), off_axis_h2(1.4), flipped, h2(0.9)]),
                        (sto, [flipped, h2(2.0)]), (pol, [helium(), helium()]),
                        (sto, [helium()])):
        assert_same_integrals(compute_all(basis, stack(mols)),
                              [compute_all(basis, mol) for mol in mols])
