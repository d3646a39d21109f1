"""Full CI: the singlet-gerade block of the two-electron Hamiltonian and its ground state.

The determinant-space oracle (`oracles.determinant_hamiltonian`) is
cross-checked against a brute-force second-quantized construction: dense
creation/annihilation matrices over the full Fock space, which fix every
fermionic sign independently of the Kronecker form. The block Hamiltonian of
the package, gathered at its pairs, is checked against the projected Fock-space
Hamiltonian and the projected determinant-space one, through a dense basis built
here from the pairs, and its ground state against the lowest eigenvalue over
every determinant.
"""

import tracemalloc

import numpy as np
import pytest

from h2ent.basis import load_basis
from h2ent.cli import run_scan
from h2ent.errors import SCFConvergenceError
from h2ent.fci import build_hamiltonian, mo_transform, run_fci, singlet_gerade_pairs
from h2ent.integrals import compute_all
from h2ent.molecule import h2, molecule, nuclear_repulsion
from h2ent.scf import run_rhf_batch, symmetric_orthogonalizer
from oracles import annihilation_matrix, determinant_hamiltonian, embed


def mo_integrals(ints, c):
    """h and g of one geometry, a batch of one, in the orbitals c."""
    h, g = mo_transform(ints, c[None])
    return h[0], g[0]


def dense_basis(pairs, k):
    """The (K^2, M) columns u vec(E_ab + E_ba) of the pairs, at index a*K + b."""
    a, b, u = pairs
    basis = np.zeros((k, k, len(u)))
    column = np.arange(len(u))
    basis[a, b, column] += u
    basis[b, a, column] += u  # a diagonal entry gets both halves
    return basis.reshape(k * k, -1)


def fock_space_hamiltonian(h, g):
    """Brute-force H = sum h_pq a+_p a_q + 1/2 sum (pq|rs) a+_p a+_r a_s a_q.

    Spin orbitals are ordered all alpha (0..K-1) then all beta (K..2K-1),
    matching the CI convention of the package. The two-electron sum is taken
    as sum_pr a+_p a+_r (sum_qs (pq|rs) a_s a_q), which keeps K = 4 fast.
    """
    k = h.shape[0]
    n_so = 2 * k
    ann = [annihilation_matrix(i, n_so) for i in range(n_so)]
    cre = [m.T for m in ann]
    spat = lambda p, sigma: p + sigma * k
    dim = 1 << n_so
    ham = np.zeros((dim, dim))
    for p in range(k):
        for q in range(k):
            for sigma in (0, 1):
                ham += h[p, q] * cre[spat(p, sigma)] @ ann[spat(q, sigma)]
    for sigma in (0, 1):
        for tau in (0, 1):
            lower = {(q, s): ann[spat(s, tau)] @ ann[spat(q, sigma)]
                     for q in range(k) for s in range(k)}
            for p in range(k):
                for r in range(k):
                    ops = sum(g[p, q, r, s] * lower[q, s]
                              for q in range(k) for s in range(k))
                    ham += 0.5 * cre[spat(p, sigma)] @ (cre[spat(r, tau)] @ ops)
    return ham


def random_mo_integrals(k, seed):
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(k, k))
    h = 0.5 * (h + h.T)
    g = rng.normal(size=(k, k, k, k))
    g = (g + g.transpose(1, 0, 2, 3) + g.transpose(0, 1, 3, 2)
         + g.transpose(1, 0, 3, 2) + g.transpose(2, 3, 0, 1)
         + g.transpose(3, 2, 0, 1) + g.transpose(2, 3, 1, 0)
         + g.transpose(3, 2, 1, 0)) / 8.0
    return h, g


# ids keep the (K, N_alpha, N_beta, seed) form of the determinant-space tests
@pytest.mark.parametrize("k,seed", [(2, 3), (3, 4), (4, 5)],
                         ids=["2-1-1-3", "3-1-1-4", "4-1-1-5"])
def test_hamiltonian_matches_fock_space_oracle(k, seed):
    h, g = random_mo_integrals(k, seed)
    ham = determinant_hamiltonian(h, g)
    big = fock_space_hamiltonian(h, g)
    idx = embed(k)
    assert np.allclose(ham, big[np.ix_(idx, idx)], atol=1e-12)


@pytest.mark.parametrize("k,seed", [(2, 3), (3, 4), (4, 5)])
def test_block_hamiltonian_is_the_projected_fock_space_hamiltonian(k, seed):
    h, g = random_mo_integrals(k, seed)
    parity = np.random.default_rng(seed).choice([1.0, -1.0], size=k)
    pairs = singlet_gerade_pairs(parity)
    b = dense_basis(pairs, k)
    # B spans the singlet-gerade space: vec(C) with C = C^T and C[a, b] = 0
    # unless parity[a] = parity[b], the image of (1 + swap)/2 (1 + P x P)/2
    swap = np.eye(k * k).reshape(k, k, k * k).transpose(1, 0, 2).reshape(k * k, k * k)
    projector = 0.25 * (np.eye(k * k) + swap) @ (np.eye(k * k) + np.diag(np.kron(parity, parity)))
    assert np.allclose(b.T @ b, np.eye(b.shape[1]), rtol=0.0, atol=1e-15)
    assert np.allclose(b @ b.T, projector, rtol=0.0, atol=1e-15)
    idx = embed(k)
    big = fock_space_hamiltonian(h, g)[np.ix_(idx, idx)]
    assert np.allclose(build_hamiltonian(h, g, pairs), b.T @ big @ b, rtol=0.0, atol=1e-12)


def test_singlet_gerade_basis_is_one_column_per_equal_parity_pair():
    # the MOs come gerade first, then ungerade, in every geometry: one set of pairs
    parity = np.array([1.0, 1.0, 1.0, -1.0, -1.0])
    a, b, u = pairs = singlet_gerade_pairs(parity)
    expected = [(i, j) for i in range(5) for j in range(i, 5) if parity[i] == parity[j]]
    assert list(zip(a.tolist(), b.tolist())) == expected  # row-major pair order
    assert len(expected) == 9  # 3 * 4 / 2 + 2 * 3 / 2 pairs
    assert u.tolist() == [0.5 if i == j else 0.5 ** 0.5 for i, j in expected]
    for column, (i, j) in zip(dense_basis(pairs, 5).T, expected):
        c = column.reshape(5, 5)
        assert c[i, j] == c[j, i] == (1.0 if i == j else 0.5 ** 0.5)
        assert np.count_nonzero(c) == (1 if i == j else 2)


@pytest.mark.parametrize("curve", ["sto3g_curve", "pol_curve"])
def test_gathered_block_is_the_projected_determinant_hamiltonian(curve, request):
    for rec in request.getfixturevalue(curve)[0]:
        h, g = mo_transform(rec.ints, rec.scf.mo_coefficients)
        pairs = singlet_gerade_pairs(rec.scf.parity[0])
        b = dense_basis(pairs, h.shape[-1])
        projected = b.T @ determinant_hamiltonian(h[0], g[0]) @ b
        assert np.abs(build_hamiltonian(h, g, pairs)[0] - projected).max() <= 1e-14, rec.r


def test_block_build_holds_less_than_the_mo_eris():
    # the block is gathered at its M ~ K^2 / 4 pairs: no K^2 x K^2 array, so the
    # traced peak of the 41-geometry 6-31G** batch stays below the ERIs it reads
    ints = compute_all(load_basis("6-31gss"), h2(np.geomspace(0.3, 100.0, 41)))
    scf = run_rhf_batch(ints)
    h, g = mo_transform(ints, scf.mo_coefficients)
    pairs = singlet_gerade_pairs(scf.parity[0])
    tracemalloc.start()
    try:
        build_hamiltonian(h, g, pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < g.nbytes, (peak, g.nbytes)


@pytest.mark.parametrize("name", ["sto-3g", "6-31gss"])
def test_block_ground_state_is_the_determinant_space_ground_state(sweeps, name):
    # past R ~ 6 Bohr the lowest triplet comes within 1e-8 Hartree of the
    # ground state; it lies outside the block
    rs, mols, ints, scf = sweeps[name]
    ci = run_fci(ints, scf)
    h, g = mo_transform(ints, scf.mo_coefficients)
    e_nuc = nuclear_repulsion(mols)
    for n, r in enumerate(rs):
        lowest = np.linalg.eigvalsh(determinant_hamiltonian(h[n], g[n]))[0]
        assert ci.e_fci[n] == pytest.approx(lowest + e_nuc[n], rel=0.0, abs=1e-12), r
        assert np.array_equal(ci.coefficients[n], ci.coefficients[n].T), r


def test_mo_transform_identity_is_symmetrization():
    ints = compute_all(load_basis("sto-3g"), h2(1.4))
    h, g = mo_integrals(ints, np.eye(2))
    assert np.allclose(h, ints.hcore[0], atol=1e-15)
    assert np.allclose(g, ints.eri[0], atol=1e-14)
    with pytest.raises(ValueError):
        mo_transform(ints, np.eye(3)[None])


@pytest.fixture(scope="module")
def sto3g_solution():
    mol = h2(1.4)
    ints = compute_all(load_basis("sto-3g"), mol)
    scf = run_rhf_batch(ints)
    return mol, ints, scf


def test_hf_diagonal_reproduces_scf_energy(sto3g_solution):
    mol, ints, scf = sto3g_solution
    h, g = mo_integrals(ints, scf.mo_coefficients[0])
    ham = build_hamiltonian(h, g, singlet_gerade_pairs(scf.parity[0]))
    assert ham[0, 0] + nuclear_repulsion(mol)[0] == pytest.approx(scf.e_hf[0], abs=1e-10)


def test_double_excitation_coupling_is_exchange_integral(sto3g_solution):
    mol, ints, scf = sto3g_solution
    h, g = mo_integrals(ints, scf.mo_coefficients[0])
    ham = build_hamiltonian(h, g, singlet_gerade_pairs(scf.parity[0]))
    # block column 0 is C[0, 0] (sigma_g^2) and column 1 is C[1, 1] (sigma_u^2)
    assert ham[0, 1] == pytest.approx(g[0, 1, 0, 1], abs=1e-12)


def test_ground_state_matches_two_by_two_closed_form(sto3g_solution):
    # the singlet-gerade block of the 4x4 problem is the 2x2 over the two
    # closed-shell configurations; its lower eigenvalue is available in closed form
    mol, ints, scf = sto3g_solution
    h, g = mo_integrals(ints, scf.mo_coefficients[0])
    ham = build_hamiltonian(h, g, singlet_gerade_pairs(scf.parity[0]))
    assert ham.shape == (2, 2)
    a, b, c = ham[0, 0], ham[1, 1], ham[0, 1]
    lower = 0.5 * (a + b) - np.sqrt(0.25 * (a - b) ** 2 + c * c)
    assert np.linalg.eigvalsh(determinant_hamiltonian(h, g))[0] == pytest.approx(lower, abs=1e-12)
    ci = run_fci(ints, scf)
    assert ci.e_fci[0] == pytest.approx(lower + nuclear_repulsion(mol)[0], abs=1e-12)


def test_fci_requires_converged_reference(sto3g_solution):
    mol, ints, scf = sto3g_solution
    with pytest.raises(SCFConvergenceError):
        run_fci(ints, scf._replace(converged=np.array([False])))


def test_phase_convention(sto3g_solution):
    mol, ints, scf = sto3g_solution
    c = run_fci(ints, scf).coefficients[0]
    assert c.shape == (2, 2)
    assert c.flat[np.argmax(np.abs(c))] > 0.0


def test_inverse_iteration_oracle_polarized_basis():
    # 100x100 determinant-space Hamiltonian: Rayleigh-quotient inverse
    # iteration from the HF determinant is an independent check on the dense
    # eigensolver and on the singlet-gerade block
    mol = h2(1.4)
    ints = compute_all(load_basis("6-31gss"), mol)
    scf = run_rhf_batch(ints)
    ham = determinant_hamiltonian(*mo_integrals(ints, scf.mo_coefficients[0]))
    assert ham.shape == (100, 100)
    x = np.zeros(100)
    x[0] = 1.0  # the HF determinant C[0, 0]
    mu = x @ ham @ x
    for _ in range(50):
        x = np.linalg.solve(ham - mu * np.eye(100), x)
        x /= np.linalg.norm(x)
        mu = x @ ham @ x
    assert np.linalg.eigvalsh(ham)[0] == pytest.approx(mu, abs=1e-9)
    ci = run_fci(ints, scf)
    assert ci.e_fci[0] == pytest.approx(mu + nuclear_repulsion(mol)[0], abs=1e-9)


def test_fci_energy_invariant_under_virtual_rotation():
    mol = h2(1.4)
    ints = compute_all(load_basis("6-31gss"), mol)
    scf = run_rhf_batch(ints)
    ref = run_fci(ints, scf).e_fci[0]
    c = scf.mo_coefficients.copy()
    th = 0.37
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    # a rotation within one parity space keeps the parity labels valid: the first
    # two ungerade MOs, after the five gerade ones
    assert scf.parity[0, 5] == scf.parity[0, 6] == -1.0
    c[0][:, [5, 6]] = c[0][:, [5, 6]] @ rot
    rotated = scf._replace(mo_coefficients=c)
    assert run_fci(ints, rotated).e_fci[0] == pytest.approx(ref, abs=1e-10)


def test_dissociation_configurations_equalize(sto3g_curve):
    records, _ = sto3g_curve
    far = records[-1]
    assert far.r == 20.0
    c_gg, c_uu = far.ci.coefficients[0, 0, 0], far.ci.coefficients[0, 1, 1]
    assert abs(c_gg) == pytest.approx(abs(c_uu), abs=1e-3)
    assert c_gg > 0.0


@pytest.fixture(scope="module", params=["sto-3g", "6-31gss"])
def wide_scan(request):
    """A scan from 0.01 Bohr to 1e100 Bohr, the largest R `h2` takes, far past the range
    the inversion check held before one-centre Gaussian products were exact: (basis
    name, Curve, failures)."""
    return request.param, *run_scan([0.01, 1e3, 1e4, 2e6, 1e12, 1e100], request.param)


def test_scan_converges_far_outside_the_target_range(wide_scan):
    # the documented range is 0.3-100 Bohr; every point from 0.01 to 1e100 converges
    _, curve, failures = wide_scan
    assert failures == []
    assert curve.r.tolist() == [0.01, 1e3, 1e4, 2e6, 1e12, 1e100]


def test_fci_energy_is_exactly_twice_the_atom_at_dissociation(wide_scan):
    # one H atom has one electron, so its energy in the basis is the lowest eigenvalue
    # of its core Hamiltonian; far apart the two atoms neither overlap nor interact
    name, curve, _ = wide_scan
    ints = compute_all(load_basis(name), molecule([("H", (0.0, 0.0, 0.0))]))
    x = symmetric_orthogonalizer(ints.overlap[0])
    e_h = np.linalg.eigvalsh(x @ ints.hcore[0] @ x)[0]
    assert np.abs(curve.e_fci[1:] - 2.0 * e_h).max() <= 1e-13
