"""Restricted Hartree-Fock solver."""

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from h2ent import integrals, scf
from h2ent.basis import load_basis
from h2ent.cli import main
from h2ent.errors import LinearDependenceError, SymmetryError
from h2ent.integrals import compute_all
from h2ent.molecule import h2, molecule, nuclear_repulsion
from h2ent.scf import (build_fock, coulomb_exchange, run_rhf, run_rhf_batch,
                       symmetric_orthogonalizer)
from conftest import SWEEP_R, helium, stack, take
from oracles import fock_by_einsum


@pytest.fixture(scope="module")
def h2_sto3g():
    mol = h2(1.4)
    ints = compute_all(load_basis("sto-3g"), mol)
    return mol, ints


def test_orthogonalizer_inverts_overlap(h2_sto3g):
    _, ints = h2_sto3g
    s = ints.overlap[0]
    x = symmetric_orthogonalizer(s)
    assert np.allclose(x.T @ s @ x, np.eye(2), atol=1e-14)


def test_orthogonalizer_rejects_singular():
    s = np.array([[1.0, 1.0 - 1e-12], [1.0 - 1e-12, 1.0]])
    with pytest.raises(LinearDependenceError):
        symmetric_orthogonalizer(s)


def test_density_shape_and_trace(h2_sto3g):
    _, ints = h2_sto3g
    x = symmetric_orthogonalizer(ints.overlap[0])
    d = 2.0 * np.outer(x[:, 0], x[:, 0])
    assert d.shape == (2, 2)
    assert np.trace(d @ ints.overlap[0]) == pytest.approx(2.0, abs=1e-12)


def test_fock_with_zero_density_is_hcore(h2_sto3g):
    _, ints = h2_sto3g
    f = build_fock(ints.hcore[0], np.zeros((2, 2)), coulomb_exchange(ints.eri[0]))
    assert np.array_equal(f, ints.hcore[0])


@pytest.mark.parametrize("name", ["sto-3g", "6-31gss"])
def test_supermatrix_fock_matches_einsum_oracle(name):
    # a random symmetric density, one geometry and a stack of two
    rng = np.random.default_rng(7)
    ints = compute_all(load_basis(name), h2([1.4, 3.7]))
    k = ints.hcore.shape[-1]
    d = rng.normal(size=(2, k, k))
    d = d + d.swapaxes(-1, -2)
    stacked = build_fock(ints.hcore, d, coulomb_exchange(ints.eri))
    for n in range(2):
        hcore, eri = ints.hcore[n], ints.eri[n]
        oracle = fock_by_einsum(hcore, d[n], eri)
        assert np.allclose(build_fock(hcore, d[n], coulomb_exchange(eri)), oracle,
                           rtol=0.0, atol=1e-13)
        assert np.array_equal(stacked[n], build_fock(hcore, d[n], coulomb_exchange(eri)))


def test_helium_closed_form():
    # one orbital: E = 2 h_11 + (11|11), no iteration freedom
    ints = compute_all(load_basis("sto-3g"), helium())
    res = run_rhf(ints)
    assert res.converged
    s = ints.overlap[0, 0, 0]
    e_exact = 2.0 * ints.hcore[0, 0, 0] / s + ints.eri[0, 0, 0, 0, 0] / s ** 2
    assert res.e_hf == pytest.approx(e_exact, abs=1e-12)


def test_h2_matches_golden_section_oracle(h2_sto3g):
    # one occupied MO in a 2-AO basis: a single rotation angle parametrizes
    # every normalized orbital, so scalar minimization is an independent oracle
    mol, ints = h2_sto3g
    ints_1 = take(ints, 0)
    x = symmetric_orthogonalizer(ints_1.overlap)
    e_nuc = nuclear_repulsion(mol)[0]

    def energy(theta):
        c = x @ np.array([np.cos(theta), np.sin(theta)])
        d = 2.0 * np.outer(c, c)
        f = fock_by_einsum(ints_1.hcore, d, ints_1.eri)
        return 0.5 * np.sum(d * (ints_1.hcore + f)) + e_nuc

    opt = minimize_scalar(energy, bracket=(0.0, np.pi / 4, np.pi / 2),
                          method="golden", options={"xtol": 1e-12})
    res = run_rhf(ints)
    assert res.converged
    assert res.e_hf == pytest.approx(opt.fun, abs=1e-9)
    # textbook reference energy for H2/STO-3G at R = 1.4 Bohr
    assert res.e_hf == pytest.approx(-1.1167143250, abs=1e-9)


def test_converged_state_properties(h2_sto3g):
    _, ints = h2_sto3g
    res = run_rhf(ints)
    ints = take(ints, 0)
    c = res.mo_coefficients
    assert np.allclose(c.T @ ints.overlap @ c, np.eye(2), atol=1e-8)
    d = 2.0 * np.outer(c[:, 0], c[:, 0])
    f = fock_by_einsum(ints.hcore, d, ints.eri)
    comm = f @ d @ ints.overlap - ints.overlap @ d @ f
    assert np.max(np.abs(comm)) < 1e-8
    assert np.all(np.diff(res.orbital_energies) >= 0.0)


def test_stretched_polarized_basis_converges():
    # at large R sigma_g and sigma_u are nearly degenerate; diagonalising each
    # parity block on its own keeps them from mixing, so plain iteration
    # lands on the symmetric RHF solution
    ints = compute_all(load_basis("6-31gss"), h2(10.0))
    res = run_rhf(ints)
    assert res.converged
    assert res.e_hf == pytest.approx(-0.7480776723549947, abs=1e-8)


def test_nonconvergence_is_reported_not_raised(h2_sto3g, monkeypatch):
    _, ints = h2_sto3g
    monkeypatch.setattr(scf, "MAX_ITERATIONS", 1)
    res = run_rhf(ints)
    assert not res.converged
    assert res.iterations == 1
    # one geometry without the batch axis, and Python scalars, as perfbench reads them
    assert type(res.iterations) is int and type(res.converged) is bool
    assert res.mo_coefficients.shape == (2, 2) and type(res.e_hf) is float


@pytest.mark.parametrize("name", ["sto-3g", "6-31gss"])
@pytest.mark.parametrize("max_iterations", [200, 8])
def test_batch_results_are_one_point_results(name, max_iterations, monkeypatch):
    # the geometries iterate in lockstep and leave as they converge: a result,
    # its iteration count included, does not depend on the batch it is in
    monkeypatch.setattr(scf, "MAX_ITERATIONS", max_iterations)
    rs = list(SWEEP_R) + [20.0]
    ints = compute_all(load_basis(name), h2(rs))
    batch = run_rhf_batch(ints)
    sub = np.arange(len(rs))[::-3]
    part = run_rhf_batch(take(ints, sub))
    parts = {n: take(part, m) for m, n in enumerate(sub)}
    for n in range(len(rs)):
        res = take(batch, n)
        one = run_rhf(take(ints, [n]))
        for other in [one] + ([parts[n]] if n in parts else []):
            assert (res.e_hf, res.iterations, res.converged) \
                == (other.e_hf, other.iterations, other.converged), n
            for field in ("mo_coefficients", "orbital_energies", "parity"):
                assert getattr(res, field).tobytes() == getattr(other, field).tobytes(), n
    if name == "6-31gss" and max_iterations == 8:  # 7 to 10 needed: some run out
        assert set(batch.converged.tolist()) == {True, False}


@pytest.mark.parametrize("name", ["sto-3g", "6-31gss"])
def test_every_r_converges_fast_to_a_gerade_orbital(sweeps, name):
    rs, _, ints, res = sweeps[name]
    for n, r in enumerate(rs):
        assert res.converged[n] and res.iterations[n] <= 12, (r, res.iterations[n])
        c0 = res.mo_coefficients[n, :, 0]
        assert np.allclose(ints.inversion[n] @ c0, c0, rtol=0.0, atol=1e-12), r


def test_sto3g_energy_matches_symmetric_closed_form(sweeps):
    # the only gerade orbital of two 1s functions is c_g = (1, 1)/sqrt(2(1 + S12)),
    # so E_HF = 2 h_gg + (gg|gg) + 1/R with no iteration at all
    rs, _, ints, res = sweeps["sto-3g"]
    for n, r in enumerate(rs):
        cg = np.ones(2) / np.sqrt(2.0 * (1.0 + ints.overlap[n, 0, 1]))
        e_closed = 2.0 * cg @ ints.hcore[n] @ cg \
            + np.einsum("p,q,r,s,pqrs->", cg, cg, cg, cg, ints.eri[n]) + 1.0 / r
        assert res.e_hf[n] == pytest.approx(e_closed, abs=1e-12), r


@pytest.mark.parametrize("curve", ["sto3g_curve", "pol_curve"])
def test_parity_labels_are_the_inversion_eigenvalues(curve, request):
    # the FCI builds its singlet-gerade block from these labels
    for rec in request.getfixturevalue(curve)[0]:
        c, parity = rec.scf.mo_coefficients[0], rec.scf.parity[0]
        assert np.array_equal(np.abs(parity), np.ones(len(parity))), rec.r
        assert np.abs(rec.ints.inversion[0] @ c - c * parity).max() <= 1e-12, rec.r


@pytest.mark.parametrize("name", ["sto-3g", "6-31gss"])
def test_mos_come_in_fixed_parity_blocks_each_ascending(sweeps, name):
    # gerade MOs, then ungerade ones: one parity row for the whole batch, so the
    # FCI builds one singlet-gerade basis for it
    _, _, ints, res = sweeps[name]
    n_g = np.count_nonzero(np.linalg.eigvalsh(ints.inversion[0]) > 0)
    k = res.parity.shape[1]
    assert 0 < n_g < k
    row = np.array([1.0] * n_g + [-1.0] * (k - n_g))
    assert np.array_equal(res.parity, np.broadcast_to(row, res.parity.shape))
    eps = res.orbital_energies
    assert np.all(np.diff(eps[:, :n_g]) >= 0.0) and np.all(np.diff(eps[:, n_g:]) >= 0.0)
    # in 6-31G** an ungerade MO lies below the top gerade one: the blocks are not
    # the ascending order of all K energies
    if name == "6-31gss":
        assert np.any(eps[:, n_g] < eps[:, n_g - 1])


@pytest.mark.parametrize("r", [10.0, 10.01])
def test_polarized_basis_iterations_do_not_hinge_on_last_digits(r):
    # last-digit changes in the integrals once moved this point between 8 and 42 iterations
    res = run_rhf(compute_all(load_basis("6-31gss"), h2(r)))
    assert res.converged and res.iterations <= 12


@pytest.mark.parametrize("name", ["sto-3g", "6-31gss"])
@pytest.mark.parametrize("mol", [h2(1.4), h2(37.0), helium()], ids=["h2-1.4", "h2-37", "he"])
def test_inversion_is_a_signed_permutation_and_a_symmetry(name, mol):
    ints = take(compute_all(load_basis(name), mol), 0)
    p = ints.inversion
    assert np.array_equal(np.abs(p).sum(axis=0), np.ones(len(p)))
    assert np.array_equal(p @ p, np.eye(len(p)))
    for m in (ints.overlap, ints.hcore):
        assert np.max(np.abs(p @ m @ p.T - m)) < 1e-12


def test_molecule_without_inversion_symmetry_is_rejected():
    heh = molecule([("H", (0, 0, 0)), ("He", (0, 0, 1.4))])
    h3 = molecule([("H", (0, 0, z)) for z in (0.0, 1.4, 2.8)])
    for mol in (heh, h3):
        for name in ("sto-3g", "6-31gss"):
            with pytest.raises(SymmetryError):
                compute_all(load_basis(name), mol)


def test_batch_without_inversion_symmetry_is_rejected(monkeypatch):
    # the check runs once per batch, on the stacked overlaps and core Hamiltonians,
    # and a batch fails when any one geometry lacks the symmetry
    heh = stack([molecule([("H", (0, 0, 0)), ("He", (0, 0, r))]) for r in (0.9, 1.4, 3.0)])
    nuclear = integrals._ShellPairs.nuclear

    def asymmetric_middle(self, rts, charges):
        # the middle geometry's nuclei pull as HeH's do, the others' as H2's
        v = nuclear(self, rts, (1, 1))
        v[:, 1] = nuclear(self, rts, (1, 2))[:, 1]
        return v

    for name in ("sto-3g", "6-31gss"):
        basis = load_basis(name)
        with pytest.raises(SymmetryError, match="no inversion symmetry"):
            compute_all(basis, heh)
        mols = h2([0.9, 1.4, 3.0])
        compute_all(basis, mols)
        with monkeypatch.context() as m:
            m.setattr(integrals._ShellPairs, "nuclear", asymmetric_middle)
            with pytest.raises(SymmetryError, match="no inversion symmetry"):
                compute_all(basis, mols)


def test_point_at_100_bohr_succeeds(capsys):
    assert main(["point", "-R", "100", "--basis", "sto-3g"]) == 0
    assert "E_HF" in capsys.readouterr().out
