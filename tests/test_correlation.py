"""Natural occupations, density matrices, entropy and closed-form correlation."""

from types import SimpleNamespace

import numpy as np
import pytest

from h2ent.bell import chsh_max_grid
from h2ent.cli import run_scan, scan_grid
from h2ent.correlation import (correlation_energy, natural_occupations,
                               one_particle_density, rescale_entropy,
                               von_neumann_entropies)
from h2ent.errors import NumericalCheckError
from h2ent.fci import mo_transform
from oracles import annihilation_matrix, embed, leading_pair_state, von_neumann_entropy


def ci_state(coefficients):
    """A CI result of one geometry, a batch of one."""
    return SimpleNamespace(coefficients=np.asarray(coefficients, float)[None])


def annihilate(i, state):
    """a_i on a Fock-space vector held as {occupation bits: amplitude}, by the rule of
    `annihilation_matrix`: clear bit i, sign (-1)^(occupied bits below i)."""
    return {bits ^ (1 << i): (-1.0) ** bin(bits & ((1 << i) - 1)).count("1") * amp
            for bits, amp in state.items() if bits >> i & 1}


def brute_force_opdm(coefficients):
    """gamma_pq = <Psi|a+_p a_q|Psi> = <a_p Psi|a_q Psi> summed over spin, with the
    operators applied to the sparse Fock-space vector of the K x K coefficients."""
    k = coefficients.shape[0]
    ann = [annihilate(i, dict(zip(embed(k), coefficients.ravel()))) for i in range(2 * k)]
    gamma = np.zeros((k, k))
    for p in range(k):
        for q in range(k):
            for sigma in (0, k):
                bra, ket = ann[p + sigma], ann[q + sigma]
                gamma[p, q] += sum(amp * bra.get(bits, 0.0) for bits, amp in ket.items())
    return gamma


def two_configuration_c(delta=0.0):
    """The symmetric, normalised C of cos(0.3)|11> + sin(0.3)|22>, C[1, 0] moved by delta."""
    return [[np.cos(0.3), 0.0], [delta, np.sin(0.3)]]


def test_natural_occupations_require_a_symmetric_c():
    with pytest.raises(NumericalCheckError, match="CI coefficient matrix must be symmetric"):
        natural_occupations(ci_state(two_configuration_c(0.1)))


def test_symmetric_c_bound_is_absolute():
    # within the relative tolerance allclose applies by default
    with pytest.raises(NumericalCheckError, match="symmetric"):
        natural_occupations(ci_state(two_configuration_c(1e-6)))
    natural_occupations(ci_state(two_configuration_c(1e-13)))
    for i, j in ((0, 1), (0, 0)):  # a NaN off or on the diagonal
        c = np.array(two_configuration_c())
        c[i, j] = np.nan
        with pytest.raises(NumericalCheckError, match="symmetric"):
            natural_occupations(ci_state(c))


def test_single_determinant_density():
    gamma = one_particle_density(ci_state([[1.0, 0.0], [0.0, 0.0]]))[0]
    assert np.allclose(gamma, np.diag([2.0, 0.0]), atol=1e-15)


def test_two_configuration_density():
    c1, c2 = np.cos(0.3), np.sin(0.3)
    gamma = one_particle_density(ci_state([[c1, 0.0], [0.0, c2]]))[0]
    assert np.allclose(gamma, np.diag([2 * c1 ** 2, 2 * c2 ** 2]), atol=1e-14)


# ids keep the (K, N_alpha, N_beta, seed) form of the determinant-space tests
@pytest.mark.parametrize("k,seed", [(2, 1), (3, 2), (4, 3)],
                         ids=["2-1-1-1", "3-1-1-2", "4-1-1-3"])
def test_density_matches_fock_space_oracle(k, seed):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(k, k))  # not symmetric: alpha and beta densities differ
    c /= np.linalg.norm(c)
    gamma = one_particle_density(ci_state(c))[0]
    assert np.allclose(gamma, brute_force_opdm(c), atol=1e-12)
    assert np.trace(gamma) == pytest.approx(2.0, abs=1e-12)
    # the sparse a_i of the oracle is the dense Fock-space matrix's
    x = np.zeros(1 << (2 * k))
    x[embed(k)] = c.ravel()
    for i in range(2 * k):
        y = np.zeros_like(x)
        for bits, amp in annihilate(i, {bits: x[bits] for bits in embed(k)}).items():
            y[bits] = amp
        assert np.array_equal(annihilation_matrix(i, 2 * k) @ x, y), i


@pytest.mark.parametrize("curve", ["sto3g_curve", "pol_curve"])
def test_occupations_are_the_schmidt_coefficients(curve, request):
    # the singlet C is symmetric, so C C^T + C^T C = 2 C C^T and the natural
    # occupations are twice the squared singular values of C
    for rec in request.getfixturevalue(curve)[0]:
        c = rec.ci.coefficients[0]
        assert np.abs(c - c.T).max() <= 1e-12, rec.r
        sigma = np.linalg.svd(c, compute_uv=False)
        assert np.abs(rec.occupations - 2.0 * sigma ** 2).max() <= 1e-12, rec.r


@pytest.mark.parametrize("curve", ["sto3g_curve", "pol_curve"])
def test_occupations_are_the_eigenvalues_of_the_fock_space_density(curve, request):
    for rec in request.getfixturevalue(curve)[0]:
        gamma = brute_force_opdm(rec.ci.coefficients[0])
        assert np.abs(rec.occupations - np.linalg.eigvalsh(gamma)[::-1]).max() <= 1e-14, rec.r


def test_natural_occupations_descending_and_normalised():
    c = np.array(two_configuration_c())
    occ = natural_occupations(ci_state(c[::-1, ::-1]))[0]
    assert occ == pytest.approx([2 * np.cos(0.3) ** 2, 2 * np.sin(0.3) ** 2], abs=1e-15)
    assert occ.sum() == pytest.approx(2.0, abs=1e-15)
    # sum lambda^2 = 1 to an absolute 1e-12
    natural_occupations(ci_state((1.0 + 4e-13) * c))
    for scale in (1.0 + 1e-12, 1.1, 0.0):
        with pytest.raises(NumericalCheckError, match="sum of lambda\\^2 must be 1"):
            natural_occupations(ci_state(scale * c))


def test_two_orbital_model_ties_entropy_and_chsh_to_the_correlation_energy(sto3g_curve):
    # in the minimal basis the CI matrix is [[0, K12], [K12, 2 Delta]] with
    # K12 = (sigma_g sigma_u|sigma_u sigma_g), so c1/c0 = -E_corr/K12 (Szabo and
    # Ostlund); with x = E_corr/K12 the weights are 1/(1 + x^2) and x^2/(1 + x^2)
    for rec in sto3g_curve[0]:
        k12 = mo_transform(rec.ints, rec.scf.mo_coefficients)[1][0, 0, 1, 1, 0]
        x2 = (rec.e_corr / k12) ** 2
        p, q = 1.0 / (1.0 + x2), x2 / (1.0 + x2)
        assert abs(rec.entropy + p * np.log2(p) + q * np.log2(q)) <= 1e-12, rec.r
        chsh = chsh_max_grid(leading_pair_state(rec.occupations)[0]).value
        assert abs(chsh - 2.0 * np.sqrt(1.0 + 4.0 * x2 / (1.0 + x2) ** 2)) <= 1e-12, rec.r


def test_entropy_reference_values():
    zero, one_bit, h95 = von_neumann_entropies(np.array([[2.0, 0.0], [1.0, 1.0], [1.9, 0.1]]))
    assert zero == 0.0
    assert one_bit == pytest.approx(1.0, abs=1e-15)
    expected = -(0.95 * np.log2(0.95) + 0.05 * np.log2(0.05))
    assert h95 == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("curve", ["sto3g_curve", "pol_curve"])
def test_stacked_entropies_are_the_per_row_entropies_bit_for_bit(curve, request):
    occ = np.stack([rec.occupations for rec in request.getfixturevalue(curve)[0]])
    assert von_neumann_entropies(occ).tolist() == [von_neumann_entropy(row) for row in occ]


@pytest.mark.parametrize("name", ["sto-3g", "6-31gss"])
def test_scan_entropies_are_the_per_row_entropies_bit_for_bit(name):
    # past ~20 Bohr the two smallest 6-31G** occupations fall below 1e-18
    curve, _ = run_scan(scan_grid(0.3, 100.0, 40, log_grid=True), name)
    assert curve.entropy.tolist() == [von_neumann_entropy(occ) for occ in curve.occupations]


def test_stacked_entropies_group_rows_by_their_positive_count():
    # K = 10 with 0 to 4 trailing zeros: numpy sums 8 or more terms in 8 partial
    # sums, so the zero-padded row sums round differently from the per-row ones
    rng = np.random.default_rng(5)
    occ = np.sort(2.0 * rng.dirichlet(np.ones(10), size=200), axis=1)[:, ::-1].copy()
    for n, row in enumerate(occ):
        row[10 - n % 5:] = 0.0
    per_row = [von_neumann_entropy(row) for row in occ]
    assert von_neumann_entropies(occ).tolist() == per_row
    x = occ / 2.0
    padded = -np.sum(x * np.log2(np.where(x > 0.0, x, 1.0)), axis=-1)
    assert padded.tolist() != per_row  # what this test tells apart


def test_correlation_energy_sign_handling():
    assert correlation_energy(-1.0, -1.1) == pytest.approx(0.1)
    assert correlation_energy(-1.0, -1.0) == 0.0
    with pytest.raises(NumericalCheckError):
        correlation_energy(-1.1, -1.0)
    # a batch, elementwise: one violation fails it
    e_hf = np.array([-1.0, -1.0])
    assert correlation_energy(e_hf, np.array([-1.1, -1.0])) == pytest.approx([0.1, 0.0])
    with pytest.raises(NumericalCheckError, match="by 1.000e-01"):
        correlation_energy(e_hf, np.array([-1.1, -0.9]))


def test_rescale_entropy():
    s = np.array([0.1, 0.5, 1.0])
    e = np.array([0.01, 0.2, 0.36])
    scaled = rescale_entropy(s, e)
    assert scaled[-1] == pytest.approx(0.36)
    assert np.allclose(scaled, s * 0.36)
    with pytest.raises(ValueError):
        rescale_entropy([], [])
    with pytest.raises(ValueError):
        rescale_entropy([0.1, 0.0], [0.1, 0.2][:1])
    with pytest.raises(ValueError):
        rescale_entropy([0.5, 0.0], [0.1, 0.2])
