"""Density matrices, natural occupations, entropy and closed-form correlation."""

from types import SimpleNamespace

import numpy as np
import pytest

from h2ent.cli import run_scan, scan_grid
from h2ent.correlation import (OPDM, correlation_energy,
                               natural_occupations, one_particle_density,
                               rescale_entropy, von_neumann_entropies,
                               von_neumann_entropy)
from h2ent.errors import NumericalCheckError
from test_fci import annihilation_matrix, embed


def ci_state(coefficients):
    """A CI result of one geometry, a batch of one."""
    return SimpleNamespace(coefficients=np.asarray(coefficients, float)[None])


def brute_force_opdm(coefficients):
    """gamma_pq = <Psi|a+_p a_q|Psi> summed over spin, via dense operators."""
    k = coefficients.shape[0]
    ann = [annihilation_matrix(i, 2 * k) for i in range(2 * k)]
    x = np.zeros(1 << (2 * k))
    x[embed(k)] = coefficients.ravel()
    gamma = np.zeros((k, k))
    for p in range(k):
        for q in range(k):
            for sigma in (0, 1):
                op = ann[p + sigma * k].T @ ann[q + sigma * k]
                gamma[p, q] += x @ op @ x
    return gamma


def test_opdm_requires_symmetry():
    with pytest.raises(NumericalCheckError):
        OPDM(np.array([[1.0, 0.1], [0.0, 1.0]]))


def test_opdm_symmetry_bound_is_absolute():
    # within the relative tolerance allclose applies by default
    with pytest.raises(NumericalCheckError, match="symmetric"):
        OPDM(np.array([[1.0, 0.5], [0.5 + 1e-6, 1.0]]))
    OPDM(np.array([[1.0, 0.5], [0.5 + 1e-13, 1.0]]))
    with pytest.raises(NumericalCheckError, match="symmetric"):
        OPDM(np.array([[1.0, np.nan], [np.nan, 1.0]]))


def test_single_determinant_density():
    gamma = one_particle_density(ci_state([[1.0, 0.0], [0.0, 0.0]])).gamma[0]
    assert np.allclose(gamma, np.diag([2.0, 0.0]), atol=1e-15)


def test_two_configuration_density():
    c1, c2 = np.cos(0.3), np.sin(0.3)
    gamma = one_particle_density(ci_state([[c1, 0.0], [0.0, c2]])).gamma[0]
    assert np.allclose(gamma, np.diag([2 * c1 ** 2, 2 * c2 ** 2]), atol=1e-14)


# ids keep the (K, N_alpha, N_beta, seed) form of the determinant-space tests
@pytest.mark.parametrize("k,seed", [(2, 1), (3, 2), (4, 3)],
                         ids=["2-1-1-1", "3-1-1-2", "4-1-1-3"])
def test_density_matches_fock_space_oracle(k, seed):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(k, k))  # not symmetric: alpha and beta densities differ
    c /= np.linalg.norm(c)
    gamma = one_particle_density(ci_state(c)).gamma[0]
    assert np.allclose(gamma, brute_force_opdm(c), atol=1e-12)
    assert np.trace(gamma) == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("curve", ["sto3g_curve", "pol_curve"])
def test_occupations_are_the_schmidt_coefficients(curve, request):
    # the singlet C is symmetric, so C C^T + C^T C = 2 C C^T and the natural
    # occupations are twice the squared singular values of C
    for rec in request.getfixturevalue(curve)[0]:
        c = rec.ci.coefficients[0]
        assert np.abs(c - c.T).max() <= 1e-12, rec.r
        sigma = np.linalg.svd(c, compute_uv=False)
        assert np.abs(rec.occupations - 2.0 * sigma ** 2).max() <= 1e-12, rec.r


def test_natural_occupations_descending_and_bounded():
    occ = natural_occupations(OPDM(np.diag([0.3, 1.7])))
    assert np.allclose(occ, [1.7, 0.3])
    assert occ.sum() == pytest.approx(2.0)
    with pytest.raises(NumericalCheckError):
        natural_occupations(OPDM(np.diag([2.5, 0.0])))
    with pytest.raises(NumericalCheckError):
        natural_occupations(OPDM(np.diag([-0.2, 1.0])))


def test_entropy_reference_values():
    assert von_neumann_entropy(np.array([2.0, 0.0])) == 0.0
    assert von_neumann_entropy(np.array([1.0, 1.0])) \
        == pytest.approx(1.0, abs=1e-15)
    expected = -(0.95 * np.log2(0.95) + 0.05 * np.log2(0.05))
    assert von_neumann_entropy(np.array([1.9, 0.1])) \
        == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("curve", ["sto3g_curve", "pol_curve"])
def test_stacked_entropies_are_the_per_row_entropies_bit_for_bit(curve, request):
    occ = np.stack([rec.occupations for rec in request.getfixturevalue(curve)[0]])
    assert von_neumann_entropies(occ).tolist() == [von_neumann_entropy(row) for row in occ]


@pytest.mark.parametrize("name", ["sto-3g", "6-31gss"])
def test_scan_entropies_are_the_per_row_entropies_bit_for_bit(name):
    # past ~20 Bohr up to two of the 6-31G** occupations clip to 0
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
