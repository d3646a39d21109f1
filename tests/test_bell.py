"""CHSH machinery: the correlation tensor, maximization, reference states, and the
Bell test on computed wave functions."""

from types import SimpleNamespace

import numpy as np
import pytest

from h2ent.bell import (CHSHReport, MeasurementSettings, TSIRELSON, TwoQubitState,
                        chsh_max_closed_form, chsh_max_grid, product_updown, singlet)
from h2ent.cli import _BELL_STATES
from h2ent.correlation import natural_occupations
from oracles import (chsh_by_trace, correlation_tensor_by_trace, leading_pair_state,
                     spin_observable)


def random_unit_vectors(n, rng):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def random_state_of_rank(rank, rng):
    """rho = G G^dagger / Tr for a complex Gaussian 4 x rank matrix G (rank 4: Ginibre)."""
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    rho = g @ g.conj().T
    return TwoQubitState(rho / np.trace(rho).real)


def oracle_states():
    """The named states of `h2ent bell`, then 210 seeded random states of rank 1, 2 and 4."""
    rng = np.random.default_rng(4)
    named = [make() for _, make in sorted(_BELL_STATES.items())]
    return named + [random_state_of_rank((1, 2, 4)[i % 3], rng) for i in range(210)]


def test_spin_observable_properties():
    rng = np.random.default_rng(0)
    for v in random_unit_vectors(5, rng):
        m = spin_observable(v)
        assert np.allclose(m, m.conj().T)
        assert np.allclose(np.sort(np.linalg.eigvalsh(m)), [-1.0, 1.0])
    assert np.allclose(spin_observable([0, 0, 1]), np.diag([1.0, -1.0]))
    with pytest.raises(ValueError):
        spin_observable([0, 0, 2])
    with pytest.raises(ValueError):
        spin_observable([np.nan, 0, 0])


def test_state_validation():
    with pytest.raises(ValueError):
        TwoQubitState(np.eye(4))  # trace 4
    with pytest.raises(ValueError):
        TwoQubitState(np.diag([1.5, -0.5, 0.0, 0.0]))  # not PSD
    bad = np.zeros((4, 4), complex)
    bad[0, 1] = 1.0
    bad[0, 0] = 1.0
    with pytest.raises(ValueError):
        TwoQubitState(bad)  # not Hermitian


def test_state_hermiticity_bound_is_absolute():
    rho = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
    rho[0, 1] = 0.2
    rho[1, 0] = 0.2 + 1e-6  # within the relative tolerance allclose applies by default
    with pytest.raises(ValueError, match="Hermitian"):
        TwoQubitState(rho)


def test_state_with_nan_is_rejected():
    rho = np.eye(4, dtype=complex) / 4.0
    rho[0, 0] = np.nan
    with pytest.raises(ValueError):
        TwoQubitState(rho)


def test_correlation_tensor_matches_trace_oracle():
    for state in oracle_states():
        t = state.correlation_tensor()
        assert np.max(np.abs(t - correlation_tensor_by_trace(state.rho))) <= 1e-15


def test_chsh_max_grid_value_matches_trace_oracle_at_its_settings():
    for state in oracle_states():
        rep = chsh_max_grid(state)
        assert abs(rep.value - chsh_by_trace(state.rho, rep.settings)) <= 1e-14


def test_settings_reject_non_unit_vectors():
    z = np.array([0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="unit norm"):
        MeasurementSettings(a=z, d=z, b=z, c=0.5 * z)
    with pytest.raises(ValueError, match="unit norm"):
        MeasurementSettings(a=z, d=(1.0 + 1e-9) * z, b=z, c=z)


def test_singlet_correlation_tensor():
    t = singlet().correlation_tensor()
    assert np.allclose(t, -np.eye(3), atol=1e-14)


def test_product_state_correlation_tensor():
    t = product_updown().correlation_tensor()
    assert np.allclose(t, np.diag([0.0, 0.0, -1.0]), atol=1e-14)


def test_singlet_correlations_are_minus_cosine():
    state = singlet()
    rng = np.random.default_rng(1)
    for u, w in zip(random_unit_vectors(6, rng), random_unit_vectors(6, rng)):
        assert u @ state.correlation_tensor() @ w == pytest.approx(-np.dot(u, w), abs=1e-12)


def test_product_state_means_match_density_matrix():
    # <up|sigma.u|up> <down|sigma.w|down> = u_z (-w_z)
    state = product_updown()
    rng = np.random.default_rng(2)
    for u, w in zip(random_unit_vectors(5, rng), random_unit_vectors(5, rng)):
        assert u @ state.correlation_tensor() @ w == pytest.approx(-u[2] * w[2], abs=1e-12)


def test_singlet_standard_settings_reach_tsirelson():
    z = np.array([0.0, 0.0, 1.0])
    x = np.array([1.0, 0.0, 0.0])
    settings = MeasurementSettings(
        a=z, d=x, b=-(z + x) / np.sqrt(2.0), c=(z - x) / np.sqrt(2.0))
    val = chsh_by_trace(singlet().rho, settings)
    assert val == pytest.approx(TSIRELSON, abs=1e-12)


def test_closed_form_maxima():
    assert chsh_max_closed_form(singlet()) == pytest.approx(TSIRELSON, abs=1e-14)
    assert chsh_max_closed_form(product_updown()) == pytest.approx(2.0, abs=1e-14)
    mixed = TwoQubitState(np.eye(4) / 4.0)
    assert chsh_max_closed_form(mixed) == pytest.approx(0.0, abs=1e-12)


def test_grid_maximization_on_reference_states():
    rep = chsh_max_grid(singlet())
    assert rep.value == pytest.approx(TSIRELSON, abs=1e-6)
    assert rep.violated
    rep = chsh_max_grid(product_updown())
    assert rep.value == pytest.approx(2.0, abs=1e-6)
    assert not rep.violated


def test_grid_matches_closed_form_on_random_states():
    rng = np.random.default_rng(3)
    for state in [random_state_of_rank(4, rng) for _ in range(5)] + oracle_states():
        assert chsh_max_grid(state).value \
            == pytest.approx(chsh_max_closed_form(state), abs=1e-12)


def werner(p):
    """p singlet + (1 - p) maximally mixed: CHSH maximum 2 sqrt(2) p."""
    return TwoQubitState(p * singlet().rho + (1.0 - p) * np.eye(4) / 4.0)


def bell_diagonal(weights):
    """Mixture of |Phi+>, |Phi->, |Psi+>, |Psi-> with the given weights."""
    r = 1.0 / np.sqrt(2.0)
    basis = np.array([[r, 0, 0, r], [r, 0, 0, -r], [0, r, r, 0], [0, r, -r, 0]])
    return TwoQubitState(sum(w * np.outer(v, v) for w, v in zip(weights, basis)))


@pytest.mark.parametrize("state, violated", [
    (singlet(), True),                                 # m1 = m2 = m3
    (product_updown(), False),                         # m2 = 0
    (TwoQubitState(np.eye(4) / 4.0), False),           # T = 0
    (werner(0.70), False),                             # below p = 1/sqrt(2)
    (werner(0.72), True),                              # above it
    (bell_diagonal([0.8, 0.1, 0.07, 0.03]), True),     # m1 > m2 > m3
], ids=["singlet", "product", "mixed", "werner-0.70", "werner-0.72",
        "bell-diagonal"])
def test_optimal_settings_reach_closed_form(state, violated):
    rep = chsh_max_grid(state)
    for name in "adbc":
        assert np.linalg.norm(getattr(rep.settings, name)) \
            == pytest.approx(1.0, abs=1e-12)
    assert abs(rep.value - chsh_by_trace(state.rho, rep.settings)) <= 1e-14
    assert rep.value == pytest.approx(chsh_max_closed_form(state), abs=1e-12)
    assert rep.violated == violated


def test_settings_validated():
    z, x2 = np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0])  # x2: a unit 2-vector
    with pytest.raises(ValueError):
        MeasurementSettings(a=2 * z, d=z, b=z, c=z)
    with pytest.raises(ValueError):
        MeasurementSettings(a=z, d=z, b=z, c=x2)
    with pytest.raises(ValueError, match="3-vectors"):
        MeasurementSettings(a=x2, d=x2, b=x2, c=x2)
    s = MeasurementSettings(a=z, d=-z, b=[1, 0, 0], c=[0, 1, 0])
    assert s.b.dtype == float and s.c.tolist() == [0.0, 1.0, 0.0]


def test_nan_fails_every_chsh_check():
    z = np.array([0.0, 0.0, 1.0])
    nan = np.array([np.nan, 0.0, 0.0])
    for n in range(4):  # a NaN in each of the four settings
        with pytest.raises(ValueError, match="unit norm"):
            MeasurementSettings(*[nan if k == n else z for k in range(4)])
    with pytest.raises(ValueError, match="Tsirelson"):
        CHSHReport(value=np.nan, settings=MeasurementSettings(a=z, d=z, b=z, c=z),
                   violated=False)


def test_chsh_report_checks_the_tsirelson_bound():
    s = chsh_max_grid(singlet()).settings
    assert CHSHReport(value=TSIRELSON, settings=s, violated=True).value == TSIRELSON
    with pytest.raises(ValueError, match="Tsirelson"):
        CHSHReport(value=TSIRELSON + 1e-6, settings=s, violated=True)
    with pytest.raises(ValueError, match="Tsirelson"):
        CHSHReport(-np.inf, s, False)


def gisin_chsh(p1, p2):
    """2 sqrt(1 + 4 p1 p2), the CHSH maximum of sqrt(p1)|00> + sqrt(p2)|11> (Gisin,
    Phys. Lett. A 154, 201 (1991))."""
    return 2.0 * np.sqrt(1.0 + 4.0 * p1 * p2)


@pytest.mark.parametrize("curve", ["sto3g_curve", "pol_curve"])
def test_computed_ci_states_violate_chsh_and_hf_does_not(curve, request):
    records = request.getfixturevalue(curve)[0]
    values = []
    for rec in records:
        state, (p1, p2) = leading_pair_state(rec.occupations)
        report = chsh_max_grid(state)
        assert abs(report.value - gisin_chsh(p1, p2)) <= 1e-12, rec.r
        assert report.violated, rec.r
        values.append(report.value)
    if curve == "sto3g_curve":  # the R of the records ascend
        assert np.all(np.diff(values) >= 0.0), values
    # the HF determinant C = e0 e0^T, occupations (2, 0, ...), is a product state
    k = len(records[0].occupations)
    c = np.zeros((1, k, k))
    c[0, 0, 0] = 1.0
    occupations = natural_occupations(SimpleNamespace(coefficients=c))[0]
    assert occupations.tolist() == [2.0] + [0.0] * (k - 1)
    report = chsh_max_grid(leading_pair_state(occupations)[0])
    assert abs(report.value - 2.0) <= 1e-12 and not report.violated
