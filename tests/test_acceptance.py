"""Acceptance gate: one test per advertised guarantee of the package.

Each test prints a single PASS/FAIL line summarizing its criterion; the
asserts carry the details.
"""

import time

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from h2ent.bell import (MeasurementSettings, TSIRELSON, TwoQubitState,
                        chsh_max_closed_form, chsh_max_grid, chsh_value,
                        product_updown, singlet)
from h2ent.cli import main
from h2ent.fci import mo_transform
from h2ent.integrals import boys, eri, kinetic, nuclear_attraction, overlap
from h2ent.molecule import h2
from conftest import SCAN_GRID, compute_point, random_primitive
from oracles import eri_by_gaussian_transform, quadrature_oracle


def report(number, ok, summary):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {summary}")
    assert ok, f"criterion {number} failed: {summary}"


def test_criterion_1_integral_oracle_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    mol = h2(1.4)
    worst_one = 0.0
    for _ in range(24):
        f, g = random_primitive(rng), random_primitive(rng)
        worst_one = max(
            worst_one,
            abs(overlap(f, g) - quadrature_oracle(f, g, "overlap")),
            abs(kinetic(f, g) - quadrature_oracle(f, g, "kinetic")),
            abs(nuclear_attraction(f, g, mol)
                - quadrature_oracle(f, g, "nuclear", mol)))
    # the ERIs against the exact Gaussian-transform oracle, which
    # tests/test_quadrature.py checks against the grid one; relative to each
    # value, since the random quartets are mostly small (all below 0.05)
    quartets = [[random_primitive(rng) for _ in range(4)] for _ in range(200)]
    exact = eri_by_gaussian_transform(quartets)
    worst_eri = max(abs(eri(*funcs) - e) / abs(e) for funcs, e in zip(quartets, exact))
    elapsed = time.perf_counter() - t0
    ok = worst_one < 1e-6 and worst_eri <= 1e-12 and elapsed < 30.0
    report(1, ok, f"24 one-electron cases (worst {worst_one:.2e} < 1e-6), "
                  f"200 ERI cases (worst relative {worst_eri:.2e} <= 1e-12), {elapsed:.1f} s")


def test_criterion_2_boys_endpoints():
    exact = all(boys(m, 0.0) == 1.0 / (2 * m + 1) for m in range(9))
    t, w = leggauss(400)
    t = 0.5 * (t + 1.0)
    worst = max(abs(boys(m, 30.0)
                    - float(np.sum(0.5 * w * t ** (2 * m) * np.exp(-30.0 * t * t))))
                for m in range(6))
    ok = exact and worst < 1e-13
    report(2, ok, f"F_m(0) exact for m <= 8, F_m(30) within {worst:.2e} of quadrature")


def test_criterion_3_variational_ordering(sto3g_curve, pol_curve):
    sto, t_sto = sto3g_curve
    pol, t_pol = pol_curve
    grid_sto = sto[:len(SCAN_GRID)]
    fci_below_hf = all(r.e_fci <= r.e_hf + 1e-10 for r in grid_sto)
    basis_ordering = all(
        p.e_hf <= s.e_hf + 1e-10 and p.e_fci <= s.e_fci + 1e-10
        for p, s in zip(pol, grid_sto))
    elapsed = t_sto + t_pol
    ok = fci_below_hf and basis_ordering and elapsed < 20.0
    report(3, ok, f"E_FCI <= E_HF at 40 points; 6-31G** below STO-3G "
                  f"everywhere; curves computed in {elapsed:.1f} s")


def test_criterion_4_closed_form_equivalence(sto3g_curve):
    records, _ = sto3g_curve
    worst = 0.0
    for rec in records:
        h, g = (x[0] for x in mo_transform(rec.ints, rec.scf.mo_coefficients))
        eps = rec.scf.orbital_energies[0]
        delta = 0.5 * (2.0 * (eps[1] - eps[0]) + g[0, 0, 0, 0] + g[1, 1, 1, 1]
                       - 4.0 * g[0, 0, 1, 1] + 2.0 * g[0, 1, 0, 1])
        closed = abs(delta - np.sqrt(delta ** 2 + g[0, 1, 0, 1] ** 2))
        worst = max(worst, abs((rec.e_hf - rec.e_fci) - closed))
    ok = worst < 1e-9
    report(4, ok, f"two-orbital closed form vs FCI, worst gap {worst:.2e} Hartree")


def test_criterion_5_dissociation_limits(sto3g_curve):
    records, _ = sto3g_curve
    far = records[-1]
    assert far.r == 20.0
    occ_dev = float(np.max(np.abs(far.occupations - 1.0)))
    entropy_dev = abs(far.entropy - 1.0)
    g = mo_transform(far.ints, far.scf.mo_coefficients)[1][0]
    k12_dev = abs(far.e_corr - g[0, 1, 0, 1])
    ok = occ_dev < 1e-3 and entropy_dev < 1e-3 and k12_dev <= 1e-4
    report(5, ok, f"R=20: occupations off (1,1) by {occ_dev:.1e}, "
                  f"S off 1 by {entropy_dev:.1e}, |E_corr - K12| = {k12_dev:.1e}")


def test_criterion_6_monotonic_growth(sto3g_curve):
    records, _ = sto3g_curve
    entropy = np.array([r.entropy for r in records])
    corr = np.array([r.e_corr for r in records])
    ok = bool(np.all(np.diff(entropy) >= -1e-12)
              and np.all(np.diff(corr) >= -1e-12))
    report(6, ok, "entropy and E_corr nondecreasing on [0.7, 20] Bohr")


def test_criterion_7_small_distance_behavior(sto3g_curve):
    records, _ = sto3g_curve
    pol = compute_point(0.5, "6-31gss")
    compressed = [compute_point(r, "sto-3g") for r in (0.5, 0.6)]
    s05, s06 = (r.entropy for r in compressed)
    s07 = records[0].entropy
    ok = (pol.entropy > 0.0 and pol.e_corr > 0.0
          and s07 < 0.15 and s05 < s06 < s07)
    report(7, ok, f"6-31G** R=0.5: S={pol.entropy:.4f} > 0, "
                  f"E_corr={pol.e_corr:.4f} > 0; STO-3G S(0.7)={s07:.4f} < 0.15 "
                  f"and decreasing toward small R")


def test_criterion_8_chsh():
    t0 = time.perf_counter()
    z = np.array([0.0, 0.0, 1.0])
    x = np.array([1.0, 0.0, 0.0])
    settings = MeasurementSettings(
        a=z, d=x, b=-(z + x) / np.sqrt(2.0), c=(z - x) / np.sqrt(2.0))
    standard_dev = abs(chsh_value(singlet(), settings) - TSIRELSON)

    grid_val = chsh_max_grid(singlet()).value

    rng = np.random.default_rng(99)
    t = product_updown().correlation_tensor()
    vecs = rng.normal(size=(4, 100000, 3))
    vecs /= np.linalg.norm(vecs, axis=2, keepdims=True)
    a, d, b, c = vecs
    vals = (np.einsum("ni,ij,nj->n", a, t, b) + np.einsum("ni,ij,nj->n", d, t, b)
            + np.einsum("ni,ij,nj->n", d, t, c) - np.einsum("ni,ij,nj->n", a, t, c))
    product_max = float(np.max(vals))

    worst_state = 0.0
    for _ in range(20):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        state = TwoQubitState(rho / np.trace(rho).real)
        worst_state = max(worst_state, abs(chsh_max_grid(state).value
                                           - chsh_max_closed_form(state)))
    elapsed = time.perf_counter() - t0
    ok = (standard_dev < 1e-12 and grid_val >= 2.8284
          and product_max <= 2.0 + 1e-9 and worst_state < 1e-12
          and elapsed < 60.0)
    report(8, ok, f"standard settings off 2*sqrt(2) by {standard_dev:.1e}; "
                  f"grid max {grid_val:.6f}; product max {product_max:.9f}; "
                  f"closed form vs grid worst {worst_state:.1e}; {elapsed:.1f} s")


def test_criterion_9_deterministic_output(tmp_path):
    args = ["scan", "--basis", "sto-3g", "--rmin", "0.7", "--rmax", "10",
            "--points", "40", "--rescale"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    ok = a.read_bytes() == b.read_bytes() and a.stat().st_size > 0
    report(9, ok, "two consecutive full scans are byte-identical CSV")
