"""Sanity checks on the quadrature reference integrator itself."""

import math

import numpy as np
import pytest

from h2ent.basis import BasisFunction, primitive_norm
from h2ent.molecule import molecule
from conftest import random_primitive
from oracles import (eri_by_gaussian_transform, nuclear_by_gaussian_transform,
                     quadrature_oracle, quadrature_oracle_eri)


def s_prim(alpha, center=(0.0, 0.0, 0.0)):
    return BasisFunction(tuple(center), (0, 0, 0), (alpha,),
                         (primitive_norm(alpha, (0, 0, 0)),))


def test_oracle_overlap_and_kinetic_closed_forms():
    f = s_prim(1.3)
    g = s_prim(1.3, (0.0, 0.0, 0.9))
    assert quadrature_oracle(f, f, "overlap") == pytest.approx(1.0, abs=1e-10)
    assert quadrature_oracle(f, g, "overlap") \
        == pytest.approx(np.exp(-1.3 * 0.81 / 2.0), abs=1e-10)
    assert quadrature_oracle(f, f, "kinetic") == pytest.approx(1.95, abs=1e-10)


def test_oracle_nuclear_closed_form():
    mol = molecule([("H", (0.0, 0.0, 0.0))])
    f = s_prim(0.9)
    assert quadrature_oracle(f, f, "nuclear", mol) \
        == pytest.approx(-2.0 * np.sqrt(2.0 * 0.9 / np.pi), abs=1e-8)


def test_oracle_eri_closed_form():
    f = s_prim(1.0)
    assert quadrature_oracle_eri(f, f, f, f) \
        == pytest.approx(2.0 / np.sqrt(np.pi), abs=1e-5)


def test_gaussian_transform_oracle_closed_forms():
    # two normalized s densities with exponents 2a and 2b, R apart: erf(sqrt(rho) R) / R,
    # rho = 4ab / (2a + 2b), and 2 sqrt(rho / pi) at R = 0
    for a, b, r in ((1.0, 1.0, 0.0), (0.3, 1.7, 0.0), (0.3, 1.7, 1.4), (2.0, 0.5, 5.0),
                    (1.0, 3.4, 20.0)):
        f, g = s_prim(a), s_prim(b, (0.0, 0.0, r))
        rho = 4.0 * a * b / (2.0 * a + 2.0 * b)
        exact = math.erf(math.sqrt(rho) * r) / r if r else 2.0 * math.sqrt(rho / math.pi)
        assert eri_by_gaussian_transform([(f, f, g, g)])[0] == pytest.approx(exact, abs=1e-14)


def test_grid_and_transform_eri_oracles_agree():
    # two independent ERI oracles back each other on random Cartesian quartets, to the
    # grid's documented 1e-5. Those are small (1.7e-4, 1.4e-3), so two compact s
    # quartets, centres in [-0.5, 0.5]^3, add values of 0.48 and 0.16
    rng = np.random.default_rng(2024)
    quartets = [[random_primitive(rng) for _ in range(4)] for _ in range(2)]
    rng = np.random.default_rng(7)
    quartets += [[s_prim(rng.uniform(0.1, 3.0), rng.uniform(-0.5, 0.5, 3))
                  for _ in range(4)] for _ in range(2)]
    exact = eri_by_gaussian_transform(quartets)
    for funcs, e in zip(quartets, exact):
        assert abs(quadrature_oracle_eri(*funcs) - e) < 1e-5


def test_nuclear_transform_oracle_closed_forms():
    # normalized s primitives of exponents a and b on one centre, a proton R away:
    # -S erf(sqrt(p) R) / R, p = a + b and S = (2 sqrt(ab) / p)^(3/2), and -2 S sqrt(p / pi)
    # at R = 0
    for a, b, r in ((0.9, 0.9, 0.0), (0.3, 1.7, 0.0), (0.3, 1.7, 1.4), (18.7, 0.16, 20.0),
                    (18.7, 18.7, 20.0)):
        mol = molecule([("H", (0.0, 0.0, r))])
        p = a + b
        overlap = (2.0 * math.sqrt(a * b) / p) ** 1.5
        exact = -overlap * (math.erf(math.sqrt(p) * r) / r if r else 2.0 * math.sqrt(p / math.pi))
        assert nuclear_by_gaussian_transform([(s_prim(a), s_prim(b))], mol)[0] \
            == pytest.approx(exact, abs=1e-14)


def test_grid_and_transform_nuclear_oracles_agree():
    # the two nuclear-attraction oracles on random Cartesian pairs, to the grid's 1e-6
    rng = np.random.default_rng(11)
    mol = molecule([("H", (0.0, 0.0, -0.7)), ("H", (0.0, 0.0, 0.7))])
    pairs = [(random_primitive(rng), random_primitive(rng)) for _ in range(4)]
    for (f, g), v in zip(pairs, nuclear_by_gaussian_transform(pairs, mol)):
        assert abs(quadrature_oracle(f, g, "nuclear", mol) - v) < 1e-6


def test_oracle_rejects_unknown_kind():
    f = s_prim(1.0)
    with pytest.raises(ValueError):
        quadrature_oracle(f, f, "dipole")
