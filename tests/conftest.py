"""Shared fixtures: dissociation curves computed once per session."""

import os
import time
from dataclasses import dataclass

# BLAS reads its thread count when numpy loads, so the cap comes first, as in
# perfbench/run.py: the matrices are at most 100 x 100, and extra OpenBLAS
# threads spin more than they help.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np
import pytest

from h2ent.basis import BasisFunction, load_basis, primitive_norm
from h2ent.correlation import correlation_energy, natural_occupations
from h2ent.fci import run_fci
from h2ent.integrals import compute_all
from h2ent.molecule import h2, molecule
from h2ent.scf import run_rhf_batch
from oracles import von_neumann_entropy


def take(record, idx):
    """The geometries idx (an index array) of a stacked record, still stacked."""
    return type(record)(*(x[idx] if isinstance(x, np.ndarray) else x for x in record))


def stack(mols):
    """The geometries of Molecules with the same atoms, in the same order, as one batch."""
    assert len({mol.elements for mol in mols}) == 1, mols
    return mols[0]._replace(xyz=np.concatenate([mol.xyz for mol in mols]))


def helium():
    return molecule([("He", (0.0, 0.0, 0.0))])


def random_primitive(rng, max_l=1):
    """A normalized Cartesian primitive of l <= max_l per axis, exponent in [0.1, 3]
    and centre in the cube [-1.5, 1.5]^3 Bohr."""
    alpha = rng.uniform(0.1, 3.0)
    center = tuple(rng.uniform(-1.5, 1.5, 3))
    powers = tuple(int(p) for p in rng.integers(0, max_l + 1, 3))
    return BasisFunction(center, powers, (alpha,),
                         (primitive_norm(alpha, powers),))


@dataclass(frozen=True)
class PointRecord:
    r: float
    ints: object  # IntegralSet, SCFResult and CIResult of the point as a batch of one
    scf: object
    ci: object
    e_hf: float
    e_fci: float
    e_corr: float
    entropy: float
    occupations: np.ndarray


def compute_point(r, basis_name):
    basis = load_basis(basis_name)
    ints = compute_all(basis, h2(r))
    scf = run_rhf_batch(ints)
    assert scf.converged[0], f"SCF failed at R={r} ({basis_name})"
    ci = run_fci(ints, scf)
    occ = natural_occupations(ci)[0]
    e_hf, e_fci = scf.e_hf[0], ci.e_fci[0]
    return PointRecord(
        r=float(r), ints=ints, scf=scf, ci=ci, e_hf=e_hf, e_fci=e_fci,
        e_corr=correlation_energy(e_hf, e_fci),
        entropy=von_neumann_entropy(occ), occupations=occ)


SCAN_GRID = np.linspace(0.7, 10.0, 40)


@pytest.fixture(scope="session")
def sto3g_curve():
    """41 minimal-basis records: the 40-point grid plus R = 20 Bohr."""
    t0 = time.perf_counter()
    records = [compute_point(r, "sto-3g") for r in SCAN_GRID] \
        + [compute_point(20.0, "sto-3g")]
    elapsed = time.perf_counter() - t0
    return records, elapsed


@pytest.fixture(scope="session")
def pol_curve():
    """6-31G** records on the same 40-point grid."""
    t0 = time.perf_counter()
    records = [compute_point(r, "6-31gss") for r in SCAN_GRID]
    elapsed = time.perf_counter() - t0
    return records, elapsed


SWEEP_R = np.geomspace(0.3, 100.0, 40)


@pytest.fixture(scope="session")
def sweeps():
    """(R, geometries, IntegralSet, SCFResult) of the 40 log-spaced R from 0.3 to 100
    Bohr as one batch, per basis."""
    out = {}
    for name in ("sto-3g", "6-31gss"):
        mols = h2(SWEEP_R)
        ints = compute_all(load_basis(name), mols)
        out[name] = (SWEEP_R, mols, ints, run_rhf_batch(ints))
    return out
