"""Restricted Hartree-Fock via Roothaan iteration, blocked by inversion parity.

Closed-shell two-electron RHF only, symmetric even at dissociation. Plain
fixed-point iteration from the core-Hamiltonian guess; the one occupied orbital
is the lowest of F in the gerade space of the inversion P, so a stretched bond's
near-degenerate sigma_g and sigma_u cannot mix. The MOs come in parity blocks,
gerade then ungerade, each in ascending energy, so every geometry of a layout has
the same parity row. The SCF reads the IntegralSet alone and puts two electrons on
its nuclei (one H atom is H-), so F comes from the ERIs and its one occupied orbital c.
`run_rhf_batch` steps a batch of geometries in lockstep, each stacked to the end (a
converged one holds its c); its last step is its SCFResult, and `run_rhf` a batch of one.
"""

from typing import NamedTuple

import numpy as np

from .errors import LinearDependenceError


MAX_ITERATIONS = 200
ENERGY_TOLERANCE = 1e-10
DENSITY_TOLERANCE = 1e-8


class SCFResult(NamedTuple):
    """The RHF solutions of G geometries, the batch axis first in every field."""
    mo_coefficients: np.ndarray   # (G, K, K), columns are MOs
    orbital_energies: np.ndarray  # (G, K), gerade then ungerade, each ascending; Hartree
    parity: np.ndarray            # (G, K), +1 gerade, -1 ungerade; one row, repeated
    e_hf: np.ndarray              # total energy incl. nuclear repulsion
    iterations: np.ndarray
    converged: np.ndarray


def symmetric_orthogonalizer(s):
    """X = S^(-1/2) by eigendecomposition, of one overlap or a stack; X^T S X = 1."""
    vals, vecs = np.linalg.eigh(s)
    if vals.min() < 1e-10:
        raise LinearDependenceError(
            f"overlap matrix nearly singular (min eigenvalue {vals.min():.3e})")
    return vecs * vals[..., None, :] ** -0.5 @ vecs.swapaxes(-1, -2)


def build_fock(hcore, c, eri):
    """F = Hcore + 2(mn|cc) - (mc|nc) of the doubly occupied orbital c (..., K, 1),
    by matmuls on the ERIs, which keep a stack's geometries apart; stacks broadcast."""
    k = eri.shape[-1]
    y = (eri.reshape(eri.shape[:-4] + (k ** 3, k)) @ c).reshape(eri.shape[:-1])  # (mn|lc)
    return hcore + ((2.0 * y - y.swapaxes(-1, -2)) @ c[..., None, :, :])[..., 0]


def run_rhf(ints):
    """Roothaan RHF of one geometry, a batch of one: its SCFResult without the batch
    axis, with Python scalars for the energies, the iterations and the converged flag.
    Non-convergence is reported via the converged flag."""
    return SCFResult(*(x[0] if x.ndim > 1 else x[0].item()
                       for x in run_rhf_batch(ints)))


def run_rhf_batch(ints):
    """Roothaan RHF of two electrons at each geometry of an IntegralSet's batch.

    Step 0 is the core-Hamiltonian guess; step k builds F and E from the occupied
    orbital c of iteration k - 1 and diagonalises F's gerade block, giving the c and
    D = 2cc^T of iteration k, which each geometry judges by its own test. The
    geometries step in lockstep, one stacked call per step. A converged geometry holds
    its c and D, so later steps give its F, E and orbitals again, bit for bit: its
    result does not depend on the batch. The report, one stacked SCFResult, is the step
    after the last geometry converges, or step MAX_ITERATIONS + 1; a geometry that
    reaches MAX_ITERATIONS has converged False. A singular overlap raises
    LinearDependenceError.
    """
    hcore, eri = ints.hcore, ints.eri
    x = symmetric_orthogonalizer(ints.overlap)
    # P commutes with X = S^(-1/2), so X maps P's +1 and -1 eigenvectors to
    # orthonormal gerade and ungerade AO coefficient bases; eigh puts -1 first.
    # P is the layout's, the same in every geometry
    parity, u = np.linalg.eigh(ints.inversion[0])
    n_u = np.count_nonzero(parity < 0)
    xg, xu = x @ u[:, n_u:], x @ u[:, :n_u]

    def gerade(f):  # F's gerade eigenpairs, its lowest orbital c (G, K, 1) and 2cc^T
        eg, vg = np.linalg.eigh(xg.swapaxes(-1, -2) @ f @ xg)
        c = xg @ vg[..., :1]
        return eg, vg, c, 2.0 * c @ c.swapaxes(-1, -2)

    n = len(hcore)
    iterations = np.full(n, MAX_ITERATIONS)
    converged = np.zeros(n, dtype=bool)
    (c, d), e_old = gerade(hcore)[2:], np.zeros(n)
    for it in range(1, MAX_ITERATIONS + 2):
        f = build_fock(hcore, c, eri)
        e_total = 0.5 * np.add.reduce(d * (hcore + f), axis=(-2, -1)) + ints.e_nuclear
        eg, vg, c_new, d_new = gerade(f)
        if converged.all() or it > MAX_ITERATIONS:
            break
        rms_d = np.sqrt(np.add.reduce((d_new - d) ** 2, axis=(-2, -1)) / d.shape[-1] ** 2)
        done = (np.abs(e_total - e_old) < ENERGY_TOLERANCE) & (rms_d < DENSITY_TOLERANCE) \
            & (it > 1) & ~converged
        hold = converged[:, None, None]
        c, d, e_old = np.where(hold, c, c_new), np.where(hold, d, d_new), e_total
        iterations[done], converged[done] = it, True

    eu, vu = np.linalg.eigh(xu.swapaxes(-1, -2) @ f @ xu)
    eps, c = np.concatenate((eg, eu), -1), np.concatenate((xg @ vg, xu @ vu), -1)
    par = np.concatenate((np.ones_like(eg), -np.ones_like(eu)), -1)
    return SCFResult(mo_coefficients=c, orbital_energies=eps, parity=par, e_hf=e_total,
                     iterations=iterations, converged=converged)
