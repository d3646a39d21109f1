"""Restricted Hartree-Fock via Roothaan iteration, blocked by inversion parity.

Closed-shell two-electron RHF only, symmetric even at dissociation. Plain
fixed-point iteration from the core-Hamiltonian guess; the one occupied orbital
is the lowest of F in the gerade space of the inversion P, so a stretched bond's
near-degenerate sigma_g and sigma_u cannot mix. The MOs come in parity blocks,
gerade then ungerade, each in ascending energy, so every geometry of a layout has
the same parity row. The SCF reads the IntegralSet alone and puts two electrons on
its nuclei (one H atom is H-). `run_rhf_batch` iterates a batch of geometries in
lockstep and returns one stacked SCFResult; `run_rhf` is its batch of one.
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


def coulomb_exchange(eri):
    """J - K/2 as a K^2 x K^2 supermatrix on vec(D), of one ERI tensor or a stack:
    (J - K/2)_mn = sum_ls D_ls [(mn|sl) - (ml|sn)/2]."""
    k = eri.shape[-1]
    jk = eri.swapaxes(-1, -2) - 0.5 * np.moveaxis(eri, -1, -3)
    return jk.reshape(eri.shape[:-4] + (k * k, k * k))


def build_fock(hcore, d, jk):
    """F = Hcore + (J - K/2) D, with jk from `coulomb_exchange`; stacks broadcast."""
    return hcore + (jk @ d.reshape(d.shape[:-2] + (-1, 1))).reshape(d.shape)


def run_rhf(ints):
    """Roothaan RHF of one geometry, a batch of one: its SCFResult without the batch
    axis, with Python scalars for the energies, the iterations and the converged flag.
    Non-convergence is reported via the converged flag."""
    return SCFResult(*(x[0] if x.ndim > 1 else x[0].item()
                       for x in run_rhf_batch(ints)))


def run_rhf_batch(ints):
    """Roothaan RHF of two electrons at each geometry of an IntegralSet's batch.

    The geometries iterate in lockstep, one stacked call per step; each keeps its own
    convergence test and iteration count and leaves the iteration when it converges,
    so its result does not depend on the batch. One stacked SCFResult; a geometry that
    reaches MAX_ITERATIONS has converged False. A singular overlap raises
    LinearDependenceError.
    """
    hcore, e_nuc = ints.hcore, ints.e_nuclear
    jk = coulomb_exchange(ints.eri)
    x = symmetric_orthogonalizer(ints.overlap)
    # P commutes with X = S^(-1/2), so X maps P's +1 and -1 eigenvectors to
    # orthonormal gerade and ungerade AO coefficient bases; eigh puts -1 first.
    # P is the layout's, the same in every geometry
    parity, u = np.linalg.eigh(ints.inversion[0])
    n_u = np.count_nonzero(parity < 0)
    xg, xu = x @ u[:, n_u:], x @ u[:, :n_u]

    def occupied_density(f, xg):  # D = 2 c c^T of the lowest gerade orbital c
        vecs = np.linalg.eigh(xg.swapaxes(-1, -2) @ f @ xg)[1]
        c = xg @ vecs[..., :1]
        return 2.0 * c @ c.swapaxes(-1, -2)

    def energy(d, f, h, e_nuc):
        return 0.5 * np.add.reduce(d * (h + f), axis=(-2, -1)) + e_nuc

    n = len(hcore)
    final_d = np.empty_like(hcore)
    iterations = np.full(n, MAX_ITERATIONS)
    converged = np.zeros(n, dtype=bool)
    live = np.arange(n)  # the geometries still iterating, and below their arrays
    h, g2, xl, en = hcore, jk, xg, e_nuc
    d, e_old = occupied_density(h, xl), np.zeros(n)
    for it in range(1, MAX_ITERATIONS + 1):
        f = build_fock(h, d, g2)
        e_total = energy(d, f, h, en)
        d_new = occupied_density(f, xl)
        delta_e = e_total - e_old
        rms_d = np.sqrt(np.add.reduce((d_new - d) ** 2, axis=(-2, -1)) / d.shape[-1] ** 2)
        d, e_old = d_new, e_total
        done = (np.abs(delta_e) < ENERGY_TOLERANCE) & (rms_d < DENSITY_TOLERANCE) & (it > 1)
        if done.any():
            final_d[live[done]], iterations[live[done]] = d[done], it
            converged[live[done]] = True
            keep = ~done
            live, d, e_old, h, g2, xl, en = (a[keep] for a in (live, d, e_old, h, g2, xl, en))
            if not live.size:
                break
    final_d[live] = d

    # final energy from the last density for a consistent report
    f = build_fock(hcore, final_d, jk)
    e_total = energy(final_d, f, hcore, e_nuc)
    (eg, cg), (eu, cu) = (np.linalg.eigh(b.swapaxes(-1, -2) @ f @ b) for b in (xg, xu))
    eps, c = np.concatenate((eg, eu), -1), np.concatenate((xg @ cg, xu @ cu), -1)
    par = np.concatenate((np.ones_like(eg), -np.ones_like(eu)), -1)
    return SCFResult(mo_coefficients=c, orbital_energies=eps, parity=par, e_hf=e_total,
                     iterations=iterations, converged=converged)
