"""Restricted Hartree-Fock via Roothaan iteration, blocked by inversion parity.

Closed-shell only, symmetric even at dissociation. Plain fixed-point iteration
from the core-Hamiltonian guess; F is diagonalised separately in the gerade and
ungerade spaces of the inversion P and the lowest gerade orbital is occupied,
so a stretched bond's near-degenerate sigma_g and sigma_u cannot mix.
"""

from dataclasses import dataclass

import numpy as np

from .errors import LinearDependenceError
from .molecule import nuclear_repulsion


@dataclass(frozen=True)
class SCFSettings:
    max_iterations: int = 200
    energy_tolerance: float = 1e-10
    density_tolerance: float = 1e-8

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.energy_tolerance <= 0 or self.density_tolerance <= 0:
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class SCFResult:
    mo_coefficients: np.ndarray   # columns are MOs
    orbital_energies: np.ndarray  # lowest gerade first, then ascending; Hartree
    parity: np.ndarray            # +1 gerade, -1 ungerade, per MO
    e_hf: float                   # total energy incl. nuclear repulsion
    iterations: int
    converged: bool


def symmetric_orthogonalizer(s):
    """X = S^(-1/2) by eigendecomposition; X^T S X = 1."""
    vals, vecs = np.linalg.eigh(s)
    if vals.min() < 1e-10:
        raise LinearDependenceError(
            f"overlap matrix nearly singular (min eigenvalue {vals.min():.3e})")
    return vecs @ np.diag(vals ** -0.5) @ vecs.T


def density_from_coeffs(c, n_occupied_pairs):
    """Closed-shell density D = 2 C_occ C_occ^T."""
    if n_occupied_pairs > c.shape[1]:
        raise ValueError(
            f"{n_occupied_pairs} occupied pairs do not fit in {c.shape[1]} orbitals")
    occ = c[:, :n_occupied_pairs]
    return 2.0 * occ @ occ.T


def build_fock(hcore, d, eri):
    """F = Hcore + J - K/2 contracted with the AO density."""
    j = np.einsum("ls,mnsl->mn", d, eri)
    k = np.einsum("ls,mlsn->mn", d, eri)
    return hcore + j - 0.5 * k


def run_rhf(ints, mol, settings=SCFSettings()):
    """Roothaan RHF. Non-convergence is reported via the converged flag."""
    if mol.n_electrons % 2 != 0:
        raise ValueError("restricted HF needs an even electron count")
    n_occ = mol.n_electrons // 2
    hcore = ints.hcore
    x = symmetric_orthogonalizer(ints.overlap)
    e_nuc = nuclear_repulsion(mol)
    # P commutes with X = S^(-1/2), so X maps P's +1 and -1 eigenvectors to
    # orthonormal gerade and ungerade AO coefficient bases
    parity, u = np.linalg.eigh(ints.inversion)
    xg, xu = x @ u[:, parity > 0], x @ u[:, parity < 0]

    def diagonalize(f):
        (eg, cg), (eu, cu) = np.linalg.eigh(xg.T @ f @ xg), np.linalg.eigh(xu.T @ f @ xu)
        eps, c = np.concatenate((eg, eu)), np.hstack([xg @ cg, xu @ cu])
        par = np.concatenate((np.ones_like(eg), -np.ones_like(eu)))
        order = np.concatenate(([0], 1 + eps[1:].argsort(kind="stable")))  # lowest gerade first
        return eps[order], c[:, order], par[order]

    eps, c, _ = diagonalize(hcore)
    d = density_from_coeffs(c, n_occ)
    e_old = 0.0
    converged = False
    for it in range(1, settings.max_iterations + 1):
        f = build_fock(hcore, d, ints.eri)
        e_total = 0.5 * np.sum(d * (hcore + f)) + e_nuc
        eps, c, _ = diagonalize(f)
        d_new = density_from_coeffs(c, n_occ)
        delta_e = e_total - e_old
        rms_d = np.sqrt(np.mean((d_new - d) ** 2))
        d, e_old = d_new, e_total
        if it > 1 and abs(delta_e) < settings.energy_tolerance \
                and rms_d < settings.density_tolerance:
            converged = True
            break

    # final energy from the last density for a consistent report
    f = build_fock(hcore, d, ints.eri)
    e_total = 0.5 * np.sum(d * (hcore + f)) + e_nuc
    eps, c, par = diagonalize(f)
    return SCFResult(mo_coefficients=c, orbital_energies=eps, parity=par,
                     e_hf=float(e_total), iterations=it,
                     converged=converged)
