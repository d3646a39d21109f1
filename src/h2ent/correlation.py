"""Electron-correlation measures derived from the CI ground state.

The spin-summed one-particle density matrix C C^T + C^T C of the K x K CI
coefficient matrix C (the alpha plus the beta density), its natural
occupations in [0, 2], which for the singlet (symmetric C) are 2 sigma_k^2
from the singular values of C, i.e. the Schmidt decomposition of the
two-electron state; the occupation-number von Neumann entropy in bits, the
correlation energy E_HF - E_FCI, and the curve rescaling that anchors the
entropy to the correlation energy at the largest scanned distance.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalCheckError


@dataclass(frozen=True)
class OPDM:
    gamma: np.ndarray  # K x K, spin-summed, MO basis; or a stack of them

    def __post_init__(self):
        g = self.gamma
        if not np.max(np.abs(g - g.swapaxes(-1, -2))) <= 1e-12:  # a NaN fails too
            raise ValueError("density matrix must be symmetric")


def one_particle_density(cis):
    """Spin-summed gamma_pq = <Psi|a+_p a_q|Psi> = (C C^T + C^T C)_pq of a list
    of G CI results, as one OPDM with a stack of G matrices."""
    c = np.stack([x.coefficients for x in cis])
    ct = c.swapaxes(-1, -2)
    return OPDM(c @ ct + ct @ c)


def natural_occupations(opdm):
    """Descending eigenvalues of the spin-summed density matrix, clipped to [0, 2];
    of a stack, one row per matrix, from one stacked call."""
    vals = np.linalg.eigvalsh(opdm.gamma)[..., ::-1]
    if vals.min() < -1e-8 or vals.max() > 2.0 + 1e-8:
        raise NumericalCheckError(f"occupations outside [0, 2]: {vals}")
    return np.clip(vals, 0.0, 2.0)


def von_neumann_entropy(occ):
    """S = -sum_k (n_k/2) log2(n_k/2) in bits for an occupation array, 0 log 0 = 0."""
    x = occ / 2.0
    x = x[x > 0.0]
    return float(-np.sum(x * np.log2(x)))


def correlation_energy(e_hf, e_fci):
    """E_corr = E_HF - E_FCI (non-negative by the variational principle)."""
    diff = e_hf - e_fci
    if diff < -1e-9:
        raise NumericalCheckError(
            f"E_FCI above E_HF by {-diff:.3e} Hartree; variational violation")
    return diff


def rescale_entropy(entropies, correlations):
    """Scale the entropy curve so its last point equals the last E_corr.

    Both sequences must be ordered in ascending R; the last point stands in
    for the dissociation limit.
    """
    entropies = np.asarray(entropies, float)
    correlations = np.asarray(correlations, float)
    if len(entropies) != len(correlations) or len(entropies) == 0:
        raise ValueError("curves must be non-empty and equally long")
    if entropies[-1] <= 0.0:
        raise ValueError("entropy at the reference point must be positive")
    return entropies * (correlations[-1] / entropies[-1])
