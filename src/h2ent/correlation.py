"""Electron-correlation measures derived from the CI ground state.

The spin-summed one-particle density matrix C C^T + C^T C of the K x K CI
coefficient matrix C (the alpha plus the beta density), its natural
occupations in [0, 2], which for the singlet (symmetric C) are 2 sigma_k^2
from the singular values of C, i.e. the Schmidt decomposition of the
two-electron state; the occupation-number von Neumann entropy in bits, the
correlation energy E_HF - E_FCI, and the curve rescaling that anchors the
entropy to the correlation energy at the largest scanned distance. The
functions take a batch of geometries on a leading array axis.
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
            raise NumericalCheckError("density matrix must be symmetric")


def one_particle_density(ci):
    """Spin-summed gamma_pq = <Psi|a+_p a_q|Psi> = (C C^T + C^T C)_pq of a stacked
    CIResult of G geometries, as one OPDM with a stack of G matrices."""
    c = ci.coefficients
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


def von_neumann_entropies(occ):
    """`von_neumann_entropy` of each row of a (G, K) stack, from one pass. numpy groups
    a sum of 8 or more terms by its length, so each row sums only its positive entries,
    rows of one count at a time: bit for bit the per-row values for rows with their
    positive entries first, as `natural_occupations` gives them."""
    x = occ / 2.0
    positive = x > 0.0
    terms = x * np.log2(np.where(positive, x, 1.0))  # 0 where x = 0
    counts = np.count_nonzero(positive, axis=-1)
    s = np.empty(len(x))
    for n in set(counts.tolist()):
        rows = counts == n
        s[rows] = -np.sum(terms[rows, :n], axis=-1)
    return s


def correlation_energy(e_hf, e_fci):
    """E_corr = E_HF - E_FCI (non-negative by the variational principle); of one
    point or, elementwise, of a batch."""
    diff = e_hf - e_fci
    if np.min(diff) < -1e-9:
        raise NumericalCheckError(
            f"E_FCI above E_HF by {-np.min(diff):.3e} Hartree; variational violation")
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
