"""Electron-correlation measures derived from the CI ground state.

The singlet's symmetric K x K CI coefficient matrix C = U diag(lambda) U^T is the
Schmidt decomposition of the two-electron state (Lowdin and Shull, Phys. Rev. 101,
1730 (1956)): the natural occupations are 2 lambda^2, and their von Neumann entropy
is in bits. Also the correlation energy E_HF - E_FCI, the curve rescaling that
anchors the entropy to E_corr at the largest scanned distance, and the spin-summed
density matrix C C^T + C^T C, off the pipeline. The functions take a batch of
geometries on a leading array axis.
"""

import numpy as np

from .errors import NumericalCheckError


def one_particle_density(ci):
    """Spin-summed gamma_pq = <Psi|a+_p a_q|Psi> = (C C^T + C^T C)_pq of a stacked
    CIResult of G geometries: a (G, K, K) stack of K x K matrices in the MO basis."""
    c = ci.coefficients
    ct = c.swapaxes(-1, -2)
    return c @ ct + ct @ c


def natural_occupations(ci):
    """Descending natural occupations 2 lambda^2 of a stacked CIResult, (G, K), from
    one stacked eigvalsh of C. C must be symmetric to 1e-12, since the eigensolver
    reads only its lower triangle, and sum lambda^2 must be 1 to 1e-12."""
    c = ci.coefficients
    if not np.max(np.abs(c - c.swapaxes(-1, -2))) <= 1e-12:  # a NaN fails too
        raise NumericalCheckError("CI coefficient matrix must be symmetric")
    lam2 = np.linalg.eigvalsh(c) ** 2
    if not np.max(np.abs(lam2.sum(-1) - 1.0)) <= 1e-12:
        raise NumericalCheckError("sum of lambda^2 must be 1")
    return 2.0 * np.sort(lam2)[..., ::-1]


def von_neumann_entropies(occ):
    """S = -sum_k (n_k/2) log2(n_k/2) in bits, 0 log 0 = 0, of each row of a (G, K)
    stack of occupations, from one pass. numpy groups a sum of 8 or more terms by its
    length, so each row sums only its positive entries, rows of one count at a time:
    bit for bit the sum over that row's positive entries alone, for rows with their
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
