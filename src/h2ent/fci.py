"""Full configuration interaction for two electrons in the singlet-gerade block.

With one alpha and one beta electron in K spatial orbitals, every CI state is
a K x K coefficient matrix C[a, b] over the determinants a+_(a alpha)
a+_(b beta)|0>, alpha before beta. With chemists' ERIs, and no sign,

    H[(a, b), (c, d)] = h_ac delta_bd + delta_ac h_bd + (ac|bd).

The ground state is a gerade singlet, so H is diagonalised only in that block:
C symmetric, and C[a, b] = 0 unless MOs a and b share their inversion parity. No
triplet can then compete with it. The block is gathered at its pairs a <= b, and no
K^2 x K^2 array is built. The SVD of C is the Schmidt decomposition of the state.

Every function takes a batch of geometries on a leading array axis, in stacked
records or arrays, and works on it with stacked BLAS and LAPACK calls and
whole-array gathers; one geometry is a batch of one.
"""

from typing import NamedTuple

import numpy as np

from .errors import SCFConvergenceError


class CIResult(NamedTuple):
    """The FCI ground states of G geometries."""
    e_fci: np.ndarray         # (G,), Hartree
    coefficients: np.ndarray  # (G, K, K), C[alpha orbital, beta orbital]


def mo_transform(ints, c):
    """AO -> MO transform of the core Hamiltonian and the ERI tensor of an IntegralSet
    of G geometries with their (G, K, K) coefficients: (G, K, K) and (G, K, K, K, K).
    """
    hcore = ints.hcore
    n, k = hcore.shape[:2]
    if c.shape != hcore.shape:
        raise ValueError(f"coefficient matrices of shape {c.shape} != {hcore.shape}")
    ct = c.swapaxes(-1, -2)
    h = ct @ hcore @ c
    h = 0.5 * (h + h.swapaxes(-1, -2))
    # one index at a time, each a matmul over the others: (mn|ls) -> (mn|lt)
    # -> (mn|rt) -> (mq|rt) -> (pq|rt)
    g = ints.eri.reshape(n, k ** 3, k) @ c
    g = ct[:, None] @ g.reshape(n, k * k, k, k)
    g = ct[:, None] @ g.reshape(n, k, k, k * k)
    g = (ct @ g.reshape(n, k, k ** 3)).reshape(n, k, k, k, k)
    return h, g


def singlet_gerade_pairs(parity):
    """The equal-parity MO pairs a <= b in row-major order, from the (K,) MO parities, and
    their weights u, 1/2 if a = b else 1/sqrt(2): the orthonormal basis u vec(E_ab + E_ba)."""
    a, b = np.nonzero(np.triu(parity[:, None] == parity))
    return a, b, np.where(a == b, 0.5, 0.5 ** 0.5)


def build_hamiltonian(h, g, pairs):
    """The (..., M, M) block on `singlet_gerade_pairs` from h (..., K, K), g (..., K, K, K, K):
    u_i u_j times the sum of H[(p, q), (r, s)] over both orientations of pairs i and j."""
    a, b, u = pairs
    k, lead = h.shape[-1], h.shape[:-2]
    r, s = np.stack([a, b]), np.stack([b, a])  # (orientation, pair)
    p, q = r[:, :, None, None], s[:, :, None, None]
    pr, qs = p * k + r, q * k + s  # flat indices, rows (p, q) by columns (r, s)
    # a delta of 0 reads a 0 appended to h at k * k: no product array the size of x
    h = np.concatenate([h.reshape(lead + (-1,)), np.zeros(lead + (1,))], -1)
    x = h.take(np.where(q == s, pr, k * k), -1)  # h_pr delta_qs
    x += h.take(np.where(p == r, qs, k * k), -1)  # delta_pr h_qs
    x += g.reshape(lead + (-1,)).take(pr * k * k + qs, -1)
    x = (x[..., 0, :, 0, :] + x[..., 0, :, 1, :]) + (x[..., 1, :, 0, :] + x[..., 1, :, 1, :])
    return u[:, None] * u * x  # pairwise, so four equal terms sum exactly


def run_fci(ints, scf):
    """Full CI ground states in the converged RHF orbital bases of a batch.

    The IntegralSet and the stacked SCFResult of G geometries give one stacked
    CIResult, from one pass. Phase convention: largest-magnitude coefficient positive.
    """
    if not np.all(scf.converged):
        raise SCFConvergenceError("FCI requires a converged SCF reference")
    h, g = mo_transform(ints, scf.mo_coefficients)
    a, b, u = pairs = singlet_gerade_pairs(scf.parity[0])  # one parity row for the batch
    vals, vecs = np.linalg.eigh(build_hamiltonian(h, g, pairs))
    c = np.zeros(h.shape)  # (G, K, K)
    c[:, a, b] = u * vecs[..., 0]
    c = c + c.swapaxes(1, 2)  # a diagonal entry gets both halves, exactly: u = 1/2
    flat = c.reshape(len(c), -1)
    largest = np.take_along_axis(flat, np.abs(flat).argmax(-1)[:, None], -1)
    c = np.where(largest[:, :, None] < 0, -c, c)
    return CIResult(e_fci=vals[:, 0] + ints.e_nuclear, coefficients=c)
