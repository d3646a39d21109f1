"""Full configuration interaction for two electrons in the singlet-gerade block.

With one alpha and one beta electron in K spatial orbitals, every CI state is
a K x K coefficient matrix C[a, b] over the determinants a+_(a alpha)
a+_(b beta)|0>, alpha before beta, flattened as a*K + b. In that basis

    H = h (x) 1 + 1 (x) h + (ac|bd),   row (a, b), column (c, d),

with chemists' ERIs; no sign enters. The ground state is a gerade singlet, so
H is diagonalised only in that block: C symmetric, and C[a, b] = 0 unless MOs
a and b share their inversion parity. No triplet can then compete with it. The
SVD of C is the Schmidt decomposition of the two-electron state.

Every function takes a batch of geometries on a leading array axis, in stacked
records or arrays, and works on it with one stacked BLAS or LAPACK call per
step; one geometry is a batch of one.
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


def singlet_gerade_basis(parity):
    """Orthonormal vec(E_aa), vec(E_ab + E_ba)/sqrt(2), a < b of equal parity, as the
    columns of one (K^2, M) array, from the (K,) parities of the K MOs."""
    k = len(parity)
    a, b = np.triu_indices(k)  # the pairs a <= b in row-major order
    same = parity[a] == parity[b]
    a, b = a[same], b[same]
    w = np.where(a == b, 1.0, 0.5 ** 0.5)
    basis = np.zeros((k * k, len(a)))
    column = np.arange(len(a))
    basis[a * k + b, column] = w
    basis[b * k + a, column] = w
    return basis


def build_hamiltonian(h, g, basis):
    """The block B^T H B of the K^2 x K^2 Hamiltonian on vec(C), B from
    `singlet_gerade_basis`; h (..., K, K), g (..., K, K, K, K), B (K^2, M)."""
    k = h.shape[-1]
    one = np.eye(k)
    # h (x) 1 + 1 (x) h + g[a, c, b, d], each indexed [a, b, c, d]
    ham = (h[..., :, None, :, None] * one[None, :, None, :]
           + one[:, None, :, None] * h[..., None, :, None, :] + g.swapaxes(-3, -2))
    return basis.T @ ham.reshape(h.shape[:-2] + (k * k, k * k)) @ basis


def run_fci(ints, scf):
    """Full CI ground states in the converged RHF orbital bases of a batch.

    The IntegralSet and the stacked SCFResult of G geometries give one stacked
    CIResult, from one pass. Phase convention: largest-magnitude coefficient positive.
    """
    if not np.all(scf.converged):
        raise SCFConvergenceError("FCI requires a converged SCF reference")
    c = scf.mo_coefficients
    n, k = c.shape[:2]
    h, g = mo_transform(ints, c)
    basis = singlet_gerade_basis(scf.parity[0])  # one parity row for the batch
    vals, vecs = np.linalg.eigh(build_hamiltonian(h, g, basis))
    c = (basis @ vecs[..., :1]).reshape(n, k, k)
    flat = c.reshape(n, -1)
    largest = np.take_along_axis(flat, np.abs(flat).argmax(-1)[:, None], -1)
    c = np.where(largest[:, :, None] < 0, -c, c)
    return CIResult(e_fci=vals[:, 0] + ints.e_nuclear, coefficients=c)
