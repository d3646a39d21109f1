"""Full configuration interaction for two electrons in the singlet-gerade block.

With one alpha and one beta electron in K spatial orbitals, every CI state is
a K x K coefficient matrix C[a, b] over the determinants a+_(a alpha)
a+_(b beta)|0>, alpha before beta, flattened as a*K + b. In that basis

    H = h (x) 1 + 1 (x) h + (ac|bd),   row (a, b), column (c, d),

with chemists' ERIs; no sign enters. The ground state is a gerade singlet, so
H is diagonalised only in that block: C symmetric, and C[a, b] = 0 unless MOs
a and b share their inversion parity. No triplet can then compete with it. The
SVD of C is the Schmidt decomposition of the two-electron state.
"""

from dataclasses import dataclass

import numpy as np

from .errors import SCFConvergenceError
from .molecule import nuclear_repulsion


@dataclass(frozen=True)
class CIResult:
    e_fci: float
    coefficients: np.ndarray  # K x K, C[alpha orbital, beta orbital]


def mo_transform(ints, c):
    """AO -> MO transform of the core Hamiltonian and the ERI tensor."""
    n = ints.hcore.shape[0]
    if c.shape != (n, n):
        raise ValueError(f"coefficient matrix shape {c.shape} != ({n}, {n})")
    h_mo = c.T @ ints.hcore @ c
    g = np.einsum("mp,mnls->pnls", c, ints.eri)
    g = np.einsum("nq,pnls->pqls", c, g)
    g = np.einsum("lr,pqls->pqrs", c, g)
    g = np.einsum("st,pqrs->pqrt", c, g)
    return 0.5 * (h_mo + h_mo.T), g


def singlet_gerade_basis(parity):
    """Orthonormal vec(E_aa), vec(E_ab + E_ba)/sqrt(2), a < b of equal parity, as columns."""
    k = len(parity)
    pairs = [(a, b) for a in range(k) for b in range(a, k) if parity[a] == parity[b]]
    basis = np.zeros((k, k, len(pairs)))
    for j, (a, b) in enumerate(pairs):
        basis[a, b, j] = basis[b, a, j] = 1.0 if a == b else 0.5 ** 0.5
    return basis.reshape(k * k, len(pairs))


def build_hamiltonian(h, g, parity):
    """The singlet-gerade block B^T H B of the K^2 x K^2 Hamiltonian on vec(C)."""
    k = h.shape[0]
    one = np.eye(k)
    # h (x) 1 + 1 (x) h + g[a, c, b, d], each indexed [a, b, c, d]
    ham = (h[:, None, :, None] * one[None, :, None, :]
           + one[:, None, :, None] * h[None, :, None, :] + g.transpose(0, 2, 1, 3))
    b = singlet_gerade_basis(parity)
    return b.T @ ham.reshape(k * k, k * k) @ b


def run_fci(ints, scf_result, mol):
    """Full CI ground state in the converged RHF orbital basis.

    Phase convention: largest-magnitude coefficient positive.
    """
    if not scf_result.converged:
        raise SCFConvergenceError("FCI requires a converged SCF reference")
    if mol.n_electrons != 2:
        raise ValueError(f"FCI handles two electrons, got {mol.n_electrons}")
    k = scf_result.mo_coefficients.shape[1]
    h, g = mo_transform(ints, scf_result.mo_coefficients)
    vals, vecs = np.linalg.eigh(build_hamiltonian(h, g, scf_result.parity))
    c = (singlet_gerade_basis(scf_result.parity) @ vecs[:, 0]).reshape(k, k)
    if c.flat[np.argmax(np.abs(c))] < 0:
        c = -c
    return CIResult(e_fci=float(vals[0] + nuclear_repulsion(mol)), coefficients=c)
