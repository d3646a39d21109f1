"""Full configuration interaction for two electrons in the MO basis.

With one alpha and one beta electron in K spatial orbitals, every CI state is
a K x K coefficient matrix C[a, b] over the determinants a+_(a alpha)
a+_(b beta)|0>, alpha before beta, flattened as a*K + b. In that basis

    H = h (x) 1 + 1 (x) h + (ac|bd),   row (a, b), column (c, d),

with chemists' ERIs; no sign enters. The singlet ground state has symmetric
C, and the SVD of C is the Schmidt decomposition of the two-electron state.
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
    # enforce the 8-fold permutational symmetry exactly
    g = (g + g.transpose(1, 0, 2, 3) + g.transpose(0, 1, 3, 2)
         + g.transpose(1, 0, 3, 2) + g.transpose(2, 3, 0, 1)
         + g.transpose(3, 2, 0, 1) + g.transpose(2, 3, 1, 0)
         + g.transpose(3, 2, 1, 0)) / 8.0
    return 0.5 * (h_mo + h_mo.T), g


def build_hamiltonian(h, g):
    """Dense K^2 x K^2 Hamiltonian on vec(C), index a*K + b."""
    k = h.shape[0]
    one = np.eye(k)
    # h (x) 1 + 1 (x) h + g[a, c, b, d], each indexed [a, b, c, d]
    ham = (h[:, None, :, None] * one[None, :, None, :]
           + one[:, None, :, None] * h[None, :, None, :] + g.transpose(0, 2, 1, 3))
    return ham.reshape(k * k, k * k)


def run_fci(ints, scf_result, mol):
    """Full CI ground state in the converged RHF orbital basis.

    Phase convention: largest-magnitude coefficient positive. In a degenerate
    ground manifold the state with maximal overlap on the HF determinant
    C[0, 0] is selected, matching the adiabatic ground-state narrative.
    """
    if not scf_result.converged:
        raise SCFConvergenceError("FCI requires a converged SCF reference")
    if mol.n_electrons != 2:
        raise ValueError(f"FCI handles two electrons, got {mol.n_electrons}")
    k = scf_result.mo_coefficients.shape[1]
    h, g = mo_transform(ints, scf_result.mo_coefficients)
    vals, vecs = np.linalg.eigh(build_hamiltonian(h, g))
    e0 = vals[0]
    degenerate = np.where(vals <= e0 + 1e-8)[0]
    proj = vecs[:, degenerate] @ vecs[0, degenerate]
    norm = np.linalg.norm(proj)
    c = (proj / norm if norm > 1e-6 else vecs[:, degenerate[0]]).reshape(k, k)
    # The ground state is a singlet, C = C^T. Past R ~ 6 Bohr the lowest
    # triplet comes within 1e-4 to 1e-8 Hartree of it, and eigh leaves up to
    # ~1e-9 of that triplet in the vector; keep the symmetric part only.
    c = c + c.T
    c /= np.linalg.norm(c)
    if c.flat[np.argmax(np.abs(c))] < 0:
        c = -c
    return CIResult(e_fci=float(e0 + nuclear_repulsion(mol)), coefficients=c)
