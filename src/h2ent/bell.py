"""CHSH/Bell-inequality machinery for two-spin states.

Two-qubit states, the singlet and product reference states and CHSH
evaluation. The correlation tensor T_ij = Tr[rho sigma_i x sigma_j] is one
contraction of rho with the Pauli-pair tensor, built once at import, and each
correlation E(u, w) is the bilinear form u . T w. The CHSH maximum comes
twice: `chsh_max_grid` builds the optimal settings from the eigenvectors of
T^T T and evaluates them on T, and `chsh_max_closed_form` is the Horodecki
criterion 2 sqrt(m1 + m2) (Phys. Lett. A 200, 340 (1995)), kept as the oracle.
"""

from dataclasses import dataclass

import numpy as np

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)

TSIRELSON = 2.0 * np.sqrt(2.0)

# _PAULI_PAIRS[i, j] = (sigma_i x sigma_j)^T, so Tr[rho sigma_i x sigma_j] is
# the sum over a, b of _PAULI_PAIRS[i, j, a, b] rho[a, b].
_PAULI_PAIRS = np.array([[np.kron(p, q).T for q in PAULI] for p in PAULI])


def unit_vector(v):
    v = np.asarray(v, dtype=float)
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"vector must have unit norm, |v| = {norm}")
    return v


@dataclass(frozen=True)
class TwoQubitState:
    rho: np.ndarray  # 4x4 density matrix

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=complex)
        if rho.shape != (4, 4):
            raise ValueError("density matrix must be 4x4")
        if not np.allclose(rho, rho.conj().T, rtol=0.0, atol=1e-12):
            raise ValueError("density matrix must be Hermitian")
        if abs(np.trace(rho).real - 1.0) > 1e-12:
            raise ValueError("density matrix must have unit trace")
        if np.linalg.eigvalsh(rho).min() < -1e-10:
            raise ValueError("density matrix must be positive semidefinite")
        object.__setattr__(self, "rho", rho)

    def correlation_tensor(self):
        """T_ij = Tr[rho sigma_i x sigma_j]."""
        return np.einsum("ijab,ab->ij", _PAULI_PAIRS, self.rho).real


@dataclass(frozen=True)
class MeasurementSettings:
    a: np.ndarray  # first party
    d: np.ndarray  # first party
    b: np.ndarray  # second party
    c: np.ndarray  # second party

    def __post_init__(self):
        for name in "adbc":
            object.__setattr__(self, name, unit_vector(getattr(self, name)))


@dataclass(frozen=True)
class CHSHReport:
    value: float
    settings: MeasurementSettings
    violated: bool

    def __post_init__(self):
        if abs(self.value) > TSIRELSON + 1e-9:
            raise ValueError(f"CHSH value {self.value} beyond the Tsirelson bound")


def singlet():
    """(|01> - |10>)/sqrt(2) as a density matrix."""
    psi = np.zeros(4, dtype=complex)
    psi[1] = 1.0 / np.sqrt(2.0)
    psi[2] = -1.0 / np.sqrt(2.0)
    return TwoQubitState(np.outer(psi, psi.conj()))


def product_updown():
    """|up, down><up, down|: the spin content of the closed-shell determinant."""
    psi = np.zeros(4, dtype=complex)
    psi[1] = 1.0
    return TwoQubitState(np.outer(psi, psi.conj()))


def correlation(state, u, w):
    """E(u, w) = Tr[rho (sigma.u x sigma.w)] = u . T w, u on party 1, w on party 2."""
    return float(unit_vector(u) @ state.correlation_tensor() @ unit_vector(w))


def chsh_value(state, settings):
    """E(a,b) + E(d,b) + E(d,c) - E(a,c); a, d on party 1, b, c on party 2."""
    return _chsh(state.correlation_tensor(), settings)


def _chsh(t, s):
    return float(s.a @ t @ s.b + s.d @ t @ s.b + s.d @ t @ s.c - s.a @ t @ s.c)


def chsh_max_closed_form(state):
    """2 sqrt(m1 + m2) with m1, m2 the two largest eigenvalues of T^T T."""
    t = state.correlation_tensor()
    m = np.linalg.eigvalsh(t.T @ t)  # ascending
    return float(2.0 * np.sqrt(m[-1] + m[-2]))


def _party1_settings(t, bvec, cvec):
    def normalized(v):
        n = np.linalg.norm(v)
        return v / n if n > 1e-14 else np.array([0.0, 0.0, 1.0])
    return normalized(t @ (bvec - cvec)), normalized(t @ (bvec + cvec))


def chsh_max_grid(state, angular_resolution=1.0):
    """Maximize CHSH with the optimal settings, built in closed form.

    For fixed b, c the best a, d give ||T(b - c)|| + ||T(b + c)||. With v1, v2
    the eigenvectors of T^T T for its largest eigenvalues m1 >= m2, the choice
    b, c = cos(theta) v1 +- sin(theta) v2, tan(theta) = sqrt(m2 / m1), makes
    this 2 sqrt(m1 + m2). The value is `chsh_value` at these settings, from the
    same T.

    `angular_resolution` has no effect, since the settings are exact; it is
    accepted so that callers passing it by keyword or position keep working.
    """
    t = state.correlation_tensor()
    m, v = np.linalg.eigh(t.T @ t)
    m = np.clip(m, 0.0, None)
    theta = np.arctan2(np.sqrt(m[-2]), np.sqrt(m[-1]))
    bvec = np.cos(theta) * v[:, -1] + np.sin(theta) * v[:, -2]
    cvec = np.cos(theta) * v[:, -1] - np.sin(theta) * v[:, -2]
    avec, dvec = _party1_settings(t, bvec, cvec)
    settings = MeasurementSettings(a=avec, d=dvec, b=bvec, c=cvec)
    value = _chsh(t, settings)
    return CHSHReport(value=value, settings=settings,
                      violated=value > 2.0 + 1e-9)
