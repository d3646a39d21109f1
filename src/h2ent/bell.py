"""CHSH/Bell-inequality machinery for two-spin states.

Two-qubit states, the singlet and product reference states and CHSH
evaluation. The correlation tensor T_ij = Tr[rho sigma_i x sigma_j] is one
product of the (9, 16) matrix of flattened Pauli pairs, built at import, with
rho flattened, and each correlation E(u, w) is the bilinear form u . T w. The
CHSH maximum comes twice: `chsh_max_grid` builds the optimal settings from one
`eigh` of T^T T and evaluates them on T, and `chsh_max_closed_form` is the
Horodecki criterion 2 sqrt(m1 + m2) (Phys. Lett. A 200, 340 (1995)), kept as
the oracle. Every check is written `not x <= bound`, so NaN fails it.
"""

import math
from collections import namedtuple

import numpy as np

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)

TSIRELSON = 2.0 * np.sqrt(2.0)

# Row 3 i + j is (sigma_i x sigma_j)^T flattened, so Tr[rho sigma_i x sigma_j]
# is that row times rho flattened.
_PAULI_PAIRS = np.array([np.kron(p, q).T.ravel() for p in PAULI for q in PAULI])


class TwoQubitState(namedtuple("TwoQubitState", "rho")):
    """A 4x4 two-qubit density matrix, stored as complex."""
    __slots__ = ()

    def __new__(cls, rho):
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (4, 4):
            raise ValueError("density matrix must be 4x4")
        if not abs(rho - rho.conj().T).max() <= 1e-12:
            raise ValueError("density matrix must be Hermitian")
        if not abs(rho.trace().real - 1.0) <= 1e-12:
            raise ValueError("density matrix must have unit trace")
        if not np.linalg.eigvalsh(rho)[0] >= -1e-10:
            raise ValueError("density matrix must be positive semidefinite")
        return super().__new__(cls, rho)

    def correlation_tensor(self):
        """T_ij = Tr[rho sigma_i x sigma_j]."""
        return (_PAULI_PAIRS @ self.rho.ravel()).real.reshape(3, 3)


class MeasurementSettings(namedtuple("MeasurementSettings", "a d b c")):
    """Unit 3-vectors: a, d on the first party, b, c on the second."""
    __slots__ = ()

    def __new__(cls, a, d, b, c):
        s = np.array((a, d, b, c), dtype=float)
        if s.shape != (4, 3):
            raise ValueError("settings must be four 3-vectors")
        norm = np.sqrt((s * s).sum(-1))
        if not abs(norm - 1.0).max() <= 1e-12:
            raise ValueError(f"vector must have unit norm, |v| = {norm}")
        return super().__new__(cls, *s)


class CHSHReport(namedtuple("CHSHReport", "value settings violated")):
    __slots__ = ()

    def __new__(cls, value, settings, violated):
        if not abs(value) <= TSIRELSON + 1e-9:
            raise ValueError(f"CHSH value {value} beyond the Tsirelson bound")
        return super().__new__(cls, value, settings, violated)


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


def chsh_max_closed_form(state):
    """2 sqrt(m1 + m2) with m1, m2 the two largest eigenvalues of T^T T."""
    t = state.correlation_tensor()
    m = np.linalg.eigvalsh(t.T @ t)  # ascending
    return 2.0 * math.sqrt(m[2] + m[1])


def _direction(x):
    n = math.sqrt(x @ x)
    return x / n if n > 1e-14 else np.array([0.0, 0.0, 1.0])


def chsh_max_grid(state, angular_resolution=1.0):
    """Maximize CHSH with the optimal settings, built in closed form.

    For fixed b, c the best a, d lie along T(b - c), T(b + c) and give
    ||T(b - c)|| + ||T(b + c)||. With v1, v2 the eigenvectors of T^T T for its
    largest eigenvalues m1 >= m2, the choice b, c = cos(theta) v1 +- sin(theta)
    v2, tan(theta) = sqrt(m2 / m1), makes this 2 sqrt(m1 + m2). Then b - c and
    b + c lie along v2 and v1, so a, d are T v2, T v1 normalised (z where that
    vanishes). The value is E(a,b) + E(d,b) + E(d,c) - E(a,c) at these settings,
    each E(u, w) = u . T w from the same T.

    `angular_resolution` has no effect, since the settings are exact; it is
    accepted so that callers passing it by keyword or position keep working.
    """
    t = state.correlation_tensor()
    m, v = np.linalg.eigh(t.T @ t)  # ascending
    theta = math.atan2(math.sqrt(max(0.0, m[1])), math.sqrt(max(0.0, m[2])))
    v2, v1 = v[:, 1], v[:, 2]
    u1, u2 = math.cos(theta) * v1, math.sin(theta) * v2
    settings = MeasurementSettings(_direction(t @ v2), _direction(t @ v1),
                                   u1 + u2, u1 - u2)
    tb, tc = t @ settings.b, t @ settings.c
    value = float(settings.a @ (tb - tc) + settings.d @ (tb + tc))
    return CHSHReport(value, settings, value > 2.0 + 1e-9)
