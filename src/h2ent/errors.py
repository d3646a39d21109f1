"""Exception types shared across the package."""


class H2entError(Exception):
    """Base class for package errors."""


class BasisParseError(H2entError):
    """Malformed basis-set file. Carries the 1-based line number."""

    def __init__(self, message, line_number=None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


class UnsupportedShellError(H2entError):
    """Angular momentum beyond what the engine supports (s and p only)."""


class MissingElementError(H2entError):
    """Molecule references an element absent from the basis set."""


class LinearDependenceError(H2entError):
    """Overlap matrix is numerically singular."""


class SymmetryError(H2entError):
    """The molecule and basis lack the inversion symmetry the RHF relies on."""


class SCFConvergenceError(H2entError):
    """SCF failed to converge where a converged reference is required."""


class NumericalCheckError(H2entError):
    """A computed result breaks a bound that exact arithmetic guarantees."""
