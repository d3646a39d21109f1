"""Gaussian94-format basis-set parsing and atom-centered basis construction.

Contraction coefficients in the files refer to normalized primitives; a final
contracted normalization factor is attached at parse time so that every
contracted function has unit self-overlap.
"""

import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import BasisParseError, MissingElementError, UnsupportedShellError

_DATA_DIR = Path(__file__).parent / "data"
_BUILTIN_FILES = {
    "sto-3g": "sto-3g.gbs",
    "6-31gss": "6-31gss.gbs",
    "6-31g**": "6-31gss.gbs",
}

_SHELL_LABELS = {"S": 0, "P": 1}
CARTESIAN_COMPONENTS = {
    0: ((0, 0, 0),),
    1: ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
}


@dataclass(frozen=True)
class PrimitiveGaussian:
    exponent: float
    coefficient: float

    def __post_init__(self):
        if self.exponent <= 0:
            raise ValueError(f"primitive exponent must be positive, got {self.exponent}")


@dataclass(frozen=True)
class Shell:
    angular_momentum: int
    primitives: tuple
    normalized_coefficients: tuple = ()  # set by normalize_shell
    center_index: int = None

    def __post_init__(self):
        if self.angular_momentum not in (0, 1):
            raise UnsupportedShellError(
                f"only s and p shells supported, got l={self.angular_momentum}")
        if not self.primitives:
            raise ValueError("shell needs at least one primitive")


def _double_factorial(n):
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def primitive_norm(exponent, powers):
    """Normalization constant of a Cartesian Gaussian primitive."""
    i, j, k = powers
    l = i + j + k
    dfac = _double_factorial(2 * i - 1) * _double_factorial(2 * j - 1) * _double_factorial(2 * k - 1)
    return np.sqrt((2.0 * exponent / np.pi) ** 1.5 * (4.0 * exponent) ** l / dfac)


def _same_center_overlap(a, b, powers):
    """Overlap of two unnormalized primitives with identical center and powers."""
    p = a + b
    i, j, k = powers
    val = (np.pi / p) ** 1.5
    for n in (i, j, k):
        val *= _double_factorial(2 * n - 1) / (2.0 * p) ** n
    return val


def normalize_shell(shell):
    """Attach fully normalized contraction coefficients to a shell.

    The stored raw primitives keep the coefficients as the file gives them.
    """
    l = shell.angular_momentum
    powers = (l, 0, 0)  # all Cartesian components of an l<=1 shell share the norm
    exps = [p.exponent for p in shell.primitives]
    coefs = [p.coefficient * primitive_norm(p.exponent, powers) for p in shell.primitives]
    self_overlap = 0.0
    for ca, aa in zip(coefs, exps):
        for cb, ab in zip(coefs, exps):
            self_overlap += ca * cb * _same_center_overlap(aa, ab, powers)
    scale = 1.0 / np.sqrt(self_overlap)
    return replace(shell, normalized_coefficients=tuple(c * scale for c in coefs))


@dataclass(frozen=True)
class BasisSet:
    name: str
    shells_per_element: dict

    def __post_init__(self):
        for elem, shells in self.shells_per_element.items():
            if not any(s.angular_momentum == 0 for s in shells):
                raise ValueError(f"element {elem} has no s shell")


def parse_basis(text, name="custom"):
    """Parse a Gaussian94-style basis definition into a BasisSet."""
    lines = text.splitlines()
    shells_per_element = {}
    element = None
    shells = []
    i = 0
    n = len(lines)
    while i < n:
        lineno = i + 1
        line = lines[i].strip()
        i += 1
        if not line or line.startswith("!"):
            continue
        if line == "****":
            if element is not None:
                if not shells:
                    raise BasisParseError(f"element block {element} has no shells", lineno)
                shells_per_element[element] = tuple(shells)
                element, shells = None, []
            continue
        fields = line.split()
        if element is None:
            if len(fields) != 2:
                raise BasisParseError(f"expected element header, got {line!r}", lineno)
            element = fields[0].capitalize()
            if element in shells_per_element:
                raise BasisParseError(f"element block {element} appears twice", lineno)
            continue
        # shell header: LABEL n_prim [scale]; exponents are multiplied by scale^2
        label = fields[0].upper()
        if label not in _SHELL_LABELS and label != "SP":
            raise UnsupportedShellError(
                f"line {lineno}: unsupported shell type {label!r} (s and p only)")
        try:
            n_prim = int(fields[1])
            scale = float(fields[2]) if len(fields) > 2 else 1.0
        except (IndexError, ValueError):
            raise BasisParseError(f"bad shell header {line!r}", lineno) from None
        if not 0.0 < scale < np.inf:
            raise BasisParseError(f"shell scale factor must be positive and finite, got {scale}",
                                  lineno)
        rows = []
        for k in range(n_prim):
            if i >= n:
                raise BasisParseError(f"unexpected end of file in {label} shell", n)
            prim_lineno = i + 1
            prim_fields = lines[i].split()
            i += 1
            want = 3 if label == "SP" else 2
            if len(prim_fields) != want:
                raise BasisParseError(
                    f"expected {want} columns in primitive line, got {lines[i-1]!r}",
                    prim_lineno)
            try:
                rows.append([float(x.replace("D", "E").replace("d", "e"))
                             for x in prim_fields])
            except ValueError:
                raise BasisParseError(f"bad number in {lines[i-1]!r}", prim_lineno) from None
        rows = [[r[0] * scale ** 2, *r[1:]] for r in rows]
        if label == "SP":
            s_prims = tuple(PrimitiveGaussian(r[0], r[1]) for r in rows)
            p_prims = tuple(PrimitiveGaussian(r[0], r[2]) for r in rows)
            shells.append(normalize_shell(Shell(0, s_prims)))
            shells.append(normalize_shell(Shell(1, p_prims)))
        else:
            prims = tuple(PrimitiveGaussian(r[0], r[1]) for r in rows)
            shells.append(normalize_shell(Shell(_SHELL_LABELS[label], prims)))
    if element is not None:
        raise BasisParseError(f"element block {element} not terminated by ****", n)
    if not shells_per_element:
        raise BasisParseError("no element blocks", None)
    return BasisSet(name, shells_per_element)


def load_basis(name_or_path, basis_dir=None):
    """Load a basis by builtin name or file path.

    Search order for named sets: explicit basis_dir, the H2E_BASIS_DIR
    environment variable, then the packaged data directory.
    """
    key = str(name_or_path).lower()
    path = Path(name_or_path)
    if key in _BUILTIN_FILES:
        filename = _BUILTIN_FILES[key]
        for d in (basis_dir, os.environ.get("H2E_BASIS_DIR")):
            if d and (Path(d) / filename).exists():
                path = Path(d) / filename
                break
        else:
            path = _DATA_DIR / filename
    elif not path.exists():
        raise FileNotFoundError(f"unknown basis {name_or_path!r}")
    return parse_basis(path.read_text(), name=str(name_or_path))


@dataclass(frozen=True)
class BasisFunction:
    """One contracted Cartesian Gaussian with fully normalized coefficients."""
    center: tuple
    powers: tuple
    exponents: tuple
    coefficients: tuple


@dataclass(frozen=True)
class AOBasis:
    functions: tuple
    shells: tuple  # shells bound to atom centers, in build order

    @property
    def n(self):
        return len(self.functions)


def build_ao_basis(mol, basis):
    """Expand a Molecule + BasisSet into an ordered list of basis functions.

    Ordering is deterministic: atoms in input order, shells in file order,
    Cartesian components in (x, y, z) order.
    """
    functions = []
    bound_shells = []
    for atom_index, at in enumerate(mol.atoms):
        try:
            shells = basis.shells_per_element[at.element]
        except KeyError:
            raise MissingElementError(
                f"basis {basis.name!r} has no entry for element {at.element}") from None
        for shell in shells:
            bound_shells.append(replace(shell, center_index=atom_index))
            for powers in CARTESIAN_COMPONENTS[shell.angular_momentum]:
                functions.append(BasisFunction(
                    center=at.position,
                    powers=powers,
                    exponents=tuple(p.exponent for p in shell.primitives),
                    coefficients=shell.normalized_coefficients))
    return AOBasis(tuple(functions), tuple(bound_shells))
