"""Gaussian94-format basis-set parsing and atom-centered basis construction.

Contraction coefficients in the files refer to normalized primitives. Parsing
multiplies in the primitive norms and a contraction norm, so every contracted
function has unit self-overlap.
"""

import os
from dataclasses import dataclass
from itertools import islice
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
_FORTRAN = str.maketrans("Dd", "Ee")  # 1.0D-01 is 1.0E-01
CARTESIAN_COMPONENTS = {
    0: ((0, 0, 0),),
    1: ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
}


@dataclass(frozen=True)
class Shell:
    """One contracted shell; the coefficients include the primitive norms and
    the contraction norm, so each Cartesian component has unit self-overlap."""
    angular_momentum: int
    exponents: tuple
    coefficients: tuple

    def __post_init__(self):
        if self.angular_momentum not in (0, 1):
            raise UnsupportedShellError(
                f"only s and p shells supported, got l={self.angular_momentum}")


def primitive_norm(exponent, powers):
    """Normalization constant of a Cartesian Gaussian primitive, powers <= 1."""
    return np.sqrt((2.0 * exponent / np.pi) ** 1.5 * (4.0 * exponent) ** sum(powers))


def _normalized_shell(l, exponents, coefficients, lineno):
    """A shell from file coefficients, which refer to normalized primitives."""
    coefs = [c * primitive_norm(a, (l, 0, 0)) for a, c in zip(exponents, coefficients)]
    self_overlap = 0.0
    for ca, a in zip(coefs, exponents):
        for cb, b in zip(coefs, exponents):
            p = a + b  # overlap of two same-center primitives with powers (l, 0, 0)
            self_overlap += ca * cb * ((np.pi / p) ** 1.5 * (1 / (2.0 * p)) ** l)
    if not self_overlap > 0.0:
        raise BasisParseError("shell has zero norm (are all its coefficients zero?)", lineno)
    scale = 1.0 / np.sqrt(self_overlap)
    return Shell(l, exponents, tuple(c * scale for c in coefs))


@dataclass(frozen=True)
class BasisSet:
    name: str
    shells_per_element: dict


def parse_basis(text, name="custom"):
    """Parse a Gaussian94-style basis definition into a BasisSet."""
    lines = text.splitlines()
    numbered = enumerate(lines, 1)  # the primitive loop below reads on from the same iterator
    shells_per_element = {}
    element = None
    shells = []
    for lineno, line in numbered:
        line = line.strip()
        if not line or line.startswith("!"):
            continue
        if line == "****":
            if element is not None:
                if not shells:
                    raise BasisParseError(f"element block {element} has no shells", lineno)
                if not any(s.angular_momentum == 0 for s in shells):
                    raise BasisParseError(f"element block {element} has no s shell", lineno)
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
            scale = float(fields[2].translate(_FORTRAN)) if len(fields) > 2 else 1.0
        except (IndexError, ValueError):
            raise BasisParseError(f"bad shell header {line!r}", lineno) from None
        if n_prim < 1:
            raise BasisParseError(f"shell needs at least one primitive, got {n_prim}", lineno)
        if not 0.0 < scale < np.inf:
            raise BasisParseError(f"shell scale factor must be positive and finite, got {scale}",
                                  lineno)
        want = 3 if label == "SP" else 2
        rows = []
        for prim_lineno, prim_line in islice(numbered, n_prim):
            prim_fields = prim_line.split()
            if len(prim_fields) != want:
                raise BasisParseError(
                    f"expected {want} columns in primitive line, got {prim_line!r}", prim_lineno)
            try:
                exponent, *coefs = [float(x.translate(_FORTRAN)) for x in prim_fields]
            except ValueError:
                raise BasisParseError(f"bad number in {prim_line!r}", prim_lineno) from None
            exponent *= scale ** 2
            if not 0.0 < exponent < np.inf:
                raise BasisParseError(
                    f"exponent must be positive and finite in {prim_line!r}", prim_lineno)
            if not np.isfinite(coefs).all():
                raise BasisParseError(f"coefficients must be finite in {prim_line!r}",
                                      prim_lineno)
            rows.append((exponent, *coefs))
        if len(rows) < n_prim:
            raise BasisParseError(f"unexpected end of file in {label} shell", len(lines))
        exponents, *columns = zip(*rows)
        ls = (0, 1) if label == "SP" else (_SHELL_LABELS[label],)
        shells += [_normalized_shell(l, exponents, c, lineno) for l, c in zip(ls, columns)]
    if element is not None:
        raise BasisParseError(f"element block {element} not terminated by ****", len(lines))
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
    shells: tuple  # (atom index, Shell) pairs, in build order


def build_ao_basis(mol, basis):
    """Expand a molecule's atoms + BasisSet into an ordered list of basis functions.

    mol is a Molecule, a batch of geometries: `shells` name each shell's atom, one
    layout for the whole batch, and the functions sit at the first geometry's centers.
    Order: atoms in input order, shells in file order, Cartesian components x, y, z.
    """
    functions = []
    shells = []
    for n, (element, center) in enumerate(zip(mol.elements, mol.xyz[0].tolist())):
        try:
            element_shells = basis.shells_per_element[element]
        except KeyError:
            raise MissingElementError(
                f"basis {basis.name!r} has no entry for element {element}") from None
        for shell in element_shells:
            shells.append((n, shell))
            for powers in CARTESIAN_COMPONENTS[shell.angular_momentum]:
                functions.append(BasisFunction(tuple(center), powers, shell.exponents,
                                               shell.coefficients))
    return AOBasis(tuple(functions), tuple(shells))
