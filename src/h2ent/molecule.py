"""Diatomic geometries, nuclear charges and the nuclear repulsion energy.

A Molecule is a batch of geometries of one molecule, nuclei only: the pipeline
puts two electrons on them (one H atom is H-), takes one batch per stage, and
takes one geometry as a batch of one. Lengths are in Bohr, energies in Hartree.
"""

from itertools import combinations
from typing import NamedTuple

import numpy as np

ANGSTROM_TO_BOHR = 1.8897261254578281

ELEMENT_CHARGES = {
    "H": 1, "He": 2, "Li": 3, "Be": 4, "B": 5,
    "C": 6, "N": 7, "O": 8, "F": 9, "Ne": 10,
}


class Molecule(NamedTuple):
    """G geometries of one molecule: its atoms' elements and nuclear charges, in order,
    and their positions. `xyz` is the one field with the batch axis."""
    elements: tuple
    charges: tuple
    xyz: np.ndarray  # (G, atoms, 3), Bohr


def molecule(atoms):
    """One geometry, from (element, position) pairs with positions in Bohr, no two
    atoms more than 1e100 Bohr apart."""
    elements = tuple(element for element, _ in atoms)
    xyz = np.array([[position for _, position in atoms]], dtype=float)
    if not elements or xyz.shape[2:] != (3,) or not np.all(np.isfinite(xyz)):
        raise ValueError(f"need atoms at finite 3-vector positions, got {atoms}")
    for element in elements:
        if element not in ELEMENT_CHARGES:
            raise ValueError(f"unknown element {element!r}")
    with np.errstate(over="ignore"):  # a difference that overflows is inf, rejected
        d = xyz[0, :, None] - xyz[0, None]
    _check_distances(np.hypot(np.hypot(d[..., 0], d[..., 1]), d[..., 2]))  # no squares
    return Molecule(elements, tuple(ELEMENT_CHARGES[e] for e in elements), xyz)


def _check_distances(r):
    # the integrals square each distance, which overflows from ~1e154 Bohr on
    if not np.max(r) <= 1e100:
        raise ValueError(f"internuclear distance must be at most 1e100 Bohr, got {np.max(r):g}")


def h2(r_bohr):
    """H2 with the bond along z, one atom at the origin: a batch of one geometry
    per bond length of r_bohr, a number or a sequence."""
    rs = np.atleast_1d(np.asarray(r_bohr, dtype=float))
    if not np.all((rs > 0) & np.isfinite(rs)):
        raise ValueError(f"internuclear distance must be positive and finite, got {r_bohr}")
    _check_distances(rs)
    xyz = np.zeros((len(rs), 2, 3))
    xyz[:, 1, 2] = rs
    return Molecule(("H", "H"), (1, 1), xyz)


def nuclear_repulsion(mol):
    """Sum of Z_A Z_B / R_AB over distinct nuclear pairs of each geometry, shape (G,),
    in Hartree."""
    e = np.zeros(len(mol.xyz))
    for i, j in combinations(range(len(mol.charges)), 2):
        d = mol.xyz[:, i] - mol.xyz[:, j]
        r = np.hypot(np.hypot(d[:, 0], d[:, 1]), d[:, 2])  # no squares to underflow
        if not np.all(r > 0.0):
            raise ValueError(f"coincident nuclei {i} and {j}")
        e += mol.charges[i] * mol.charges[j] / r
    return e
