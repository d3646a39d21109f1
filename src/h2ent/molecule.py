"""Diatomic geometries, nuclear charges and the nuclear repulsion energy.

All lengths are in Bohr and all energies in Hartree.
"""

import math
from dataclasses import dataclass

import numpy as np

ANGSTROM_TO_BOHR = 1.8897261254578281

ELEMENT_CHARGES = {
    "H": 1, "He": 2, "Li": 3, "Be": 4, "B": 5,
    "C": 6, "N": 7, "O": 8, "F": 9, "Ne": 10,
}


@dataclass(frozen=True)
class Atom:
    element: str
    nuclear_charge: int
    position: tuple  # (x, y, z) in Bohr

    def __post_init__(self):
        if self.nuclear_charge < 1:
            raise ValueError(f"nuclear charge must be >= 1, got {self.nuclear_charge}")
        pos = tuple(float(x) for x in self.position)
        if len(pos) != 3 or not all(map(math.isfinite, pos)):
            raise ValueError(f"position must be a finite 3-vector, got {self.position}")
        object.__setattr__(self, "position", pos)

    @property
    def coords(self):
        return np.asarray(self.position)


@dataclass(frozen=True)
class Molecule:
    atoms: tuple
    n_electrons: int

    def __post_init__(self):
        atoms = tuple(self.atoms)
        if not atoms:
            raise ValueError("molecule needs at least one atom")
        if self.n_electrons < 0:
            raise ValueError("electron count must be non-negative")
        object.__setattr__(self, "atoms", atoms)


def atom(element, position):
    return Atom(element, ELEMENT_CHARGES[element], tuple(position))


def h2(r_bohr):
    """Neutral H2 with the bond along z, one atom at the origin."""
    if r_bohr <= 0:
        raise ValueError(f"internuclear distance must be positive, got {r_bohr}")
    return Molecule((atom("H", (0.0, 0.0, 0.0)), atom("H", (0.0, 0.0, r_bohr))), 2)


def helium():
    return Molecule((atom("He", (0.0, 0.0, 0.0)),), 2)


def nuclear_repulsion(mol):
    """Sum of Z_A Z_B / R_AB over distinct nuclear pairs, in Hartree."""
    e = 0.0
    atoms = mol.atoms
    for i in range(len(atoms)):
        for j in range(i + 1, len(atoms)):
            r = math.dist(atoms[i].position, atoms[j].position)
            if r <= 0.0:
                raise ValueError(f"coincident nuclei {i} and {j}")
            e += atoms[i].nuclear_charge * atoms[j].nuclear_charge / r
    return e
