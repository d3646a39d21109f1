"""Hartree-Fock / full-CI engine for two-electron diatomics, with
occupation-number entanglement entropy and CHSH analysis."""

__version__ = "0.1.0"
