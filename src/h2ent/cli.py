"""Command-line driver: single points, dissociation scans and CHSH demos.

`main` resolves each flag once: it converts distances to Bohr and loads the basis,
with --basis-dir. The library functions take Bohr, and a loaded BasisSet or a basis
name. A scan's result is one stacked Curve record, which `emit` writes as CSV or
JSON. Exit codes: 0 success, 1 usage error, 2 computation failure.
"""

import argparse
import json
import sys
from typing import NamedTuple

import numpy as np

from . import bell
from .basis import BasisSet, load_basis
from .correlation import (correlation_energy, natural_occupations, rescale_entropy,
                          von_neumann_entropies)
from .errors import H2entError, SCFConvergenceError
from .fci import run_fci
from .integrals import compute_all
from .molecule import ANGSTROM_TO_BOHR, h2
from .scf import SCFResult, run_rhf, run_rhf_batch

# Geometries per stacked pass of a scan. Memory grows with it, not with the
# grid; values do not depend on it.
SCAN_BATCH = 64


class Curve(NamedTuple):
    """The dissociation curve at G geometries, the batch axis first in every field."""
    r: np.ndarray            # (G,), Bohr
    e_hf: np.ndarray         # (G,), Hartree
    e_fci: np.ndarray
    e_corr: np.ndarray
    entropy: np.ndarray      # (G,), bits
    occupations: np.ndarray  # (G, K), descending
    rescaled_entropy: np.ndarray = None  # (G,), or None


def run_single_point(r_bohr, basis):
    """Full pipeline geometry -> integrals -> SCF -> FCI -> Curve at one R, in Bohr.

    basis is a loaded BasisSet, or a basis name or path to load. The point is a
    scan batch of one, returned without the batch axis, with Python floats for
    the scalars: its values are bit for bit its scan row's.
    """
    if not isinstance(basis, BasisSet):
        basis = load_basis(basis)
    ints = compute_all(basis, h2(r_bohr))
    scf = SCFResult(*(np.asarray(x)[None] for x in run_rhf(ints)))
    return Curve(*(x[0] if x.ndim > 1 else x[0].item()
                   for x in _correlate([r_bohr], ints, scf)[:-1]))


def _correlate(rs, ints, scf):
    """The stages after the SCF for a batch of geometries at the R of rs, one stacked
    pass each: the batch's Curve, without the rescaled entropy. Raises the H2entError
    of the first point that fails."""
    if not scf.converged.all():
        n = np.argmin(scf.converged)  # the first that did not
        raise SCFConvergenceError(f"SCF did not converge at R = {rs[n]} Bohr "
                                  f"({scf.iterations[n]} iterations)")
    ci = run_fci(ints, scf)
    occupations = natural_occupations(ci)
    return Curve(np.asarray(rs, float), scf.e_hf, ci.e_fci,
                 correlation_energy(scf.e_hf, ci.e_fci), von_neumann_entropies(occupations),
                 occupations)


def scan_grid(r_min, r_max, n_points, log_grid=False, far_point=None):
    """n_points R from r_min to r_max, evenly or log spaced, then far_point if it
    lies beyond r_max: a list, ascending. All distances are in Bohr."""
    for name, value in (("r_min", r_min), ("r_max", r_max), ("far_point", far_point)):
        if value is not None and not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if r_min <= 0 or r_max <= r_min:
        raise ValueError("need 0 < r_min < r_max")
    if n_points < 2:
        raise ValueError("need at least two scan points")
    rs = list((np.geomspace if log_grid else np.linspace)(r_min, r_max, n_points))
    if far_point is not None and far_point > r_max:
        rs.append(far_point)
    return rs


def run_scan(rs, basis, rescale=False):
    """Scan the dissociation curve at the ascending R of rs, in Bohr; basis is a
    loaded BasisSet, or a basis name or path to load.

    Returns (curve, failures): one Curve of the points that succeeded, with the
    rescaled entropy if rescale, and failures as (R, message) pairs. A point fails
    on an H2entError; any other exception propagates. Raises ValueError if rs is
    empty or not ascending (the rescaling anchors on its last point), and
    RuntimeError if every point failed. The grid is walked in batches of SCAN_BATCH
    geometries, each through one `compute_all` call, whose errors propagate, and one
    stacked pass per later stage. A batch that raises an H2entError goes back to the
    front of the queue as its two halves, through the same path, until each point
    that fails records its own error in a batch of one.
    """
    if not len(rs) or np.any(np.diff(rs) < 0):
        raise ValueError("rs must be ascending and not empty")
    if not isinstance(basis, BasisSet):
        basis = load_basis(basis)
    curves, failures = [], []
    batches = [rs[lo:lo + SCAN_BATCH] for lo in range(0, len(rs), SCAN_BATCH)]
    while batches:
        batch = batches.pop(0)
        ints = compute_all(basis, h2(batch))
        try:
            curves.append(_correlate(batch, ints, run_rhf_batch(ints)))
        except H2entError as exc:  # record and continue
            if len(batch) == 1:
                failures.append((batch[0], str(exc)))
            else:
                batches[:0] = [batch[:len(batch) // 2], batch[len(batch) // 2:]]
    if not curves:
        raise RuntimeError("all scan points failed: "
                           + "; ".join(f"R={r:g}: {m}" for r, m in failures))
    # each field of the batches' curves joined, all but the rescaled entropy
    curve = Curve(*map(np.concatenate, zip(*(c[:-1] for c in curves))))
    if rescale:
        curve = curve._replace(rescaled_entropy=rescale_entropy(curve.entropy, curve.e_corr))
    return curve, failures


_COLUMNS = ("R_bohr", "E_HF", "E_FCI", "E_corr", "entropy_bits", "entropy_rescaled")


def _fmt(x):
    return "" if x is None else f"{x:.17g}"


def emit(curve, fmt, path):
    """Write a Curve as CSV or JSON, one row per geometry, with 17 significant digits."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    rescaled = curve.rescaled_entropy
    rescaled = [None] * len(curve.r) if rescaled is None else rescaled.tolist()
    occupations = curve.occupations.tolist()
    rows = zip(zip(*(x.tolist() for x in curve[:5]), rescaled), occupations)
    if fmt == "csv":
        k = curve.occupations.shape[1]  # also with no rows
        lines = [",".join(_COLUMNS + tuple(f"n_{i+1}" for i in range(k)))]
        lines += [",".join(_fmt(x) for x in (*row, *occ)) for row, occ in rows]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps([{**dict(zip(_COLUMNS, row)), "occupations": occ}
                           for row, occ in rows], indent=2) + "\n"
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise RuntimeError(f"cannot write {path}: {exc}") from exc


_BELL_STATES = {
    "singlet": bell.singlet,
    "product": bell.product_updown,
    # the stretched two-configuration state is a symmetric spatial factor times the singlet
    "dissociation": bell.singlet,
}


def bell_demo(state_name):
    """Print the CHSH report for one of the named reference states."""
    state = _BELL_STATES[state_name]()
    report = bell.chsh_max_grid(state)
    closed = bell.chsh_max_closed_form(state)
    s = report.settings
    print(f"state: {state_name}")
    print(f"max CHSH (optimal settings):  {report.value:.9f}")
    print(f"max CHSH (closed form):       {closed:.9f}")
    for name in "adbc":
        v = getattr(s, name)
        print(f"  {name} = ({v[0]:+.6f}, {v[1]:+.6f}, {v[2]:+.6f})")
    print(f"violated: {report.violated}")
    return report


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def _build_parser():
    parser = _Parser(prog="h2ent",
                     description="H2 dissociation scans: HF/FCI energies, "
                                 "occupation entanglement and CHSH demos")
    parser.add_argument("--basis-dir", default=None,
                        help="directory searched first for a --basis NAME, as NAME.gbs "
                             "or a bundled set's file (or H2E_BASIS_DIR)")
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="dissociation-curve scan")
    scan.add_argument("--basis", default="sto-3g")
    scan.add_argument("--rmin", type=float, default=0.7)
    scan.add_argument("--rmax", type=float, default=10.0)
    scan.add_argument("--points", type=int, default=40)
    scan.add_argument("--log-grid", action="store_true")
    scan.add_argument("--unit", choices=("bohr", "angstrom"), default="bohr")
    scan.add_argument("--rescale", action="store_true")
    scan.add_argument("--far-point", type=float, default=20.0,
                      help="appended dissociation proxy in Bohr (<= rmax disables)")
    scan.add_argument("--out", required=True)
    scan.add_argument("--format", choices=("csv", "json"), default="csv")

    point = sub.add_parser("point", help="single-point calculation")
    point.add_argument("-R", type=float, required=True, dest="r")
    point.add_argument("--basis", default="sto-3g")
    point.add_argument("--unit", choices=("bohr", "angstrom"), default="bohr")

    bellp = sub.add_parser("bell", help="CHSH demonstration")
    bellp.add_argument("--state", choices=sorted(_BELL_STATES), required=True)
    return parser


def main(argv=None):
    """Run one `h2ent` command line; returns the exit code."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "bell":
            bell_demo(args.state)
            return 0
        to_bohr = ANGSTROM_TO_BOHR if args.unit == "angstrom" else 1.0
        if args.command == "scan":  # the far point is in Bohr in both units
            rs = scan_grid(args.rmin * to_bohr, args.rmax * to_bohr, args.points,
                           args.log_grid, args.far_point)
            basis = load_basis(args.basis, basis_dir=args.basis_dir)
            curve, failures = run_scan(rs, basis, args.rescale)
            emit(curve, args.format, args.out)
            for r, msg in failures:
                sys.stderr.write(f"warning: point R={r:g} failed: {msg}\n")
            print(f"wrote {len(curve.r)} points to {args.out}")
        else:
            r = args.r * to_bohr
            rep = run_single_point(r, load_basis(args.basis, basis_dir=args.basis_dir))
            print(f"R       = {r:.17g} Bohr")
            print(f"E_HF    = {rep.e_hf:.17g}")
            print(f"E_FCI   = {rep.e_fci:.17g}")
            print(f"E_corr  = {rep.e_corr:.17g}")
            print(f"entropy = {rep.entropy:.17g} bits")
            occ = ", ".join(f"{x:.12g}" for x in rep.occupations)
            print(f"occupations = [{occ}]")
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except Exception as exc:
        sys.stderr.write(f"computation failed: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
