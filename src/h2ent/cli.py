"""Command-line driver: single points, dissociation scans and CHSH demos.

Exit codes: 0 success, 1 usage error, 2 computation failure.
"""

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import bell
from .basis import BasisSet, load_basis
from .correlation import (correlation_energy, natural_occupations, one_particle_density,
                          rescale_entropy, von_neumann_entropies)
from .errors import H2entError, SCFConvergenceError
from .fci import run_fci
from .integrals import compute_all
from .molecule import ANGSTROM_TO_BOHR, h2
from .scf import SCFResult, run_rhf, run_rhf_batch

# Geometries per stacked pass of a scan. Memory grows with it, not with the
# grid; values do not depend on it.
SCAN_BATCH = 64


@dataclass(frozen=True)
class ScanConfig:
    basis_name: str
    r_min: float
    r_max: float
    n_points: int
    grid: str = "linear"
    unit: str = "bohr"
    output_path: str = None
    format: str = "csv"
    rescale: bool = False
    far_point: float = None  # appended dissociation proxy, Bohr
    basis_dir: str = None

    def __post_init__(self):
        for name in ("r_min", "r_max", "far_point"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.r_min <= 0 or self.r_max <= self.r_min:
            raise ValueError("need 0 < r_min < r_max")
        if self.n_points < 2:
            raise ValueError("need at least two scan points")
        if self.grid not in ("linear", "logarithmic"):
            raise ValueError(f"unknown grid {self.grid!r}")
        if self.unit not in ("bohr", "angstrom"):
            raise ValueError(f"unknown unit {self.unit!r}")
        if self.format not in ("csv", "json"):
            raise ValueError(f"unknown format {self.format!r}")


@dataclass(frozen=True)
class CurvePoint:
    r: float        # Bohr
    e_hf: float
    e_fci: float
    e_corr: float
    entropy: float  # bits
    occupations: np.ndarray  # descending
    rescaled_entropy: float = None


def run_single_point(r_bohr, basis, basis_dir=None):
    """Full pipeline geometry -> integrals -> SCF -> FCI -> CurvePoint at one R.

    basis is a loaded BasisSet, or a basis name or path to load. The point is a
    scan batch of one: its values are bit for bit its scan row's.
    """
    if not isinstance(basis, BasisSet):
        basis = load_basis(basis, basis_dir=basis_dir)
    mols = h2(r_bohr)
    ints = compute_all(basis, mols)
    scf = SCFResult(*(np.asarray(x)[None] for x in run_rhf(ints, mols)))
    return _curve_points(*_correlate([r_bohr], ints, scf, mols))[0]


def _correlate(rs, ints, scf, mols):
    """The stages after the SCF for a batch of geometries, one stacked pass each: the
    curve's columns R, E_HF, E_FCI, E_corr and entropy as one (5, G) array, and the
    (G, K) occupations. Raises the H2entError of the first point that fails."""
    if not scf.converged.all():
        n = np.argmin(scf.converged)  # the first that did not
        raise SCFConvergenceError(f"SCF did not converge at R = {rs[n]} Bohr "
                                  f"({scf.iterations[n]} iterations)")
    ci = run_fci(ints, scf, mols)
    occupations = natural_occupations(one_particle_density(ci))
    return np.array([rs, scf.e_hf, ci.e_fci, correlation_energy(scf.e_hf, ci.e_fci),
                     von_neumann_entropies(occupations)]), occupations


def _curve_points(columns, occupations, rescaled=None):
    """One CurvePoint per geometry of the stacked curve: the pipeline's only split."""
    rescaled = [None] * len(occupations) if rescaled is None else rescaled.tolist()
    return [CurvePoint(*row, occupations=occ, rescaled_entropy=s)
            for row, occ, s in zip(columns.T.tolist(), occupations, rescaled)]


def _take(record, n):
    """Geometry n of a stacked record, as a batch of one: the arrays are sliced,
    the fields shared by the batch kept."""
    return type(record)(*(x[n:n + 1] if isinstance(x, np.ndarray) else x for x in record))


def scan_grid(config):
    """The R grid in Bohr, ascending, with the optional far point appended."""
    to_bohr = ANGSTROM_TO_BOHR if config.unit == "angstrom" else 1.0
    lo, hi = config.r_min * to_bohr, config.r_max * to_bohr
    if config.grid == "logarithmic":
        rs = list(np.geomspace(lo, hi, config.n_points))
    else:
        rs = list(np.linspace(lo, hi, config.n_points))
    if config.far_point is not None and config.far_point > hi:  # far point is in Bohr
        rs.append(config.far_point)
    return rs


def run_scan(config):
    """Scan the dissociation curve; per-point failures are recorded, not fatal.

    Returns (points, failures) with failures as (R, message) pairs; a point
    fails on an H2entError, and any other exception propagates. Raises
    RuntimeError if every point failed. The basis is loaded once. The grid is
    walked in batches of SCAN_BATCH geometries, each through one `compute_all`
    call, whose errors propagate, and one stacked pass per later stage. In a
    batch in which a point fails, the stages after the SCF are redone one point
    at a time on the batch's SCF result (the SCF too, if the batch's raised),
    so that each point records its own error.
    """
    curves = []
    failures = []
    basis = load_basis(config.basis_name, basis_dir=config.basis_dir)
    rs = scan_grid(config)
    for lo in range(0, len(rs), SCAN_BATCH):
        batch = rs[lo:lo + SCAN_BATCH]
        mols = h2(batch)
        ints = compute_all(basis, mols)
        scf = None
        try:
            scf = run_rhf_batch(ints, mols)
            curves.append(_correlate(batch, ints, scf, mols))
        except H2entError:
            for n, r in enumerate(batch):
                one = _take(ints, n), _take(mols, n)
                try:
                    res = _take(scf, n) if scf else run_rhf_batch(*one)
                    curves.append(_correlate([r], one[0], res, one[1]))
                except H2entError as exc:  # record and continue
                    failures.append((r, str(exc)))
    if not curves:
        raise RuntimeError("all scan points failed: "
                           + "; ".join(f"R={r:g}: {m}" for r, m in failures))
    columns = np.concatenate([c for c, _ in curves], axis=1)
    occupations = np.concatenate([o for _, o in curves])
    rescaled = rescale_entropy(columns[4], columns[3]) if config.rescale else None
    return _curve_points(columns, occupations, rescaled), failures


def _fmt(x):
    return "" if x is None else f"{x:.17g}"


def emit(points, fmt, path, n_orbitals=None):
    """Write scan points as CSV or JSON with 17 significant digits."""
    if n_orbitals is None:
        n_orbitals = len(points[0].occupations) if points else 0
    try:
        if fmt == "csv":
            lines = ["R_bohr,E_HF,E_FCI,E_corr,entropy_bits,entropy_rescaled,"
                     + ",".join(f"n_{i+1}" for i in range(n_orbitals))]
            for p in points:
                row = [p.r, p.e_hf, p.e_fci, p.e_corr, p.entropy, p.rescaled_entropy]
                row += list(p.occupations)
                lines.append(",".join(_fmt(x) for x in row))
            text = "\n".join(lines) + "\n"
        else:
            text = json.dumps([{
                "R_bohr": p.r, "E_HF": p.e_hf, "E_FCI": p.e_fci,
                "E_corr": p.e_corr, "entropy_bits": p.entropy,
                "entropy_rescaled": p.rescaled_entropy,
                "occupations": list(p.occupations),
            } for p in points], indent=2) + "\n"
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


def bell_demo(state_name, out=None):
    """Print the CHSH report for one of the named reference states."""
    out = sys.stdout if out is None else out
    state = _BELL_STATES[state_name]()
    report = bell.chsh_max_grid(state)
    closed = bell.chsh_max_closed_form(state)
    s = report.settings
    out.write(f"state: {state_name}\n")
    out.write(f"max CHSH (optimal settings):  {report.value:.9f}\n")
    out.write(f"max CHSH (closed form):       {closed:.9f}\n")
    for name in "adbc":
        v = getattr(s, name)
        out.write(f"  {name} = ({v[0]:+.6f}, {v[1]:+.6f}, {v[2]:+.6f})\n")
    out.write(f"violated: {report.violated}\n")
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
                        help="directory with basis files (or H2E_BASIS_DIR)")
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "scan":
            config = ScanConfig(
                basis_name=args.basis, r_min=args.rmin, r_max=args.rmax,
                n_points=args.points,
                grid="logarithmic" if args.log_grid else "linear",
                unit=args.unit, output_path=args.out, format=args.format,
                rescale=args.rescale, far_point=args.far_point,
                basis_dir=args.basis_dir)
            points, failures = run_scan(config)
            emit(points, config.format, config.output_path)
            for r, msg in failures:
                sys.stderr.write(f"warning: point R={r:g} failed: {msg}\n")
            print(f"wrote {len(points)} points to {config.output_path}")
        elif args.command == "point":
            r = args.r * (ANGSTROM_TO_BOHR if args.unit == "angstrom" else 1.0)
            rep = run_single_point(r, args.basis, basis_dir=args.basis_dir)
            print(f"R       = {r:.17g} Bohr")
            print(f"E_HF    = {rep.e_hf:.17g}")
            print(f"E_FCI   = {rep.e_fci:.17g}")
            print(f"E_corr  = {rep.e_corr:.17g}")
            print(f"entropy = {rep.entropy:.17g} bits")
            occ = ", ".join(f"{x:.12g}" for x in rep.occupations)
            print(f"occupations = [{occ}]")
        else:
            bell_demo(args.state)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except Exception as exc:
        sys.stderr.write(f"computation failed: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
