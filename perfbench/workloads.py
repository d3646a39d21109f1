"""Benchmark workloads: inputs made from a seed, one timed run, and the gate.

Each scan workload is an `h2ent scan` command line driven through
`h2ent.cli.main`; the bell workload calls `chsh_max_grid` and
`chsh_max_closed_form` the way `h2ent bell` does. The seed picks a small
multiplicative shift of the R grid (one of `N_SHIFTS`, none at
`DEFAULT_SEED`) and the random two-qubit states. The grid shift is discrete so
that every grid a seed can produce has reference energies in
`reference.json`, which `make_reference.py` writes through `run_once`.
"""

import contextlib
import io
import json
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# name: (basis, rmin, rmax, points, extra flags). Why each was chosen:
SCANS = {
    # Criterion 3's basis and range. K=10, 1540 pair-pair ERI calls per
    # point: integrals ~90% and FCI/OPDM most of the rest. The two ends of
    # the range plus the far point (~1.3 s) instead of 40 points (~14 s), so
    # a run holds many scans and its median is not left to a few samples.
    "scan-631gss": ("6-31gss", 0.7, 10.0, 2, ()),
    # The 0.3-100 Bohr robustness range. 11 of 40 STO-3G points hit the
    # 200-iteration SCF limit, so SCF carries a large share of the time and
    # the failed share is 11/40. K=2, so on the 29 converged points the
    # per-point fixed costs (basis reload, pair tables, call overhead, emit)
    # show too: a change that adds per-call overhead shows here. 6-31G** is
    # left out: its integrals would drown the SCF signal, and it also fails
    # at 100 Bohr.
    "stretch": ("sto-3g", 0.3, 100.0, 40, ("--log-grid",)),
}
# The `h2ent bell` path: no scan touches the bell module.
BELL = "bell"
WORKLOADS = (*SCANS, BELL)

DEFAULT_SEED = 0
N_SHIFTS = 8
SHIFT_STEP = 1e-3        # relative R-grid shift per shift index
FAR_POINT = 20.0         # the CLI's default far point, Bohr (counts attempts)
N_RANDOM_STATES = 6      # plus the three named states: 9 per bell run

ENERGY_TOL = 1e-8        # Hartree, against reference.json
VARIATIONAL_TOL = 1e-9   # E_FCI <= E_HF + this, as correlation_energy allows
OCC_SUM_TOL = 1e-8
ENTROPY_TOL = 1e-12
CHSH_GRID_TOL = 1e-3     # grid maximum against the closed form
SINGLET_MIN = 2.8284
PRODUCT_MAX = 2.0 + 1e-9

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def shift_index(seed):
    """Which of the N_SHIFTS grids a seed uses; 0 (no shift) at DEFAULT_SEED."""
    if seed == DEFAULT_SEED:
        return 0
    return random.Random(seed).randrange(1, N_SHIFTS)


def scan_argv(name, shift):
    """The `h2ent scan` arguments of a scan workload, without --out."""
    basis, rmin, rmax, points, flags = SCANS[name]
    f = 1.0 + SHIFT_STEP * shift
    return ["scan", "--basis", basis, "--rmin", repr(rmin * f),
            "--rmax", repr(rmax * f), "--points", str(points), *flags,
            "--rescale"]


def scan_attempted(name, shift):
    """Points a scan attempts: the grid plus the far point beyond rmax."""
    _, _, rmax, points, _ = SCANS[name]
    return points + (FAR_POINT > rmax * (1.0 + SHIFT_STEP * shift))


def bell_states(seed):
    """The three named states, then seeded random pure and mixed states."""
    from h2ent import bell
    from h2ent.cli import _BELL_STATES
    states = [(name, make()) for name, make in sorted(_BELL_STATES.items())]
    rng = np.random.default_rng(seed)
    for i in range(N_RANDOM_STATES):
        rank = (1, 2, 4)[i % 3]
        g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
        rho = g @ g.conj().T
        rho = 0.5 * (rho + rho.conj().T)
        states.append((f"random-{i}-rank{rank}",
                       bell.TwoQubitState(rho / np.trace(rho).real)))
    return states


@dataclass(frozen=True)
class Inputs:
    workload: str
    shift: int
    argv: tuple = ()       # scans
    basis: str = ""        # scans: the basis the set-up probe loads
    states: tuple = ()     # bell: (label, TwoQubitState) pairs
    attempted: int = 0


def scan_inputs(name, shift):
    return Inputs(name, shift, argv=tuple(scan_argv(name, shift)),
                  basis=SCANS[name][0], attempted=scan_attempted(name, shift))


def make_inputs(workload, seed):
    if workload == BELL:
        states = tuple(bell_states(seed))
        return Inputs(workload, 0, states=states, attempted=len(states))
    return scan_inputs(workload, shift_index(seed))


@dataclass(frozen=True)
class Sample:
    """One workload run: wall time, point counts and the science output."""
    run_s: float
    attempted: int
    failed: int
    output: bytes
    failed_r: tuple = ()   # scans: R of each failed point, as its warning prints it


def run_once(inputs, out_path):
    """Run the workload once; only the program's own work is timed."""
    if inputs.workload == BELL:
        return _run_bell(inputs)
    from h2ent import cli
    argv = list(inputs.argv) + ["--out", str(out_path)]
    sink = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        rc = cli.main(argv)
    run_s = time.perf_counter() - t0
    if rc == 2 and "all scan points failed" in sink.getvalue():
        return Sample(run_s, inputs.attempted, inputs.attempted, b"")
    if rc != 0:
        raise RuntimeError(f"h2ent {' '.join(argv)} exited {rc}: {sink.getvalue()}")
    failed_r = tuple(line.split()[2][2:] for line in sink.getvalue().splitlines()
                     if line.startswith("warning: point R="))
    return Sample(run_s, inputs.attempted, len(failed_r), Path(out_path).read_bytes(),
                  failed_r)


def _run_bell(inputs):
    from h2ent import bell
    rows = []
    t0 = time.perf_counter()
    for label, state in inputs.states:
        try:
            grid = bell.chsh_max_grid(state, angular_resolution=1.0).value
            closed = bell.chsh_max_closed_form(state)
        except ValueError:  # a state with no grid row counts as failed
            continue
        rows.append(f"{label},{grid!r},{closed!r}")
    run_s = time.perf_counter() - t0
    output = ("\n".join(rows) + "\n").encode()
    return Sample(run_s, inputs.attempted, inputs.attempted - len(rows), output)


def load_reference():
    return json.loads(REFERENCE_PATH.read_text())


def check(inputs, sample, reference):
    """Correctness gate for one run; returns a list of violations."""
    if inputs.workload == BELL:
        return _check_bell(sample)
    return _check_scan(inputs, sample, reference)


def scan_rows(output):
    """The rows of a scan's CSV output as floats (None for an empty field)."""
    lines = output.decode().splitlines()
    return [[float(x) if x else None for x in line.split(",")] for line in lines[1:]]


def _check_scan(inputs, sample, reference):
    errors = []
    rows = scan_rows(sample.output)
    if len(rows) + sample.failed != sample.attempted:
        errors.append(f"{len(rows)} rows + {sample.failed} failures != "
                      f"{sample.attempted} attempted points")
    ref = reference[inputs.workload][str(inputs.shift)]
    ref_by_r = {r: (hf, fci) for r, hf, fci in zip(ref["R"], ref["E_HF"], ref["E_FCI"])}
    log2k = math.log2(len(rows[0]) - 6) if rows else 0.0
    for r, e_hf, e_fci, _, entropy, _, *occ in rows:
        where = f"R={r!r}"
        if r in ref_by_r:
            ref_hf, ref_fci = ref_by_r[r]
            if abs(e_hf - ref_hf) > ENERGY_TOL or abs(e_fci - ref_fci) > ENERGY_TOL:
                errors.append(f"{where}: E_HF {e_hf!r}, E_FCI {e_fci!r} differ from "
                              f"reference {ref_hf!r}, {ref_fci!r} by > {ENERGY_TOL}")
        elif f"{r:g}" not in ref["failed_R"]:  # a point that failed in the reference
            errors.append(f"{where}: not on the reference grid")
            continue
        if e_fci > e_hf + VARIATIONAL_TOL:
            errors.append(f"{where}: E_FCI {e_fci!r} above E_HF {e_hf!r}")
        if abs(sum(occ) - 2.0) > OCC_SUM_TOL:
            errors.append(f"{where}: occupations sum to {sum(occ)!r}")
        if not -ENTROPY_TOL <= entropy <= log2k + ENTROPY_TOL:
            errors.append(f"{where}: entropy {entropy!r} outside [0, {log2k}]")
    return errors


def _check_bell(sample):
    errors = []
    for line in sample.output.decode().splitlines():
        label, grid, closed = line.split(",")
        grid, closed = float(grid), float(closed)
        if abs(grid - closed) > CHSH_GRID_TOL:
            errors.append(f"{label}: grid {grid!r} vs closed form {closed!r}")
        if label in ("singlet", "dissociation") and grid < SINGLET_MIN:
            errors.append(f"{label}: CHSH {grid!r} < {SINGLET_MIN}")
        if label == "product" and grid > PRODUCT_MAX:
            errors.append(f"{label}: CHSH {grid!r} > 2")
    return errors
