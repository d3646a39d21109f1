"""h2ent benchmark: one workload in a closed loop, then one JSON result line.

    python3 perfbench/run.py --workload scan-631gss --seed 0 --seconds 35 --trace 0

Workloads: scan-631gss, stretch, bell (see workloads.py). One process runs the
workload's points sequentially, again and again, until --seconds have passed
(at least once). BLAS runs on one thread.

--trace 0 reports the end-to-end metrics from untraced runs, as medians of
host-scaled times (see hostspeed.py). --trace 1 alternates untraced and
traced runs and reports the per-layer metrics: span self times, work counts,
tracing overhead and micro-timings. Every run passes the correctness gate, or
the result says "correct": false and the exit status is 1.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; attempted and failed count scan points (bell:
states). The full record (machine, versions, git SHA, seed, every sample and
the spans of one traced run) goes to perfbench/results/.
"""

import argparse
import json
import math
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# BLAS reads its thread count when numpy loads, so the cap comes first. One
# thread: h2ent's matrices are at most 100 x 100, and on a 2-core host a
# second OpenBLAS thread mostly spins. In alternating trials it was never
# faster and made the median 6-31G** run up to 30 % slower.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1
for _var in BLAS_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from spans import MODULES, TARGETS, Tracer, instrument, layer_totals  # noqa: E402

# One set-up probe per this many seconds of the window, between runs, so the
# probes sample the host's fast and slow phases as the runs do.
SETUP_EVERY_S = 2.5
# How each work count is obtained: computed from the basis, counted from
# spans, or returned by the program (SCFResult).
COUNT_LABELS = {
    "integrals.n_ao": "computed", "integrals.pair_quartets": "computed",
    "integrals.prim_quartets": "computed", "fci.ci_dim": "computed",
    "basis.load_calls": "counted", "integrals.calls": "counted",
    "trace.spans": "counted", "scf.iterations": "returned",
    "scf.iterations_max": "returned", "scf.unconverged": "returned",
}

# A fresh interpreter imports h2ent and loads the basis, then prints the
# system-wide monotonic clock, so the parent times it from before the spawn.
PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
import h2ent.basis
if sys.argv[2]:
    h2ent.basis.load_basis(sys.argv[2])
print(repr(time.monotonic()))
"""


def p90(xs):
    return quantiles(xs, n=10, method="inclusive")[-1] if len(xs) > 1 else xs[0]


def probe_setup(basis):
    """Seconds from spawning a fresh python3 until h2ent is ready."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", PROBE, str(SRC), basis],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1]) - t0


def git_sha():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown (no git)"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def environment(seed):
    import numpy
    import scipy
    u = os.uname()
    return {"machine": f"{u.sysname} {u.release} {u.machine}",
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_sha": git_sha(), "seed": seed}


def gate(inputs, samples, reference):
    """Gate the first run; every other run must repeat it byte for byte."""
    first = samples[0]
    errors = workloads.check(inputs, first, reference)
    for s in samples[1:]:
        if (s.output, s.failed) != (first.output, first.failed):
            errors.append("a repeated run wrote different output")
            break
    return errors


def end_to_end(inputs, seconds, out_path):
    probe_setup(inputs.basis)  # fills the bytecode cache; not counted
    workloads.run_once(inputs, out_path)  # warm-up; not counted
    # Every run does the same work, so the warm-up run has set the peak. It
    # is read before the calibration task allocates arrays of its own.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    hostspeed.calibrate()  # warm-up: first calls into LAPACK and scipy
    samples, setup, calibrations = [], [], []
    start = time.monotonic()
    while not samples or time.monotonic() < start + seconds:
        samples.append(workloads.run_once(inputs, out_path))
        calibrations.append(hostspeed.calibrate())
        if time.monotonic() >= start + SETUP_EVERY_S * len(setup):
            setup.append(probe_setup(inputs.basis))
            calibrations.append(hostspeed.calibrate())
    run_wall = [s.run_s for s in samples]
    converged = samples[0].attempted - samples[0].failed
    # Medians over the whole window, scaled by the host's speed in it
    # (hostspeed.py): on a shared host the fastest run or probe comes from
    # short bursts of speed that some windows catch and others miss, and
    # whole windows fall into slow phases.
    scale = hostspeed.REFERENCE_S / median(calibrations)
    run_s = median(run_wall) * scale
    metrics = {
        "setup_s": (median(setup) * scale, "s"),
        "run_s": (run_s, "s"),
        "points_per_s": (converged / run_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    shown = {"run_s_p90": (p90(run_wall) * scale, "s"),
             "run_s_wall": (median(run_wall), "s"), "run_s_wall_p90": (p90(run_wall), "s"),
             "setup_s_wall": (median(setup), "s"),
             "calibration_s": (median(calibrations), "s")}
    record = {"run_s_wall_samples": run_wall, "setup_s_wall_samples": setup,
              "calibration_s_samples": calibrations,
              "calibration_reference_s": hostspeed.REFERENCE_S}
    return samples, metrics, shown, record


def work_counts(inputs):
    """Counts fixed by the workload's basis (label: computed)."""
    if not inputs.basis:
        return {"integrals.n_ao": 0, "integrals.pair_quartets": 0,
                "integrals.prim_quartets": 0, "fci.ci_dim": 0}
    from h2ent.basis import build_ao_basis, load_basis
    from h2ent.molecule import h2
    funcs = build_ao_basis(h2(1.4), load_basis(inputs.basis)).functions
    k = len(funcs)
    pair_prims = [len(funcs[i].exponents) * len(funcs[j].exponents)
                  for i in range(k) for j in range(i + 1)]
    prim_quartets = sum(pa * pb for a, pa in enumerate(pair_prims)
                        for pb in pair_prims[:a + 1])
    n = len(pair_prims)
    return {"integrals.n_ao": k, "integrals.pair_quartets": n * (n + 1) // 2,
            "integrals.prim_quartets": prim_quartets,
            "fci.ci_dim": math.comb(k, 1) ** 2}  # one alpha, one beta electron


def traced_run_stats(spans):
    """Per-layer self times and counts of one traced run."""
    totals = layer_totals(spans)
    times = {metric: totals.get(f"{m}.{f}", (0, 0.0))[1] for m, f, metric in TARGETS}
    for module in MODULES:
        times[f"{module}.self"] = sum((t for name, (_, t) in totals.items()
                                         if name.startswith(module + ".")), 0.0)
    scf = [s.info for s in spans if s.info is not None]
    counts = {
        "basis.load_calls": totals.get("basis.load_basis", (0, 0))[0],
        "integrals.calls": totals.get("integrals.compute_all", (0, 0))[0],
        "scf.iterations": sum(i["iterations"] for i in scf),
        "scf.iterations_max": max((i["iterations"] for i in scf), default=0),
        "scf.unconverged": sum(not i["converged"] for i in scf),
        "trace.spans": len(spans),
    }
    return times, counts


def time_call(fn, batch_s=0.05, batches=7):
    """Median seconds per call over batches of back-to-back calls, after warm-up."""
    for _ in range(3):
        fn()
    t0 = time.perf_counter()
    fn()
    per_batch = max(1, int(batch_s / max(time.perf_counter() - t0, 1e-9)))
    results = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(per_batch):
            fn()
        results.append((time.perf_counter() - t0) / per_batch)
    return median(results)


def micro_timings():
    """ROADMAP item 1's micro-timings, independent of the workload."""
    import numpy as np
    from h2ent import bell
    from h2ent.basis import build_ao_basis, load_basis
    from h2ent.integrals import boys_table, eri
    from h2ent.molecule import h2
    x = np.linspace(0.0, 50.0, 256)  # spans both Boys branches (switch at 25)
    funcs = build_ao_basis(h2(1.4), load_basis("6-31gss")).functions
    pz_a, pz_b = [f for f in funcs if f.powers == (0, 0, 1)]
    singlet = bell.singlet()
    return {
        "integrals.boys_table_us": (time_call(lambda: boys_table(4, x)) * 1e6, "us"),
        "integrals.eri_quartet_us": (time_call(lambda: eri(pz_a, pz_a, pz_b, pz_b)) * 1e6, "us"),
        "bell.chsh_grid_call_ms": (time_call(lambda: bell.chsh_max_grid(singlet, 1.0),
                                             batch_s=0.1, batches=5) * 1e3, "ms"),
    }


def per_layer(inputs, seconds, out_path):
    """Alternate untraced and traced runs; report the fastest traced run."""
    untraced, traced, stats, tracers = [], [], [], []
    deadline = time.monotonic() + seconds
    while not traced or time.monotonic() < deadline:
        untraced.append(workloads.run_once(inputs, out_path))
        tracers.append(Tracer())
        with instrument(tracers[-1]):
            traced.append(workloads.run_once(inputs, out_path))
        stats.append(traced_run_stats(tracers[-1].spans))
    best = min(range(len(traced)), key=lambda i: traced[i].run_s)
    times, counts = stats[best]
    errors = [f"count {name} differs between traced runs" for name in counts
              if any(c[name] != counts[name] for _, c in stats)]
    traced_s = traced[best].run_s
    untraced_s = min(s.run_s for s in untraced)
    # Each traced run follows its own untraced run, so the pairs share the
    # host's phase; the median pair is the overhead.
    pairs = [(u.run_s, t.run_s) for u, t in zip(untraced, traced)]
    overhead_s = median(t - u for u, t in pairs)
    # Self times go to the result as shares of the traced run, so a layer a
    # workload never enters reads 0 % rather than a constant 0 s.
    metrics = {f"{name}_pct": (100.0 * value / traced_s, "%") for name, value in times.items()}
    shown = {f"{name}_s": (value, "s") for name, value in times.items()}
    # The difference can be 0 or below on a noisy host; it is shown, not gated.
    shown["trace.overhead_s"] = (overhead_s, "s")
    metrics.update({name: (value, "count")
                    for name, value in dict(work_counts(inputs), **counts).items()})
    metrics.update({
        "trace.run_s": (traced_s, "s"),
        "trace.untraced_run_s": (untraced_s, "s"),
        "trace.overhead_ratio": (median(t / u for u, t in pairs), "ratio"),
        "trace.unattributed_s": (traced_s - sum(times[f"{m}.self"] for m in MODULES), "s"),
    })
    metrics.update(micro_timings())
    spans = tracers[best].spans
    t0 = spans[0].start if spans else 0.0
    record = {
        "count_labels": COUNT_LABELS,
        "traced_run_s_samples": [s.run_s for s in traced],
        "untraced_run_s_samples": [s.run_s for s in untraced],
        "untraced_traced_run_s_pairs": pairs,
        "spans_of_fastest_traced_run": [
            {"name": s.name, "start": s.start - t0, "end": s.end - t0,
             "parent": s.parent, "r": s.r, **(s.info or {})} for s in spans],
    }
    return untraced + traced, metrics, shown, record, errors


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "h2ent" / "__init__.py").is_file():
        sys.stderr.write(f"error: no h2ent sources at {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import h2ent
    if Path(h2ent.__file__).resolve().parent != SRC / "h2ent":
        sys.stderr.write(f"error: imported h2ent from {h2ent.__file__}, not {SRC}\n")
        return 2

    inputs = workloads.make_inputs(args.workload, args.seed)
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        out_path = Path(tmp) / "scan.csv"
        if args.trace:
            samples, metrics, shown, record, errors = per_layer(
                inputs, args.seconds, out_path)
        else:
            samples, metrics, shown, record = end_to_end(inputs, args.seconds, out_path)
            errors = []
    errors = gate(inputs, samples, workloads.load_reference()) + errors
    attempted = sum(s.attempted for s in samples)
    failed = sum(s.failed for s in samples)

    record = {"workload": args.workload, "trace": args.trace,
              "environment": environment(args.seed), "argv": list(inputs.argv),
              "grid_shift": inputs.shift, "runs": len(samples),
              "attempted": attempted, "failed": failed,
              "failed_frac": failed / attempted, "gate_errors": errors,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in {**metrics, **shown}.items()},
              **record}
    RESULTS.mkdir(exist_ok=True)
    record_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    env = record["environment"]
    print(f"workload {args.workload}  seed {args.seed} (grid shift {inputs.shift})  "
          f"trace {args.trace}  runs {len(samples)}  "
          f"nproc {env['nproc']}  python {env['python']}  numpy {env['numpy']}  "
          f"scipy {env['scipy']}  git {env['git_sha'][:12]}")
    for name, (value, unit) in {**metrics, **shown}.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    print(f"  {'failed_frac':32s} {failed / attempted:14.6g} ratio "
          f"({failed} of {attempted} points)")
    for e in errors:
        print(f"  GATE: {e}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not errors, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
