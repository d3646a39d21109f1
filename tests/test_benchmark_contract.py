"""The benchmark in perfbench/ must find the names it calls or traces in h2ent,
and its correctness gate must pass.

perfbench/ has its own tests, outside this suite; this keeps a deleted or
renamed name, or a result the gate rejects, from failing only the benchmark run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_targets_are_callable():
    spans = _perfbench("spans")
    assert spans.TARGETS
    for module, function, _ in spans.TARGETS:
        assert callable(getattr(importlib.import_module(f"h2ent.{module}"), function, None)), \
            f"h2ent.{module}.{function}"


def test_directly_called_names_exist():
    from h2ent import bell, cli, integrals
    from h2ent.basis import build_ao_basis, load_basis
    from h2ent.molecule import h2

    assert callable(integrals.eri) and callable(integrals.boys_table)
    assert set(cli._BELL_STATES) == {"singlet", "product", "dissociation"}
    assert "angular_resolution" in inspect.signature(bell.chsh_max_grid).parameters
    f = build_ao_basis(h2(1.4), load_basis("6-31gss")).functions[0]
    assert f.exponents and f.powers == (0, 0, 0)


def test_micro_timings_run(monkeypatch):
    # the benchmark times boys_table and eri on their own, outside any workload
    monkeypatch.syspath_prepend(str(PERFBENCH))
    timings = _perfbench("run").micro_timings()
    assert set(timings) == {"integrals.boys_table_us", "integrals.eri_quartet_us",
                            "bell.chsh_grid_call_ms"}
    assert all(value > 0.0 for value, _ in timings.values())


def test_scan_workloads_pass_the_gate_at_the_default_seed(tmp_path):
    workloads = _perfbench("workloads")
    reference = workloads.load_reference()
    for name, attempted in (("stretch", 40), ("scan-631gss", 3)):
        inputs = workloads.make_inputs(name, workloads.DEFAULT_SEED)
        sample = workloads.run_once(inputs, tmp_path / f"{name}.csv")
        assert workloads.check(inputs, sample, reference) == [], name
        assert (sample.failed, sample.attempted) == (0, attempted), (name, sample.failed_r)


def test_bell_workload_passes_the_gate_at_the_default_seed(tmp_path):
    # the gate: each grid maximum within CHSH_GRID_TOL of the closed form, the singlet
    # at least SINGLET_MIN and the product state at most 2
    workloads = _perfbench("workloads")
    inputs = workloads.make_inputs("bell", workloads.DEFAULT_SEED)
    sample = workloads.run_once(inputs, tmp_path / "bell.csv")
    assert workloads.check(inputs, sample, workloads.load_reference()) == []
    assert (sample.failed, sample.attempted) == (0, 9)
    labels = [line.split(",")[0] for line in sample.output.decode().splitlines()]
    assert len(labels) == 9 and {"singlet", "product", "dissociation"} <= set(labels)


# names a scan alone enters, and names only a single point enters: a scan
# runs its points as one batch, through the stacked SCF and no point span
SCAN_ONLY = {"cli.run_scan", "cli.emit", "correlation.rescale_entropy"}
POINT_ONLY = {"scf.run_rhf", "cli.run_single_point"}
# traced names that neither path enters: the occupations come from C itself
OFF_PIPELINE = {"correlation.one_particle_density"}


def _traced_stretch_scan(tmp_path):
    spans, workloads = _perfbench("spans"), _perfbench("workloads")
    inputs = workloads.make_inputs("stretch", workloads.DEFAULT_SEED)
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        sample = workloads.run_once(inputs, tmp_path / "stretch.csv")
    assert workloads.check(inputs, sample, workloads.load_reference()) == []
    assert (sample.failed, sample.attempted) == (0, 40)
    return tracer.spans


def _traced_single_point():
    from h2ent import cli
    spans = _perfbench("spans")
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        cli.run_single_point(1.4, "sto-3g")
    return tracer.spans


def _non_bell_targets():
    return {f"{m}.{f}" for m, f, _ in _perfbench("spans").TARGETS if m != "bell"}


def test_a_traced_stretch_scan_enters_every_scan_layer(tmp_path):
    # every stage after the basis is one stacked pass over the scan's R
    # values: one span each, inside cli.run_scan and outside any point span,
    # so none carries an R
    trace = _traced_stretch_scan(tmp_path)
    names = [s.name for s in trace]
    assert set(names) == _non_bell_targets() - POINT_ONLY - OFF_PIPELINE
    for name in ("integrals.compute_all", "fci.run_fci", "fci.mo_transform",
                 "fci.build_hamiltonian", "correlation.natural_occupations"):
        (span,) = [s for s in trace if s.name == name]
        assert span.r is None, name
        while span.parent is not None:
            span = trace[span.parent]
        assert span.name == "cli.run_scan", name


def test_a_traced_single_point_enters_every_point_layer():
    trace = _traced_single_point()
    assert {s.name for s in trace} == _non_bell_targets() - SCAN_ONLY - OFF_PIPELINE
    assert trace[0].name == "cli.run_single_point" and trace[0].r == 1.4
    assert all(s.r == 1.4 for s in trace)
    (scf,) = [s for s in trace if s.name == "scf.run_rhf"]
    assert scf.info == {"iterations": 2, "converged": True}


def test_traced_runs_feed_the_per_layer_report(tmp_path, monkeypatch):
    # the report reads the SCF's iterations from each scf.run_rhf span's
    # return value, so that name must keep returning one SCFResult
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = _perfbench("run")
    times, counts = run.traced_run_stats(_traced_single_point())
    assert (counts["scf.iterations"], counts["scf.unconverged"]) == (2, 0)
    assert times["scf.run_rhf"] > 0.0
    times, counts = run.traced_run_stats(_traced_stretch_scan(tmp_path))
    assert counts["integrals.calls"] == 1 and counts["basis.load_calls"] == 1
    assert times["fci.run_fci"] > 0.0
