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


def test_scan_workloads_pass_the_gate_at_the_default_seed(tmp_path):
    workloads = _perfbench("workloads")
    reference = workloads.load_reference()
    for name, attempted in (("stretch", 40), ("scan-631gss", 3)):
        inputs = workloads.make_inputs(name, workloads.DEFAULT_SEED)
        sample = workloads.run_once(inputs, tmp_path / f"{name}.csv")
        assert workloads.check(inputs, sample, reference) == [], name
        assert (sample.failed, sample.attempted) == (0, attempted), (name, sample.failed_r)


def test_a_traced_stretch_scan_enters_every_scan_layer(tmp_path):
    # the integrals of a scan are one batch: one compute_all span, outside
    # every point span, so it carries no R
    spans, workloads = _perfbench("spans"), _perfbench("workloads")
    inputs = workloads.make_inputs("stretch", workloads.DEFAULT_SEED)
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        sample = workloads.run_once(inputs, tmp_path / "stretch.csv")
    names = [s.name for s in tracer.spans]
    assert set(names) >= {f"{m}.{f}" for m, f, _ in spans.TARGETS if m != "bell"}
    assert names.count("cli.run_single_point") == inputs.attempted == 40
    (ints,) = [s for s in tracer.spans if s.name == "integrals.compute_all"]
    assert ints.r is None and tracer.spans[ints.parent].name == "cli.run_scan"
    assert workloads.check(inputs, sample, workloads.load_reference()) == []
