"""Tests of the benchmark's own code.

    python3 -m pytest perfbench -q
"""

import sys
from itertools import count
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, instrument, layer_totals, self_times  # noqa: E402


def test_self_times_on_a_synthetic_span_tree():
    tree = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("c", 2.0, 3.0, parent=1),
        Span("b", 5.0, 9.0, parent=0),
        Span("d", 6.0, 8.0, parent=3),
        Span("e", 7.0, 8.5, parent=3),   # overlaps d: the union counts once
        Span("f", 8.8, 9.5, parent=3),   # runs past b: clipped at b's end
    ]
    got = self_times(tree)
    assert got == pytest.approx([10 - 3 - 4, 3 - 1, 1, 4 - 2.5 - 0.2, 2, 1.5, 0.7])


def test_tracer_nests_spans_and_sums_to_the_root():
    tracer = Tracer(clock=count().__next__)  # ticks 0, 1, 2, ...
    inner = tracer.wrap("m.inner", lambda: None)
    outer = tracer.wrap("m.outer", lambda: (inner(), inner()))
    outer()
    assert [(s.name, s.start, s.end, s.parent) for s in tracer.spans] == [
        ("m.outer", 0, 5, None), ("m.inner", 1, 2, 0), ("m.inner", 3, 4, 0)]
    totals = layer_totals(tracer.spans)
    assert totals == {"m.outer": (1, 3), "m.inner": (2, 2)}
    assert sum(t for _, t in totals.values()) == 5


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    a, b = workloads.make_inputs(workload, 7), workloads.make_inputs(workload, 7)
    assert (a.argv, a.shift, a.attempted) == (b.argv, b.shift, b.attempted)
    assert [label for label, _ in a.states] == [label for label, _ in b.states]
    for (_, sa), (_, sb) in zip(a.states, b.states):
        assert np.array_equal(sa.rho, sb.rho)


def test_default_seed_reproduces_the_documented_commands():
    argv = workloads.make_inputs("stretch", workloads.DEFAULT_SEED).argv
    assert argv == ("scan", "--basis", "sto-3g", "--rmin", "0.3", "--rmax", "100.0",
                    "--points", "40", "--log-grid", "--rescale")
    assert workloads.make_inputs("stretch", workloads.DEFAULT_SEED).attempted == 40
    assert workloads.make_inputs("scan-631gss", workloads.DEFAULT_SEED).attempted == 3


def test_seeds_vary_the_inputs():
    assert len({workloads.shift_index(s) for s in range(50)}) == workloads.N_SHIFTS
    a, b = workloads.make_inputs("bell", 1), workloads.make_inputs("bell", 2)
    assert not np.array_equal(a.states[-1][1].rho, b.states[-1][1].rho)


def test_traced_and_untraced_runs_write_identical_output(tmp_path):
    from h2ent import cli
    original = cli.run_scan
    inputs = workloads.make_inputs("stretch", 3)
    plain = workloads.run_once(inputs, tmp_path / "plain.csv")
    tracer = Tracer()
    with instrument(tracer):
        traced = workloads.run_once(inputs, tmp_path / "traced.csv")
    assert cli.run_scan is original
    assert len(tracer.spans) > inputs.attempted
    assert {s.name for s in tracer.spans} >= {f"{m}.{f}" for m, f, _ in spans.TARGETS
                                              if m != "bell"}
    assert traced.output == plain.output and traced.failed == plain.failed == 11
    assert workloads.check(inputs, plain, workloads.load_reference()) == []


def test_gate_rejects_a_wrong_energy(tmp_path):
    inputs = workloads.make_inputs("stretch", 0)
    sample = workloads.run_once(inputs, tmp_path / "scan.csv")
    lines = sample.output.decode().splitlines()
    fields = lines[5].split(",")
    fields[2] = repr(float(fields[2]) + 1e-6)
    lines[5] = ",".join(fields)
    bad = workloads.Sample(sample.run_s, sample.attempted, sample.failed,
                           ("\n".join(lines) + "\n").encode())
    errors = workloads.check(inputs, bad, workloads.load_reference())
    assert len(errors) == 1 and "differ from reference" in errors[0]


def test_stretch_keeps_the_known_scf_failures(tmp_path):
    inputs = workloads.make_inputs("stretch", workloads.DEFAULT_SEED)
    sample = workloads.run_once(inputs, tmp_path / "scan.csv")
    assert (sample.failed, sample.attempted) == (11, 40)
    assert list(sample.failed_r) == workloads.load_reference()["stretch"]["0"]["failed_R"]
    assert workloads.check(inputs, sample, workloads.load_reference()) == []

