"""Command-line interface: scans, single points, CHSH demo, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import h2ent
from h2ent import cli, correlation, fci, scf
from h2ent.basis import load_basis
from h2ent.correlation import OPDM
from h2ent.cli import Curve, emit, main, run_scan, run_single_point, scan_grid
from h2ent.errors import LinearDependenceError
from h2ent.molecule import ANGSTROM_TO_BOHR, h2
from h2ent.scf import symmetric_orthogonalizer

CSV_HEADER = "R_bohr,E_HF,E_FCI,E_corr,entropy_bits,entropy_rescaled,n_1,n_2"


def grid(r_min=1.0, r_max=2.0, n_points=3, **kw):
    return scan_grid(r_min, r_max, n_points, **kw)


def test_config_validation():
    for kw, message in ((dict(r_min=-1.0), "need 0 < r_min < r_max"),
                        (dict(r_max=0.5), "need 0 < r_min < r_max"),
                        (dict(n_points=1), "need at least two scan points"),
                        (dict(r_min=np.nan), "r_min must be finite, got nan"),
                        (dict(far_point=np.inf), "far_point must be finite, got inf")):
        with pytest.raises(ValueError) as exc:
            grid(**kw)
        assert str(exc.value) == message


def test_scan_grid_linear_log_and_far_point():
    assert np.allclose(grid(), [1.0, 1.5, 2.0])
    logs = grid(log_grid=True)
    assert logs[0] == pytest.approx(1.0) and logs[-1] == pytest.approx(2.0)
    assert logs[1] == pytest.approx(np.sqrt(2.0))
    rs = grid(far_point=20.0)
    assert len(rs) == 4 and rs[-1] == 20.0
    assert len(grid(far_point=1.5)) == 3  # inside range: skipped


def test_run_scan_rejects_distances_out_of_order():
    # the rescaled entropy anchors on the last point, so it must be the largest R
    for rs in ([2.0, 1.0], [1.0, 20.0, 1.5], []):
        with pytest.raises(ValueError, match="rs must be ascending and not empty"):
            run_scan(rs, "sto-3g")


def scan_r(tmp_path, *flags):
    """The R_bohr column that `h2ent scan` from 1 to 2 in 3 points writes."""
    out = tmp_path / "scan.csv"
    assert main(["scan", "--rmin", "1.0", "--rmax", "2.0", "--points", "3", *flags,
                 "--out", str(out)]) == 0
    return [float(line.split(",")[0]) for line in out.read_text().splitlines()[1:]]


def test_far_point_is_in_bohr_in_both_units(tmp_path):
    for unit in ("bohr", "angstrom"):
        rs = scan_r(tmp_path, "--unit", unit, "--far-point", "20")
        assert len(rs) == 4 and rs[-1] == 20.0
    # 3 Bohr lies inside the 1-2 Angstrom range, so it is not appended
    rs = scan_r(tmp_path, "--unit", "angstrom", "--far-point", "3")
    assert len(rs) == 3 and rs[-1] == 2.0 * ANGSTROM_TO_BOHR


def test_scan_loads_the_basis_once(monkeypatch, tmp_path):
    loads = []

    def counting_load(*args, **kwargs):
        loads.append(args)
        return load_basis(*args, **kwargs)

    monkeypatch.setattr(cli, "load_basis", counting_load)
    assert len(scan_r(tmp_path, "--far-point", "20")) == 4 and len(loads) == 1


def patch_everywhere(monkeypatch, original, replacement):
    """Rebind a function in every h2ent module that holds it, as the tracer does."""
    for module in [m for k, m in sys.modules.items() if k.startswith("h2ent")]:
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, replacement)


def test_single_point_enters_each_traced_layer_once(monkeypatch):
    # perfbench's tracer wraps these names in every h2ent module that binds
    # them and reports one span of each per pipeline pass
    calls = {}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)
        return wrapper

    for owner, name in ((fci, "build_hamiltonian"), (fci, "mo_transform"),
                        (correlation, "one_particle_density")):
        original = getattr(owner, name)
        patch_everywhere(monkeypatch, original, counting(name, original))
    run_single_point(1.4, "sto-3g")
    assert calls == {"build_hamiltonian": 1, "mo_transform": 1,
                     "one_particle_density": 1}


def test_run_scan_propagates_programming_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("not a computation failure")

    patch_everywhere(monkeypatch, fci.run_fci, broken)
    with pytest.raises(TypeError):
        run_scan(grid(), "sto-3g")


def assert_rows_kept(curve, before, bad_r):
    # every other point of the 5-point grid is kept, byte for byte
    kept = before.r != bad_r
    assert len(before.r) == 5 and len(curve.r) == kept.sum() == 4
    for name, x, y in zip(Curve._fields[:-1], curve, before):
        assert x.tobytes() == y[kept].tobytes(), name
    assert curve.rescaled_entropy is before.rescaled_entropy is None


def test_scan_point_whose_scf_fails_fails_alone(monkeypatch):
    # the points of a scan are one batch; an SCF failure at one R is still
    # that point's own
    rs = grid(n_points=4, far_point=20.0)
    before, _ = run_scan(rs, "sto-3g")
    assert len(before.r) == len(rs) == 5
    bad_r = rs[2]
    original = scf.run_rhf_batch
    calls = []

    def failing_rhf(ints, mols, *args):
        calls.append(len(mols.xyz))
        res = original(ints, mols, *args)
        return res._replace(converged=res.converged & (mols.xyz[:, 1, 2] != bad_r))

    patch_everywhere(monkeypatch, original, failing_rhf)
    curve, failures = run_scan(rs, "sto-3g")
    assert [r for r, _ in failures] == [bad_r] and "did not converge" in failures[0][1]
    assert calls == [5]  # the points are redone on the batch's SCF results
    assert_rows_kept(curve, before, bad_r)


def test_scan_point_with_a_singular_overlap_fails_alone(monkeypatch):
    rs = grid(n_points=4, far_point=20.0)
    before, _ = run_scan(rs, "sto-3g")
    assert len(before.r) == len(rs) == 5
    bad_r = rs[1]
    original = cli.compute_all

    def singular_overlap(basis, mols):
        # the one geometry at bad_r of the stacked record gets a singular overlap
        ints = original(basis, mols)
        bad = mols.xyz[:, 1, 2] == bad_r
        return ints._replace(overlap=np.where(bad[:, None, None], 1.0, ints.overlap))

    monkeypatch.setattr(cli, "compute_all", singular_overlap)
    curve, failures = run_scan(rs, "sto-3g")
    assert [r for r, _ in failures] == [bad_r]
    with pytest.raises(LinearDependenceError) as exc:
        symmetric_orthogonalizer(np.ones((2, 2)))
    assert failures[0][1] == str(exc.value)
    assert_rows_kept(curve, before, bad_r)


def nan_coefficient(bad_r):
    # run_fci with a NaN in one CI coefficient of the geometries at bad_r
    def run_fci(ints, scf, mols):
        ci = fci.run_fci(ints, scf, mols)
        c = ci.coefficients.copy()
        c[mols.xyz[:, 1, 2] == bad_r, 0, 1] = np.nan
        return ci._replace(coefficients=c)
    return run_fci


def test_scan_point_with_a_nan_ci_coefficient_fails_alone(monkeypatch):
    # the density matrix's symmetry check is a computation failure of that point
    rs = grid(n_points=4, far_point=20.0)
    before, _ = run_scan(rs, "sto-3g")
    bad_r = rs[3]
    monkeypatch.setattr(cli, "run_fci", nan_coefficient(bad_r))
    curve, failures = run_scan(rs, "sto-3g")
    assert failures == [(bad_r, "density matrix must be symmetric")]
    assert_rows_kept(curve, before, bad_r)


def test_nan_ci_coefficient_at_a_point_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_fci", nan_coefficient(1.4))
    assert main(["point", "-R", "1.4"]) == 2
    assert "computation failed: density matrix must be symmetric" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["sto-3g", "6-31gss"])
def test_scan_rows_are_single_points_bit_for_bit(name, monkeypatch):
    # the default batch holds the whole grid; batches of 7 split it unevenly
    rs = scan_grid(0.3, 100.0, 40, log_grid=True)
    basis = load_basis(name)
    singles = [run_single_point(r, basis) for r in rs]
    assert all(p.rescaled_entropy is None for p in singles)
    singles = Curve(*(np.array(x) for x in list(zip(*singles))[:-1]))
    scans = [run_scan(rs, basis)[0]]
    monkeypatch.setattr(cli, "SCAN_BATCH", 7)
    scans.append(run_scan(rs, basis)[0])
    for curve in scans:
        assert len(curve.r) == len(singles.r) == 40
        for name, x, y in zip(Curve._fields[:-1], curve, singles):
            assert x.tobytes() == y.tobytes(), name
        assert curve.rescaled_entropy is None


def test_scan_memory_is_bounded_by_the_batch():
    # the grid is walked in batches of SCAN_BATCH geometries, so only the
    # finished points grow with it
    def peak(n_points):
        tracemalloc.start()
        try:
            run_scan(grid(r_min=0.5, r_max=10.0, n_points=n_points), basis)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    basis = load_basis("sto-3g")
    run_scan(grid(), basis)  # first-call allocations stay out of both peaks
    assert peak(400) <= 2 * peak(64)


def test_numerical_check_failure_exit_2(monkeypatch, capsys):
    # occupations outside [0, 2] are a computation failure, not a usage error
    monkeypatch.setattr(cli, "one_particle_density",
                        lambda ci: OPDM(np.diag([2.5, -0.5])))
    assert main(["point", "-R", "1.4"]) == 2
    assert "occupations outside [0, 2]" in capsys.readouterr().err


def test_run_single_point_values():
    rep = run_single_point(1.4, "sto-3g")
    assert rep.e_hf == pytest.approx(-1.1167143250, abs=1e-9)
    assert rep.e_fci < rep.e_hf
    assert rep.entropy > 0.0
    assert rep.r == 1.4
    assert rep.occupations.shape == (2,) and rep.rescaled_entropy is None
    assert all(type(x) is float for x in rep[:5])  # no batch axis


# E_HF, E_FCI, entropy and occupations of single points, bit for bit, as float.hex:
# two runs of the same code cannot show a last-digit drift, these can. A change that
# moves them says why and by how much; another LAPACK or BLAS build may move the
# last bits.
SCIENCE_PINS = {
    ("sto-3g", 0.3): ("0x1.9d6d5e85ac864p-1", "0x1.9a31b5fd47c9cp-1", "0x1.1b41790602779p-6",
        ["0x1.ff2c90a55aa79p+0", "0x1.a6deb54ab0c2ap-9"]),
    ("sto-3g", 1.4): ("-0x1.1de0fd711e52ep+0", "-0x1.232484285ce2cp+0", "0x1.925cecd605416p-4",
        ["0x1.f97ec1d126d53p+0", "0x1.a04f8bb64ab49p-6"]),
    ("sto-3g", 20.0): ("-0x1.2447db73664dfp-1", "-0x1.ddc7a1e305d34p-1", "0x1.0000000000000p+0",
        ["0x1.0000000000039p+0", "0x1.fffffffffff8ap-1"]),
    ("sto-3g", 100.0): ("-0x1.1a0a6acf8f416p-1", "-0x1.ddc7a1e305d3cp-1", "0x1.0000000000000p+0",
        ["0x1.ffffffffffffep-1", "0x1.ffffffffffffep-1"]),
    ("6-31gss", 1.4): ("-0x1.219bd9e2b9000p+0", "-0x1.2a477eec5028ap+0", "0x1.161f2f3bd7a54p-3",
        ["0x1.f83adc0c3268ep+0", "0x1.4a6cd5c451029p-6", "0x1.a084a0646fa59p-8",
         "0x1.9e4da06cdfc65p-10", "0x1.9e4da06cdfc62p-10", "0x1.ee71035ed1a40p-13",
         "0x1.732a347515892p-13", "0x1.f24e1dd91607ap-14", "0x1.f24e1dd916074p-14",
         "0x1.25e1740bc53cbp-16"]),
    ("6-31gss", 20.0): ("-0x1.720641222c728p-1", "-0x1.fe30c4b3afba4p-1", "0x1.0000003885fa4p+0",
        ["0x1.fffffffcac35ep-1", "0x1.fffffffcab658p-1", "0x1.1c10b2b82da1fp-32",
         "0x1.1c10b2b6b8f3cp-32", "0x1.1c10b2b8dd7bep-34", "0x1.1c10b2b8dce4cp-34",
         "0x1.1c10b2b5ff54dp-34", "0x1.1c10b2b5f9a96p-34",
         "0x0.0p+0", "0x0.0p+0"]),
}


@pytest.mark.parametrize("name,r", list(SCIENCE_PINS))
def test_science_output_is_pinned_bit_for_bit(name, r):
    rep = run_single_point(r, name)
    e_hf, e_fci, entropy, occupations = SCIENCE_PINS[name, r]
    assert (rep.e_hf, rep.e_fci, rep.entropy) \
        == (float.fromhex(e_hf), float.fromhex(e_fci), float.fromhex(entropy))
    assert rep.occupations.tolist() == [float.fromhex(x) for x in occupations]


def test_run_scan_with_rescale():
    curve, failures = run_scan(grid(n_points=2), "sto-3g", rescale=True)
    assert not failures
    assert curve.rescaled_entropy[-1] == pytest.approx(curve.e_corr[-1])


def test_emit_csv(tmp_path):
    curve, _ = run_scan(grid(n_points=2), "sto-3g")
    path = tmp_path / "scan.csv"
    emit(curve, "csv", path)
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    fields = lines[1].split(",")
    assert float(fields[0]) == curve.r[0]
    assert float(fields[1]) == curve.e_hf[0]  # 17 digits round-trip exactly
    assert fields[5] == ""  # no rescaling requested


def test_emit_csv_header_only(tmp_path):
    # K comes from the occupations' shape, also with no rows
    path = tmp_path / "empty.csv"
    emit(Curve(*[np.empty(0)] * 5, np.empty((0, 2))), "csv", path)
    assert path.read_text() == CSV_HEADER + "\n"


def test_emit_rejects_an_unknown_format(tmp_path):
    curve, _ = run_scan(grid(n_points=2), "sto-3g")
    path = tmp_path / "scan.xml"
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        emit(curve, "xml", path)
    assert not path.exists()


def test_emit_json(tmp_path):
    curve, _ = run_scan(grid(n_points=2), "sto-3g")
    path = tmp_path / "scan.json"
    emit(curve, "json", path)
    data = json.loads(path.read_text())
    assert len(data) == 2
    assert data[0]["E_HF"] == curve.e_hf[0]
    assert data[0]["entropy_rescaled"] is None
    assert len(data[0]["occupations"]) == 2


# `h2ent scan --points 3 --rescale`, far point included, byte for byte: two runs of
# the same code cannot show a change of format, order or last digit, these can. The
# values are the science output's, so the caveat of SCIENCE_PINS holds for them too.
SCAN_CSV = """\
R_bohr,E_HF,E_FCI,E_corr,entropy_bits,entropy_rescaled,n_1,n_2
0.69999999999999996,-0.83713029822090257,-0.84632598439675299,0.009195686175850426,\
0.030791796319806383,0.011155959318651114,1.9936815481731898,0.0063184518268097952
5.3500000000000005,-0.66899573091398556,-0.93404437345090607,0.26504864253692051,\
0.9922623267003603,0.35949958992742931,1.1034770608194946,0.89652293918050519
10,-0.59597063485127677,-0.93316371200429715,0.33719307715302038,\
0.99999992340417276,0.36230294420904802,1.0003258594192819,0.99967414058071868
20,-0.57086072715460634,-0.93316369911455022,0.36230297195994388,\
1,0.36230297195994388,1.0000000000000127,0.9999999999999869
"""
SCAN_JSON_SHA256 = "d51236b72e79f201d990c7a92ecb2eb96b6a607c10b78b9667e762f8e0a66460"


def test_scan_output_is_pinned_byte_for_byte(tmp_path, capsys):
    csv, js = tmp_path / "scan.csv", tmp_path / "scan.json"
    assert main(["scan", "--points", "3", "--rescale", "--out", str(csv)]) == 0
    assert main(["scan", "--points", "3", "--rescale", "--format", "json",
                 "--out", str(js)]) == 0
    assert csv.read_text() == SCAN_CSV
    assert hashlib.sha256(js.read_bytes()).hexdigest() == SCAN_JSON_SHA256
    assert json.loads(js.read_text())[-1]["R_bohr"] == 20.0
    assert capsys.readouterr().out.count("wrote 4 points") == 2


def test_main_scan_and_determinism(tmp_path, capsys):
    args = ["scan", "--basis", "sto-3g", "--rmin", "1.0", "--rmax", "2.0",
            "--points", "3", "--far-point", "0"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert "wrote 3 points" in capsys.readouterr().out


def test_main_scan_angstrom_and_json(tmp_path):
    out = tmp_path / "scan.json"
    code = main(["scan", "--rmin", "0.74", "--rmax", "1.0", "--points", "2",
                 "--unit", "angstrom", "--far-point", "0", "--format", "json",
                 "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data[0]["R_bohr"] == pytest.approx(0.74 * ANGSTROM_TO_BOHR)


def test_main_point(capsys):
    assert main(["point", "-R", "1.4", "--basis", "sto-3g"]) == 0
    out = capsys.readouterr().out
    assert "E_HF" in out and "-1.116714325" in out
    assert "occupations" in out


# `h2ent bell` stdout byte for byte, signs of zero included: the settings' +-0.000000
# show which way each eigenvector and fallback came out.
BELL_SINGLET = """\
max CHSH (optimal settings):  2.828427125
max CHSH (closed form):       2.828427125
  a = (+0.000000, -1.000000, +0.000000)
  d = (+0.000000, +0.000000, -1.000000)
  b = (+0.000000, +0.707107, +0.707107)
  c = (+0.000000, -0.707107, +0.707107)
violated: True
"""
BELL_STDOUT = {
    "singlet": "state: singlet\n" + BELL_SINGLET,
    "dissociation": "state: dissociation\n" + BELL_SINGLET,
    "product": """\
state: product
max CHSH (optimal settings):  2.000000000
max CHSH (closed form):       2.000000000
  a = (+0.000000, +0.000000, +1.000000)
  d = (+0.000000, +0.000000, -1.000000)
  b = (+0.000000, +0.000000, +1.000000)
  c = (+0.000000, +0.000000, +1.000000)
violated: False
""",
}


def test_main_bell(capsys):
    for state, stdout in BELL_STDOUT.items():
        assert main(["bell", "--state", state]) == 0
        assert capsys.readouterr().out == stdout


def test_usage_errors_exit_1(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scan"])  # missing --out
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--unit", "parsec", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 1
    # bad numeric configuration: ValueError path, exit code 1
    assert main(["scan", "--rmin", "-1", "--out", str(tmp_path / "x.csv")]) == 1
    capsys.readouterr()


def test_scan_rejects_non_finite_distances(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    for flag, value, name in (("--rmin", "nan", "r_min"), ("--rmax", "inf", "r_max"),
                              ("--far-point", "nan", "far_point")):
        assert main(["scan", flag, value, "--out", out]) == 1
        assert f"error: {name} must be finite, got {value}" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_point_rejects_non_finite_distances(capsys):
    # an infinite R is a usage error, not an SCF of NaNs that fails to converge
    for r in (np.inf, [1.4, np.inf]):
        with pytest.raises(ValueError, match="positive and finite"):
            h2(r)
    assert main(["point", "-R", "inf"]) == 1
    assert "must be positive and finite, got inf" in capsys.readouterr().err


def test_import_loads_no_scipy():
    src = str(Path(h2ent.__file__).resolve().parents[1])
    code = ("import h2ent, h2ent.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


def test_module_runs_from_a_checkout_without_warnings():
    # `python3 -m h2ent` and `python3 -m h2ent.cli` print the same bytes
    src = str(Path(h2ent.__file__).resolve().parents[1])
    runs = [subprocess.run([sys.executable, "-m", module, "bell", "--state", "singlet"],
                           capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": src}, timeout=120)
            for module in ("h2ent.cli", "h2ent")]
    for proc in runs:
        assert (proc.returncode, proc.stderr) == (0, "")
    assert runs[0].stdout.startswith("state: singlet\n")
    assert runs[1].stdout == runs[0].stdout


def test_computation_failure_exit_2(tmp_path, capsys):
    code = main(["scan", "--basis", str(tmp_path / "missing.gbs"),
                 "--rmin", "1.0", "--rmax", "2.0", "--points", "2",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "computation failed" in capsys.readouterr().err


def test_basis_dir_flag(tmp_path, capsys):
    (tmp_path / "sto-3g.gbs").write_text("H 0\nS 1 1.00\n 1.24 1.0\n****\n")
    code = main(["--basis-dir", str(tmp_path), "point", "-R", "1.4",
                 "--basis", "sto-3g"])
    assert code == 0
    # single uncontracted s: a different (worse) energy than the packaged set
    out = capsys.readouterr().out
    e_hf = float([l for l in out.splitlines() if l.startswith("E_HF")][0].split("=")[1])
    assert e_hf > -1.1167143250
