"""The names the benchmark in perfbench/ calls or traces must exist in h2ent.

perfbench/ has its own tests, outside this suite; this keeps a deleted or
renamed name from failing only the benchmark run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_targets_are_callable():
    spans = _spans()
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
