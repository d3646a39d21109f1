"""Spans around h2ent's public functions, recorded from outside the package.

`instrument` rebinds each target function, in every loaded `h2ent` module
that holds it, to a wrapper that records a span, and restores the originals
on exit. Nothing under `src/` knows about tracing, so spans cannot reach the
science output.
"""

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

# (module, function, metric name of its summed self time)
TARGETS = (
    ("basis", "load_basis", "basis.load"),
    ("basis", "build_ao_basis", "basis.build_ao"),
    ("integrals", "compute_all", "integrals.compute_all"),
    ("scf", "run_rhf", "scf.run_rhf"),
    ("fci", "run_fci", "fci.run_fci"),
    ("fci", "mo_transform", "fci.mo_transform"),
    ("fci", "build_hamiltonian", "fci.build_hamiltonian"),
    ("correlation", "one_particle_density", "correlation.opdm"),
    ("correlation", "natural_occupations", "correlation.occupations"),
    ("correlation", "rescale_entropy", "correlation.rescale"),
    ("cli", "run_scan", "cli.run_scan_self"),
    ("cli", "run_single_point", "cli.run_single_point_self"),
    ("cli", "emit", "cli.emit"),
    ("bell", "chsh_max_grid", "bell.chsh_grid"),
    ("bell", "chsh_max_closed_form", "bell.closed_form"),
)
MODULES = ("basis", "integrals", "scf", "fci", "correlation", "cli", "bell")

# The span whose first argument is the scan point's R (Bohr).
POINT_SPAN = "cli.run_single_point"
# Values kept from a span's return value, by span name.
RETURNED = {
    "scf.run_rhf": lambda res: {"iterations": res.iterations,
                                "converged": res.converged},
}


@dataclass
class Span:
    name: str              # "<module>.<function>"
    start: float
    end: float = None
    parent: int = None     # index of the enclosing span in Tracer.spans
    r: float = None        # R of the scan point the span belongs to
    info: dict = None      # values read from the return value


class Tracer:
    """Keeps spans in memory, in start order; single-threaded."""

    def __init__(self, clock=time.perf_counter):
        self.spans = []
        self._stack = []
        self._r = None
        self._clock = clock

    def wrap(self, name, fn):
        returned = RETURNED.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer_r = self._r
            if name == POINT_SPAN:
                self._r = float(args[0])
            span = Span(name, self._clock(),
                        parent=self._stack[-1] if self._stack else None, r=self._r)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self._clock()
                self._stack.pop()
                self._r = outer_r
            if returned is not None:
                span.info = returned(result)
            return result
        return traced


@contextmanager
def instrument(tracer):
    """Route calls of every target through tracer spans while inside."""
    owners = {module: importlib.import_module(f"h2ent.{module}") for module, _, _ in TARGETS}
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "h2ent" or name.startswith("h2ent."))]
    patched = []
    try:
        for module, function, _ in TARGETS:
            original = getattr(owners[module], function)
            wrapper = tracer.wrap(f"{module}.{function}", original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        patched.append((m, attr, original))
        yield tracer
    finally:
        for m, attr, original in reversed(patched):
            setattr(m, attr, original)


def self_times(spans):
    """Each span's duration minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        reach = span.start
        for kid in sorted(kids, key=lambda s: s.start):
            lo, hi = max(kid.start, reach), min(kid.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def layer_totals(spans):
    """Per span name: (calls, summed self time)."""
    totals = {}
    for span, self_s in zip(spans, self_times(spans)):
        calls, total = totals.get(span.name, (0, 0.0))
        totals[span.name] = (calls + 1, total + self_s)
    return totals
