"""Source rules of the package, read from its files without importing them."""

import ast
from pathlib import Path

import h2ent

SOURCES = sorted(Path(h2ent.__file__).parent.glob("*.py"))


def imported_modules(path):
    """The top-level names of the modules a source file imports."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_records_are_named_tuples_not_dataclasses():
    # one record idiom: a NamedTuple, whose check lives in the function that makes or
    # reads it (or in the __new__ of a namedtuple subclass)
    assert len(SOURCES) >= 9, SOURCES
    offenders = [p.name for p in SOURCES if "dataclasses" in imported_modules(p)]
    assert offenders == []
