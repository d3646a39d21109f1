"""Source rules of the package, read from its files without importing them."""

import ast
from pathlib import Path

import h2ent
from test_docs import library_example

SOURCES = sorted(Path(h2ent.__file__).parent.glob("*.py"))
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# public names that no program path calls, each kept for the reason given
UNCALLED = {
    ("integrals", "overlap"): "criterion 1 checks integrals at arbitrary centres",
    ("integrals", "kinetic"): "criterion 1 checks integrals at arbitrary centres",
    ("integrals", "nuclear_attraction"): "criterion 1 checks integrals at arbitrary centres",
    ("molecule", "molecule"): "the constructor for atoms other than H2",
}


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


def public_definitions():
    """(module, name) of each public top-level def and class of the package."""
    for path in SOURCES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_":
                yield path.stem, node.name


def package_module(node):
    """The h2ent module an ImportFrom reads: its name, "" for the package itself,
    None outside the package."""
    if node.level:
        return node.module or ""
    if node.module == "h2ent" or node.module.startswith("h2ent."):
        return node.module[len("h2ent."):]
    return None


def references(tree):
    """The (module, name) pairs of the package that a parsed file refers to: a name
    imported from its module, or `<module>.<name>` with <module> bound to it by an
    import (`h2ent.<module>.<name>` too). Other attributes, np.stack or ints.overlap,
    are not references."""
    modules, refs = {}, set()  # modules: local name -> package module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and package_module(node) is not None:
            module = package_module(node)
            for alias in node.names:
                if module:
                    refs.add((module, alias.name))
                else:
                    modules[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                refs.add((modules[node.value.id], node.attr))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute):
            if isinstance(node.value.value, ast.Name) and node.value.value.id == "h2ent":
                refs.add((node.value.attr, node.attr))
    return refs


def own_references(path):
    """(module, name) for each name that a package module reads outside its own
    definition."""
    for stmt in ast.parse(path.read_text()).body:
        for node in ast.walk(stmt):
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                    and node.id != getattr(stmt, "name", None)):
                yield path.stem, node.id


def span_targets():
    """The (module, function) pairs of perfbench's `spans.TARGETS`."""
    tree = ast.parse((PERFBENCH / "spans.py").read_text())
    (value,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["TARGETS"]]
    return {(module, function) for module, function, _ in ast.literal_eval(value)}


def program_callers():
    """Every (module, name) that the package, perfbench outside its tests, the traced
    targets or README's Library example refers to."""
    called = span_targets() | references(ast.parse(library_example()))
    for path in SOURCES:
        called |= references(ast.parse(path.read_text())) | set(own_references(path))
    for path in PERFBENCH.glob("*.py"):
        if not path.name.startswith("test_"):
            called |= references(ast.parse(path.read_text()))
    return called


def test_only_the_integrals_and_the_cli_import_the_geometry():
    # the geometry enters the pipeline once: `compute_all` takes a Molecule and puts
    # what the later stages read, the nuclear repulsion too, into its IntegralSet
    importers = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and package_module(node) is not None:
                module = package_module(node)
                modules = [module] if module else [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                modules = [alias.name.removeprefix("h2ent.") for alias in node.names]
            else:
                continue
            if "molecule" in modules:
                importers.add(path.stem)
    assert sorted(importers) == ["cli", "integrals"]


def test_every_public_name_has_a_program_caller():
    # src/ holds what the program runs: a public def or class that only tests call
    # belongs in tests/
    called, defined = program_callers(), set(public_definitions())
    assert sorted(defined - called - UNCALLED.keys()) == []
    # and the list of exceptions does not go stale
    assert sorted(UNCALLED.keys() - (defined - called)) == []
