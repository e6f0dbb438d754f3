"""Every public function and class in the package is reached by the program.

A public (no leading underscore) top-level function or class of
``src/gravodyn/*.py`` must be referenced somewhere other than its own
definition: in the package, in ``scripts/*.py`` or in
``tests/test_acceptance.py``. A reference is an ``ast.Name``, an
``ast.Attribute`` or an import alias of that name. API that only unit tests
reach fails here: use it from the runner or delete it together with its
tests.

Names are matched as bare identifiers, whatever object they resolve to, so
this is a floor and not a proof: a name shared with any other identifier
counts as reached.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "gravodyn").glob("*.py"))
READERS = [
    *SOURCES, *sorted((ROOT / "scripts").glob("*.py")), ROOT / "tests" / "test_acceptance.py"
]


def names_used(node):
    """Identifiers that ``node`` refers to by name, attribute or import alias."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.alias):
            used.add(sub.name.rpartition(".")[2])
    return used


def test_every_public_definition_is_referenced():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in READERS}
    statements = [(stmt, names_used(stmt)) for tree in trees.values() for stmt in tree.body]
    unreached = []
    for path in SOURCES:
        for node in trees[path].body:
            definition = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            if not isinstance(node, definition) or node.name.startswith("_"):
                continue
            if not any(node.name in used for stmt, used in statements if stmt is not node):
                unreached.append(f"{path.stem}.{node.name}")
    assert unreached == []


def test_only_the_spectral_layer_calls_an_eigensolver():
    callers = [
        path.name for path in SOURCES
        if {"eigh", "eigvalsh"} & names_used(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert callers == ["propagator.py"]


def test_the_spectral_layer_conjugates_nothing():
    # every Hamiltonian is real symmetric, so the model and spectral layers
    # have one arithmetic: no complex-conjugate path beside the real one
    for name in ("models.py", "propagator.py"):
        tree = ast.parse((ROOT / "src" / "gravodyn" / name).read_text(encoding="utf-8"))
        assert not {"conj", "conjugate"} & names_used(tree), name


def test_cli_sizes_every_model_part_by_one_byte_estimate():
    # the memory cap is read where a part is admitted and where sweep workers
    # are capped, and nowhere else; the count cap stays with the parser
    tree = ast.parse((ROOT / "src" / "gravodyn" / "cli.py").read_text(encoding="utf-8"))
    assert "DEFAULT_CONFIG_CAP" not in names_used(tree)
    readers = [
        getattr(node, "name", type(node).__name__) for node in tree.body
        if not isinstance(node, ast.ImportFrom) and "DEFAULT_MEMORY_CAP" in names_used(node)
    ]
    assert readers == ["_admit", "_run_sweep"]
