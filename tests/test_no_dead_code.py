"""Every function, class and method of the package is reached by the
program: a command, a report, a benchmark worker or a traced name.

Code that only tests call belongs in ``tests/`` as an oracle.  The scan is
syntactic.  A function or class counts as reached when its name appears
as a ``Name`` or an ``Attribute`` anywhere in the package or the benchmark
programs, or as a function of ``bench/tracer.py``'s ``TRACED``; a method
only as an ``Attribute``, since nothing calls a method by its bare name.
Docstrings and the strings of ``__all__`` lists are not references.
Names exported from ``basiccovers.__all__`` are the public API and are
exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

import basiccovers

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "basiccovers").glob("*.py"))
# The benchmark's own self-tests are not a caller.
BENCH = sorted(p for p in (ROOT / "bench").glob("*.py") if not p.name.startswith("test_"))


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def definitions(tree: ast.Module):
    """(qualified name, name looked up, is a method) of each top-level
    function and class and each non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.name, True


def references(trees) -> tuple[set[str], set[str]]:
    """The ``Name`` ids and the ``Attribute`` names used in the trees."""
    names, attributes = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return names, attributes


def traced() -> set[str]:
    for node in parse(ROOT / "bench" / "tracer.py").body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return {entry.rsplit(".", 1)[1] for entry in ast.literal_eval(node.value)}
    raise AssertionError("bench/tracer.py defines no TRACED tuple")


def test_every_package_definition_is_reached():
    trees = {path: parse(path) for path in PACKAGE + BENCH}
    names, attributes = references(trees.values())
    reached_by_name = names | attributes | traced()
    exempt = set(basiccovers.__all__)
    unreached = [
        f"{path.stem}.{qualified}"
        for path in PACKAGE
        for qualified, name, method in definitions(trees[path])
        if name not in (attributes if method else reached_by_name)
        and qualified not in exempt
    ]
    assert not unreached, "reached by no program code: " + ", ".join(unreached)
