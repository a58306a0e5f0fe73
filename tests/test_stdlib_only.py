"""The package imports nothing outside the Python standard library.

Every module of ``src/basiccovers`` is parsed with ``ast``; the top-level
name of each absolute import must be in ``sys.stdlib_module_names``.
Relative imports stay inside the package.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "basiccovers").glob("*.py"))


def foreign_imports(source: str) -> set[str]:
    """Top-level names of the absolute imports outside the standard library."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return {n.split(".")[0] for n in names} - sys.stdlib_module_names


def test_the_scan_sees_every_import_form():
    source = (
        "import os, numpy.linalg\n"
        "from hypothesis import given\n"
        "from . import graph\n"
        "from .covers import Cover\n"
        "def f():\n"
        "    import pytest\n"
    )
    assert foreign_imports(source) == {"numpy", "hypothesis", "pytest"}


def test_package_imports_only_the_standard_library():
    assert PACKAGE, "no package modules found"
    foreign = {p.name: foreign_imports(p.read_text()) for p in PACKAGE}
    assert {name: f for name, f in foreign.items() if f} == {}
