"""Invariants of the library source, read from src/quivertex/*.py.

Operators sum into one dict (``quivertex.lincomb``), so no line may rebuild
an element by adding to itself, which copies the partial sum on every term;
and invariants are raised as exceptions, never asserted, since ``python -O``
strips ``assert`` statements.
"""

import ast
import re
from pathlib import Path

import quivertex

SOURCES = sorted(Path(quivertex.__file__).parent.glob("*.py"))
SELF_ACCUMULATION = re.compile(r"\b(\w+) = \1 [+-] ")


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"lincomb.py", "symfunc.py", "checks.py"}


def test_no_quadratic_accumulation():
    hits = [
        f"{path.name}:{i}: {line.strip()}"
        for path in SOURCES
        for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if SELF_ACCUMULATION.search(line)
    ]
    assert not hits, hits


def test_no_assert_statements():
    hits = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not hits, hits
