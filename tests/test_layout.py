"""The test modules themselves: a second top-level definition of a name
replaces the first, and pytest then never collects the test it shadowed."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent


def twice_defined(source: str) -> list[str]:
    """The top-level function and class names a module defines more than once."""
    names = Counter(node.name for node in ast.parse(source).body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))
    return sorted(name for name, n in names.items() if n > 1)


@pytest.mark.parametrize("path", sorted(TESTS.glob("*.py")), ids=lambda path: path.name)
def test_no_test_module_defines_a_name_twice(path):
    assert twice_defined(path.read_text(encoding="utf-8")) == []


def test_a_shadowed_name_is_found():
    source = "def test_a():\n    pass\n\nclass B:\n    pass\n\nasync def test_a():\n    pass\n"
    assert twice_defined(source) == ["test_a"]
    assert twice_defined(source + "\nclass B:\n    pass\n") == ["B", "test_a"]
