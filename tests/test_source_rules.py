"""Rules about the package source itself, checked by parsing it."""

import ast
from pathlib import Path

import sparselp

PACKAGE = Path(sparselp.__file__).resolve().parent


def test_package_has_no_assert_statements():
    # invariants are typed SparselpErrors: an assert vanishes under python -O
    # and escapes every `except SparselpError`
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 10
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
