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


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_no_module_reaches_into_another_modules_private_names():
    # an underscore name is its module's own business: another module that
    # needs it needs a public name instead
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        modules = set()  # names bound to package modules in this file
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            ours = node.level > 0 or (node.module or "").split(".")[0] == "sparselp"
            if not ours:
                continue
            for alias in node.names:
                if _is_private(alias.name):
                    found.append(f"{path.name}:{node.lineno} imports {alias.name}")
                if node.level > 0 and node.module is None:  # from . import module
                    modules.add(alias.asname or alias.name)
        found += [
            f"{path.name}:{node.lineno} reads {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _is_private(node.attr)
        ]
    assert found == []
