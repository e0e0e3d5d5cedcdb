"""Rules about the package source itself, checked by parsing it, and the
benchmark's tracing hooks, which name package code."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import sparselp
from conftest import load_benchmark_module

PACKAGE = Path(sparselp.__file__).resolve().parent
REPO = Path(__file__).resolve().parent.parent


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


def test_rank_tolerance_is_read_only_in_linalg():
    # one rank rule: every other module counts singular values through
    # linalg.singular_value_rank, not with a cut of its own
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "linalg.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if "RANK_REL_TOL_FACTOR"
        in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))
    ]
    assert found == []


def test_every_exported_function_has_a_user_outside_the_tests():
    # public API that only the tests use goes: each function the package
    # exports is named in another package module, a demo, the README or the
    # benchmark; classes are exempt
    users = [
        path
        for path in (
            *PACKAGE.glob("*.py"),
            *(REPO / "demos").glob("*.py"),
            REPO / "README.md",
            *(REPO / "benchmarks").glob("*"),
        )
        if path.name != "__init__.py" and not path.name.startswith("test_") and path.is_file()
    ]
    texts = {path.resolve(): path.read_text() for path in users}
    homes = {
        name: Path(inspect.getfile(obj)).resolve()
        for name in sparselp.__all__
        if inspect.isfunction(obj := getattr(sparselp, name))
    }
    unused = [
        name
        for name, home in homes.items()
        if not any(re.search(rf"\b{name}\b", text) for path, text in texts.items() if path != home)
    ]
    assert unused == []


# the inner loop's and linear algebra's building blocks, by module: each
# imports from its own module and none from the package's top level
INNER_BLOCKS = {
    "linalg": ("lq_norm", "numerical_rank", "gram_extremes"),
    "npg": ("npg_solve", "NpgOutcome"),
    "prox": ("prox_threshold", "prox_vector"),
    "smoothing": ("SmoothedPenalty", "lp_power_sum", "smoothed_abs", "smoothed_plus"),
}


def test_top_level_exports_no_modules_and_no_inner_blocks():
    star = {}
    exec("from sparselp import *", star)
    modules = [name for name in sparselp.__all__ if inspect.ismodule(getattr(sparselp, name))]
    assert modules == [] and not any(inspect.ismodule(obj) for obj in star.values())
    inner = [name for names in INNER_BLOCKS.values() for name in names]
    assert set(inner + ["support_indices"]).isdisjoint(sparselp.__all__)
    for module, names in INNER_BLOCKS.items():
        home = importlib.import_module(f"sparselp.{module}")
        assert all(hasattr(home, name) for name in names)
    assert not hasattr(sparselp.core, "support_indices")


# the package's layers, lowest first: a module imports only modules of lower
# layers, so the point checks in verify do not reach into the exact oracle
# and no two modules of one layer depend on each other
LAYERS = (
    {"errors"},
    {"linalg"},
    {"core"},
    {"smoothing", "prox", "gen", "oracle", "verify"},
    {"npg"},
    {"solver"},
    {"experiments"},
    {"cli"},
)


def _package_imports(tree):
    """(line, module) for every import of a package module in one file."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level > 0:
                module = parts[0]
            elif parts[0] == "sparselp":
                module = parts[1] if len(parts) > 1 else ""
            else:
                continue
            if module:
                yield node.lineno, module
            else:  # from . import module, from sparselp import module
                for alias in node.names:
                    yield node.lineno, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "sparselp" and len(parts) > 1:
                    yield node.lineno, parts[1]


def test_modules_import_only_lower_layers():
    layer = {name: i for i, names in enumerate(LAYERS) for name in names}
    modules = {path.stem: path for path in sorted(PACKAGE.glob("*.py"))}
    assert set(modules) - {"__init__"} == set(layer)  # every module has a layer
    found = [
        f"{name}.py:{line} imports {target}"
        for name, path in modules.items()
        if name != "__init__"
        for line, target in _package_imports(ast.parse(path.read_text(), filename=str(path)))
        if layer.get(target, len(LAYERS)) >= layer[name]
    ]
    assert found == []


# the tracing hooks that name code which is gone (ROADMAP item 1): the
# deleted spectral_norm_sq and the two penalty classes folded into one
GONE_HOOKS = {
    "linalg.spectral_norm_sq",
    "smoothing.value",
    "smoothing.value_and_grad",
    "smoothing.grad",
    "solver.l2_penalty.value",
    "solver.l2_penalty.value_and_grad",
    "solver.l2_penalty.grad",
}


def test_benchmark_tracing_hooks_resolve():
    # a rename that detaches another hook fails here, not only in a traced
    # benchmark run
    tracing = load_benchmark_module("tracing")
    unresolved = {
        name for name, module, path in tracing.HOOKS if tracing._resolve(module, path) is None
    }
    assert unresolved == GONE_HOOKS
