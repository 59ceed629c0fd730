"""Static checks on the package source."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "confpce").glob("*.py"))
BENCHMARK_SOURCES = sorted((ROOT / "perfbench").rglob("*.py"))
MODULES = ("basis", "benchmarks", "cli", "conformal", "harness", "pce")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert statements, so no check may rely on one.
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} has assert statements on lines {lines}"


def _has(module, name):
    """Whether `from module import name` works: an attribute or a submodule."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


@pytest.mark.parametrize("path", BENCHMARK_SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_benchmark_uses_only_existing_names(path):
    # Nothing in the test suite runs every line of the benchmark, so a name it
    # reads from a package module, such as pce.loo_predict, is checked here.
    tree = ast.parse(path.read_text(), filename=str(path))
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in MODULES:
                used.add((f"confpce.{node.value.id}", node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("confpce"):
            used.update((node.module, alias.name, node.lineno) for alias in node.names)
    missing = [
        f"{module}.{name} (line {line})"
        for module, name, line in sorted(used)
        if not _has(module, name)
    ]
    assert not missing, f"{path.name} uses names the package lacks: {missing}"


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "errors.py"], ids=lambda p: p.name
)
def test_exception_classes_only_in_errors(path):
    # One home for error types, so no parallel "bad input" class can grow
    # beside ValidationError. Every class must be a module attribute to be checked.
    module = importlib.import_module(
        "confpce" if path.stem == "__init__" else f"confpce.{path.stem}"
    )
    tree = ast.parse(path.read_text(), filename=str(path))
    names = [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    bad = [
        name for name in names
        if not isinstance(getattr(module, name, None), type)
        or issubclass(getattr(module, name), BaseException)
    ]
    assert not bad, f"{path.name} defines exception or unchecked classes {bad}"
