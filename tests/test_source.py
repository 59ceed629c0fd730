"""Static checks on the package source."""

import ast
import importlib
import inspect
import itertools
from pathlib import Path

import pytest

from confpce import ConfpceError

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


def _module(path):
    return importlib.import_module("confpce" if path.stem == "__init__" else f"confpce.{path.stem}")


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "errors.py"], ids=lambda p: p.name
)
def test_exception_classes_only_in_errors(path):
    # One home for error types, so no parallel "bad input" class can grow
    # beside ValidationError. Every class must be a module attribute to be checked.
    module = _module(path)
    tree = ast.parse(path.read_text(), filename=str(path))
    names = [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    bad = [
        name for name in names
        if not isinstance(getattr(module, name, None), type)
        or issubclass(getattr(module, name), BaseException)
    ]
    assert not bad, f"{path.name} defines exception or unchecked classes {bad}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_raises_only_confpce_errors(path):
    # Every error the package raises is typed: `raise Name(...)` or
    # `raise Name` with Name a ConfpceError subclass, or a bare re-raise.
    module = _module(path)
    tree = ast.parse(path.read_text(), filename=str(path))
    bad = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            cls = getattr(module, exc.id, None) if isinstance(exc, ast.Name) else None
            if not (isinstance(cls, type) and issubclass(cls, ConfpceError)):
                bad.append(node.lineno)
    assert not bad, f"{path.name} raises untyped exceptions on lines {bad}"


def test_byte_limit_compared_only_in_check_bytes():
    # One home for the size rule: every size check calls basis.check_bytes
    # rather than comparing against MAX_BASIS_BYTES itself.
    sites = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        home = set()
        for node in tree.body:
            if path.name == "basis.py" and isinstance(node, ast.FunctionDef) and node.name == "check_bytes":
                home = set(ast.walk(node))
        sites += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Compare) and node not in home
            and any(isinstance(n, ast.Name) and n.id == "MAX_BASIS_BYTES"
                    or isinstance(n, ast.Attribute) and n.attr == "MAX_BASIS_BYTES"
                    for n in ast.walk(node))
        ]
    assert not sites, f"MAX_BASIS_BYTES compared outside basis.check_bytes at {sites}"


@pytest.mark.parametrize("path", BENCHMARK_SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_benchmark_calls_bind_to_the_package_signatures(path):
    # A call such as harness.emit_report(report, "csv", out) must still fit
    # the function it names: its argument count and keyword names are read
    # from the source and bound to the signature, so a dropped or renamed
    # parameter fails here rather than in a benchmark run.
    tree = ast.parse(path.read_text(), filename=str(path))
    unbound = []
    for node in ast.walk(tree):
        func = node.func if isinstance(node, ast.Call) else None
        if not (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                and func.value.id in MODULES):
            continue
        target = getattr(importlib.import_module(f"confpce.{func.value.id}"), func.attr, None)
        if not callable(target):
            continue  # a missing name fails test_benchmark_uses_only_existing_names
        # Past a *args or **kwargs the arguments are unknown: bind what precedes.
        args = list(itertools.takewhile(lambda a: not isinstance(a, ast.Starred), node.args))
        keywords = [kw.arg for kw in node.keywords if kw.arg is not None]
        whole = len(args) == len(node.args) and len(keywords) == len(node.keywords)
        try:
            signature = inspect.signature(target)
            bind = signature.bind if whole else signature.bind_partial
            bind(*[None] * len(args), **dict.fromkeys(keywords))
        except TypeError as exc:
            unbound.append(f"{func.value.id}.{func.attr} (line {node.lineno}): {exc}")
    assert not unbound, f"{path.name} makes calls that do not bind: {unbound}"
