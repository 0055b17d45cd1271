"""Package metadata agrees with the build configuration, every module uses
what it imports, exact-to-real conversion has one home, the CLI turns a
ValueError into exit 2 in one place, and numpy is loaded only by the
sampler's random streams."""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import orbitstat

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def test_version_matches_pyproject():
    pyproject = ROOT / "pyproject.toml"
    with open(pyproject, "rb") as handle:
        meta = tomllib.load(handle)
    assert orbitstat.__version__ == meta["project"]["version"]


def unused_imports(path):
    """Names a module imports but never references, as 'file:line: name'."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    # __init__.py imports are the package's re-exports
    modules = [
        path
        for directory in (ROOT / "src" / "orbitstat", ROOT / "tests")
        for path in sorted(directory.glob("*.py"))
        if path.name != "__init__.py"
    ]
    assert len(modules) > 20
    assert [entry for path in modules for entry in unused_imports(path)] == []


def fraction_conversions(path):
    """The mp.mpf(<x>.numerator) calls in a module, as (enclosing function,
    line) pairs."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (
            isinstance(node, ast.Call)
            and ast.unparse(node.func) == "mp.mpf"
            and len(node.args) == 1
            and isinstance(node.args[0], ast.Attribute)
            and node.args[0].attr == "numerator"
        ):
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_fraction_to_mpf_has_one_home():
    # the two roundings of mp.mpf(x.numerator) / x.denominator fix every
    # real column's last digits, so only polyops.to_mpf may spell them out
    found = {
        path.name: fraction_conversions(path)
        for path in sorted((ROOT / "src" / "orbitstat").glob("*.py"))
    }
    assert [function for function, _ in found.pop("polyops.py")] == ["to_mpf"]
    assert {name: hits for name, hits in found.items() if hits} == {}


def value_error_handlers(path):
    """The enclosing function of each handler in a module that catches
    ValueError, alone or in a tuple."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(ast.unparse(name) == "ValueError" for name in caught):
                found.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_cli_anchors_value_errors_in_main_only():
    # main is the one boundary that words a library ValueError as rejected
    # input (exit 2, "spec:1:"); a second handler would be a second policy
    assert value_error_handlers(ROOT / "src" / "orbitstat" / "cli.py") == ["main"]


IMPORT_BOUNDARY = textwrap.dedent(
    """
    import contextlib, io, sys

    import orbitstat

    assert "numpy" not in sys.modules, "import orbitstat"
    from orbitstat.cli import main

    for command in ("validate", "census", "constants", "wdist", "ldp"):
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--system", "builtin:FF,q=2", "--X", "12"])
        assert code == 0, command
        assert "numpy" not in sys.modules, command
    orbitstat.RandomStream(1, 0)
    assert "numpy" in sys.modules, "RandomStream"
    """
)


def test_numpy_loads_with_the_first_random_stream():
    # numpy serves only the Philox bytes of the sampler; a fresh interpreter
    # is the only place where sys.modules shows what an import loads
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", IMPORT_BOUNDARY], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
