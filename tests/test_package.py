"""Package metadata agrees with the build configuration, and every module
uses what it imports."""

import ast
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
