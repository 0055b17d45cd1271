"""Package metadata agrees with the build configuration."""

from pathlib import Path

import pytest

import orbitstat

tomllib = pytest.importorskip("tomllib")


def test_version_matches_pyproject():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as handle:
        meta = tomllib.load(handle)
    assert orbitstat.__version__ == meta["project"]["version"]
