from pathlib import Path

import pytest

import mira

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11


def test_version_matches_pyproject():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        meta = tomllib.load(fh)
    assert mira.__version__ == meta["project"]["version"]
