"""The package binds only its version; each public name is imported from
its layer module."""

import types
from pathlib import Path

import pytest

import dirmusic

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on; the package supports 3.10
    with PYPROJECT.open("rb") as handle:
        assert dirmusic.__version__ == tomllib.load(handle)["project"]["version"]


def test_package_binds_no_layer_name():
    # importing a layer module binds it on the package; nothing else may be bound
    bound = {
        name
        for name, value in vars(dirmusic).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert bound == set()
