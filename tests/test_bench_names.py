"""Every traced per-layer figure in BENCHMARK.json names a live function.

``perfbench/run.py --trace 1`` stops with "no value for metrics" when a
listed function no longer exists, so deleting or renaming one must fail
here first. The tracer wraps the functions a layer module names in
``__all__`` (its public names when it has none) plus
``pipeline.FilterSpec.kernel``.
"""

import importlib
import inspect
import json
import re
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
TRACED = re.compile(r"(?P<layer>\w+)\.(?P<func>[\w.]+)\.(calls|self_s)")


def _traced_names():
    spec = json.loads(BENCHMARK.read_text())
    matches = (TRACED.fullmatch(metric["name"]) for metric in spec["per_layer"])
    return sorted({(m["layer"], m["func"]) for m in matches if m})


def test_benchmark_lists_traced_names():
    assert ("experiments", "run_trial") in _traced_names()


@pytest.mark.parametrize("layer, func", _traced_names())
def test_traced_name_resolves(layer, func):
    module = importlib.import_module(f"dirmusic.{layer}")
    if (layer, func) == ("pipeline", "FilterSpec.kernel"):
        assert inspect.isfunction(module.FilterSpec.kernel)
        return
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    assert func in names, f"dirmusic.{layer} does not export {func}"
    obj = getattr(module, func)
    assert inspect.isfunction(obj) and obj.__module__ == module.__name__
