"""The benchmark's per-layer tracer finds code to time for every layer it reports.

A layer whose functions are all gone from the package drops out of a traced
run's result line (it is listed as absent), so that run no longer reports a
metric BENCHMARK.json declares. The tracer is loaded from perfbench/ by path;
nothing there is edited.
"""

import importlib.util
import json
from pathlib import Path

import spectrig  # noqa: F401  the tracer wraps the package's loaded modules

ROOT = Path(__file__).resolve().parents[1]


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_reports_every_declared_layer():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted(load_tracing().LAYERS) == sorted(layer["name"] for layer in declared)


def test_every_benchmark_layer_has_a_target():
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        assert tracer.absent == []
    finally:
        tracer.uninstall()
