"""The traced benchmark wraps package functions by name; each name must resolve."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


def test_every_traced_layer_names_a_package_function():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracer  # dataclasses look their module up while it loads
    try:
        spec.loader.exec_module(tracer)
    finally:
        del sys.modules[spec.name]
    for layer in tracer.LAYERS:
        module_name, attr = layer.name.rsplit(".", 1)
        module = importlib.import_module(f"speechmotion.{module_name}")
        assert callable(getattr(module, attr, None)), layer.name
