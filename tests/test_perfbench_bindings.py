"""The traced benchmark run wraps vbscd calls by module and name
(``perfbench/layers.py``); every one of them must still exist there."""
import importlib
import importlib.util
from pathlib import Path

import vbscd.cli  # noqa: F401  (loads every vbscd module, as the benchmark does)

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_bindings_resolve():
    layers = _layers()
    missing = [
        f"{module}.{attr}" for module, attr, *_ in layers._FUNCTIONS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    # methods are patched on the class that defines them, not inherited
    missing += [
        f"{module}.{cls}.{attr}" for module, cls, attr, *_ in layers._METHODS
        if attr not in vars(getattr(importlib.import_module(module), cls, object))
    ]
    assert layers._FUNCTIONS and layers._METHODS
    assert missing == []
