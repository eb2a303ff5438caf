"""The benchmark's traced layers must exist in the package.

``perfbench/tracer.py`` wraps each (module, function) of its ``LAYERS`` by
name; a layer deleted or renamed in ``nclaw`` would break a traced run, so
the names are checked here.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves_to_a_callable():
    layers = load_tracer().LAYERS
    assert layers
    for module, fn_name, _, _ in layers:
        fn = getattr(importlib.import_module(f"nclaw.{module}"), fn_name, None)
        assert callable(fn), f"nclaw.{module}.{fn_name}"
