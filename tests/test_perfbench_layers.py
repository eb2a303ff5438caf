"""The benchmark's traced layers must exist in the package and keep the
contract its tracer reads.

``perfbench/tracer.py`` wraps each (module, function) of its ``LAYERS`` by
name; a layer deleted or renamed in ``nclaw`` would break a traced run, so
the names are checked here. Its work counters read the solvers' arguments
and results, and the worker compares the calls it saw with the steps the
solvers report; a tiny traced run of ce1, rate and visc checks both.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

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


@pytest.fixture
def perfbench_modules(monkeypatch):
    """``perfbench/worker.py`` and the ``tracer`` it imports, loaded the way
    ``run.py`` loads them: as top-level modules of the perfbench directory."""
    monkeypatch.syspath_prepend(str(TRACER.parent))
    for name in ("checks", "tracer", "worker"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    worker = importlib.import_module("worker")
    yield worker, sys.modules["tracer"]
    for name in ("checks", "tracer", "worker"):
        sys.modules.pop(name, None)


def test_a_traced_run_sees_every_step_the_solvers_report(perfbench_modules, tmp_path):
    # a solver signature that a work counter cannot read, or a layer that
    # the scenarios stop calling, would only break a --trace 1 benchmark run
    worker, tracer_module = perfbench_modules
    import nclaw.cli

    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for argv in (
            ["ce1", "--n-particles", "300", "--godunov-n", "512", "--no-gate"],
            ["rate", "--eps-list", "0.4,0.2", "--t-end", "0.2", "--no-gate"],
            ["visc", "--nu-list", "0.1,0.03", "--t-end", "0.1", "--no-gate"],
        ):
            # a verdict, not a usage error (1) or a numerical failure (4)
            assert nclaw.cli.main(["--out", str(tmp_path), *argv]) in (0, 2, 3), argv
    finally:
        tracer.uninstall()
    assert worker.call_count_mismatches(tracer) == []
    calls = tracer.calls()
    counted = [f"{m}.{f}" for m, f, counter, _ in tracer_module.LAYERS if counter is not None]
    assert [name for name in counted if not calls[name]] == []
