"""The benchmark harness under ``perfbench/`` still finds every program name it uses.

``perfbench/sweep.py`` imports estimator functions by name, and
``perfbench/tracing.py`` looks up each function it wraps with ``getattr`` on
its module or class.  A change that drops or renames one of them fails here,
in the test suite, instead of breaking a traced benchmark run unseen.
"""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_imports_its_estimator_names():
    sweep = _load("sweep")
    assert callable(sweep.pool_sweep)


def test_tracer_finds_every_name_it_wraps():
    tracing = _load("tracing")
    with tracing.traced(tracing.Tracer()):  # getattr on each wrapped name
        pass


def test_sweep_builds_and_steps_its_sample_list_inputs(monkeypatch):
    """The sweep reads a generated dataset's ``samples`` (one Pool), passes its
    gcl batch as a list of one-row Pools and steps both estimators; one small
    pool size shows that path still builds and runs."""
    sweep = _load("sweep")
    monkeypatch.setattr(sweep, "POOL_SIZES", (400,))
    monkeypatch.setattr(sweep, "MIN_SECONDS", 0)
    metrics = sweep.pool_sweep(0)
    assert sorted(metrics) == ["sweep.gcl_step_s.400", "sweep.gdro_step_s.400"]
    assert all(seconds > 0 for seconds in metrics.values())
