"""The benchmark harness under ``perfbench/`` still finds every program name it uses.

``perfbench/sweep.py`` imports estimator functions by name, and
``perfbench/tracing.py`` looks up each function it wraps with ``getattr`` on
its module or class.  A change that drops or renames one of them, or changes
the arguments a wrapped function takes, fails here, in the test suite,
instead of breaking a traced benchmark run unseen.
"""

import importlib.util
from pathlib import Path

import pytest

import cclearn.runner
from cclearn.data import gen_synthetic, split_cil
from cclearn.gdro import GdroEstimatorState
from cclearn.model import EncoderPair
from cclearn.runner import RunConfig, run

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


@pytest.mark.parametrize("method", ["gcl", "gdro"])
def test_traced_run_calls_every_wrapper_with_real_arguments(method):
    """A tiny traced run goes through the wrappers with the program's own
    arguments, so a signature change that breaks a span's attribute function
    (the ``sample_class_batch`` and ``model.encode`` attrs, and ``pool_attrs``)
    fails here, not in a traced benchmark run.  The runner steps gdro through
    ``_gdro_loss_and_grad``, which the tracer does not wrap, so the wrapped
    separate gdro parts are called once more on the first task's rows, as the
    sweep does."""
    tracing = _load("tracing")
    ds = gen_synthetic(4, 10, 6, separation=4.0, noise=0.5, seed=0)
    stream = split_cil(ds, num_tasks=2, test_fraction=0.25, seed=1)
    config = RunConfig(method=method, epochs_per_task=1, memory_capacity=8, seed=2,
                       batch_classes=2, batch_per_class=3)
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        run(stream, config)
        if method == "gdro":
            enc = EncoderPair(config.encoder_config(6, 4))
            pool, classes = stream.tasks[0].train, [0, 1]
            batches = {k: cclearn.runner.sample_class_batch(pool, k, 3, k) for k in classes}
            args = (enc, enc.init_params(), classes, batches, pool, config.gdro_config())
            state = cclearn.runner.gdro_update_estimators(GdroEstimatorState(), *args)
            cclearn.runner.gdro_gradient_estimate(state, *args)
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["model.encode.rows"] > 0
    assert (metrics["buffer.sample_class_batch.calls"] > 0) == (method == "gdro")
    assert metrics["gdro.steps"] == (method == "gdro")
