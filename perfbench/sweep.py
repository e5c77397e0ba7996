"""Time single estimator steps over a range of pool sizes, so scaling shows.

One step is the estimator update plus the gradient estimate, as the runner
does it, on a fresh pool of the given size (40 classes of synthetic data) at
the committed benchmark's hyperparameters.  Batch sampling and the optimizer
step are left out.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from cclearn import benchmark, data
from cclearn.buffer import sample_class_batch
from cclearn.gcl import GclEstimatorState, gcl_gradient_estimate, gcl_update_estimators
from cclearn.gdro import GdroConfig, GdroEstimatorState, gdro_gradient_estimate, gdro_update_estimators
from cclearn.model import EncoderConfig, EncoderPair

POOL_SIZES = (400, 800, 1600, 3200, 6400)
SWEEP_CLASSES = 40
MIN_REPEATS = 3
MIN_SECONDS = 0.3  # per pool size and estimator; small steps repeat until then


def _median_time(step):
    """Median wall time of ``step()``."""
    times = []
    started = time.perf_counter()
    while len(times) < MIN_REPEATS or time.perf_counter() - started < MIN_SECONDS:
        t = time.perf_counter()
        step()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def pool_sweep(seed: int):
    """Returns {metric name: seconds}."""
    gcl_cfg = benchmark.benchmark_config("gcl", 0, seed)
    dro_cfg = benchmark.benchmark_config("gdro", 0, seed)
    gdro_config = GdroConfig(
        lam=dro_cfg.dro_lambda, gamma=dro_cfg.dro_gamma, margin=dro_cfg.margin,
        tau=dro_cfg.tau, batch_classes=dro_cfg.batch_classes,
        batch_per_class=dro_cfg.batch_per_class,
    )
    enc = EncoderPair(EncoderConfig(
        input_dim=benchmark.INPUT_DIM, num_classes_max=SWEEP_CLASSES,
        hidden_dim=gcl_cfg.hidden_dim, embed_dim=gcl_cfg.embed_dim, seed=seed,
    ))
    params = enc.init_params()
    rng = np.random.default_rng(seed)
    metrics = {}
    for n in POOL_SIZES:
        pool = data.gen_synthetic(
            SWEEP_CLASSES, n // SWEEP_CLASSES, benchmark.INPUT_DIM,
            benchmark.SEPARATION, benchmark.NOISE, seed + n,
        ).samples
        batch = [pool[i] for i in rng.choice(n, gcl_cfg.batch_size, replace=False)]
        classes = [int(k) for k in rng.choice(SWEEP_CLASSES, gdro_config.batch_classes, replace=False)]
        per_class = {
            k: sample_class_batch(pool, k, gdro_config.batch_per_class, seed + k) for k in classes
        }

        def gcl_step():
            state = gcl_update_estimators(
                GclEstimatorState(gamma=gcl_cfg.gcl_gamma), enc, params, batch, gcl_cfg.tau, n
            )
            return gcl_gradient_estimate(state, enc, params, batch, gcl_cfg.tau, n)

        def gdro_step():
            state = gdro_update_estimators(
                GdroEstimatorState(), enc, params, classes, per_class, pool, gdro_config
            )
            return gdro_gradient_estimate(state, enc, params, classes, per_class, pool, gdro_config)

        metrics[f"sweep.gcl_step_s.{n}"] = _median_time(gcl_step)
        metrics[f"sweep.gdro_step_s.{n}"] = _median_time(gdro_step)
    return metrics
