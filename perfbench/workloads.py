"""The benchmark's workloads: each is a list of training runs built from a seed.

A workload seed ``n`` selects input set ``n % REFERENCE_SEEDS``; those are the
seeds whose final ``A_t`` per run is recorded in ``reference.json``, so every
run can be checked against a known-good result.  Inputs come only from
``cclearn.benchmark`` and ``cclearn.data``; the program sees nothing else.

Functions from cclearn are looked up on their module at call time
(``data.gen_synthetic``, not a name bound at import) so that the traced run
can wrap them.
"""

from __future__ import annotations

from cclearn import benchmark, data

REFERENCE_SEEDS = 32

# The larger stream shared by gdro-pool and gcl-steps: 40 classes x 50
# samples, 4 tasks of 400 training samples.  With an 800-sample buffer the
# training pool grows 400 -> 800 -> 1200 -> 1200 across the stages.
POOL_CLASSES = 40
POOL_PER_CLASS = 50
POOL_TASKS = 4
POOL_CAPACITY = 800

# Epochs per task.  gdro-pool does two: one gdro step at pool 1200 costs tens
# of milliseconds, and with one epoch final accuracy swung from 0.59 to 0.91
# across seeds.  gcl-steps does twenty so that each run takes thousands of
# batch-32 steps.
GDRO_POOL_EPOCHS = 2
GCL_STEPS_EPOCHS = 20


def input_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


def pool_stream(seed: int):
    ds = data.gen_synthetic(
        POOL_CLASSES, POOL_PER_CLASS, benchmark.INPUT_DIM,
        benchmark.SEPARATION, benchmark.NOISE, seed,
    )
    return data.split_cil(ds, POOL_TASKS, benchmark.TEST_FRACTION, seed + 1)


def committed(seed: int):
    """The frozen grid of cclearn.benchmark: what users run and the README cites."""
    stream = benchmark.benchmark_stream(seed)
    runs = [
        (f"{method}/{cap}", stream, benchmark.benchmark_config(method, cap, seed))
        for method in ("gcl", "gdro", "finetune-ce")
        for cap in (benchmark.CAPACITY_LOW, benchmark.CAPACITY_HIGH)
    ]
    # the memory capacity does not affect these two methods
    runs += [
        (method, stream, benchmark.benchmark_config(method, 0, seed))
        for method in ("zero-shot", "joint-upper-bound")
    ]
    return runs


def gdro_pool(seed: int):
    """gdro alone on a growing pool, where the dense coefficient matrix dominates."""
    stream = pool_stream(seed)
    cfg = benchmark.benchmark_config(
        "gdro", POOL_CAPACITY, seed, epochs_per_task=GDRO_POOL_EPOCHS
    )
    return [(f"gdro/{POOL_CAPACITY}", stream, cfg)]


def gcl_steps(seed: int):
    """Many small batch-32 steps, where per-call overhead dominates."""
    stream = pool_stream(seed)
    return [
        (
            f"{method}/{POOL_CAPACITY}",
            stream,
            benchmark.benchmark_config(
                method, POOL_CAPACITY, seed, epochs_per_task=GCL_STEPS_EPOCHS, batch_size=32
            ),
        )
        for method in ("gcl", "finetune-ce")
    ]


WORKLOADS = {"committed": committed, "gdro-pool": gdro_pool, "gcl-steps": gcl_steps}

# The host-speed probe kernel (see hostspeed.py) whose stalls match each
# workload's: gdro-pool's time goes to dense pool-sized matrices, the other
# two spend theirs in many small batch-sized calls.
PROBE_KERNEL = {"committed": "small", "gdro-pool": "dense", "gcl-steps": "small"}


def build(name: str, seed: int):
    """Generate the workload's inputs: a list of (label, stream, RunConfig)."""
    return WORKLOADS[name](input_seed(seed))
