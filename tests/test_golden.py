"""Golden bits: training results pinned to the byte.

Each case hashes a run's final parameters (``params.tobytes()``) and its JSON
log with sha256 and compares against a digest recorded earlier.  A speed-up or
refactor that claims to leave results unchanged must keep every digest.

Floating-point bits depend on the numpy build, its BLAS and the SIMD kernels
numpy dispatches to on this CPU, so the test skips, with the reason, when any
of them differs from the recorded environment.  To re-record after a change
that is meant to move results, print ``_digest`` for every case and replace
the table.
"""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from cclearn import benchmark, data, run

RECORDED_NUMPY = "2.4.6"
RECORDED_OPENBLAS = (
    "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY Haswell MAX_THREADS=64"
)
RECORDED_SIMD = ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"]

GOLDEN = {
    "gcl/20/seed1": "11b61f9665c0f548d7fb4c1d1ea0f8cb163bbb0f9c126ec72d240bc96f07cad0",
    "gdro/20/seed1": "8b538c2463cff2dd9a45a8bc2a094db3e56d838ae4427339f10ee81738f8c68d",
    "finetune-ce/20/seed1": "325f4ac5d50cd6d1065600e4a7d13e7b0e19fdb5b3991275ce3665269f9bf4f1",
    "gdro/dil-hidden3": "3af15c6fee994b13dc1f50b2ac68ec8852d738d20543dc852a47de88990a5f24",
    "gcl/20/seed1-hidden3-adam": "94fa4ade7fc8262a8a59dc0ff934e40ecc5869ef29048857aab5a70ec7f52f68",
    "finetune-ce/dil": "471edbc0206942a1d272bbeac9f92488600f47ec7061674bc02e14afe73daaa2",
    "gdro/pool-1200": "c2a72341a5ec54d6a0187767bed7bc017c02a6ab0cc7fa7daa81f64032133fc7",
    "gcl/pool-1200": "1623cfab74b9d485c99ab56f67a961676bad08e472afcb5df58312251a863757",
    "finetune-ce/pool-1200": "22402afdf85b7ce47e431cc42b91e5071e355fb50e729226f0674d749c1f1228",
}


def _environment_mismatch():
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"].get("openblas configuration")
    simd = config["SIMD Extensions"]["found"]
    for what, now, recorded in (
        ("numpy", np.__version__, RECORDED_NUMPY),
        ("OpenBLAS configuration", blas, RECORDED_OPENBLAS),
        ("SIMD extensions", simd, RECORDED_SIMD),
    ):
        if now != recorded:
            return f"{what} is {now!r}; the digests were recorded with {recorded!r}"
    return None


def _dil_stream():
    base = data.gen_synthetic(6, 20, 5, 3.0, 0.5, 31)
    shifted = data.gen_domain_shift(base, 3, "rotation", 1.0, seed=32)
    return data.split_dil(shifted, domain_order=[0, 1, 2], test_fraction=0.25, seed=33)


def _pool_stream():
    # shaped like perfbench's gdro-pool and gcl-steps: 40 classes x 50 rows in 4
    # tasks, so that with memory 800 the pool grows 400 -> 800 -> 1200 -> 1200
    ds = data.gen_synthetic(40, 50, benchmark.INPUT_DIM, benchmark.SEPARATION, benchmark.NOISE, 1)
    return data.split_cil(ds, 4, benchmark.TEST_FRACTION, 2)


def _case(name):
    if name == "gdro/pool-1200":
        return _pool_stream(), benchmark.benchmark_config("gdro", 800, 1, epochs_per_task=2)
    if name in ("gcl/pool-1200", "finetune-ce/pool-1200"):
        # shaped like perfbench's gcl-steps: batch-32 steps on pools of 400-1200
        method = name.split("/")[0]
        return _pool_stream(), benchmark.benchmark_config(method, 800, 1, epochs_per_task=2)
    if name == "gdro/dil-hidden3":
        cfg = benchmark.benchmark_config(
            "gdro", 20, 3, hidden_dim=3, optimizer="adam", epochs_per_task=3
        )
        return _dil_stream(), replace(cfg, dro_lambda=0.05, batch_classes=3, batch_per_class=4)
    if name == "finetune-ce/dil":
        return _dil_stream(), benchmark.benchmark_config("finetune-ce", 20, 3, epochs_per_task=3)
    method = name.split("/")[0]
    seed = benchmark.BENCHMARK_SEEDS[0]
    overrides = {}
    if name == "gcl/20/seed1-hidden3-adam":  # the hidden label tower and Adam under gcl
        overrides = dict(hidden_dim=3, optimizer="adam", eta=0.05, epochs_per_task=5)
    return benchmark.benchmark_stream(seed), benchmark.benchmark_config(
        method, benchmark.CAPACITY_LOW, seed, **overrides
    )


def _digest(name):
    result = run(*_case(name))
    h = hashlib.sha256(result.params.tobytes())
    h.update(json.dumps(result.log, sort_keys=True).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_results_match_recorded_bits(name):
    mismatch = _environment_mismatch()
    if mismatch:
        pytest.skip(mismatch)
    assert _digest(name) == GOLDEN[name]
