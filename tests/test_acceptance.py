"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here, not tuned at runtime; the end-to-end
criteria run on the committed benchmark (cclearn.benchmark) and finish in
well under their budgets on a laptop-class machine.
"""

import copy
import hashlib
import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cclearn import cli
from cclearn.benchmark import (
    BENCHMARK_SEEDS,
    CAPACITY_HIGH,
    CAPACITY_LOW,
    benchmark_config,
    benchmark_stream,
)
from cclearn.buffer import MemoryBuffer
from cclearn.data import Pool
from cclearn.gcl import (
    GclEstimatorState,
    gcl_gradient_estimate,
    gcl_loss_full,
    gcl_update_estimators,
)
from cclearn.gdro import (
    GdroConfig,
    GdroEstimatorState,
    dro_objective,
    dro_weights,
    gdro_gradient_estimate,
    gdro_update_estimators,
)
from cclearn.model import EncoderConfig, EncoderPair
from cclearn.runner import ce_gradient, ce_loss, run

from conftest import central_diff, class_batches, class_pool, make_pool
from oracles import class_loss_hk, g_I, g_T, hinge_g1, hinge_g2

RTOL = 1e-4
FLOOR = 1e-7


def _report(num, passed, detail):
    print(f"[criterion {num:02d}] {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


def _within(analytic, reference):
    err = np.abs(analytic - reference)
    return bool(np.all(err <= FLOOR + RTOL * np.abs(reference)))


def _make_instance(seed, hidden):
    enc = EncoderPair(
        EncoderConfig(input_dim=3, num_classes_max=4, hidden_dim=hidden, embed_dim=3, seed=seed)
    )
    rng = np.random.default_rng(seed)
    w = enc.init_params() + 0.1 * rng.standard_normal(enc.n_params)
    return enc, rng, w


def test_criterion_01_gcl_gradient_fidelity():
    t0 = time.monotonic()
    ok = 0
    trials = 20
    for trial in range(trials):
        enc, rng, w = _make_instance(trial, hidden=0 if trial % 2 else 4)
        assert enc.n_params <= 200
        pool = make_pool(rng, int(rng.integers(4, 13)), 4, 3)
        tau = float(rng.uniform(0.25, 0.7))
        st = gcl_update_estimators(GclEstimatorState(gamma=1.0), enc, w, pool, tau, len(pool))
        m = gcl_gradient_estimate(st, enc, w, pool, tau, len(pool))
        fd = central_diff(lambda wv: gcl_loss_full(enc, wv, pool, tau), w)
        ok += _within(m, (tau / 2.0) * fd)
    elapsed = time.monotonic() - t0
    _report(
        1,
        ok == trials and elapsed < 10.0,
        f"gcl estimator vs (tau/2)*finite-diff: {ok}/{trials} instances, {elapsed:.1f}s (<10s)",
    )


def _gdro_instance(seed):
    """3 classes x 4 samples, rejecting near-kink hinges so FD is clean."""
    for attempt in range(50):
        enc, rng, w = _make_instance(1000 * seed + attempt, hidden=0 if seed % 2 else 4)
        pool = class_pool(rng, range(3), 4, 3)
        cfg = GdroConfig(
            lam=float(rng.uniform(0.4, 1.5)),
            gamma=1.0,
            margin=float(rng.uniform(0.1, 0.4)),
            tau=float(rng.uniform(0.3, 0.7)),
            batch_classes=3,
            batch_per_class=4,
        )
        S = enc.similarity_matrix(w, pool.X, pool.y)
        d = np.diag(S)
        arg = S - d[:, None] + cfg.margin
        off_class = pool.y[:, None] != pool.y[None, :]
        if np.min(np.abs(arg[off_class.T])) > 1e-3 and np.min(np.abs(arg.T[off_class])) > 1e-3:
            return enc, w, pool, cfg
    raise RuntimeError("could not build a kink-free instance")


def test_criterion_02_gdro_gradient_fidelity():
    t0 = time.monotonic()
    ok = 0
    trials = 20
    for trial in range(trials):
        enc, w, pool, cfg = _gdro_instance(trial)
        assert enc.n_params <= 200
        batches = class_batches(pool, range(3))
        st = gdro_update_estimators(GdroEstimatorState(), enc, w, [0, 1, 2], batches, pool, cfg)
        grad = gdro_gradient_estimate(st, enc, w, [0, 1, 2], batches, pool, cfg)

        def objective(wv):
            h = np.array([class_loss_hk(enc, wv, k, pool, cfg) for k in range(3)])
            return dro_objective(h, cfg.lam)

        fd = central_diff(objective, w)
        ok += _within(grad, fd)
    elapsed = time.monotonic() - t0
    _report(
        2,
        ok == trials and elapsed < 20.0,
        f"gdro estimator vs finite-diff of robust objective: {ok}/{trials} instances, "
        f"{elapsed:.1f}s (<20s)",
    )


def _project_simplex_rows(V):
    n, K = V.shape
    U = np.sort(V, axis=1)[:, ::-1]
    css = np.cumsum(U, axis=1)
    j = np.arange(1, K + 1)
    cond = U * j > (css - 1.0)
    rho = K - 1 - np.argmax(cond[:, ::-1], axis=1)
    theta = (css[np.arange(n), rho] - 1.0) / (rho + 1.0)
    return np.maximum(V - theta[:, None], 0.0)


def test_criterion_03_dro_duality_and_simplex_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(99)
    n, K = 1000, 10
    H = rng.uniform(0.0, 1.5, (n, K))
    lam = rng.uniform(0.75, 5.0, n)

    # duality: objective equals inner-max value at the closed-form weights
    duality_ok = True
    for i in range(n):
        p = dro_weights(H[i], lam[i])
        kl = float(np.sum(p * np.log(np.maximum(p, 1e-300) * K)))
        inner = float(p @ H[i]) - lam[i] * kl
        if abs(dro_objective(H[i], lam[i]) - inner) > 1e-10:
            duality_ok = False
            break

    # projected gradient ascent oracle over the simplex
    P = np.full((n, K), 1.0 / K)
    eta = (0.0148 / lam)[:, None]
    for _ in range(2500):
        grad = H - lam[:, None] * (np.log(np.maximum(P, 1e-300) * K) + 1.0)
        P = _project_simplex_rows(P + eta * grad)
    worst = max(np.abs(dro_weights(H[i], lam[i]) - P[i]).max() for i in range(n))
    elapsed = time.monotonic() - t0
    _report(
        3,
        duality_ok and worst < 1e-6 and elapsed < 5.0,
        f"duality within 1e-10 on 1000 draws, weights vs projected-ascent oracle "
        f"worst={worst:.1e} (<1e-6), {elapsed:.1f}s (<5s)",
    )


def test_criterion_04_dro_limits():
    h = np.random.default_rng(7).uniform(0.0, 3.0, 10)
    hi_gap = abs(dro_objective(h, 1e6) - h.mean())
    lo_gap = abs(dro_objective(h, 1e-3) - h.max())
    _report(
        4,
        hi_gap < 1e-4 and lo_gap < 1e-2,
        f"lam=1e6 vs mean gap={hi_gap:.1e} (<1e-4); lam=1e-3 vs max gap={lo_gap:.1e} (<1e-2)",
    )


def test_criterion_05_estimator_halving():
    rng = np.random.default_rng(13)
    enc = EncoderPair(EncoderConfig(input_dim=3, num_classes_max=3, hidden_dim=4, embed_dim=3, seed=0))
    w0 = enc.init_params()
    w1 = EncoderPair(replace(enc.config, seed=77)).init_params()
    pool = class_pool(rng, range(3), 4, 3)
    anchors = [pool[i] for i in range(len(pool))]
    tau = 0.4

    # GCL state: initialize at w0, then track targets at w1 with gamma = 0.5
    st = gcl_update_estimators(GclEstimatorState(gamma=1.0), enc, w0, pool, tau, len(pool))
    st = GclEstimatorState(gamma=0.5, samples=copy.deepcopy(st.samples))
    cols, ids = np.arange(len(pool)), pool.ids
    t_IT = np.array([[g(enc, w1, a, pool, tau) for a in anchors] for g in (g_I, g_T)])
    gcl_ok = True
    prev = None
    for _ in range(14):
        st = gcl_update_estimators(st, enc, w1, pool, tau, len(pool))
        err = np.abs(st.samples.read(cols, ids) - t_IT).max()
        if prev is not None and abs(err - 0.5 * prev) > 1e-9 * max(1.0, prev):
            gcl_ok = False
        prev = err

    # GDRO state: same scheme over u_I / u_T / u_c
    cfg1 = GdroConfig(lam=0.8, gamma=1.0, margin=0.3, tau=0.4, batch_classes=3, batch_per_class=4)
    cfg = GdroConfig(lam=0.8, gamma=0.5, margin=0.3, tau=0.4, batch_classes=3, batch_per_class=4)
    batches = class_batches(pool, range(3))
    gst = gdro_update_estimators(GdroEstimatorState(), enc, w0, [0, 1, 2], batches, pool, cfg1)
    h_target = np.array([class_loss_hk(enc, w1, k, pool, cfg) for k in range(3)])
    g_target = np.array([
        [g(enc, w1, i, pool, cfg.margin, cfg.tau) for i in range(len(pool))]
        for g in (hinge_g1, hinge_g2)
    ])
    gdro_ok = True
    prev = None
    for _ in range(14):
        gst = gdro_update_estimators(gst, enc, w1, [0, 1, 2], batches, pool, cfg)
        err = max(
            np.abs(gst.class_losses()[1] - h_target).max(),
            np.abs(gst.samples.read(cols, ids) - g_target).max(),
        )
        if prev is not None and abs(err - 0.5 * prev) > 1e-9 * max(1.0, prev):
            gdro_ok = False
        prev = err

    _report(
        5,
        gcl_ok and gdro_ok,
        "estimator error halves per full-batch update at gamma=0.5 "
        f"(gcl: {gcl_ok}, gdro: {gdro_ok})",
    )


def test_criterion_06_buffer_law():
    master = np.random.default_rng(21)
    ok = True
    next_id = 0
    for trial in range(1000):
        cap = int(master.integers(0, 25))
        seed = int(master.integers(2**32))
        tasks = []
        next_class = 0
        for _ in range(int(master.integers(1, 5))):
            n_cls = int(master.integers(1, 4))
            per_class = cap + int(master.integers(1, 6))  # sources always cover quotas
            ids = np.arange(next_id, next_id + n_cls * per_class)
            y = np.repeat(np.arange(next_class, next_class + n_cls), per_class)
            tasks.append(Pool(ids[:, None].astype(np.float64), y, ids.tolist()))
            next_id += len(ids)
            next_class += n_cls

        def build():
            buf = MemoryBuffer(capacity=cap, rng_seed=seed)
            for task in tasks:
                buf = buf.rebalance_after_task(task)
                if len(buf) > cap:
                    raise AssertionError("capacity exceeded")
                counts = buf.class_counts()
                if counts and max(counts.values()) - min(counts.values()) > 1:
                    raise AssertionError("per-class counts differ by more than 1")
            return buf

        a, b = build(), build()
        if a.class_counts() != b.class_counts():
            ok = False
        if a.stored.ids != b.stored.ids or a.stored.X.tobytes() != b.stored.X.tobytes():
            ok = False
        if not ok:
            break
    _report(
        6,
        ok,
        "1000 random task sequences: capacity respected, counts differ <=1, "
        "identical seeds reproduce identical buffers",
    )


@pytest.fixture(scope="module")
def benchmark_results():
    """All committed-benchmark runs, computed once and shared across criteria."""
    t0 = time.monotonic()
    out = {"elapsed": None, "per_seed": {}}
    for seed in BENCHMARK_SEEDS:
        stream = benchmark_stream(seed)
        ce = run(stream, benchmark_config("finetune-ce", 0, seed))
        ce_lo = run(stream, benchmark_config("finetune-ce", CAPACITY_LOW, seed))
        gcl_hi = run(stream, benchmark_config("gcl", CAPACITY_HIGH, seed))
        gcl_lo = run(stream, benchmark_config("gcl", CAPACITY_LOW, seed))
        gdro_lo = run(stream, benchmark_config("gdro", CAPACITY_LOW, seed))
        zero = run(stream, benchmark_config("zero-shot", 0, seed))
        joint = run(stream, benchmark_config("joint-upper-bound", 0, seed)).accuracy.aggregate[0]
        out["per_seed"][seed] = {
            "ce": ce.accuracy,
            "ce_lo": ce_lo.accuracy,
            "gcl_hi": gcl_hi.accuracy,
            "gcl_lo": gcl_lo.accuracy,
            "gdro_lo": gdro_lo.accuracy,
            "zero": zero.accuracy,
            "joint": joint,
        }
    out["elapsed"] = time.monotonic() - t0
    return out


def test_criterion_07_forgetting_directions(benchmark_results):
    per_seed = benchmark_results["per_seed"]
    last = len(BENCHMARK_SEEDS) and max(
        per_seed[BENCHMARK_SEEDS[0]]["ce"].aggregate
    )

    drops = [
        per_seed[s]["ce"].entries[(0, 0)] - per_seed[s]["ce"].entries[(last, 0)]
        for s in BENCHMARK_SEEDS
    ]
    a_ok = float(np.mean(drops)) >= 0.20

    gaps = [
        per_seed[s]["joint"] - per_seed[s]["gcl_hi"].entries[(last, 0)]
        for s in BENCHMARK_SEEDS
    ]
    b_ok = float(np.mean(gaps)) <= 0.10

    gdro_finals = np.array([per_seed[s]["gdro_lo"].aggregate[last] for s in BENCHMARK_SEEDS])
    gcl_finals = np.array([per_seed[s]["gcl_lo"].aggregate[last] for s in BENCHMARK_SEEDS])
    c_ok = bool(np.all(gdro_finals >= gcl_finals))

    elapsed = benchmark_results["elapsed"]
    detail = (
        f"(a) ce@0 task-1 drop mean={100 * np.mean(drops):.1f}pts (>=20); "
        f"(b) gcl@{CAPACITY_HIGH} task-1 vs joint gap mean={100 * np.mean(gaps):.1f}pts (<=10); "
        f"(c) gdro@{CAPACITY_LOW} A5={gdro_finals.mean():.3f}+-{gdro_finals.std():.3f} >= "
        f"gcl@{CAPACITY_LOW} A5={gcl_finals.mean():.3f}+-{gcl_finals.std():.3f} on all seeds; "
        f"benchmark wall time {elapsed:.0f}s (<300s)"
    )
    _report(7, a_ok and b_ok and c_ok and elapsed < 300.0, detail)


def test_criterion_08_joint_bound_dominates(benchmark_results):
    per_seed = benchmark_results["per_seed"]
    ok = True
    worst = ""
    for s in BENCHMARK_SEEDS:
        joint = per_seed[s]["joint"]
        for name in ("ce", "gcl_hi", "gcl_lo", "gdro_lo", "zero"):
            matrix = per_seed[s][name]
            final = matrix.aggregate[max(matrix.aggregate)]
            if joint < final:
                ok = False
                worst = f" (violated by {name} on seed {s}: {final:.3f} > {joint:.3f})"
    _report(8, ok, f"joint bound >= final A_T of every method on every committed seed{worst}")


def test_committed_final_accuracy_matches_reference(benchmark_results):
    """Final A_t equals the benchmark's recorded reference (perfbench/reference.json)."""
    reference = json.loads(
        (Path(__file__).parents[1] / "perfbench" / "reference.json").read_text()
    )["committed"]
    labels = {
        "gcl_lo": f"gcl/{CAPACITY_LOW}",
        "gcl_hi": f"gcl/{CAPACITY_HIGH}",
        "gdro_lo": f"gdro/{CAPACITY_LOW}",
        "ce_lo": f"finetune-ce/{CAPACITY_LOW}",
        "zero": "zero-shot",
    }
    for seed, results in benchmark_results["per_seed"].items():
        got = {label: results[key].final_aggregate() for key, label in labels.items()}
        got["joint-upper-bound"] = results["joint"]  # one merged stage: its only A_t
        want = {label: reference[str(seed)][label] for label in got}
        assert got == want, f"seed {seed}"


def test_criterion_09_cmd_run_byte_identical(tmp_path):
    data_path = tmp_path / "bench.clds"
    assert cli.main(
        ["gen", "--classes", "8", "--per-class", "12", "--dim", "6", "--seed", "3",
         "-o", str(data_path)]
    ) == 0
    doc = {
        "dataset": {"path": str(data_path)},
        "split": {"mode": "cil", "num_tasks": 4, "test_fraction": 0.25, "seed": 2},
        "run": {"method": "gdro", "epochs_per_task": 4, "memory_capacity": 10,
                "seed": 9, "embed_dim": 6, "batch_classes": 3, "batch_per_class": 4,
                "margin": 0.5, "dro_lambda": 1.0, "eta": 0.2},
    }
    digests = []
    for name in ("a", "b"):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / name
        assert cli.main(["run", "--config", str(cfg), "-o", str(out)]) == 0
        digests.append(hashlib.sha256((out / "accuracy.csv").read_bytes()).hexdigest())
    _report(
        9,
        digests[0] == digests[1],
        f"two identical cmd_run invocations produced byte-identical CSVs ({digests[0][:12]}...)",
    )


def test_criterion_10_cross_entropy_gradient():
    ok = 0
    trials = 20
    for trial in range(trials):
        enc, rng, w = _make_instance(500 + trial, hidden=0 if trial % 2 else 4)
        batch = make_pool(rng, int(rng.integers(3, 9)), 4, 3)
        candidates = [0, 1, 2, 3]
        tau = float(rng.uniform(0.25, 0.6))
        g = ce_gradient(enc, w, batch, candidates, tau)
        fd = central_diff(lambda wv: ce_loss(enc, wv, batch, candidates, tau), w)
        ok += _within(g, fd)
    _report(10, ok == trials, f"cross-entropy gradient vs finite differences: {ok}/{trials} instances")
