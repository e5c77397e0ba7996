import copy
import itertools
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cclearn
import cclearn.gcl
import cclearn.gdro
import cclearn.runner
from cclearn.benchmark import CAPACITY_HIGH, benchmark_config, benchmark_stream
from cclearn.buffer import sample_class_batch, sample_class_batches
from cclearn.data import Pool, TaskStream, gen_domain_shift, gen_synthetic, split_cil, split_dil
from cclearn.errors import ConfigError, DivergenceError, NonFiniteGradientError
from cclearn.gcl import (
    GclEstimatorState,
    gcl_gradient_estimate,
    gcl_loss_full,
    gcl_step,
    gcl_update_estimators,
)
from cclearn.gdro import (
    GdroConfig,
    GdroEstimatorState,
    dro_objective,
    gdro_gradient_estimate,
    gdro_step,
    gdro_update_estimators,
)
from cclearn.model import EncoderConfig, EncoderPair
from cclearn.optim import step as optim_step
from cclearn.runner import (
    RunConfig,
    ce_gradient,
    ce_loss,
    evaluate,
    merge_tasks,
    run,
)

from conftest import (
    assert_grad_close,
    central_diff,
    class_pool,
    joined_rows,
    make_encoder,
    make_pool,
    pair_sim,
    state_bytes,
)


def _small_stream(seed=0, num_classes=6, num_tasks=3, per_class=12):
    ds = gen_synthetic(num_classes, per_class, 8, separation=4.0, noise=0.5, seed=seed)
    return split_cil(ds, num_tasks, test_fraction=0.25, seed=seed + 1)


def _row(matrix, t):
    """Accuracies after stage t, keyed by evaluated task."""
    return {b: v for (tt, b), v in matrix.entries.items() if tt == t}


def _joint_bound(stream, config):
    return run(stream, replace(config, method="joint-upper-bound")).accuracy.aggregate[0]


def _fast_config(method, **kw):
    base = dict(
        method=method, epochs_per_task=6, memory_capacity=12, seed=3,
        embed_dim=6, hidden_dim=0, tau=0.2, batch_size=16, gcl_gamma=0.9,
        dro_lambda=1.0, dro_gamma=0.9, margin=0.5, batch_classes=3,
        batch_per_class=4, eta=0.5, beta1=0.9, log_every=5,
    )
    base.update(kw)
    return RunConfig(**base)


# ------------------------------------------------------------------ evaluate


def test_evaluate_degenerate_model_ties_to_smallest_id(rng):
    enc = make_encoder(seed=0, hidden_dim=0, num_classes=2)
    w = np.zeros(enc.n_params)
    w[enc._slices["e1_b"]] = [1.0, 0.0, 0.0]
    w[enc._slices["e2_b"]] = [0.0, 1.0, 0.0]  # all label embeddings identical
    test = make_pool(rng, 20, 2, 3)
    assert evaluate(enc, w, test, {0, 1}) == 0.5


def test_evaluate_order_invariant(rng):
    enc = make_encoder(seed=2, num_classes=4)
    w = enc.init_params()
    test = make_pool(rng, 16, 4, 3)
    acc = evaluate(enc, w, test, set(range(4)))
    shuffled = test.take(rng.permutation(len(test)))
    assert evaluate(enc, w, shuffled, set(range(4))) == acc


def test_evaluate_rejects_empty():
    enc = make_encoder(seed=0)
    with pytest.raises(ValueError):
        evaluate(enc, enc.init_params(), Pool.concat([]), {0})


def test_evaluate_refuses_non_integer_candidates(rng):
    enc = make_encoder(seed=0, num_classes=4)
    test = make_pool(rng, 8, 4, 3)
    with pytest.raises(ValueError, match="^class ids must be integers, got dtype float64$"):
        evaluate(enc, enc.init_params(), test, [1.5, 2.5])


# ------------------------------------------------------------- cross-entropy


def test_ce_loss_single_candidate_is_zero(rng):
    enc = make_encoder(seed=1)
    w = enc.init_params()
    batch = class_pool(rng, [2], 1, 3)
    assert ce_loss(enc, w, batch, [2], tau=0.3) == pytest.approx(0.0, abs=1e-12)


def test_ce_loss_uniform_logits_is_log_k(rng):
    enc = make_encoder(seed=0, hidden_dim=0, num_classes=4)
    w = np.zeros(enc.n_params)
    w[enc._slices["e1_b"]] = [1.0, 0.0, 0.0]
    w[enc._slices["e2_b"]] = [0.0, 1.0, 0.0]  # identical labels -> uniform softmax
    batch = class_pool(rng, [1], 1, 3)
    for k in (2, 3, 4):
        assert ce_loss(enc, w, batch, list(range(k)), 0.4) == pytest.approx(
            math.log(k), abs=1e-9
        )


def test_ce_loss_matches_the_per_row_formula(rng):
    """The loss is the mean over rows of log-sum-exp(s/tau) minus the true
    class's s/tau, a straight-line oracle on each row's similarities; the
    finite-difference check alone would pass with a wrong true column."""
    enc = make_encoder(seed=6, num_classes=5)
    w = enc.init_params()
    batch = make_pool(rng, 7, 5, 3)
    candidates = [4, 0, 3, 1, 2]
    want = []
    for x, k in zip(batch.X, batch.y.tolist()):
        z = np.array([pair_sim(enc, w, x, c) for c in candidates]) / 0.3
        want.append(math.log(sum(math.exp(v) for v in z)) - z[candidates.index(k)])
    assert ce_loss(enc, w, batch, candidates, 0.3) == pytest.approx(np.mean(want), abs=1e-12)


@pytest.mark.parametrize("hidden", [0, 4])
def test_ce_gradient_matches_finite_differences(hidden):
    rng = np.random.default_rng(31)
    enc = make_encoder(seed=4, hidden_dim=hidden, num_classes=4)
    w = enc.init_params() + 0.1 * rng.standard_normal(enc.n_params)
    batch = make_pool(rng, 6, 4, 3)
    candidates = [0, 1, 2, 3]
    g = ce_gradient(enc, w, batch, candidates, tau=0.35)
    fd = central_diff(lambda wv: ce_loss(enc, wv, batch, candidates, 0.35), w)
    assert_grad_close(g, fd)


@pytest.mark.parametrize("case, pattern", [
    ("class-not-candidate", "batch class 2 is not among the candidates"),
    ("no-candidates", "is not among the candidates"),
    ("repeated-candidate", "^candidate class 1 is repeated$"),
    ("empty-batch", "batch must be non-empty"),
    ("tau=0", "tau must be > 0"),
    ("tau=-1", "tau must be > 0"),
    ("tau=nan", "tau must be > 0"),
])
def test_cross_entropy_refuses_hostile_input(rng, case, pattern):
    """A one-line ValueError, with no numpy warning, from the loss and the
    gradient."""
    enc = make_encoder(seed=1, num_classes=4)
    w = enc.init_params()
    pool, candidates, tau = make_pool(rng, 6, 4, 3), [0, 1, 2, 3], 0.3
    batch = pool
    if case == "class-not-candidate":
        candidates = [0, 1, 3]
    elif case == "no-candidates":
        candidates = []
    elif case == "repeated-candidate":
        candidates = [0, 1, 1, 2, 3]
    elif case == "empty-batch":
        batch = pool.take([])
    else:
        tau = float(case.split("=")[1])
    for entry in (ce_loss, ce_gradient):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=pattern) as info:
                entry(enc, w, batch, candidates, tau)
        assert "\n" not in str(info.value)


def test_cross_entropy_counts_each_candidate_once(rng):
    """A repeated candidate would enter the softmax twice and raise the loss, so
    it is refused, naming the class; ``predict_batch`` scores the distinct
    candidates."""
    enc = make_encoder(seed=1, num_classes=4)
    w = enc.init_params()
    batch = class_pool(rng, [0, 1], 2, 3)
    for entry in (ce_loss, ce_gradient):
        with pytest.raises(ValueError, match="^candidate class 1 is repeated$"):
            entry(enc, w, batch, [0, 1, 1], 0.3)
    assert np.array_equal(enc.predict_batch(w, batch.X, [0, 1, 1]),
                          enc.predict_batch(w, batch.X, [0, 1]))


# ------------------------------------------------------------------- running


def test_zero_shot_rows_match_initial_model():
    stream = _small_stream()
    config = _fast_config("zero-shot")
    result = run(stream, config)
    enc = EncoderPair(
        EncoderConfig(
            input_dim=8, num_classes_max=6, hidden_dim=0, embed_dim=6, seed=config.seed
        )
    )
    w0 = enc.init_params()
    for t in range(stream.num_tasks):
        candidates = stream.classes_up_to(t)
        for b in range(t + 1):
            want = evaluate(enc, w0, stream.tasks[b].test, candidates)
            assert result.accuracy.entries[(t, b)] == want
    assert np.array_equal(result.params, w0)


def test_cil_stage_evaluates_each_test_row_once(monkeypatch):
    """A_t over the union of seen test sets is counted from the per-task entries,
    with the same bits as evaluating the union."""
    stream = _small_stream()
    rows = []
    original = cclearn.runner.evaluate

    def counting(enc, params, test, candidates):
        rows.append(len(test))
        return original(enc, params, test, candidates)

    monkeypatch.setattr(cclearn.runner, "evaluate", counting)
    result = run(stream, _fast_config("zero-shot"))
    monkeypatch.undo()
    seen = [Pool.concat([stream.tasks[b].test for b in range(t + 1)]) for t in range(3)]
    assert sum(rows) == sum(len(union) for union in seen)
    enc = EncoderPair(
        EncoderConfig(input_dim=8, num_classes_max=6, hidden_dim=0, embed_dim=6, seed=3)
    )
    for t, union in enumerate(seen):
        want = evaluate(enc, enc.init_params(), union, stream.classes_up_to(t))
        assert np.float64(result.accuracy.aggregate[t]).tobytes() == np.float64(want).tobytes()


def test_matrix_shape_and_range():
    stream = _small_stream()
    result = run(stream, _fast_config("gcl"))
    for t in range(3):
        row = _row(result.accuracy, t)
        assert sorted(row) == list(range(t + 1))
        assert all(0.0 <= v <= 1.0 for v in row.values())
        assert 0.0 <= result.accuracy.aggregate[t] <= 1.0
    assert len(result.accuracy.aggregate) == 3


def test_single_task_stream_equals_supervised_finetuning():
    stream = _small_stream(num_tasks=1, num_classes=6)
    result = run(stream, _fast_config("gcl"))
    assert set(result.accuracy.entries) == {(0, 0)}
    direct = evaluate(
        EncoderPair(
            EncoderConfig(input_dim=8, num_classes_max=6, hidden_dim=0, embed_dim=6, seed=3)
        ),
        result.params,
        stream.tasks[0].test,
        stream.tasks[0].classes,
    )
    assert result.accuracy.entries[(0, 0)] == direct


def test_candidate_set_grows_with_stage():
    stream = _small_stream()
    sizes = [len(stream.classes_up_to(t)) for t in range(3)]
    assert sizes == [2, 4, 6]


def test_buffer_capacity_respected_via_hook():
    stream = _small_stream()
    config = _fast_config("gcl", memory_capacity=7)
    seen = []

    def hook(event, info):
        seen.append(event)
        assert len(info["buffer"]) <= 7

    run(stream, config, hook=hook)
    assert seen.count("task_start") == 3
    assert seen.count("rebalance") == 3


@pytest.mark.parametrize("method", ["gcl", "gdro", "finetune-ce"])
def test_run_deterministic_per_seed(method):
    stream = _small_stream()
    config = _fast_config(method, epochs_per_task=3)
    a = run(stream, config)
    b = run(stream, config)
    assert a.accuracy.entries == b.accuracy.entries
    assert a.accuracy.aggregate == b.accuracy.aggregate
    assert np.array_equal(a.params, b.params)
    assert a.log == b.log


def test_gdro_logs_class_losses_and_weights():
    stream = _small_stream()
    result = run(stream, _fast_config("gdro", epochs_per_task=3, log_every=1))
    steps = [r for r in result.log if r["event"] == "step"]
    assert steps
    assert all("h" in r and "dro_weights" in r for r in steps)
    last = steps[-1]
    assert abs(sum(last["dro_weights"].values()) - 1.0) < 1e-9


@pytest.mark.parametrize("method", ["gcl", "finetune-ce", "gdro"])
def test_divergence_aborts_with_diagnostic(method):
    stream = _small_stream()
    with pytest.raises(DivergenceError) as info:
        run(stream, _fast_config(method, eta=1e308, epochs_per_task=2))
    err = info.value
    assert None not in (err.task, err.epoch, err.step)
    assert f"at task {err.task}, epoch {err.epoch}, step {err.step}" in str(err)


@pytest.mark.parametrize("bad, cause", [
    ("loss", "loss became non-finite"),
    ("gradient", "non-finite gradient"),
])
def test_divergence_names_a_non_finite_loss_or_gradient(monkeypatch, bad, cause):
    """A step that returns a NaN loss or a NaN gradient aborts the run with a
    DivergenceError naming the cause, the task, the epoch and the step."""
    stream, config = _small_stream(), _fast_config("gcl", log_every=1)
    steps = [r for r in run(stream, config).log if r["event"] == "step"]
    at = next(r for r in steps if r["task"] == 1 and r["epoch"] == 1)
    real_step, calls = cclearn.runner._gcl_loss_and_grad, []

    def step(*args):
        loss, grad = real_step(*args)
        calls.append(None)
        if len(calls) - 1 < at["step"]:
            return loss, grad
        return (math.nan, grad) if bad == "loss" else (loss, np.full_like(grad, math.nan))

    monkeypatch.setattr(cclearn.runner, "_gcl_loss_and_grad", step)
    with pytest.raises(DivergenceError) as info:
        run(stream, config)
    err = info.value
    assert (err.task, err.epoch, err.step) == (1, 1, at["step"])
    assert str(err) == f"{cause} at task 1, epoch 1, step {at['step']}"
    assert isinstance(err.__cause__, NonFiniteGradientError) == (bad == "gradient")


def test_gcl_computes_its_loss_only_where_the_run_logs_it(monkeypatch):
    """On a benchmark-config gcl run, the exact batch loss runs once per step
    record and on no other step."""
    real_loss, calls = cclearn.gcl._loss, []

    def counting(S):
        calls.append(None)
        return real_loss(S)

    monkeypatch.setattr(cclearn.gcl, "_loss", counting)
    log = run(benchmark_stream(1), benchmark_config("gcl", CAPACITY_HIGH, 1)).log
    steps = [r for r in log if r["event"] == "step"]
    assert len(steps) > 1 and steps[1]["step"] > 1  # most steps are not logged
    assert len(calls) == len(steps)


def test_gcl_stops_at_an_unlogged_step_whose_loss_is_not_finite(monkeypatch):
    """A step the run does not log still computes a loss that could be
    non-finite: overflowing the tenth step's logits (tau 1e-320) stops the run
    at that step, as if it were logged."""
    real_step, logged = cclearn.runner._gcl_loss_and_grad, []

    def step(*args):
        logged.append(args[8])
        if len(logged) == 10:
            args = (*args[:7], 1e-320, *args[8:])
        return real_step(*args)

    monkeypatch.setattr(cclearn.runner, "_gcl_loss_and_grad", step)
    with pytest.raises(DivergenceError) as info:
        run(_small_stream(), _fast_config("gcl", log_every=7))
    assert logged[-1] is False and len(logged) == 10
    assert str(info.value) == "loss became non-finite at task 0, epoch 4, step 9"


def _outcome(config):
    """A run's parameter bits and its log without the step records, or the
    message of the DivergenceError that stopped it."""
    try:
        result = run(_small_stream(), config)
    except DivergenceError as err:
        return str(err)
    return result.params.tobytes(), [r for r in result.log if r["event"] != "step"]


@pytest.mark.parametrize("tau", [1e-320, 1e-310, 1e-306, 1e-300, 1e-5, 1e-3, 0.05, 0.2])
def test_gcl_outcome_does_not_depend_on_log_every(tau):
    """Which steps gcl logs, and so which steps compute the loss, moves no
    parameter bit, no evaluation and no divergence step, from tau small enough
    to overflow every logit to a working one."""
    outcomes = [_outcome(_fast_config("gcl", tau=tau, log_every=k)) for k in (1, 7, 10**6)]
    assert outcomes[0] == outcomes[1] == outcomes[2]


@pytest.mark.parametrize("rows, message", [
    (np.array([0, -1]), "rows for the batch fall outside the pool"),
    (np.array([0, 6]), "rows for the batch fall outside the pool"),
    (np.array([0.0, 1.0]), "the batch needs its rows as a 1-d integer array"),
    (np.array([True, False, True, False, True, True]),
     "the batch needs its rows as a 1-d integer array"),
    (np.array([[0, 1], [2, 3]]), "the batch needs its rows as a 1-d integer array"),
    ([0, 1], "the batch needs its rows as a 1-d integer array"),
], ids=["negative", "past-end", "float", "bool", "2-d", "list"])
@pytest.mark.parametrize("method", ["gcl", "gdro"])
def test_steps_refuse_rows_that_are_not_rows_of_the_pool(rng, method, rows, message):
    """On a 6-row pool, row -1 would train on row 5, row 6 would raise numpy's
    IndexError and a bool array would act as a mask: each is refused in one
    line, before the step changes any estimator state."""
    enc = make_encoder(seed=2, num_classes=3)
    w = enc.init_params()
    pool = make_pool(rng, 6, 3, 3)
    state, step = _row_step(method)
    step(enc, w, pool, np.array([0, 1, 2]))
    before = state_bytes(state)
    with pytest.raises(ValueError, match=f"^{message}$"):
        step(enc, w, pool, rows)
    assert state_bytes(state) == before


def _row_step(method):
    """A fresh estimator state and ``step(enc, params, pool, rows)``: the method's
    fused step on that state, with tau 0.2."""
    if method == "gdro":
        cfg = GdroConfig(lam=0.7, gamma=0.8, margin=0.3, tau=0.2,
                         batch_classes=3, batch_per_class=2)
        state = GdroEstimatorState()
        return state, lambda enc, w, pool, rows: gdro_step(state, enc, w, pool, rows, cfg)
    state = GclEstimatorState(gamma=0.5)
    return state, lambda enc, w, pool, rows: gcl_step(state, enc, w, pool, rows, 0.2)


@pytest.mark.parametrize("method", ["gcl", "gdro"])
def test_a_refused_forward_changes_no_result(rng, method):
    """The public gcl and gdro steps widen the sample table to the pool before
    the forward, so a step whose forward is refused (NaN parameters: a NaN
    embedding norm) leaves it that wide, with no estimate.  Two valid
    steps after it give the losses, gradients and estimator state of the two
    steps alone, to the bit."""
    enc = make_encoder(seed=2, num_classes=3)
    w = enc.init_params()
    pool = make_pool(rng, 9, 3, 3)
    rows = np.argsort(pool.y, kind="stable")
    results = []
    for refused_first in (False, True):
        state, step = _row_step(method)
        if refused_first:
            with pytest.raises(ValueError, match="^embedding norm overflowed or is NaN$"):
                step(enc, np.full_like(w, np.nan), pool, rows)
            assert len(state.samples.initialized) == len(pool)
            assert not state.samples.initialized.any()
        bits = []
        for k in range(2):
            loss, grad = step(enc, w + 0.1 * k, pool, rows)
            bits += [np.float64(loss).tobytes(), grad.tobytes()]
        results.append((bits, state_bytes(state)))
    assert results[0] == results[1]


@pytest.mark.parametrize("dtype", [
    np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64,
], ids=lambda t: np.dtype(t).name)
@pytest.mark.parametrize("method", ["gcl", "gdro"])
def test_steps_check_rows_of_every_integer_dtype(rng, method, dtype):
    """Rows of any integer dtype give the bits of the same rows as intp, and a
    row past the end or below zero is refused in the same line.  Row -1 of the
    300-row pool is 255 as a uint8, inside the pool: a check that reinterprets
    the rows at their own width would take it."""
    enc = make_encoder(seed=2, num_classes=3)
    w = enc.init_params()
    small, large = make_pool(rng, 6, 3, 3), make_pool(rng, 300, 3, 3)

    def step(pool, rows):
        state, call = _row_step(method)
        loss, grad = call(enc, w, pool, rows)
        return np.float64(loss).tobytes() + grad.tobytes(), state_bytes(state)

    assert step(small, np.array([5, 0, 3], dtype=dtype)) == step(small, np.array([5, 0, 3]))
    bad = [(small, np.array([0, 6], dtype=dtype))]
    if np.dtype(dtype).kind == "i":
        bad += [(small, np.array([0, -1], dtype=dtype)), (large, np.array([0, -1], dtype=dtype))]
    for pool, rows in bad:
        with pytest.raises(ValueError, match="^rows for the batch fall outside the pool$"):
            step(pool, rows)


def test_gdro_refuses_a_one_class_stage_before_any_step(monkeypatch):
    """A stage pool of one class is a config error (a ValueError), raised before
    the stage's first step."""
    steps = []
    monkeypatch.setattr(cclearn.runner, "_gdro_loss_and_grad", lambda *args: steps.append(args))
    with pytest.raises(ConfigError, match="stage 0 holds 1") as info:
        run(_small_stream(num_classes=3, num_tasks=3), _fast_config("gdro"))
    assert isinstance(info.value, ValueError) and not steps


def test_joint_upper_bound_equals_merged_single_task_run():
    """The joint bound is the gcl run on ``merge_tasks(stream)`` for
    ``epochs_per_task`` times the task count, to the bit: the same parameters
    and every log record but ``run_start``, which names the configured method."""
    stream = _small_stream()
    config = _fast_config("gcl", epochs_per_task=4)
    joint = run(stream, replace(config, method="joint-upper-bound"))
    merged = merge_tasks(stream)
    direct = run(
        stream=merged,
        config=replace(config, method="gcl", epochs_per_task=4 * stream.num_tasks),
    )
    assert joint.accuracy.aggregate == direct.accuracy.aggregate
    assert joint.params.tobytes() == direct.params.tobytes()
    assert joint.log[0] == {**direct.log[0], "method": "joint-upper-bound"}
    assert direct.log[0]["method"] == "gcl" and joint.log[1:] == direct.log[1:]
    assert merged.num_tasks == 1
    assert merged.tasks[0].classes == frozenset(range(6))


def test_gdro_batch_per_class_past_int64_trains_as_every_larger_batch():
    """A per-class batch of 2**63 rows, past int64, takes every row of each
    picked class, as 2**62 does: the same parameters and log, to the bit."""
    stream = _small_stream()
    at62, at63 = (run(stream, _fast_config("gdro", batch_per_class=b)) for b in (2**62, 2**63))
    assert at63.params.tobytes() == at62.params.tobytes()
    assert at63.log == at62.log


def test_separable_instance_reaches_perfect_accuracy():
    # widely separated blobs, joint training: every test point classified right
    ds = gen_synthetic(4, 20, 8, separation=8.0, noise=0.3, seed=33)
    stream = split_cil(ds, num_tasks=1, test_fraction=0.25, seed=34)
    result = run(stream, _fast_config("gcl", epochs_per_task=15, eta=0.6))
    assert result.accuracy.entries[(0, 0)] == 1.0


def test_full_capacity_gcl_reaches_joint_bound():
    # when the buffer holds everything, continual training sees all data each
    # stage and should land within noise of the merged-run bound
    gaps = []
    for seed in (0, 1, 2):
        stream = _small_stream(seed=seed)
        config = _fast_config("gcl", memory_capacity=10_000, seed=seed + 50)
        result = run(stream, config)
        bound = _joint_bound(stream, config)
        gaps.append(bound - result.accuracy.final_aggregate())
    assert np.mean(gaps) < 0.05


def test_dil_aggregate_is_mean_over_domain_rows():
    base = gen_synthetic(4, 12, 6, 4.0, 0.4, seed=21)
    from cclearn.data import gen_domain_shift, split_dil

    shifted = gen_domain_shift(base, 3, "mean-offset", 1.0, seed=22)
    stream = split_dil(shifted, domain_order=[0, 1, 2], test_fraction=0.25, seed=23)
    result = run(stream, _fast_config("gcl", epochs_per_task=3))
    for t in range(3):
        row = _row(result.accuracy, t)
        assert result.accuracy.aggregate[t] == pytest.approx(np.mean(list(row.values())))


@pytest.mark.parametrize("method", ["gdro", "gcl", "finetune-ce"])
def test_gradient_encodes_each_row_once_per_tower(rng, monkeypatch, method):
    """One gradient call encodes its rows once per tower: the backward reuses the
    forward results the call already holds.  gdro's rows are the pool's inputs
    and its distinct classes; its anchors are rows of those."""
    enc = make_encoder(seed=4, hidden_dim=3, num_classes=4)
    w = enc.init_params()
    pool = make_pool(rng, 40, 4, 3)
    if method == "gdro":
        cfg = GdroConfig(lam=0.7, gamma=0.9, margin=0.3, tau=0.4,
                         batch_classes=2, batch_per_class=3)
        batches = {k: sample_class_batch(pool, k, 3, k) for k in (1, 3)}
        args = (enc, w, [1, 3], batches, pool, cfg)
        state = gdro_update_estimators(GdroEstimatorState(), *args)
        expected = {"e1": len(pool), "e2": 4}

        def grad():
            return gdro_gradient_estimate(state, *args)
    elif method == "gcl":
        batch = pool.take(range(16))
        state = gcl_update_estimators(GclEstimatorState(0.9), enc, w, batch, 0.2, len(pool))
        expected = {"e1": 16, "e2": 16}

        def grad():
            return gcl_gradient_estimate(state, enc, w, batch, 0.2, len(pool))
    else:
        expected = {"e1": 16, "e2": 4}

        def grad():
            return ce_gradient(enc, w, pool.take(range(16)), [0, 1, 2, 3], 0.2)

    rows = {"e1": 0, "e2": 0}
    forward = EncoderPair._forward

    def counting_forward(self, params, tower, inp):
        rows[tower] += len(inp)
        return forward(self, params, tower, inp)

    monkeypatch.setattr(EncoderPair, "_forward", counting_forward)
    assert np.all(np.isfinite(grad()))
    assert rows == expected


def test_gdro_step_encodes_pool_rows_and_classes_not_anchors(rng, monkeypatch):
    """One gdro step runs the input tower once over the pool's N rows and the
    label tower once over its K distinct classes; the 12 anchors, drawn from
    three classes, are never encoded on their own."""
    enc = make_encoder(seed=4, hidden_dim=3, num_classes=6)
    w = enc.init_params()
    pool = make_pool(rng, 50, 5, 3)
    cfg = GdroConfig(lam=0.7, gamma=0.9, margin=0.3, tau=0.4,
                     batch_classes=3, batch_per_class=4)
    rows = np.concatenate([sample_class_batch(pool, k, 4, k) for k in (0, 2, 4)])
    calls = []
    forward = EncoderPair._forward

    def counting_forward(self, params, tower, inp):
        calls.append((tower, len(inp)))
        return forward(self, params, tower, inp)

    monkeypatch.setattr(EncoderPair, "_forward", counting_forward)
    _, grad = gdro_step(GdroEstimatorState(), enc, w, pool, rows, cfg)
    assert np.all(np.isfinite(grad))
    assert sorted(calls) == [("e1", 50), ("e2", 5)]


# ------------------------------------------------------------- Pool boundary


@settings(max_examples=25, deadline=None)
@given(
    hidden_dim=st.sampled_from([0, 3]),
    n=st.integers(2, 12),
    num_classes=st.integers(2, 4),
    seed=st.integers(0, 2**16),
)
def test_estimators_same_bits_on_list_and_pool(hidden_dim, n, num_classes, seed):
    """gcl's separate compositions join a list of one-row Pools through
    ``Pool.of``, as the benchmark's pool sweep passes its batch, so the list
    and the Pool it joins give the same bits."""
    enc = make_encoder(seed=seed, hidden_dim=hidden_dim, num_classes=num_classes)
    w = enc.init_params()
    pool = make_pool(np.random.default_rng(seed), n, num_classes, 3)
    results = []
    for batch in ([pool[i] for i in range(n)], pool):
        state = gcl_update_estimators(GclEstimatorState(0.9), enc, w, batch, 0.2, 2 * n)
        results.append([
            np.float64(gcl_loss_full(enc, w, batch, 0.2)).tobytes(),
            state.samples.read(np.arange(n), pool.ids).tobytes(),  # u_I, u_T
            gcl_gradient_estimate(state, enc, w, batch, 0.2, 2 * n).tobytes(),
        ])
    assert results[0] == results[1]


@pytest.mark.parametrize("method", ["gcl", "finetune-ce", "gdro"])
def test_runner_hands_pools_to_the_estimators(monkeypatch, method):
    """Every step trains on its batch's rows of the stage Pool.  A gcl or
    cross-entropy epoch's batches are consecutive slices of one gather of the
    pool's rows in the epoch's shuffled order, re-derived here from the run
    seed's first spawned child, so they partition the pool's rows: each step
    gets exactly its rows' inputs and classes (gcl, with the rows themselves,
    which are their estimator columns, and the pool size) or true columns among
    the pool's classes
    (cross-entropy).  gdro gets one run of rows per sampled class, every step
    of a stage a slice of the stage's joined draws, and the stage Pool, the
    same object for every step of the stage, so its per-row lookups are built
    once per stage."""
    name = {
        "gcl": "_gcl_loss_and_grad",
        "finetune-ce": "_ce_loss_and_grad",
        "gdro": "_gdro_loss_and_grad",
    }[method]
    handed, pools = [], []
    original, train_task = getattr(cclearn.runner, name), cclearn.runner._Trainer.train_task

    def recording(*args):
        handed.append((pools[-1], args))
        return original(*args)

    def stage(self, task, pool):
        pools.append(pool)
        return train_task(self, task, pool)

    monkeypatch.setattr(cclearn.runner, name, recording)
    monkeypatch.setattr(cclearn.runner._Trainer, "train_task", stage)
    stream, config = _small_stream(), _fast_config(method, epochs_per_task=1)
    run(stream, config)
    assert handed and all(isinstance(pool, Pool) for pool in pools)
    assert len({id(pool) for pool in pools}) == stream.num_tasks
    if method == "gdro":
        for pool in pools:
            steps = [args for p, args in handed if p is pool]
            assert all(args[3] is pool for args in steps)
            batches = [args[4].rows for args in steps]
            assert len({id(rows.base) for rows in batches}) == 1  # one joined array
            for rows in batches:
                assert rows.dtype == np.intp and len(rows) > 0
                assert rows.min() >= 0 and rows.max() < len(pool)
                runs = [k for k, _ in itertools.groupby(pool.y[rows].tolist())]
                assert len(set(runs)) == len(runs) <= _fast_config(method).batch_classes
        return
    shuffle_rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(3)[0])
    size = config.batch_size
    for pool in pools:
        order = shuffle_rng.permutation(len(pool))  # one epoch per stage
        steps = [args for p, args in handed if p is pool]
        assert len(steps) == math.ceil(len(pool) / size)
        if method == "gcl":
            X, rest = [args[3] for args in steps], [args[4:7] for args in steps]
        else:
            X, rest = [args[2] for args in steps], [args[3:5] for args in steps]
        assert len({id(x.base) for x in X}) == 1  # one gather per epoch
        for i, (x, more) in enumerate(zip(X, rest)):
            rows = order[i * size : (i + 1) * size]
            assert x.tobytes() == pool.X[rows].tobytes()
            if method == "gcl":
                y, cols, pool_size = more
                assert y.tolist() == pool.y[rows].tolist() and pool_size == len(pool)
                assert cols.tolist() == rows.tolist()
            else:
                classes, idx = more
                assert classes.tolist() == sorted(set(pool.y.tolist()))
                assert classes[idx].tolist() == pool.y[rows].tolist()
        assert sorted(order.tolist()) == list(range(len(pool)))


def _carried(state, rows):
    """A copy of the estimator ``state`` whose sample column i holds column
    ``rows[i]``: the state the separate compositions take on ``pool.take(rows)``."""
    carried = copy.deepcopy(state)
    carried.samples.carry(rows, len(rows))
    return carried


def _ids_pool(rng, classes, n, ids):
    """n random rows cycling through ``classes``, with sample ids ``ids``."""
    y = np.asarray(classes, dtype=np.int64)[np.arange(n) % len(classes)]
    return Pool(rng.standard_normal((n, 3)), y, ids)


@settings(max_examples=40, deadline=None)
@given(
    hidden_dim=st.sampled_from([0, 3]),
    sizes=st.tuples(st.integers(4, 24), st.integers(0, 12), st.integers(1, 12)),
    seed=st.integers(0, 2**16),
)
def test_row_steps_are_bitwise_the_compositions_on_taken_rows(hidden_dim, sizes, seed):
    """The row-form ``gcl_step`` gives, to the bit, the loss, gradient and
    estimates of the separate compositions on ``pool.take(rows)`` from the
    state carried to the batch (``carry(rows, len(rows))``): sample ids that
    are not 0..N-1, shuffled rows, one state stepped on two successive pools
    that share rows and carried from the first to the second along them (as
    a stage pool shares the buffer's rows with the next) and pools whose
    classes are a subset of the encoder's.  A repeated row is refused, naming
    its id, and leaves the state alone."""
    rng = np.random.default_rng(seed)
    enc = make_encoder(seed=seed, hidden_dim=hidden_dim, num_classes=6)
    w = enc.init_params()
    first_n, kept_n, fresh_n = sizes
    ids = [int(i) for i in rng.choice(10**6, first_n + fresh_n, replace=False)]
    first = _ids_pool(rng, sorted(rng.choice(6, 3, replace=False).tolist()), first_n,
                      ids[:first_n])
    fresh = _ids_pool(rng, [int(k) for k in rng.choice(6, 2, replace=False)], fresh_n,
                      ids[first_n:])
    kept = np.sort(rng.permutation(first_n)[:kept_n])
    second = Pool.concat([first.take(kept), fresh])
    fused_state = GclEstimatorState(0.8)
    for pool, carried in ((first, kept[:0]), (second, kept)):
        N = len(pool)
        fused_state.samples.carry(carried, N)
        for _ in range(3):
            w = w + 0.05 * rng.standard_normal(enc.n_params)
            rows = rng.permutation(N)[: int(rng.integers(1, N + 1))]
            batch = pool.take(rows)

            separate_state = _carried(fused_state, rows)
            loss = gcl_loss_full(enc, w, batch, 0.2)
            gcl_update_estimators(separate_state, enc, w, batch, 0.2, N)
            grad = gcl_gradient_estimate(separate_state, enc, w, batch, 0.2, N)
            fused = gcl_step(fused_state, enc, w, pool, rows, 0.2)
            assert np.float64(fused[0]).tobytes() == np.float64(loss).tobytes()
            assert fused[1].tobytes() == grad.tobytes()
            assert state_bytes(_carried(fused_state, rows)) == state_bytes(separate_state)

        before = state_bytes(fused_state)
        r = int(rng.integers(N))
        rows = rng.permutation(np.append(rng.permutation(N)[: int(rng.integers(N + 1))], [r, r]))
        with pytest.raises(ValueError, match=f"must not repeat: {pool.ids[r]} does$"):
            gcl_step(fused_state, enc, w, pool, rows, 0.2)
        assert state_bytes(fused_state) == before


# --------------------------------------------------------------- fused steps


@settings(max_examples=20, deadline=None)
@given(
    hidden_dim=st.sampled_from([0, 3]),
    n=st.integers(4, 14),
    num_classes=st.integers(2, 4),
    seed=st.integers(0, 2**16),
)
def test_fused_steps_are_bitwise_the_separate_sequence(hidden_dim, n, num_classes, seed):
    """Over three steps, each fused step gives the loss, gradient and estimates
    of the separate calls the runner used to make, to the bit: gdro's on one
    state of their own, whose columns are pool rows too, and gcl's on the
    fused state carried to the batch, whose rows are their columns."""
    rng = np.random.default_rng(seed)
    enc = make_encoder(seed=seed, hidden_dim=hidden_dim, num_classes=num_classes)
    w = enc.init_params()
    pool = make_pool(rng, n, num_classes, 3)
    cfg = GdroConfig(lam=0.7, gamma=0.8, margin=0.3, tau=0.4,
                     batch_classes=2, batch_per_class=3)
    gcl_state = GclEstimatorState(0.9)
    gcl_state.samples.grow(n)
    gdro_states = GdroEstimatorState(), GdroEstimatorState()
    for _ in range(3):
        w = w + 0.05 * rng.standard_normal(enc.n_params)
        rows = rng.permutation(n)[: int(rng.integers(1, n + 1))]
        batch = pool.take(rows)

        separate_state = _carried(gcl_state, rows)
        loss = gcl_loss_full(enc, w, batch, 0.2)
        gcl_update_estimators(separate_state, enc, w, batch, 0.2, n)
        grad = gcl_gradient_estimate(separate_state, enc, w, batch, 0.2, n)
        fused = gcl_step(gcl_state, enc, w, pool, rows, 0.2)
        assert np.float64(fused[0]).tobytes() == np.float64(loss).tobytes()
        assert fused[1].tobytes() == grad.tobytes()
        assert state_bytes(_carried(gcl_state, rows)) == state_bytes(separate_state)

        separate_state, fused_state = gdro_states
        picked = [int(k) for k in rng.choice(num_classes, 2, replace=False)]
        batches = {k: sample_class_batch(pool, k, 3, int(rng.integers(2**32))) for k in picked}
        args = (enc, w, picked, batches, pool, cfg)
        gdro_update_estimators(separate_state, *args)
        grad = gdro_gradient_estimate(separate_state, *args)
        loss = dro_objective(separate_state.class_losses()[1], cfg.lam)
        fused = gdro_step(fused_state, enc, w, pool, joined_rows(picked, batches), cfg)
        assert np.float64(fused[0]).tobytes() == np.float64(loss).tobytes()
        assert fused[1].tobytes() == grad.tobytes()
        assert state_bytes(fused_state) == state_bytes(separate_state)


def test_gdro_steps_get_the_per_seed_draws(monkeypatch):
    """Every gdro step gets the rows of the per-seed draws, one run per picked
    class in pick order, re-derived here without the package's sampler: one
    generator from the run seed's second spawned child picks each step's
    classes, then draws one seed per class, and a class's rows are
    ``default_rng(seed).choice`` of its rows in the stage pool.  The run's
    second stage holds classes of one and two rows, fewer than a class batch.
    Unlike the golden digests, this holds on any numpy build."""
    steps = []
    real_step = cclearn.runner._gdro_loss_and_grad

    def recorded(state, enc, params, pool, anchors, config):
        steps.append((pool, anchors.rows.tolist()))
        return real_step(state, enc, params, pool, anchors, config)

    monkeypatch.setattr(cclearn.runner, "_gdro_loss_and_grad", recorded)
    config = _fast_config("gdro", epochs_per_task=2, memory_capacity=5, seed=11)
    run(_small_stream(num_tasks=2), config)

    batch_rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(3)[1])
    pools = list({id(pool): pool for pool, _ in steps}.values())
    assert len(pools) == 2
    expected = []
    for pool in pools:
        candidates = sorted(set(pool.y.tolist()))
        n_take = min(config.batch_classes, len(candidates))
        batch_rows = config.batch_classes * config.batch_per_class
        per_epoch = max(1, math.ceil(len(pool) / batch_rows))
        for _ in range(config.epochs_per_task * per_epoch):
            picked = [candidates[i] for i in batch_rng.choice(len(candidates), n_take, False)]
            seeds = [int(batch_rng.integers(2**63)) for _ in picked]
            rows = []
            for k, seed in zip(picked, seeds):
                members = np.flatnonzero(pool.y == k)
                n = min(config.batch_per_class, len(members))
                draw = np.random.default_rng(seed).choice(len(members), n, replace=False)
                rows += members[draw].tolist()
            expected.append((pool, rows))
    assert min(np.bincount(pools[1].y)[np.unique(pools[1].y)]) == 1
    assert [(id(p), r) for p, r in steps] == [(id(p), r) for p, r in expected]


@pytest.mark.parametrize("method, module, name", [
    ("gdro", cclearn.gdro, "_hinge_stats"),
    ("gcl", EncoderPair, "pair_forward"),
    ("finetune-ce", cclearn.runner, "_ce_loss_and_grad"),
    *[(method, EncoderPair, forward) for method in ("gcl", "finetune-ce", "gdro")
      for forward in ("_forward_inputs", "_forward_labels")],
])
def test_one_encoding_per_optimizer_step(monkeypatch, method, module, name):
    """Each training step encodes and scores its rows once: one call of the
    method's encoding function per optimizer step, and one of each of the
    forwards that check their input, which the benchmark's tracer counts as
    ``model.encode``.  Evaluation, which also encodes, is not counted."""
    calls = {"encode": 0, "optimizer": 0}

    def counted(key, fn):
        def call(*args):
            calls[key] += 1
            return fn(*args)
        return call

    evaluate = cclearn.runner.evaluate

    def uncounted(*args):
        encodes = calls["encode"]
        accuracy = evaluate(*args)
        calls["encode"] = encodes
        return accuracy

    monkeypatch.setattr(module, name, counted("encode", getattr(module, name)))
    monkeypatch.setattr(cclearn.runner, "optimizer_step",
                        counted("optimizer", cclearn.runner.optimizer_step))
    monkeypatch.setattr(cclearn.runner, "evaluate", uncounted)
    run(_small_stream(), _fast_config(method, epochs_per_task=2))
    assert calls["optimizer"] > 0 and calls["encode"] == calls["optimizer"]


# ------------------------------------------------- prepared steps, public steps


def _hand_batches(trainer, pool, candidates):
    """Each epoch's batches of rows, drawn from the trainer's generators as the
    runner draws them: an epoch's shuffled order in slices, or one gdro step's
    (class, seed) picks at a time, each pick's rows ``sample_class_batches``
    draws, joined in pick order."""
    cfg, gcfg = trainer.config, trainer.gdro_config
    if cfg.method != "gdro":
        for _ in range(cfg.epochs_per_task):
            order = trainer.shuffle_rng.permutation(len(pool))
            yield [order[i : i + cfg.batch_size] for i in range(0, len(pool), cfg.batch_size)]
        return
    n_take = min(gcfg.batch_classes, len(candidates))
    steps = max(1, math.ceil(len(pool) / (gcfg.batch_classes * gcfg.batch_per_class)))
    batches = []
    for _ in range(cfg.epochs_per_task * steps):
        picked = [candidates[i] for i in trainer.batch_rng.choice(len(candidates), n_take, False)]
        seeds = trainer.batch_rng.integers(2**63, size=n_take)
        batches.append(np.concatenate(
            sample_class_batches(pool, picked, gcfg.batch_per_class, seeds)
        ))
    for epoch in range(cfg.epochs_per_task):
        yield batches[epoch * steps : (epoch + 1) * steps]


def _hand_loop(steps_taken):
    """A ``_Trainer.train_task`` that steps every batch through the public
    ``gcl_step``, ``ce_loss`` and ``ce_gradient`` on the batch's rows over the
    pool's classes, or ``gdro_step``, and then ``optim.step``, logging as the
    runner logs; each optimizer step appends to ``steps_taken``.  A public step
    takes a state carried to its pool, so each stage first carries the state
    along the buffer's ``kept`` rows."""

    def train_task(self, task, pool):
        cfg, enc = self.config, self.enc
        candidates = pool.class_index[0].tolist()
        if self.state is not None:
            self.state.samples.carry(self.buffer.kept, len(pool))
        for epoch, batches in enumerate(_hand_batches(self, pool, candidates)):
            for rows in batches:
                if cfg.method == "gcl":
                    loss, grad = gcl_step(self.state, enc, self.params, pool, rows, cfg.tau)
                elif cfg.method == "finetune-ce":
                    batch = pool.take(rows)
                    loss = ce_loss(enc, self.params, batch, candidates, cfg.tau)
                    grad = ce_gradient(enc, self.params, batch, candidates, cfg.tau)
                else:
                    loss, grad = gdro_step(
                        self.state, enc, self.params, pool, rows, self.gdro_config
                    )
                self.opt, self.params = optim_step(self.opt, self.params, grad)
                steps_taken.append(None)
                if self.global_step % cfg.log_every == 0:
                    self.log.append(
                        {"event": "step", "task": task, "epoch": epoch,
                         "step": self.global_step, "loss": loss, **self._log_fields()}
                    )
                self.global_step += 1

    return train_task


def _run_both(monkeypatch, stream, config):
    """``run`` as it is and with the hand loop for training: each run's result
    (or its ValueError) and the number of optimizer steps it took."""
    outcomes = []
    for hand in (False, True):
        steps_taken = []
        with monkeypatch.context() as patch:
            if hand:
                patch.setattr(cclearn.runner._Trainer, "train_task", _hand_loop(steps_taken))
            else:
                real_step = cclearn.runner.optimizer_step

                def counted(opt, params, grad):
                    steps_taken.append(None)
                    return real_step(opt, params, grad)

                patch.setattr(cclearn.runner, "optimizer_step", counted)
            try:
                outcome = run(stream, config)
            except ValueError as err:
                outcome = err
        outcomes.append((outcome, len(steps_taken)))
    return outcomes


def _same_run(runner, hand):
    (result, steps), (hand_result, hand_steps) = runner, hand
    assert steps == hand_steps > 0
    assert result.params.tobytes() == hand_result.params.tobytes()
    assert result.log == hand_result.log


@settings(max_examples=20, deadline=None)
@given(
    method=st.sampled_from(["gcl", "finetune-ce", "gdro"]),
    hidden_dim=st.sampled_from([0, 3]),
    num_tasks=st.integers(1, 3),
    classes_per_task=st.integers(2, 3),
    per_class=st.integers(4, 9),
    memory=st.integers(0, 10),
    batch_size=st.integers(1, 12),
    batch_classes=st.integers(1, 3),
    batch_per_class=st.integers(1, 5),
    seed=st.integers(0, 2**16),
)
def test_runner_steps_are_the_public_steps(
    method, hidden_dim, num_tasks, classes_per_task, per_class, memory, batch_size,
    batch_classes, batch_per_class, seed,
):
    """``run`` steps every method through batches it prepares once per epoch
    (gcl, cross-entropy) or stage (gdro), and gives the final parameters and
    the log, to the bit, of a hand loop that steps each batch through the
    public step and ``optim.step``."""
    ds = gen_synthetic(classes_per_task * num_tasks, per_class, 8, 4.0, 0.5, seed)
    stream = split_cil(ds, num_tasks, test_fraction=0.25, seed=seed + 1)
    config = _fast_config(
        method, epochs_per_task=2, memory_capacity=memory, seed=seed, hidden_dim=hidden_dim,
        batch_size=batch_size, batch_classes=batch_classes, batch_per_class=batch_per_class,
        log_every=3,
    )
    with pytest.MonkeyPatch.context() as monkeypatch:
        _same_run(*_run_both(monkeypatch, stream, config))


@pytest.mark.parametrize("method", ["gcl", "gdro"])
def test_training_reads_no_sample_id(monkeypatch, method):
    """gcl's and gdro's estimator columns are pool rows, carried from stage to
    stage along the buffer's rows, so training reads no sample id: a stream
    whose training rows all take one sample id after the stream is built
    trains to the parameters and log of the same stream with distinct ids.
    No public step is called on the way."""
    repeated = _small_stream()
    for task in repeated.tasks:
        task.train.ids[:] = [7] * len(task.train)

    def public_step(*args):
        raise AssertionError("training called a public step")

    for module in (cclearn, cclearn.gcl, cclearn.gdro, cclearn.runner):
        for public in ("gcl_step", "gdro_step"):
            if hasattr(module, public):
                monkeypatch.setattr(module, public, public_step)
    config = _fast_config(method, epochs_per_task=2, log_every=1)
    results = [run(stream, config) for stream in (_small_stream(), repeated)]
    assert results[1].params.tobytes() == results[0].params.tobytes()
    assert results[1].log == results[0].log


def _stream(mode, num_classes, num_tasks, per_class, seed):
    """A class-incremental stream of ``num_tasks`` tasks, or a domain-incremental
    one of ``num_tasks`` rotated domains of every class."""
    ds = gen_synthetic(num_classes, per_class, 8, 4.0, 0.5, seed)
    if mode == "cil":
        return split_cil(ds, num_tasks, test_fraction=0.25, seed=seed + 1)
    shifted = gen_domain_shift(ds, num_tasks, "rotation", 0.5, seed + 2)
    return split_dil(shifted, list(range(num_tasks)), test_fraction=0.25, seed=seed + 1)


def _pool_bytes(pool):
    return pool.X.tobytes(), pool.y.tobytes(), pool.ids


@settings(max_examples=30, deadline=None)
@given(
    mode=st.sampled_from(["cil", "dil"]),
    method=st.sampled_from(["gcl", "gdro"]),
    hidden_dim=st.sampled_from([0, 3]),
    num_tasks=st.integers(2, 3),
    classes_per_task=st.integers(2, 3),
    per_class=st.integers(4, 8),
    memory=st.integers(0, 60),
    seed=st.integers(0, 2**16),
)
def test_estimates_follow_pool_rows_between_stages(
    mode, method, hidden_dim, num_tasks, classes_per_task, per_class, memory, seed,
):
    """The buffer's ``kept`` rows carry every estimate from one stage pool to
    the next.  At each ``rebalance_after_task`` the rows it joins are the
    stage's pool, byte for byte, so the rows it stores are that pool's rows
    ``kept``.  At each stage start, before its first step, the sample table is
    as wide as the pool, and column i holds the previous stage's estimate for
    pool row i's id, bit for bit, or no estimate for a row the previous pool
    did not hold.  Memory runs from none to more than a pool holds."""
    num_classes = classes_per_task * (num_tasks if mode == "cil" else 1)
    stream = _stream(mode, num_classes, num_tasks, per_class, seed)
    config = _fast_config(method, epochs_per_task=2, memory_capacity=memory, seed=seed,
                          hidden_dim=hidden_dim)
    trainer_cls, buffer_cls = cclearn.runner._Trainer, cclearn.runner.MemoryBuffer
    real_epochs, real_train = trainer_cls._epochs, trainer_cls.train_task
    real_rebalance = buffer_cls.rebalance_after_task
    pools, ended, started = [], [], []

    def epochs(self, pool):
        batches = real_epochs(self, pool)
        first = next(batches)  # the carry is made, and no step is taken yet
        samples = self.state.samples
        assert samples.values.shape == (2, len(pool)) == (2, len(samples.initialized))
        before = ended[-1] if ended else {}
        for i, sample in enumerate(pool.ids):
            flag, values = before.get(sample, (False, np.zeros(2).tobytes()))
            assert samples.initialized[i] == flag
            assert samples.values[:, i].tobytes() == values
        started.append(len(pool))
        yield first
        yield from batches

    def train_task(self, task, pool):
        pools.append(pool)
        real_train(self, task, pool)
        samples = self.state.samples
        ended.append({sample: (bool(samples.initialized[i]), samples.values[:, i].tobytes())
                      for i, sample in enumerate(pool.ids)})

    def rebalance(self, finished):
        assert _pool_bytes(Pool.concat([self.stored, finished])) == _pool_bytes(pools[-1])
        real_rebalance(self, finished)
        assert _pool_bytes(self.stored) == _pool_bytes(pools[-1].take(self.kept))
        return self

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(trainer_cls, "_epochs", epochs)
        monkeypatch.setattr(trainer_cls, "train_task", train_task)
        monkeypatch.setattr(buffer_cls, "rebalance_after_task", rebalance)
        run(stream, config)
    assert started == [len(pool) for pool in pools] and len(pools) == num_tasks


def test_cross_entropy_trains_one_path_whatever_the_ids(monkeypatch):
    """Cross-entropy keeps no per-sample estimate: a stream whose second stage
    pool repeats sample ids, every row of its task sharing one id, trains to the
    parameters and log of the same stream with distinct ids, and every step of
    both runs goes through ``_ce_loss_and_grad`` on a prepared batch, its
    inputs a slice of the epoch's one gather."""
    repeated = _small_stream()
    task = repeated.tasks[1].train
    task.ids[:] = [task.ids[0]] * len(task)
    real_step, real_optimizer = cclearn.runner._ce_loss_and_grad, cclearn.runner.optimizer_step
    results = []
    for stream in (_small_stream(), repeated):
        sliced, optimizer_steps = [], []

        def step(enc, params, X, *rest):
            sliced.append(X.base is not None)
            return real_step(enc, params, X, *rest)

        def optimizer(*args):
            optimizer_steps.append(None)
            return real_optimizer(*args)

        with monkeypatch.context() as patch:
            patch.setattr(cclearn.runner, "_ce_loss_and_grad", step)
            patch.setattr(cclearn.runner, "optimizer_step", optimizer)
            result = run(stream, _fast_config("finetune-ce", epochs_per_task=2, log_every=1))
        assert all(sliced) and len(sliced) == len(optimizer_steps) > 0
        results.append((result.params.tobytes(), result.log))
    assert len(set(task.ids)) == 1 < len(task)
    assert results[0] == results[1]


def _first_stage_steps(config):
    """The optimizer steps of the first stage of ``_small_stream``'s run."""
    log = run(_small_stream(), replace(config, log_every=1)).log
    return sum(r["event"] == "step" and r["task"] == 0 for r in log)


@pytest.mark.parametrize("bad", ["width", "class"])
@pytest.mark.parametrize("method", ["gcl", "finetune-ce", "gdro"])
def test_a_later_stage_the_forwards_refuse_fails_before_its_first_step(monkeypatch, method, bad):
    """A second task whose inputs are one feature too wide, or that holds a class
    id past the encoder's classes, is refused with the forward's message once
    that stage starts, before its first step, after the steps the hand loop
    takes before its first step refuses the same input."""
    stream = _small_stream()
    task = stream.tasks[1]
    if bad == "width":
        task.train = Pool(np.hstack([task.train.X, task.train.X[:, :1]]), task.train.y,
                          task.train.ids)
        message = r"input has shape \(\d+, 9\), expected \(rows, 8\)"
    else:
        task.train.y[0] = 6
        message = re.escape("class id out of range [0, 6)")
    config = _fast_config(method, memory_capacity=0)
    (err, steps), (hand_err, hand_steps) = _run_both(monkeypatch, stream, config)
    assert re.fullmatch(message, str(err)) and re.fullmatch(message, str(hand_err))
    assert steps == hand_steps == _first_stage_steps(config)


@pytest.mark.parametrize("call, message", [
    (lambda: _fast_config("gcl", epochs_per_task=0), "epochs_per_task must be >= 1"),
    (lambda: _fast_config("gcl", memory_capacity=-1), "memory_capacity must be >= 0"),
    (lambda: _fast_config("gcl", batch_size=0), "batch_size must be >= 1"),
    (lambda: _fast_config("gcl", log_every=0), "log_every must be >= 1"),
    (lambda: run(TaskStream(mode="cil"), _fast_config("gcl")), "stream has no tasks"),
], ids=["epochs_per_task", "memory_capacity", "batch_size", "log_every", "empty-stream"])
def test_runner_refuses_hostile_input(call, message):
    """RunConfig's range checks and a stream with no tasks refuse in one line."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
