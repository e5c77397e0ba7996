import math
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cclearn.gcl
import cclearn.gdro
import cclearn.runner
from cclearn.buffer import sample_class_batch
from cclearn.data import Pool, TaskStream, gen_synthetic, split_cil
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
from cclearn.runner import (
    RunConfig,
    ce_gradient,
    ce_loss,
    ce_step,
    evaluate,
    merge_tasks,
    run,
)

from conftest import (
    assert_grad_close,
    central_diff,
    class_pool,
    make_encoder,
    make_pool,
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
    w[enc.segment("e1_b")] = [1.0, 0.0, 0.0]
    w[enc.segment("e2_b")] = [0.0, 1.0, 0.0]  # all label embeddings identical
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
    w[enc.segment("e1_b")] = [1.0, 0.0, 0.0]
    w[enc.segment("e2_b")] = [0.0, 1.0, 0.0]  # identical labels -> uniform softmax
    batch = class_pool(rng, [1], 1, 3)
    for k in (2, 3, 4):
        assert ce_loss(enc, w, batch, list(range(k)), 0.4) == pytest.approx(
            math.log(k), abs=1e-9
        )


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
    """A one-line ValueError, with no numpy warning, from the loss and gradient on
    their own and, where the case can arise for rows of a pool (whose classes are
    the candidates), from the step."""
    enc = make_encoder(seed=1, num_classes=4)
    w = enc.init_params()
    pool, candidates, tau = make_pool(rng, 6, 4, 3), [0, 1, 2, 3], 0.3
    rows = rng.permutation(len(pool))
    if case == "class-not-candidate":
        candidates = [0, 1, 3]
    elif case == "no-candidates":
        candidates = []
    elif case == "repeated-candidate":
        candidates = [0, 1, 1, 2, 3]
    elif case == "empty-batch":
        rows = rows[:0]
    else:
        tau = float(case.split("=")[1])
    entries = [partial(entry, enc, w, pool.take(rows), candidates, tau)
               for entry in (ce_loss, ce_gradient)]
    if candidates == sorted(pool.members):
        entries.append(partial(ce_step, enc, w, pool, rows, tau))
    for entry in entries:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=pattern) as info:
                entry()
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
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as info:
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
    real_step, calls = cclearn.runner.gcl_step, []

    def step(*args):
        loss, grad = real_step(*args)
        calls.append(None)
        if len(calls) - 1 < at["step"]:
            return loss, grad
        return (math.nan, grad) if bad == "loss" else (loss, np.full_like(grad, math.nan))

    monkeypatch.setattr(cclearn.runner, "gcl_step", step)
    with pytest.raises(DivergenceError) as info:
        run(stream, config)
    err = info.value
    assert (err.task, err.epoch, err.step) == (1, 1, at["step"])
    assert str(err) == f"{cause} at task 1, epoch 1, step {at['step']}"
    assert isinstance(err.__cause__, NonFiniteGradientError) == (bad == "gradient")


@pytest.mark.parametrize("rows, message", [
    (np.array([0, -1]), "rows for the batch fall outside the pool"),
    (np.array([0, 6]), "rows for the batch fall outside the pool"),
    (np.array([0.0, 1.0]), "the batch needs its rows as a 1-d integer array"),
    (np.array([True, False, True, False, True, True]),
     "the batch needs its rows as a 1-d integer array"),
    (np.array([[0, 1], [2, 3]]), "the batch needs its rows as a 1-d integer array"),
    ([0, 1], "the batch needs its rows as a 1-d integer array"),
], ids=["negative", "past-end", "float", "bool", "2-d", "list"])
@pytest.mark.parametrize("method", ["gcl", "finetune-ce"])
def test_steps_refuse_rows_that_are_not_rows_of_the_pool(rng, method, rows, message):
    """On a 6-row pool, row -1 would train on row 5, row 6 would raise numpy's
    IndexError and a bool array would act as a mask: each is refused in one
    line, before the step changes any estimator state."""
    enc = make_encoder(seed=2, num_classes=3)
    w = enc.init_params()
    pool = make_pool(rng, 6, 3, 3)
    state = GclEstimatorState(gamma=0.5)
    gcl_step(state, enc, w, pool, np.array([0, 1, 2]), 0.2)
    before = state_bytes(state)
    step = partial(gcl_step, state) if method == "gcl" else ce_step
    with pytest.raises(ValueError, match=f"^{message}$"):
        step(enc, w, pool, rows, 0.2)
    assert state_bytes(state) == before


def test_gdro_refuses_a_one_class_stage_before_any_step(monkeypatch):
    """A stage pool of one class is a config error (a ValueError), raised before
    the stage's first step."""
    steps = []
    monkeypatch.setattr(cclearn.runner, "gdro_step", lambda *args: steps.append(args))
    with pytest.raises(ConfigError, match="stage 0 holds 1") as info:
        run(_small_stream(num_classes=3, num_tasks=3), _fast_config("gdro"))
    assert isinstance(info.value, ValueError) and not steps


def test_joint_upper_bound_equals_merged_single_task_run():
    stream = _small_stream()
    config = _fast_config("gcl", epochs_per_task=4)
    jb = _joint_bound(stream, config)
    merged = merge_tasks(stream)
    direct = run(
        stream=merged,
        config=replace(config, method="gcl", epochs_per_task=4 * stream.num_tasks),
    )
    assert jb == direct.accuracy.aggregate[0]
    assert merged.num_tasks == 1
    assert merged.tasks[0].classes == frozenset(range(6))


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
    batches = {k: sample_class_batch(pool, k, 4, k) for k in (0, 2, 4)}
    calls = []
    forward = EncoderPair._forward

    def counting_forward(self, params, tower, inp):
        calls.append((tower, len(inp)))
        return forward(self, params, tower, inp)

    monkeypatch.setattr(EncoderPair, "_forward", counting_forward)
    _, grad = gdro_step(GdroEstimatorState(), enc, w, [0, 2, 4], batches, pool, cfg)
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
            state.samples.read(pool.ids).tobytes(),  # u_I, u_T
            gcl_gradient_estimate(state, enc, w, batch, 0.2, 2 * n).tobytes(),
        ])
    assert results[0] == results[1]


@pytest.mark.parametrize("method", ["gcl", "finetune-ce", "gdro"])
def test_runner_hands_pools_to_the_estimators(monkeypatch, method):
    """Every step gets the stage Pool and its batch as integer rows into it: a gcl
    or cross-entropy epoch's batches partition the pool's rows, and gdro gets
    each sampled class's anchors as rows of that class.  All steps of a stage
    get the same Pool object, so its per-row lookups are built once per stage."""
    name, position = {
        "gcl": ("gcl_step", 3),  # the stage pool, then the rows
        "finetune-ce": ("ce_step", 2),
        "gdro": ("gdro_step", 5),
    }[method]
    handed = []
    original = getattr(cclearn.runner, name)

    def recording(*args):
        handed.append(args)
        return original(*args)

    monkeypatch.setattr(cclearn.runner, name, recording)
    stream = _small_stream()
    run(stream, _fast_config(method, epochs_per_task=1))
    assert handed and all(isinstance(args[position], Pool) for args in handed)
    pools = list({id(args[position]): args[position] for args in handed}.values())
    assert len(pools) == stream.num_tasks
    if method == "gdro":
        for _state, _enc, _params, class_batch, per_class, pool, _cfg in handed:
            assert list(per_class) == class_batch
            for k, rows in per_class.items():
                assert rows.dtype == np.intp and len(rows) > 0
                assert rows.min() >= 0 and rows.max() < len(pool)
                assert set(pool.y[rows].tolist()) == {k}
        return
    for pool in pools:
        batches = [args[position + 1] for args in handed if args[position] is pool]
        assert all(rows.dtype == np.intp and len(rows) > 0 for rows in batches)
        assert sorted(np.concatenate(batches).tolist()) == list(range(len(pool)))


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
    """The row-form ``gcl_step`` and ``ce_step`` give, to the bit, the loss,
    gradient and estimator state of the separate compositions on
    ``pool.take(rows)``: sample ids that are not 0..N-1, shuffled rows, one
    state stepped on two successive pools that share rows (as a stage pool
    shares the buffer's rows with the next) and pools whose classes are a
    subset of the encoder's.  A repeated row is refused, naming its id, and
    leaves the state alone."""
    rng = np.random.default_rng(seed)
    enc = make_encoder(seed=seed, hidden_dim=hidden_dim, num_classes=6)
    w = enc.init_params()
    first_n, kept_n, fresh_n = sizes
    ids = [int(i) for i in rng.choice(10**6, first_n + fresh_n, replace=False)]
    first = _ids_pool(rng, sorted(rng.choice(6, 3, replace=False).tolist()), first_n,
                      ids[:first_n])
    fresh = _ids_pool(rng, [int(k) for k in rng.choice(6, 2, replace=False)], fresh_n,
                      ids[first_n:])
    second = Pool.concat([first.take(np.sort(rng.permutation(first_n)[:kept_n])), fresh])
    fused_state, separate_state = GclEstimatorState(0.8), GclEstimatorState(0.8)
    for pool in (first, second):
        N = len(pool)
        for _ in range(3):
            w = w + 0.05 * rng.standard_normal(enc.n_params)
            rows = rng.permutation(N)[: int(rng.integers(1, N + 1))]
            batch = pool.take(rows)

            loss = gcl_loss_full(enc, w, batch, 0.2)
            gcl_update_estimators(separate_state, enc, w, batch, 0.2, N)
            grad = gcl_gradient_estimate(separate_state, enc, w, batch, 0.2, N)
            fused = gcl_step(fused_state, enc, w, pool, rows, 0.2)
            assert np.float64(fused[0]).tobytes() == np.float64(loss).tobytes()
            assert fused[1].tobytes() == grad.tobytes()
            assert state_bytes(fused_state) == state_bytes(separate_state)

            classes = sorted(pool.members)
            fused = ce_step(enc, w, pool, rows, 0.2)
            loss = ce_loss(enc, w, batch, classes, 0.2)
            assert np.float64(fused[0]).tobytes() == np.float64(loss).tobytes()
            assert fused[1].tobytes() == ce_gradient(enc, w, batch, classes, 0.2).tobytes()

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
    """Over three steps, each fused step gives the loss, gradient and estimator
    state of the separate calls the runner used to make, to the bit."""
    rng = np.random.default_rng(seed)
    enc = make_encoder(seed=seed, hidden_dim=hidden_dim, num_classes=num_classes)
    w = enc.init_params()
    pool = make_pool(rng, n, num_classes, 3)
    classes = list(range(num_classes))
    cfg = GdroConfig(lam=0.7, gamma=0.8, margin=0.3, tau=0.4,
                     batch_classes=2, batch_per_class=3)
    gcl_states = GclEstimatorState(0.9), GclEstimatorState(0.9)
    gdro_states = GdroEstimatorState(), GdroEstimatorState()
    for _ in range(3):
        w = w + 0.05 * rng.standard_normal(enc.n_params)
        rows = rng.permutation(n)[: int(rng.integers(1, n + 1))]
        batch = pool.take(rows)

        separate_state, fused_state = gcl_states
        loss = gcl_loss_full(enc, w, batch, 0.2)
        gcl_update_estimators(separate_state, enc, w, batch, 0.2, n)
        grad = gcl_gradient_estimate(separate_state, enc, w, batch, 0.2, n)
        fused = gcl_step(fused_state, enc, w, pool, rows, 0.2)
        assert np.float64(fused[0]).tobytes() == np.float64(loss).tobytes()
        assert fused[1].tobytes() == grad.tobytes()
        assert state_bytes(fused_state) == state_bytes(separate_state)

        fused = ce_step(enc, w, pool, rows, 0.2)
        loss = ce_loss(enc, w, batch, classes, 0.2)
        assert np.float64(fused[0]).tobytes() == np.float64(loss).tobytes()
        assert fused[1].tobytes() == ce_gradient(enc, w, batch, classes, 0.2).tobytes()

        separate_state, fused_state = gdro_states
        picked = [int(k) for k in rng.choice(num_classes, 2, replace=False)]
        args = (enc, w, picked,
                {k: sample_class_batch(pool, k, 3, int(rng.integers(2**32))) for k in picked},
                pool, cfg)
        gdro_update_estimators(separate_state, *args)
        grad = gdro_gradient_estimate(separate_state, *args)
        loss = dro_objective(separate_state.class_losses()[1], cfg.lam)
        fused = gdro_step(fused_state, *args)
        assert np.float64(fused[0]).tobytes() == np.float64(loss).tobytes()
        assert fused[1].tobytes() == grad.tobytes()
        assert state_bytes(fused_state) == state_bytes(separate_state)


@pytest.mark.parametrize("method, module, name", [
    ("gdro", cclearn.gdro, "_hinge_stats"),
    ("gcl", cclearn.gcl, "_batch_logits"),
    ("finetune-ce", cclearn.runner, "_ce_loss_and_grad"),
])
def test_one_encoding_per_optimizer_step(monkeypatch, method, module, name):
    """Each training step encodes and scores its rows once: one call of the
    method's encoding function per optimizer step."""
    calls = {"encode": 0, "optimizer": 0}

    def counted(key, fn):
        def call(*args):
            calls[key] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(module, name, counted("encode", getattr(module, name)))
    monkeypatch.setattr(cclearn.runner, "optimizer_step",
                        counted("optimizer", cclearn.runner.optimizer_step))
    run(_small_stream(), _fast_config(method, epochs_per_task=2))
    assert calls["optimizer"] > 0 and calls["encode"] == calls["optimizer"]


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
