import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cclearn.buffer import (
    MemoryBuffer,
    _choice_positions,
    sample_class_batch,
    sample_class_batches,
)
from cclearn.data import Pool
from cclearn.gdro import _anchor_rows

from conftest import class_pool, make_pool
from oracles import SampleBuffer, records, rows


def _assert_same_rows(a, b):
    """Two Pools hold the same rows, in order, to the byte."""
    assert a.ids == b.ids
    assert a.y.tolist() == b.y.tolist()
    assert a.X.tobytes() == b.X.tobytes()


def _stored_ids(buf, k):
    return {buf.stored.ids[i] for i in buf.stored.members.get(k, [])}


def test_even_division_rebalance(rng):
    buf = MemoryBuffer(capacity=100, rng_seed=0)
    buf = buf.rebalance_after_task(class_pool(rng, range(10), 20, 2, 0))
    assert buf.class_counts() == {c: 10 for c in range(10)}
    buf = buf.rebalance_after_task(class_pool(rng, range(10, 20), 20, 2, 1000))
    assert buf.class_counts() == {c: 5 for c in range(20)}


def test_rebalance_updates_the_buffer_in_place(rng):
    buf = MemoryBuffer(capacity=6, rng_seed=5)
    assert buf.rebalance_after_task(class_pool(rng, [0, 1], 4, 2, 0)) is buf
    assert buf.rebalance_after_task(class_pool(rng, [2], 4, 2, 100)) is buf
    assert buf.class_counts() == {0: 2, 1: 2, 2: 2}


def test_remainder_goes_to_lowest_class_ids(rng):
    buf = MemoryBuffer(capacity=10, rng_seed=1)
    buf = buf.rebalance_after_task(class_pool(rng, [5, 2, 9], 8, 2, 0))
    assert buf.class_counts() == {2: 4, 5: 3, 9: 3}


def test_zero_capacity_stays_empty(rng):
    buf = MemoryBuffer(capacity=0, rng_seed=2)
    buf = buf.rebalance_after_task(class_pool(rng, [0, 1], 5, 2, 0))
    assert len(buf) == 0
    assert len(buf.union_view(Pool.concat([]))) == 0


def test_union_view_identities(rng):
    task = class_pool(rng, [0, 1], 3, 2, 0)
    empty = MemoryBuffer(capacity=10, rng_seed=0)
    _assert_same_rows(empty.union_view(task), task)
    buf = empty.rebalance_after_task(task)
    stored = task  # everything fits; the task's classes are ascending already
    none = Pool.concat([])
    for view in (buf.union_view(none), buf.union_view(none)):  # every call gives the same rows
        _assert_same_rows(view, stored)
    new_task = class_pool(rng, [2], 4, 2, 100)
    union = buf.union_view(new_task)
    _assert_same_rows(union, Pool.concat([stored, new_task]))
    assert len(set(union.ids)) == len(union) == len(buf) + len(new_task)


def test_union_view_orders_buffer_classes_ascending(rng):
    buf = MemoryBuffer(capacity=6, rng_seed=3)
    buf = buf.rebalance_after_task(class_pool(rng, [4, 1, 7], 2, 2, 0))
    classes = buf.union_view(Pool.concat([])).y.tolist()
    assert classes == sorted(classes)


def test_dil_repeat_classes_merge_before_downsampling(rng):
    buf = MemoryBuffer(capacity=4, rng_seed=4)
    first = class_pool(rng, [0, 1], 4, 2, 0)
    buf = buf.rebalance_after_task(first)
    second = class_pool(rng, [0, 1], 4, 2, 100)
    buf = buf.rebalance_after_task(second)
    assert buf.class_counts() == {0: 2, 1: 2}
    stored = set(buf.union_view(Pool.concat([])).ids)
    source = set(first.ids) | set(second.ids)
    assert stored <= source


def test_rebalance_deterministic_per_seed(rng):
    tasks = [class_pool(rng, range(t * 3, t * 3 + 3), 7, 2, t * 100) for t in range(4)]

    def build():
        buf = MemoryBuffer(capacity=13, rng_seed=99)
        for task in tasks:
            buf = buf.rebalance_after_task(task)
        return buf

    a, b = build(), build()
    assert a.class_counts() == b.class_counts()
    _assert_same_rows(a.stored, b.stored)


def test_buffer_invariants_over_random_task_sequences():
    master = np.random.default_rng(7)
    next_id = 0
    for trial in range(200):
        cap = int(master.integers(0, 30))
        buf = MemoryBuffer(capacity=cap, rng_seed=int(master.integers(2**32)))
        next_class = 0
        for _ in range(int(master.integers(1, 5))):
            n_cls = int(master.integers(1, 4))
            classes = range(next_class, next_class + n_cls)
            next_class += n_cls
            per_class = int(master.integers(1, 8))
            task = class_pool(master, classes, per_class, 2, next_id)
            next_id += n_cls * per_class
            prev_counts = buf.class_counts()
            available = dict(prev_counts)
            source_ids = {k: _stored_ids(buf, k) for k in prev_counts}
            for c in classes:
                available[c] = available.get(c, 0) + per_class
            for k, i in zip(task.y.tolist(), task.ids):
                source_ids.setdefault(k, set()).add(i)
            buf = buf.rebalance_after_task(task)
            counts = buf.class_counts()
            assert len(buf) <= cap
            # exact quota law: min(quota, available), remainder to lowest ids
            quota, rem = divmod(cap, len(available))
            for i, k in enumerate(sorted(available)):
                q = quota + (1 if i < rem else 0)
                assert counts.get(k, 0) == min(q, available[k])
                # only samples from the previous buffer or the incoming task
                assert _stored_ids(buf, k) <= source_ids[k]
                # disjoint incoming classes never grow an existing class
                if k in prev_counts and k not in task.members:
                    assert counts.get(k, 0) <= prev_counts[k]
            stored = buf.union_view(Pool.concat([])).ids
            assert len(stored) == len(set(stored))


@settings(max_examples=150, deadline=None)
@given(
    capacity=st.integers(0, 39),
    tasks=st.lists(st.lists(st.integers(0, 7), min_size=1, max_size=24), min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
@example(capacity=0, tasks=[[0, 1, 1], [2, 3]], seed=0)
@example(capacity=3, tasks=[[0, 1, 2, 3, 3], [3, 1, 1, 0], [4]], seed=1)
@example(capacity=5, tasks=[[2, 0, 1, 0, 1, 2]] * 3, seed=2)
def test_buffer_matches_the_per_sample_oracle(capacity, tasks, seed):
    """Over random task sequences (class- and domain-incremental, classes that
    recur, capacity 0, classes pushed to quota 0), the row buffer stores the
    oracle's samples to the byte and draws the same RNG values.  The oracle
    keeps a class at quota 0 as an empty list; ``class_counts`` lists only the
    classes the buffer holds."""
    rng = np.random.default_rng(seed)
    buf, oracle = MemoryBuffer(capacity, seed), SampleBuffer(capacity, seed)
    next_id = 0
    for classes in tasks:
        ids = list(range(next_id, next_id + len(classes)))
        task = Pool(rng.standard_normal((len(classes), 2)), np.array(classes, dtype=np.int64), ids)
        next_id += len(task)
        _assert_same_rows(buf.union_view(task), oracle.union_view(records(task)))
        buf.rebalance_after_task(task)
        oracle.rebalance_after_task(records(task))
        assert buf.class_counts() == {k: n for k, n in oracle.class_counts().items() if n}
        _assert_same_rows(buf.union_view(Pool.concat([])), oracle.union_view([]))
        assert len(buf) == sum(oracle.class_counts().values())


def test_sample_class_batch_exhaustive_and_deterministic(rng):
    """A draw is row indices into the pool, all of the class's rows when the
    batch is larger than the class."""
    pool = make_pool(rng, 12, 3, 2)
    batch = sample_class_batch(pool, 1, batch_size=100, seed=5)
    assert batch.dtype == np.intp
    assert sorted(batch.tolist()) == [i for i, k in enumerate(pool.y.tolist()) if k == 1]
    b1 = sample_class_batch(pool, 0, 2, seed=42)
    b2 = sample_class_batch(pool, 0, 2, seed=42)
    assert b1.tolist() == b2.tolist() and set(pool.y[b1].tolist()) == {0}


def test_sample_class_batch_missing_class(rng):
    pool = make_pool(rng, 6, 2, 2)
    with pytest.raises(ValueError):
        sample_class_batch(pool, 17, 1, seed=0)


@pytest.mark.parametrize("batch_size", [0, -1])
def test_sample_class_batch_refuses_a_batch_of_no_rows(rng, batch_size):
    pool = make_pool(rng, 6, 2, 2)
    with pytest.raises(ValueError, match=f"^batch_size must be >= 1, got {batch_size}$"):
        sample_class_batch(pool, 0, batch_size, seed=0)


def test_sample_class_batch_uniform(rng):
    """One row drawn with each of 10,000 seeds (in one ``sample_class_batches``
    call, which the first seeds show ``sample_class_batch`` agrees with) falls
    on each of the class's rows equally often, within 3 sigma."""
    pool = make_pool(rng, 20, 4, 2)  # 5 samples of class 0
    members = [i for i, k in enumerate(pool.y.tolist()) if k == 0]
    draws = 10_000
    counts = {m: 0 for m in members}
    picks = sample_class_batches(pool, [0] * draws, 1, range(draws))
    assert [sample_class_batch(pool, 0, 1, seed).tolist() for seed in range(20)] == [
        p.tolist() for p in picks[:20]
    ]
    for (picked,) in picks:
        counts[picked] += 1
    p = 1.0 / len(members)
    sigma = np.sqrt(draws * p * (1 - p))
    for m in members:
        assert abs(counts[m] - draws * p) < 3.0 * sigma


def _numpy_draw(pool, k, batch_size, seed):
    """The per-seed draw of numpy's own generator."""
    members = pool.members[k]
    n = min(batch_size, len(members))
    return members[np.random.default_rng(seed).choice(len(members), n, replace=False)].tolist()


_SEEDS = st.one_of(st.integers(0, 2**32 - 1), st.integers(0, 2**63 - 1))


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 60), min_size=1, max_size=6),
    lanes=st.lists(st.tuples(st.integers(0, 5), _SEEDS), min_size=1, max_size=40),
    batch_size=st.integers(1, 60),
    order_seed=st.integers(0, 2**16),
)
@example(sizes=[1, 60], lanes=[(0, 0), (1, 0), (1, 1), (0, 2**32 - 1)], batch_size=60,
         order_seed=0)
@example(sizes=[7], lanes=[(0, 2**63 - 1), (0, 2**32)], batch_size=7, order_seed=1)
def test_sample_class_batches_are_numpy_per_seed_draws(sizes, lanes, batch_size, order_seed):
    """Every (class, seed) pick of ``sample_class_batches`` is the class's rows
    at ``np.random.default_rng(seed).choice(m, min(batch_size, m),
    replace=False)``, for classes of 1 to 60 rows spread over a shuffled pool,
    batches from one row to the whole class, and seeds from 0 through 2**63."""
    y = np.random.default_rng(order_seed).permutation(np.repeat(np.arange(len(sizes)), sizes))
    pool = Pool(np.zeros((len(y), 1)), y, list(range(len(y))))
    classes = [k % len(sizes) for k, _ in lanes]
    seeds = [seed for _, seed in lanes]
    picks = sample_class_batches(pool, classes, batch_size, seeds)
    assert [p.tolist() for p in picks] == [
        _numpy_draw(pool, k, batch_size, seed) for k, seed in zip(classes, seeds)
    ]
    assert all(p.dtype == np.intp for p in picks)
    from_array = sample_class_batches(pool, classes, batch_size, np.array(seeds))
    assert [p.tolist() for p in from_array] == [p.tolist() for p in picks]


def test_sample_class_batches_of_large_classes_are_numpy_draws():
    """Large classes take both of numpy's branches: Floyd's selection up to
    n = m // 50 (and for any n at m = 10000) and a tail shuffle of ``arange(m)``
    beyond it when m > 10000, e.g. m = 20000 with n = 401."""
    y = np.repeat(np.arange(3), [20_000, 10_000, 10_001])
    pool = Pool(np.zeros((len(y), 1)), y, list(range(len(y))))
    classes, seeds = [0, 1, 2, 0, 2, 1], [3, 2**40 + 7, 0, 2**63 - 1, 11, 5]
    for batch_size in (1, 200, 400, 401):
        picks = sample_class_batches(pool, classes, batch_size, seeds)
        assert [p.tolist() for p in picks] == [
            _numpy_draw(pool, k, batch_size, seed) for k, seed in zip(classes, seeds)
        ]


def test_choice_positions_flag_the_lanes_that_reject():
    """At m = 2**31 + 1 Lemire's method rejects about half of all 32-bit
    values, so many lanes are flagged; every other lane gives numpy's positions
    (all seeds, including 2**64 - 1)."""
    seeds = np.array([0, 1, 2**32, 2**63 + 9, 2**64 - 1] + list(range(7, 22)), dtype=np.uint64)
    m = np.full(len(seeds), 2**31 + 1)
    n = np.arange(len(seeds)) % 5 + 1
    got, rejected = _choice_positions(seeds, m, n)
    assert 0 < rejected.sum() < len(seeds)
    for row, seed, k in zip(got[~rejected], seeds[~rejected].tolist(), n[~rejected].tolist()):
        expected = np.random.default_rng(seed).choice(2**31 + 1, k, replace=False)
        assert row[:k].tolist() == expected.tolist()


def test_sample_class_batches_give_rejecting_seeds_numpy_draws():
    """A 200-row draw from 10,000 rows rejects a value with seeds 385, 1244 and
    9436 (385 and 1244 are the only such seeds up to 1244), so their vectorized
    positions are not numpy's; their picks, like the others', are the class's
    rows at numpy's own draw."""
    rejecting = [385, 1244, 9436]
    lanes = np.arange(1245, dtype=np.uint64)
    positions, rejected = _choice_positions(lanes, np.full(1245, 10_000), np.full(1245, 200))
    assert np.flatnonzero(rejected).tolist() == rejecting[:2]
    numpy_385 = np.random.default_rng(385).choice(10_000, 200, replace=False)
    assert positions[385].tolist() != numpy_385.tolist()
    y = np.random.default_rng(0).permutation(np.repeat([0, 1], [10_000, 30]))
    pool = Pool(np.zeros((len(y), 1)), y, list(range(len(y))))
    seeds = rejecting + [0, 386, 2**40 + 3]
    picks = sample_class_batches(pool, [0] * len(seeds), 200, seeds)
    for picked, seed in zip(picks, seeds):
        expected = np.random.default_rng(seed).choice(10_000, 200, replace=False)
        assert picked.tolist() == pool.members[0][expected].tolist()


_BAD_CLASS_IDS = [True, False, 1.0, np.float64(1.0), np.bool_(True)]
_BAD_SEEDS = [True, np.bool_(False), 1.0, np.float64(3.0), -1, 2**64, 2**70, "1", None]
_BAD_BATCH_SIZES = [2.5, 2.0, True, np.float64(3.0), np.bool_(True)]


@pytest.mark.parametrize("entry", ["one", "many"])
@pytest.mark.parametrize(
    "class_id, seed, batch_size, message",
    [(k, 0, 2, f"class id must be an int, got {k!r}") for k in _BAD_CLASS_IDS]
    + [(1, s, 2, f"seed must be an int in [0, 2**64), got {s!r}") for s in _BAD_SEEDS]
    + [(1, 0, b, f"batch_size must be an int, got {b!r}") for b in _BAD_BATCH_SIZES],
)
def test_samplers_refuse_non_int_class_ids_and_seeds(
    rng, entry, class_id, seed, batch_size, message
):
    """A float or bool class id is never read as the class it equals, a seed
    must be an int in [0, 2**64), and a float or bool batch size is not read
    as a row count; each is refused in one line naming it."""
    pool = make_pool(rng, 6, 2, 2)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        if entry == "one":
            sample_class_batch(pool, class_id, batch_size, seed)
        else:
            sample_class_batches(pool, [0, class_id], batch_size, [5, seed])


def test_sample_class_batches_refuse_a_negative_seed_array_and_unpaired_seeds(rng):
    pool = make_pool(rng, 6, 2, 2)
    with pytest.raises(ValueError, match=r"^seed must be an int in \[0, 2\*\*64\), got -3$"):
        sample_class_batches(pool, [0, 1], 2, np.array([4, -3]))
    with pytest.raises(ValueError, match="^2 class ids but 1 seeds$"):
        sample_class_batches(pool, [0, 1], 2, [4])
    assert sample_class_batches(pool, [], 2, []) == []


def test_pool_arrays_follow_sample_order(rng):
    """A Pool's arrays hold its rows in order, as its records list them:
    ``pool[i]`` is row i and ``take`` picks rows, to the byte."""
    pool = make_pool(rng, 9, 3, 4)
    assert pool.X.dtype == np.float64 and pool.X.shape == (9, 4)
    assert pool.y.dtype == np.int64
    recs = records(pool)
    assert [r.class_id for r in recs] == [i % 3 for i in range(9)]
    assert [r.sample_id for r in recs] == list(range(9))
    _assert_same_rows(rows(recs), pool)
    assert Pool.of(pool) is pool
    _assert_same_rows(pool[3], rows(recs[3:4]))
    _assert_same_rows(pool[-1], rows(recs[8:]))
    _assert_same_rows(pool.take(range(2, 4)), rows(recs[2:4]))
    assert not hasattr(pool, "__iter__")
    with pytest.raises(IndexError):
        pool[9]


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(1, 30),
    num_classes=st.integers(1, 5),
    picks=st.lists(st.integers(0, 2**16), max_size=40),
    seed=st.integers(0, 2**16),
)
@example(n=4, num_classes=2, picks=[], seed=0)
@example(n=4, num_classes=2, picks=[1, 5, 5, 2, 1], seed=0)
def test_take_equals_a_pool_of_the_picked_samples(n, num_classes, picks, seed):
    """``pool.take(idx)`` slices the stage pool's arrays, also for empty and
    repeated ``idx``: it is the rows of the picked records, to the byte, except
    that an empty take keeps ``X`` two-dimensional.  ``members[k]`` lists class
    k's row indices in order, for the pool and for the take."""
    pool = make_pool(np.random.default_rng(seed), n, num_classes, 3)
    recs = records(pool)
    idx = [p % n for p in picks]
    picked = [recs[i] for i in idx]
    part, built = pool.take(np.array(idx, dtype=np.int64)), rows(picked)
    assert part.X.tobytes() == built.X.tobytes() and part.X.dtype == np.float64
    assert part.y.tobytes() == built.y.tobytes() and part.y.dtype == np.int64
    assert part.ids == built.ids and all(type(i) is int for i in part.ids)
    assert len(part) == len(idx) and part.X.shape == (len(idx), 3)
    assert "members" not in vars(part)  # built on first read
    for pool_rows, held in ((pool, recs), (part, picked), (built, picked)):
        classes = sorted({r.class_id for r in held})
        assert sorted(pool_rows.members) == classes
        for k in classes:
            assert pool_rows.members[k].tolist() == [
                i for i, r in enumerate(held) if r.class_id == k
            ]


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(1, 30),
    num_classes=st.integers(1, 5),
    picks=st.lists(st.integers(0, 2**16), max_size=40),
    seed=st.integers(0, 2**16),
)
@example(n=4, num_classes=2, picks=[], seed=0)
@example(n=4, num_classes=2, picks=[3, 3, 0], seed=0)
def test_joined_rows_equal_a_take(n, num_classes, picks, seed):
    """``Pool.of`` a list of one-row Pools, the one join left (gcl's batch entry,
    which the benchmark's pool sweep uses), gives the rows of ``take``: the same
    ``X`` bytes, ``y`` and ``ids``."""
    pool = make_pool(np.random.default_rng(seed), n, num_classes, 3)
    idx = [p % n for p in picks]
    joined, part = Pool.of([pool[i] for i in idx]), pool.take(idx)
    assert joined.X.tobytes() == part.X.tobytes() and joined.X.dtype == np.float64
    assert joined.y.tolist() == part.y.tolist() and joined.ids == part.ids
    assert len(joined) == len(idx)


def test_concat_of_no_rows_is_empty(rng):
    """``Pool.concat`` of nothing, or of parts with no rows of any width, is an
    empty Pool; joined with rows it adds none."""
    pool = make_pool(rng, 5, 2, 3)
    for parts in ([], [pool.take([])], [Pool.concat([]), pool.take([])]):
        empty = Pool.concat(parts)
        assert len(empty) == 0 and empty.ids == [] and empty.members == {}
        _assert_same_rows(Pool.concat([empty, pool, empty]), pool)
    _assert_same_rows(Pool.of([]), Pool.concat([]))


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(1, 30),
    num_classes=st.integers(1, 5),
    batch_size=st.integers(1, 6),
    seed=st.integers(0, 2**16),
)
def test_flattened_class_batches_equal_a_pool_of_their_samples(n, num_classes, batch_size, seed):
    """gdro's anchor rows, joined from per-class draws of the stage pool, take
    the rows of the picked records, to the byte, and count each class's rows."""
    rng = np.random.default_rng(seed)
    pool = make_pool(rng, n, num_classes, 3)
    recs = records(pool)
    classes = [int(k) for k in rng.permutation(min(n, num_classes))]
    batches = {k: sample_class_batch(pool, k, batch_size, seed + k) for k in classes}
    flat, sizes = _anchor_rows(classes, batches, pool)
    assert sizes == [len(batches[k]) for k in classes]
    _assert_same_rows(pool.take(flat), rows([recs[i] for k in classes for i in batches[k]]))


@pytest.mark.parametrize(
    "capacity, rng_seed, message",
    [(c, 0, "capacity must be >= 0") for c in (-1, -20, np.int64(-3))]
    + [(c, 0, f"capacity must be an int, got {c!r}")
       for c in (float("nan"), float("inf"), 2.5, 4.0, True, np.bool_(True), "4")]
    + [(4, s, f"rng_seed must be an int, got {s!r}") for s in (True, 1.0, float("nan"), None)],
)
def test_buffer_refuses_a_negative_capacity(capacity, rng_seed, message):
    """A negative capacity, and a capacity or rng_seed that is a float (NaN and
    inf would keep every row), a bool or not a number, is refused in one line."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        MemoryBuffer(capacity=capacity, rng_seed=rng_seed)


def test_buffer_takes_numpy_ints(rng):
    buf = MemoryBuffer(capacity=np.int64(4), rng_seed=np.uint32(7))
    buf.rebalance_after_task(make_pool(rng, 12, 2, 2))
    assert buf.class_counts() == {0: 2, 1: 2}
