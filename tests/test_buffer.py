import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cclearn.buffer import MemoryBuffer, sample_class_batch
from cclearn.data import Pool, Sample
from cclearn.gdro import _flatten_batches

from conftest import make_pool
from oracles import SampleBuffer


def _task(rng, classes, per_class, id_offset):
    samples = []
    sid = id_offset
    for c in classes:
        for _ in range(per_class):
            samples.append(Sample(x=rng.standard_normal(2), class_id=c, sample_id=sid))
            sid += 1
    return samples


def _assert_rows(pool, samples):
    """``pool`` holds the rows of ``samples``, in order, to the byte."""
    assert pool.ids == [s.sample_id for s in samples] and len(pool) == len(samples)
    assert pool.y.tolist() == [s.class_id for s in samples]
    assert pool.X.tobytes() == np.array([s.x for s in samples], dtype=np.float64).tobytes()


def _assert_same_rows(a, b):
    """Two Pools hold the same rows, in order, to the byte."""
    assert a.ids == b.ids
    assert a.y.tolist() == b.y.tolist()
    assert a.X.tobytes() == b.X.tobytes()


def _stored_ids(buf, k):
    return {buf.stored.ids[i] for i in buf.stored.members.get(k, [])}


def test_even_division_rebalance(rng):
    buf = MemoryBuffer(capacity=100, rng_seed=0)
    buf = buf.rebalance_after_task(_task(rng, range(10), 20, 0))
    assert buf.class_counts() == {c: 10 for c in range(10)}
    buf = buf.rebalance_after_task(_task(rng, range(10, 20), 20, 1000))
    assert buf.class_counts() == {c: 5 for c in range(20)}


def test_rebalance_updates_the_buffer_in_place(rng):
    buf = MemoryBuffer(capacity=6, rng_seed=5)
    assert buf.rebalance_after_task(_task(rng, [0, 1], 4, 0)) is buf
    assert buf.rebalance_after_task(_task(rng, [2], 4, 100)) is buf
    assert buf.class_counts() == {0: 2, 1: 2, 2: 2}


def test_remainder_goes_to_lowest_class_ids(rng):
    buf = MemoryBuffer(capacity=10, rng_seed=1)
    buf = buf.rebalance_after_task(_task(rng, [5, 2, 9], 8, 0))
    assert buf.class_counts() == {2: 4, 5: 3, 9: 3}


def test_zero_capacity_stays_empty(rng):
    buf = MemoryBuffer(capacity=0, rng_seed=2)
    buf = buf.rebalance_after_task(_task(rng, [0, 1], 5, 0))
    assert len(buf) == 0
    assert len(buf.union_view([])) == 0


def test_union_view_identities(rng):
    task = _task(rng, [0, 1], 3, 0)
    empty = MemoryBuffer(capacity=10, rng_seed=0)
    _assert_rows(empty.union_view(task), task)
    buf = empty.rebalance_after_task(task)
    stored = sorted(task, key=lambda s: s.class_id)  # everything fits; classes ascending
    for view in (buf.union_view([]), buf.union_view([])):  # every call gives the same rows
        _assert_rows(view, stored)
    new_task = _task(rng, [2], 4, 100)
    union = buf.union_view(new_task)
    _assert_rows(union, stored + new_task)
    assert len(set(union.ids)) == len(union) == len(buf) + len(new_task)


def test_union_view_orders_buffer_classes_ascending(rng):
    buf = MemoryBuffer(capacity=6, rng_seed=3)
    buf = buf.rebalance_after_task(_task(rng, [4, 1, 7], 2, 0))
    classes = buf.union_view([]).y.tolist()
    assert classes == sorted(classes)


def test_dil_repeat_classes_merge_before_downsampling(rng):
    buf = MemoryBuffer(capacity=4, rng_seed=4)
    first = _task(rng, [0, 1], 4, 0)
    buf = buf.rebalance_after_task(first)
    second = _task(rng, [0, 1], 4, 100)
    buf = buf.rebalance_after_task(second)
    assert buf.class_counts() == {0: 2, 1: 2}
    stored = set(buf.union_view([]).ids)
    source = {s.sample_id for s in first} | {s.sample_id for s in second}
    assert stored <= source


def test_rebalance_deterministic_per_seed(rng):
    tasks = [_task(rng, range(t * 3, t * 3 + 3), 7, t * 100) for t in range(4)]

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
            task = _task(master, classes, per_class, next_id)
            next_id += n_cls * per_class
            prev_counts = buf.class_counts()
            available = dict(prev_counts)
            source_ids = {k: _stored_ids(buf, k) for k in prev_counts}
            for c in classes:
                available[c] = available.get(c, 0) + per_class
            for s in task:
                source_ids.setdefault(s.class_id, set()).add(s.sample_id)
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
                if k in prev_counts and k not in {s.class_id for s in task}:
                    assert counts.get(k, 0) <= prev_counts[k]
            stored = buf.union_view([]).ids
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
        task = [
            Sample(x=rng.standard_normal(2), class_id=k, sample_id=next_id + i)
            for i, k in enumerate(classes)
        ]
        next_id += len(task)
        _assert_same_rows(buf.union_view(Pool.of(task)), oracle.union_view(task))
        buf.rebalance_after_task(Pool.of(task))
        oracle.rebalance_after_task(task)
        assert buf.class_counts() == {k: n for k, n in oracle.class_counts().items() if n}
        _assert_same_rows(buf.union_view([]), oracle.union_view([]))
        assert len(buf) == sum(oracle.class_counts().values())


def test_sample_class_batch_exhaustive_and_deterministic(rng):
    pool = make_pool(rng, 12, 3, 2)
    batch = sample_class_batch(pool, 1, batch_size=100, seed=5)
    assert sorted(batch.ids) == [s.sample_id for s in pool if s.class_id == 1]
    assert set(batch.y.tolist()) == {1}
    b1 = sample_class_batch(pool, 0, 2, seed=42)
    b2 = sample_class_batch(pool, 0, 2, seed=42)
    assert b1.ids == b2.ids and b1.X.tobytes() == b2.X.tobytes()


def test_sample_class_batch_missing_class(rng):
    pool = make_pool(rng, 6, 2, 2)
    with pytest.raises(ValueError):
        sample_class_batch(pool, 17, 1, seed=0)


def test_sample_class_batch_uniform(rng):
    pool = make_pool(rng, 20, 4, 2)  # 5 samples of class 0
    members = [s.sample_id for s in pool if s.class_id == 0]
    draws = 10_000
    counts = {m: 0 for m in members}
    for seed in range(draws):
        (picked,) = sample_class_batch(pool, 0, 1, seed=seed).ids
        counts[picked] += 1
    p = 1.0 / len(members)
    sigma = np.sqrt(draws * p * (1 - p))
    for m in members:
        assert abs(counts[m] - draws * p) < 3.0 * sigma


@settings(max_examples=50, deadline=None)
@given(
    class_ids=st.lists(st.integers(0, 5), min_size=1, max_size=40),
    batch_size=st.integers(1, 10),
    seed=st.integers(0, 2**63 - 1),
)
def test_sample_class_batch_same_on_pool_and_list(class_ids, batch_size, seed):
    samples = [
        Sample(x=np.full(2, float(i)), class_id=k, sample_id=i) for i, k in enumerate(class_ids)
    ]
    pool = Pool.of(samples)
    _assert_rows(pool, samples)
    for k in sorted(set(class_ids)):
        from_pool = sample_class_batch(pool, k, batch_size, seed)
        from_list = sample_class_batch(samples, k, batch_size, seed)
        _assert_rows(from_pool, [samples[i] for i in from_list.ids])  # sample i has id i
        assert pool.members[k].tolist() == [i for i, s in enumerate(samples) if s.class_id == k]


def test_pool_arrays_follow_sample_order(rng):
    samples = make_pool(rng, 9, 3, 4)
    pool = Pool.of(iter(samples))
    assert pool.X.dtype == np.float64 and pool.X.shape == (9, 4)
    assert pool.y.dtype == np.int64
    _assert_rows(pool, samples)
    assert Pool.of(pool) is pool
    _assert_rows(pool.take([3]), samples[3:4])
    _assert_rows(pool.take(range(2, 4)), samples[2:4])
    assert not hasattr(pool, "__getitem__") and not hasattr(pool, "__iter__")


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
    repeated ``idx``: it is ``Pool.of`` the picked samples, to the byte, except
    that an empty take keeps ``X`` two-dimensional.  ``members[k]`` lists class
    k's row indices in order, for the pool and for the take."""
    samples = make_pool(np.random.default_rng(seed), n, num_classes, 3)
    pool = Pool.of(samples)
    idx = [p % n for p in picks]
    part, built = pool.take(np.array(idx, dtype=np.int64)), Pool.of([samples[i] for i in idx])
    assert part.X.tobytes() == built.X.tobytes() and part.X.dtype == np.float64
    assert part.y.tobytes() == built.y.tobytes() and part.y.dtype == np.int64
    assert part.ids == built.ids and all(type(i) is int for i in part.ids)
    assert len(part) == len(idx) and part.X.shape == (len(idx), 3)
    assert "members" not in vars(part)  # built on first read
    picked_samples = [samples[i] for i in idx]
    for rows, picked in ((pool, samples), (part, picked_samples), (built, picked_samples)):
        classes = sorted({s.class_id for s in picked})
        assert sorted(rows.members) == classes
        for k in classes:
            assert rows.members[k].tolist() == [
                r for r, s in enumerate(picked) if s.class_id == k
            ]


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(1, 30),
    num_classes=st.integers(1, 5),
    batch_size=st.integers(1, 6),
    seed=st.integers(0, 2**16),
)
def test_flattened_class_batches_equal_a_pool_of_their_samples(n, num_classes, batch_size, seed):
    """gdro's anchor set, joined from per-class takes of the stage pool, is
    ``Pool.of`` the concatenated samples, to the byte."""
    rng = np.random.default_rng(seed)
    samples = make_pool(rng, n, num_classes, 3)
    pool = Pool.of(samples)
    classes = [int(k) for k in rng.permutation(min(n, num_classes))]
    batches = {k: sample_class_batch(pool, k, batch_size, seed + k) for k in classes}
    flat = _flatten_batches(classes, batches)
    _assert_rows(flat, [samples[i] for k in classes for i in batches[k].ids])  # sample i has id i
