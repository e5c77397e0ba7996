import re
import resource
import struct
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cclearn.data import (
    Dataset,
    Pool,
    Task,
    TaskStream,
    gen_domain_shift,
    gen_synthetic,
    load,
    save,
    split_cil,
    split_dil,
)
from cclearn.buffer import MemoryBuffer, sample_class_batch
from cclearn.errors import DatasetFormatError
from cclearn.gcl import GclEstimatorState
from cclearn.gdro import GdroConfig
from cclearn.model import EncoderConfig
from cclearn.optim import init_optimizer
from cclearn.runner import merge_tasks

from oracles import dataset_records, rows, split_cil_samples, split_dil_samples


def test_gen_deterministic():
    a = gen_synthetic(5, 10, 8, separation=3.0, noise=0.5, seed=4)
    b = gen_synthetic(5, 10, 8, separation=3.0, noise=0.5, seed=4)
    assert len(a.y) == len(b.y) == 50
    assert a.X.dtype == np.float32 and a.X.tobytes() == b.X.tobytes()
    assert a.y.tolist() == b.y.tolist() and a.ids.tolist() == b.ids.tolist()


def test_gen_zero_noise_collapses_to_means():
    ds = gen_synthetic(4, 6, 8, separation=3.0, noise=0.0, seed=1)
    for k in range(4):
        xs = ds.X[ds.y == k]
        assert np.all(xs == xs[0])


def _nearest_mean_accuracy(X, y, means):
    """Share of rows whose nearest of ``means`` (one row per class) is their class."""
    d = np.linalg.norm(X[:, None, :] - means[None, :, :], axis=-1)
    return float(np.mean(np.argmin(d, axis=1) == y))


def test_gen_separation_dominates_noise_nearest_mean_is_perfect():
    ds = gen_synthetic(6, 20, 10, separation=8.0, noise=0.3, seed=2)
    means = np.stack([ds.X[ds.y == k].mean(axis=0) for k in range(6)])
    assert _nearest_mean_accuracy(ds.X, ds.y, means) == 1.0


def test_gen_validates_arguments():
    with pytest.raises(ValueError):
        gen_synthetic(0, 5, 4, 1.0, 0.1, 0)
    with pytest.raises(ValueError):
        gen_synthetic(3, 5, 4, -1.0, 0.1, 0)


def test_domain_shift_zero_magnitude_is_identity():
    base = gen_synthetic(3, 5, 6, 3.0, 0.4, seed=3)
    for kind in ("rotation", "scaling", "mean-offset"):
        shifted = gen_domain_shift(base, 3, kind, magnitude=0.0, seed=7)
        assert len(shifted.y) == 3 * len(base.y)
        assert shifted.has_domains
        assert shifted.ids.tolist() == list(range(len(shifted.y)))
        for d in range(3):
            block = shifted.domain_ids == d
            assert np.allclose(shifted.X[block], base.X, atol=1e-6)
            assert shifted.y[block].tolist() == base.y.tolist()


def test_domain_shift_rotation_preserves_pairwise_distances():
    base = gen_synthetic(3, 8, 6, 3.0, 0.4, seed=5)
    shifted = gen_domain_shift(base, 2, "rotation", magnitude=1.0, seed=9)
    x0, x1 = shifted.X[shifted.domain_ids == 0], shifted.X[shifted.domain_ids == 1]
    d0 = np.linalg.norm(x0[:, None] - x0[None, :], axis=-1)
    d1 = np.linalg.norm(x1[:, None] - x1[None, :], axis=-1)
    assert np.abs(d0 - d1).max() < 1e-4
    assert np.abs(x0 - x1).max() > 0.1  # actually rotated


def test_domain_shift_mean_offset_degrades_cross_domain_nearest_mean():
    base = gen_synthetic(4, 25, 8, 5.0, 0.4, seed=6)
    shifted = gen_domain_shift(base, 2, "mean-offset", magnitude=12.0, seed=11)
    d0, d1 = shifted.domain_ids == 0, shifted.domain_ids == 1
    means = np.stack([shifted.X[d0 & (shifted.y == k)].mean(axis=0) for k in range(4)])
    assert _nearest_mean_accuracy(shifted.X[d0], shifted.y[d0], means) > _nearest_mean_accuracy(
        shifted.X[d1], shifted.y[d1], means
    )


def test_domain_shift_unknown_kind():
    base = gen_synthetic(2, 3, 4, 2.0, 0.1, seed=0)
    with pytest.raises(ValueError):
        gen_domain_shift(base, 2, "shear", 1.0, seed=0)


def test_split_cil_partitions_classes():
    ds = gen_synthetic(10, 12, 6, 3.0, 0.4, seed=8)
    stream = split_cil(ds, num_tasks=5, test_fraction=0.25, seed=1)
    assert stream.num_tasks == 5
    all_classes: set[int] = set()
    for task in stream.tasks:
        assert len(task.classes) == 2
        assert not (all_classes & task.classes)
        all_classes |= task.classes
    assert all_classes == set(range(10))


def test_split_cil_stratified_counts():
    ds = gen_synthetic(4, 50, 6, 3.0, 0.4, seed=9)
    stream = split_cil(ds, num_tasks=2, test_fraction=0.2, seed=2)
    for task in stream.tasks:
        for k in task.classes:
            n_test = int(np.sum(task.test.y == k))
            n_train = int(np.sum(task.train.y == k))
            assert n_test == 10
            assert n_train == 40


def test_split_cil_hundred_classes_ten_tasks():
    ds = gen_synthetic(100, 4, 4, 3.0, 0.3, seed=30)
    stream = split_cil(ds, num_tasks=10, test_fraction=0.25, seed=31)
    assert stream.num_tasks == 10
    union: set[int] = set()
    for task in stream.tasks:
        assert len(task.classes) == 10
        assert not (union & task.classes)
        union |= task.classes
    assert union == set(range(100))


def test_split_cil_rejects_non_divisible():
    ds = gen_synthetic(10, 5, 4, 3.0, 0.4, seed=0)
    with pytest.raises(ValueError):
        split_cil(ds, num_tasks=3, test_fraction=0.2, seed=0)


def test_split_dil_basic():
    base = gen_synthetic(4, 10, 6, 3.0, 0.4, seed=10)
    shifted = gen_domain_shift(base, 3, "rotation", 0.5, seed=12)
    stream = split_dil(shifted, domain_order=[2, 0, 1], test_fraction=0.2, seed=3)
    assert stream.num_tasks == 3
    # gen_domain_shift numbers the ids domain by domain, n per domain
    n = len(base.y)
    assert [{i // n for i in t.train.ids + t.test.ids} for t in stream.tasks] == [{2}, {0}, {1}]
    for task in stream.tasks:
        assert task.classes == frozenset(range(4))
        assert len(task.train) + len(task.test) == len(base.y)


def test_split_dil_requires_domains():
    ds = gen_synthetic(3, 5, 4, 2.0, 0.2, seed=0)
    with pytest.raises(ValueError):
        split_dil(ds, domain_order=[0])


@pytest.mark.parametrize("mode", ["cil", "dil"])
def test_splits_refuse_more_classes_than_samples(mode):
    """The declared class count sizes a split's per-class allocations (8,000,000
    classes took 6.8 s and 1.1 GB), so a split refuses a count above the sample
    count first; 32 MB of headroom turns any such allocation into a MemoryError."""
    ds = gen_synthetic(4, 5, 3, 3.0, 0.4, seed=0)
    if mode == "dil":
        ds = gen_domain_shift(ds, 2, "rotation", 0.5, seed=1)
    ds.num_classes = 8_000_000
    with pytest.raises(ValueError, match="declares 8000000 classes"):
        with _address_space_headroom(32 * 2**20):
            if mode == "cil":
                split_cil(ds, 2, 0.2, 1)
            else:
                split_dil(ds, [0, 1], 0.2, 1)


def test_splits_and_merge_hold_the_datasets_own_samples():
    """Every dataset row sits in exactly one task, train or test, with its own
    input bytes, id and class; ``merge_tasks`` keeps the stream's order."""
    base = gen_synthetic(4, 10, 6, 3.0, 0.4, seed=20)
    shifted = gen_domain_shift(base, 2, "rotation", 0.5, seed=21)
    for ds, stream in (
        (base, split_cil(base, num_tasks=2, test_fraction=0.25, seed=22)),
        (shifted, split_dil(shifted, domain_order=[1, 0], test_fraction=0.25, seed=23)),
    ):
        parts = [p for t in stream.tasks for p in (t.train, t.test)]
        row_of = {i: r for r, i in enumerate(ds.ids.tolist())}
        rows = [row_of[i] for p in parts for i in p.ids]
        assert sorted(rows) == list(range(len(ds.y)))
        held = Pool.concat(parts)
        assert held.X.tobytes() == ds.X[rows].astype(np.float64).tobytes()
        assert held.y.tolist() == ds.y[rows].tolist()
        merged = merge_tasks(stream).tasks[0]
        for got, part in ((merged.train, "train"), (merged.test, "test")):
            want = Pool.concat([getattr(t, part) for t in stream.tasks])
            assert got.ids == want.ids and got.y.tolist() == want.y.tolist()
            assert got.X.tobytes() == want.X.tobytes()


def _shuffled(ds, seed):
    """``ds`` with its rows in a seeded random order."""
    perm = np.random.default_rng(seed).permutation(len(ds.y))
    domains = None if ds.domain_ids is None else ds.domain_ids[perm]
    return Dataset(ds.X[perm], ds.y[perm], ds.num_classes, ds.ids[perm], ds.task_ids[perm], domains)


@settings(max_examples=40, deadline=None)
@given(
    per_task=st.integers(1, 3),
    num_tasks=st.integers(1, 4),
    per_class=st.integers(3, 9),
    num_domains=st.integers(2, 4),
    test_fraction=st.floats(0.2, 0.8),
    seed=st.integers(0, 2**16),
)
def test_splits_match_the_per_sample_oracles(
    per_task, num_tasks, per_class, num_domains, test_fraction, seed
):
    """Index-array splits select the rows the per-sample splits gather, in the
    same order and with the same RNG draws, from datasets in random row order."""
    num_classes = per_task * num_tasks
    base = _shuffled(gen_synthetic(num_classes, per_class, 3, 3.0, 0.4, seed), seed + 1)
    shifted = _shuffled(gen_domain_shift(base, num_domains, "rotation", 0.5, seed), seed + 2)
    order = [int(d) for d in np.random.default_rng(seed).permutation(num_domains)]
    for stream, want in (
        (
            split_cil(base, num_tasks, test_fraction, seed),
            split_cil_samples(dataset_records(base), num_classes, num_tasks, test_fraction, seed),
        ),
        (
            split_dil(shifted, order, test_fraction, seed),
            split_dil_samples(dataset_records(shifted), num_classes, order, test_fraction, seed),
        ),
    ):
        assert len(stream.tasks) == len(want)
        for task, (train, test, classes) in zip(stream.tasks, want):
            assert task.classes == classes
            for got, samples in ((task.train, train), (task.test, test)):
                expected = rows(samples)
                assert got.ids == expected.ids and got.y.tolist() == expected.y.tolist()
                assert got.X.tobytes() == expected.X.tobytes()


@settings(max_examples=30, deadline=None)
@given(
    num_classes=st.integers(1, 5),
    per_class=st.integers(1, 6),
    num_domains=st.sampled_from([0, 2, 3]),
    seed=st.integers(0, 2**16),
)
def test_dataset_samples_are_its_rows(num_classes, per_class, num_domains, seed):
    """``Dataset.samples`` is every row of the dataset as one Pool, in row order:
    float64 inputs, int64 classes and the dataset's sample ids, also for a
    shuffled domain-shifted dataset whose ids are not 0..n-1."""
    ds = gen_synthetic(num_classes, per_class, 3, 3.0, 0.4, seed)
    if num_domains:
        ds = _shuffled(gen_domain_shift(ds, num_domains, "rotation", 0.5, seed), seed + 1)
    pool = ds.samples
    assert isinstance(pool, Pool) and len(pool) == len(ds.y)
    assert pool.X.dtype == np.float64 and pool.X.tobytes() == ds.X.astype(np.float64).tobytes()
    assert pool.y.dtype == np.int64 and pool.y.tolist() == ds.y.tolist()
    assert pool.ids == ds.ids.tolist() and all(type(i) is int for i in pool.ids)


@pytest.mark.parametrize("part", ["train", "test"])
def test_stream_rejects_rows_outside_the_task_classes(part):
    """A class-incremental task whose training or test rows hold another task's
    class is refused with one line naming the row's sample id and class."""
    t0, t1 = split_cil(gen_synthetic(4, 6, 3, 3.0, 0.4, seed=0), 2, 0.25, seed=1).tasks
    k = min(t1.classes)
    stray = t1.train.take(np.flatnonzero(t1.train.y == k)[:1])
    rows = {"train": t0.train, "test": t0.test}
    rows[part] = Pool.concat([rows[part], stray])
    name = {"train": "training", "test": "test"}[part]
    with pytest.raises(ValueError, match=f"^{name} sample {stray.ids[0]} has class {k} outside") as info:
        TaskStream("cil", [Task(rows["train"], rows["test"], t0.classes), t1])
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("where", ["another task", "the same task"])
def test_stream_refuses_a_training_id_two_rows_share(where):
    """The estimators key on sample ids, so a stream in which two training rows
    share an id, of two tasks or of one, is refused in one line naming the id:
    otherwise the second row would train on the first one's estimates."""
    t0, t1 = split_cil(gen_synthetic(4, 12, 6, 4.0, 0.5, 0), 2, 0.25, 1).tasks
    shared = (t0 if where == "another task" else t1).train.ids[0]
    t1.train.ids[-1] = shared
    with pytest.raises(ValueError, match=f"^training sample id {shared} is held by two rows$"):
        TaskStream("cil", [t0, t1])


def test_save_load_round_trip(tmp_path):
    base = gen_synthetic(4, 8, 5, 3.0, 0.4, seed=13)
    ds = gen_domain_shift(base, 2, "scaling", 0.7, seed=14)
    path = tmp_path / "ds.clds"
    save(ds, path)
    back = load(path)
    assert back.num_classes == ds.num_classes
    assert back.input_dim == ds.input_dim
    assert back.has_domains == ds.has_domains
    assert back.X.tobytes() == ds.X.tobytes()
    for column in ("y", "ids", "task_ids", "domain_ids"):
        assert getattr(back, column).tolist() == getattr(ds, column).tolist(), column
    # byte-identical re-serialization
    path2 = tmp_path / "ds2.clds"
    save(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.clds"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(DatasetFormatError):
        load(path)


def test_load_rejects_truncated(tmp_path):
    ds = gen_synthetic(3, 5, 4, 2.0, 0.2, seed=15)
    path = tmp_path / "ds.clds"
    save(ds, path)
    blob = path.read_bytes()
    for cut in (8, len(blob) // 2, len(blob) - 3):
        trunc = tmp_path / "trunc.clds"
        trunc.write_bytes(blob[:cut])
        with pytest.raises(DatasetFormatError):
            load(trunc)


def test_load_rejects_version_mismatch(tmp_path):
    ds = gen_synthetic(3, 5, 4, 2.0, 0.2, seed=16)
    path = tmp_path / "ds.clds"
    save(ds, path)
    blob = bytearray(path.read_bytes())
    blob[4] = 99  # little-endian version field
    bad = tmp_path / "vers.clds"
    bad.write_bytes(bytes(blob))
    with pytest.raises(DatasetFormatError):
        load(bad)


def test_load_rejects_trailing_garbage(tmp_path):
    ds = gen_synthetic(2, 3, 4, 2.0, 0.2, seed=17)
    path = tmp_path / "ds.clds"
    save(ds, path)
    path.write_bytes(path.read_bytes() + b"x")
    with pytest.raises(DatasetFormatError):
        load(path)


@contextmanager
def _address_space_headroom(extra_bytes):
    """Cap this process's address space at its current size plus ``extra_bytes``.

    An oversized allocation then fails at once with MemoryError instead of
    paging through swap.  Without /proc (not Linux) the cap is skipped.
    """
    try:
        with open("/proc/self/statm") as fh:
            current = int(fh.read().split()[0]) * resource.getpagesize()
    except OSError:
        yield
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = current + extra_bytes
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


_HEADER = struct.Struct("<IIIII")  # version, n, dim, classes, flags
_U32 = st.integers(0, 2**32 - 1)


def test_load_corrupt_header_raises_only_format_error(tmp_path):
    path = tmp_path / "ds.clds"
    save(gen_synthetic(3, 4, 5, 2.0, 0.2, seed=19), path)
    blob = path.read_bytes()

    @settings(max_examples=300, deadline=None, database=None)
    @given(fields=st.lists(st.tuples(st.integers(0, 4), _U32), min_size=1, max_size=3))
    @example(fields=[(1, 2**31)])
    @example(fields=[(2, 2**30)])
    @example(fields=[(1, 2**32 - 1), (2, 2**32 - 1)])
    def corrupt_and_load(fields):
        header = list(_HEADER.unpack_from(blob, 4))
        for index, value in fields:
            header[index] = value
        path.write_bytes(blob[:4] + _HEADER.pack(*header) + blob[4 + _HEADER.size :])
        try:
            load(path)
        except DatasetFormatError:
            pass

    with _address_space_headroom(256 * 2**20):
        corrupt_and_load()


# hand-built id columns, in file order: flag bit, Dataset column, dtype, values
_COLUMNS = (
    (2, "ids", "<u8", [7, 3, 2**40]),
    (4, "task_ids", "<i4", [2, -1, 0]),
    (1, "domain_ids", "<u4", [1, 0, 3]),
)
_DEFAULTS = {"ids": [0, 1, 2], "task_ids": [-1, -1, -1], "domain_ids": None}


def _hand_built(flags):
    X = np.arange(6, dtype="<f4").reshape(3, 2)
    body = X.tobytes() + np.array([0, 2, 1], dtype="<u4").tobytes()
    for bit, _, dtype, values in _COLUMNS:
        if flags & bit:
            body += np.array(values, dtype=dtype).tobytes()
    return b"CLDS" + _HEADER.pack(1, 3, 2, 3, flags) + body


@pytest.mark.parametrize("flags", range(8))
def test_load_reads_present_id_columns_and_defaults_absent_ones(tmp_path, flags):
    path = tmp_path / "ds.clds"
    path.write_bytes(_hand_built(flags))
    ds = load(path)
    assert ds.has_domains == bool(flags & 1)
    assert np.array_equal(ds.X, np.arange(6).reshape(3, 2))
    assert ds.y.tolist() == [0, 2, 1]
    for bit, name, _, values in _COLUMNS:
        expected = values if flags & bit else _DEFAULTS[name]
        column = getattr(ds, name)
        assert (None if column is None else column.tolist()) == expected, name


@pytest.mark.parametrize("flags", [8, 8 | 6, 2**31 | 7, 2**32 - 1])
def test_load_rejects_undefined_flag_bits(tmp_path, flags):
    """A flag bit that names no id column is refused, even where the payload
    size still matches the columns the defined bits declare."""
    ds = gen_synthetic(4, 5, 3, 3.0, 0.4, seed=0)
    path = tmp_path / "ds.clds"
    save(ds, path)
    blob = bytearray(path.read_bytes())
    assert _HEADER.unpack_from(blob, 4)[4] == 6  # sample and task ids
    blob[20:24] = struct.pack("<I", flags)
    path.write_bytes(bytes(blob))
    with pytest.raises(DatasetFormatError, match=f"^unknown flag bits {flags & ~7:#x} in flags"):
        load(path)


@pytest.mark.parametrize("flag", [1, 2, 4])
def test_load_rejects_truncated_id_column(tmp_path, flag):
    path = tmp_path / "ds.clds"
    path.write_bytes(_hand_built(flag)[:-1])
    with pytest.raises(DatasetFormatError):
        load(path)


def _task(classes):
    """A task of one train and one test row of its smallest class."""
    row = Pool(np.zeros((1, 2)), np.array([min(classes)]), [min(classes)])
    return Task(train=row, test=row, classes=frozenset(classes))


def _two_domains():
    return gen_domain_shift(gen_synthetic(4, 5, 3, 4.0, 0.5, 0), 2, "rotation", 1.0, 0)


@pytest.mark.parametrize("call, message", [
    (lambda: TaskStream(mode="til", tasks=[_task({0, 1})]), "unknown stream mode 'til'"),
    (lambda: TaskStream(mode="cil", tasks=[_task({0, 1}), _task({1, 2})]),
     "class-incremental tasks must have disjoint class sets"),
    (lambda: gen_domain_shift(gen_synthetic(4, 5, 3, 4.0, 0.5, 0), 1, "rotation", 1.0, 0),
     "num_domains must be >= 2"),
    (lambda: split_dil(_two_domains(), [0, 0]),
     r"domain_order \[0, 0\] is not a permutation of \[0, 1\]"),
    (lambda: split_dil(_two_domains(), [1, 0, 2]),
     r"domain_order \[1, 0, 2\] is not a permutation of \[0, 1\]"),
], ids=["unknown-mode", "cil-overlap", "one-domain", "dil-repeat", "dil-extra"])
def test_streams_and_domains_refuse_hostile_input(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("seed, error, message", [
    (None, TypeError, "seed must be an integer, got None"),
    (True, TypeError, "seed must be an integer, got True"),
    (1.0, TypeError, "seed must be an integer, got 1.0"),
    (-1, ValueError, "seed must be >= 0, got -1"),
], ids=["none", "true", "float", "negative"])
@pytest.mark.parametrize(
    "function", ["gen_synthetic", "gen_domain_shift", "split_cil", "split_dil"]
)
def test_data_functions_refuse_a_seed_that_is_not_a_non_negative_int(
    monkeypatch, function, seed, error, message
):
    """None would draw OS entropy, so two calls would give different data; numpy
    would read True as seed 1 and refuse a float or a negative seed in words
    that name no argument.  Each is refused in one line naming the seed, before
    any generator is made."""
    base, shifted = gen_synthetic(4, 5, 3, 4.0, 0.5, 0), _two_domains()
    call = {
        "gen_synthetic": lambda: gen_synthetic(4, 5, 3, 4.0, 0.5, seed),
        "gen_domain_shift": lambda: gen_domain_shift(base, 2, "rotation", 1.0, seed),
        "split_cil": lambda: split_cil(base, 2, 0.25, seed),
        "split_dil": lambda: split_dil(shifted, [0, 1], 0.25, seed),
    }[function]
    monkeypatch.setattr(np.random, "default_rng", lambda *args: pytest.fail("drew"))
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


_SCALAR_CALLS = {
    "gen_synthetic": lambda v: gen_synthetic(*v, 4.0, 0.5, 0),
    "gen_domain_shift": lambda v: gen_domain_shift(gen_synthetic(2, 3, 2, 4.0, 0.5, 0), v,
                                                   "rotation", 1.0, 0),
    "EncoderConfig": lambda v: EncoderConfig(**v, seed=0),
    "EncoderConfig seed": lambda v: EncoderConfig(3, 4, 0, 2, v),
    "GdroConfig": lambda v: GdroConfig(0.5, 0.9, 0.1, 0.1, *v),
    "GdroConfig lam": lambda v: GdroConfig(v, 0.9, 0.1, 0.1, 2, 2),
    "GclEstimatorState": lambda v: GclEstimatorState(gamma=v),
    "MemoryBuffer": lambda v: MemoryBuffer(*v),
    "sample_class_batch": lambda v: sample_class_batch(
        Pool(np.zeros((4, 2)), np.array([0, 0, 1, 1]), [0, 1, 2, 3]), *v),
    "init_optimizer": lambda v: init_optimizer(3, v, 0.9),
    "init_optimizer n_params": lambda v: init_optimizer(v, 0.1, 0.9),
    "init_optimizer beta1": lambda v: init_optimizer(3, 0.1, v),
}
_SHAPES = dict(input_dim=3, num_classes_max=4, hidden_dim=0, embed_dim=2)
_NEGATIVE_SHAPE = "num_classes, per_class and input_dim must be positive"
_NEGATIVE_BATCH = "batch_classes and batch_per_class must be positive"
_INTEGER = "{} must be an integer, got {!r}"
_REAL = "{} must be a real number, got {!r}"


@pytest.mark.parametrize("function, value, error, message", [
    ("gen_synthetic", (2.5, 3, 2), TypeError, _INTEGER.format("num_classes", 2.5)),
    ("gen_synthetic", (2, True, 2), TypeError, _INTEGER.format("per_class", True)),
    ("gen_synthetic", (2, 3, 2.0), TypeError, _INTEGER.format("input_dim", 2.0)),
    ("gen_synthetic", (2, -1, 2), ValueError, _NEGATIVE_SHAPE),
    ("gen_domain_shift", 2.5, TypeError, _INTEGER.format("num_domains", 2.5)),
    ("gen_domain_shift", True, TypeError, _INTEGER.format("num_domains", True)),
    ("gen_domain_shift", -2, ValueError, "num_domains must be >= 2"),
    ("EncoderConfig", {**_SHAPES, "hidden_dim": True}, TypeError,
     _INTEGER.format("hidden_dim", True)),
    ("EncoderConfig", {**_SHAPES, "input_dim": 2.5}, TypeError,
     _INTEGER.format("input_dim", 2.5)),
    ("EncoderConfig", {**_SHAPES, "embed_dim": float("nan")}, TypeError,
     _INTEGER.format("embed_dim", float("nan"))),
    ("EncoderConfig", {**_SHAPES, "hidden_dim": -1}, ValueError,
     "hidden_dim must be >= 0, got -1"),
    ("GdroConfig", (2.5, 4), TypeError, _INTEGER.format("batch_classes", 2.5)),
    ("GdroConfig", (2, False), TypeError, _INTEGER.format("batch_per_class", False)),
    ("GdroConfig", (-2, 4), ValueError, _NEGATIVE_BATCH),
    ("MemoryBuffer", (3, -1), ValueError, "rng_seed must be >= 0"),
    ("MemoryBuffer", (3, 1.0), TypeError, _INTEGER.format("rng_seed", 1.0)),
    ("MemoryBuffer", (2.5, 0), TypeError, _INTEGER.format("capacity", 2.5)),
    ("MemoryBuffer", (3, None), TypeError, _INTEGER.format("rng_seed", None)),
    ("MemoryBuffer", (-3, 0), ValueError, "capacity must be >= 0"),
    ("sample_class_batch", (0, 2.5, 0), TypeError, _INTEGER.format("batch_size", 2.5)),
    ("sample_class_batch", (1.0, 2, 0), TypeError, _INTEGER.format("class id", 1.0)),
    ("sample_class_batch", (0, 2, 1.5), TypeError, _INTEGER.format("seed", 1.5)),
    ("sample_class_batch", (0, 0, 0), ValueError, "batch_size must be >= 1, got 0"),
    ("sample_class_batch", (2, 2, 0), ValueError, "class 2 not present in pool"),
    ("sample_class_batch", (0, 2, -1), ValueError, "seed must be >= 0, got -1"),
    ("init_optimizer", float("inf"), ValueError, "eta must be finite and > 0, got inf"),
    ("init_optimizer", float("nan"), ValueError, "eta must be finite and > 0, got nan"),
    ("init_optimizer", -0.5, ValueError, "eta must be finite and > 0, got -0.5"),
    ("EncoderConfig seed", None, TypeError, _INTEGER.format("seed", None)),
    ("init_optimizer n_params", 2.5, TypeError, _INTEGER.format("n_params", 2.5)),
    ("init_optimizer n_params", -1, ValueError, "n_params must be >= 0, got -1"),
    ("init_optimizer", True, TypeError, _REAL.format("eta", True)),
    ("init_optimizer beta1", True, TypeError, _REAL.format("beta1", True)),
    ("GdroConfig lam", True, TypeError, _REAL.format("lam", True)),
    ("GclEstimatorState", "0.5", TypeError, _REAL.format("gamma", "0.5")),
    ("GclEstimatorState", True, TypeError, _REAL.format("gamma", True)),
])
def test_scalar_arguments_are_refused_in_one_line_naming_them(function, value, error, message):
    """A float or bool where an integer belongs, a bool or string where a real
    number belongs, an infinite or NaN step size and a negative value are each
    refused in one line naming the argument, before numpy or a comparison reads
    them: it would truncate a float or bool, fail later in words that name no
    argument, or accept them outright."""
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        _SCALAR_CALLS[function](value)


@pytest.mark.parametrize("function, value", [
    ("gen_synthetic", (np.int64(2), np.int32(3), np.uint8(2))),
    ("gen_domain_shift", np.int64(2)),
    ("EncoderConfig", {name: np.int64(v) for name, v in _SHAPES.items()}),
    ("GdroConfig", (np.int64(2), np.uint16(4))),
    ("MemoryBuffer", (np.int64(4), np.uint32(7))),
    ("sample_class_batch", (np.int64(1), np.uint8(2), np.uint64(2**64 - 1))),
    ("init_optimizer", np.float64(0.1)),
    ("EncoderConfig seed", np.uint64(2**64 - 1)),
    ("GdroConfig lam", np.float32(0.5)),
    ("GclEstimatorState", np.float64(0.5)),
    ("init_optimizer n_params", np.int64(3)),
    ("init_optimizer beta1", np.float32(0.9)),
])
def test_scalar_arguments_take_numpy_numbers(function, value):
    _SCALAR_CALLS[function](value)


@pytest.mark.parametrize("X, y, ids, lengths", [
    (np.zeros((3, 2)), np.array([0, 1]), [1, 2, 3], "X 3, y 2, ids 3"),
    (np.zeros((2, 2)), np.array([0, 1]), [1, 2, 3], "X 2, y 2, ids 3"),
    (np.zeros((1, 2)), np.array([0, 1]), [1, 2], "X 1, y 2, ids 2"),
])
def test_pool_refuses_columns_of_different_lengths(X, y, ids, lengths):
    """A ragged Pool would count rows that ``class_index`` does not cover."""
    with pytest.raises(ValueError, match=f"^Pool columns differ in length: {lengths}$"):
        Pool(X, y, ids)


@settings(max_examples=60, deadline=None)
@given(y=st.lists(st.integers(-3, 9), min_size=1, max_size=40))
def test_class_mask_rows_mark_the_class_members(y):
    """Row k of ``class_mask`` marks exactly the rows of the k-th distinct class
    of ``class_index``, which gdro masks as each anchor's same-class pairs."""
    pool = Pool(np.zeros((len(y), 2)), np.array(y, dtype=np.int64), list(range(len(y))))
    classes = pool.class_index[0]
    mask = pool.class_mask
    assert mask.dtype == bool and mask.shape == (len(classes), len(y))
    for k, row in zip(classes.tolist(), mask):
        assert np.flatnonzero(row).tolist() == np.flatnonzero(pool.y == k).tolist()
