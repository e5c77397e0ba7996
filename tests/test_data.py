import resource
import struct
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cclearn.data import (
    gen_domain_shift,
    gen_synthetic,
    load,
    save,
    split_cil,
    split_dil,
)
from cclearn.errors import DatasetFormatError
from cclearn.runner import merge_tasks


def test_gen_deterministic():
    a = gen_synthetic(5, 10, 8, separation=3.0, noise=0.5, seed=4)
    b = gen_synthetic(5, 10, 8, separation=3.0, noise=0.5, seed=4)
    assert len(a.samples) == len(b.samples) == 50
    for sa, sb in zip(a.samples, b.samples):
        assert np.array_equal(sa.x, sb.x)
        assert (sa.class_id, sa.sample_id) == (sb.class_id, sb.sample_id)


def test_gen_zero_noise_collapses_to_means():
    ds = gen_synthetic(4, 6, 8, separation=3.0, noise=0.0, seed=1)
    for k in range(4):
        xs = np.stack([s.x for s in ds.samples if s.class_id == k])
        assert np.all(xs == xs[0])


def test_gen_separation_dominates_noise_nearest_mean_is_perfect():
    ds = gen_synthetic(6, 20, 10, separation=8.0, noise=0.3, seed=2)
    means = {
        k: np.stack([s.x for s in ds.samples if s.class_id == k]).mean(axis=0)
        for k in range(6)
    }
    correct = sum(
        1
        for s in ds.samples
        if min(means, key=lambda k: np.linalg.norm(s.x - means[k])) == s.class_id
    )
    assert correct == len(ds.samples)


def test_gen_validates_arguments():
    with pytest.raises(ValueError):
        gen_synthetic(0, 5, 4, 1.0, 0.1, 0)
    with pytest.raises(ValueError):
        gen_synthetic(3, 5, 4, -1.0, 0.1, 0)


def test_domain_shift_zero_magnitude_is_identity():
    base = gen_synthetic(3, 5, 6, 3.0, 0.4, seed=3)
    for kind in ("rotation", "scaling", "mean-offset"):
        shifted = gen_domain_shift(base, 3, kind, magnitude=0.0, seed=7)
        assert len(shifted.samples) == 3 * len(base.samples)
        assert shifted.has_domains
        for d in range(3):
            block = [s for s in shifted.samples if s.domain_id == d]
            for s, b in zip(block, base.samples):
                assert np.allclose(s.x, b.x, atol=1e-6)
                assert s.class_id == b.class_id


def test_domain_shift_rotation_preserves_pairwise_distances():
    base = gen_synthetic(3, 8, 6, 3.0, 0.4, seed=5)
    shifted = gen_domain_shift(base, 2, "rotation", magnitude=1.0, seed=9)
    x0 = np.stack([s.x for s in shifted.samples if s.domain_id == 0])
    x1 = np.stack([s.x for s in shifted.samples if s.domain_id == 1])
    d0 = np.linalg.norm(x0[:, None] - x0[None, :], axis=-1)
    d1 = np.linalg.norm(x1[:, None] - x1[None, :], axis=-1)
    assert np.abs(d0 - d1).max() < 1e-4
    assert np.abs(x0 - x1).max() > 0.1  # actually rotated


def test_domain_shift_mean_offset_degrades_cross_domain_nearest_mean():
    base = gen_synthetic(4, 25, 8, 5.0, 0.4, seed=6)
    shifted = gen_domain_shift(base, 2, "mean-offset", magnitude=12.0, seed=11)
    d0 = [s for s in shifted.samples if s.domain_id == 0]
    d1 = [s for s in shifted.samples if s.domain_id == 1]
    means = {
        k: np.stack([s.x for s in d0 if s.class_id == k]).mean(axis=0) for k in range(4)
    }

    def acc(samples):
        hits = sum(
            1
            for s in samples
            if min(means, key=lambda k: np.linalg.norm(s.x - means[k])) == s.class_id
        )
        return hits / len(samples)

    assert acc(d0) > acc(d1)


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
            n_test = sum(1 for s in task.test if s.class_id == k)
            n_train = sum(1 for s in task.train if s.class_id == k)
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
    assert [t.domain_id for t in stream.tasks] == [2, 0, 1]
    for task in stream.tasks:
        assert task.classes == frozenset(range(4))
        assert len(task.train) + len(task.test) == len(base.samples)


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
    base = gen_synthetic(4, 10, 6, 3.0, 0.4, seed=20)
    shifted = gen_domain_shift(base, 2, "rotation", 0.5, seed=21)
    for ds, stream in (
        (base, split_cil(base, num_tasks=2, test_fraction=0.25, seed=22)),
        (shifted, split_dil(shifted, domain_order=[1, 0], test_fraction=0.25, seed=23)),
    ):
        own = {id(s): s for s in ds.samples}
        held = [s for t in stream.tasks for s in t.train + t.test]
        assert len(held) == len(own)
        assert all(own.get(id(s)) is s for s in held)
        merged = merge_tasks(stream).tasks[0]
        streamed = [s for t in stream.tasks for s in t.train] + [s for t in stream.tasks for s in t.test]
        assert [id(s) for s in merged.train + merged.test] == [id(s) for s in streamed]


def test_save_load_round_trip(tmp_path):
    base = gen_synthetic(4, 8, 5, 3.0, 0.4, seed=13)
    ds = gen_domain_shift(base, 2, "scaling", 0.7, seed=14)
    path = tmp_path / "ds.clds"
    save(ds, path)
    back = load(path)
    assert back.num_classes == ds.num_classes
    assert back.input_dim == ds.input_dim
    assert back.has_domains == ds.has_domains
    assert len(back.samples) == len(ds.samples)
    for a, b in zip(ds.samples, back.samples):
        assert np.array_equal(a.x, b.x)
        assert (a.class_id, a.sample_id, a.task_id, a.domain_id) == (
            b.class_id, b.sample_id, b.task_id, b.domain_id,
        )
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


# hand-built id columns, in file order: flag bit, Sample field, dtype, values
_COLUMNS = (
    (2, "sample_id", "<u8", [7, 3, 2**40]),
    (4, "task_id", "<i4", [2, -1, 0]),
    (1, "domain_id", "<u4", [1, 0, 3]),
)
_DEFAULTS = {"sample_id": [0, 1, 2], "task_id": [-1, -1, -1], "domain_id": [0, 0, 0]}


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
    assert np.array_equal(np.stack([s.x for s in ds.samples]), np.arange(6).reshape(3, 2))
    assert [s.class_id for s in ds.samples] == [0, 2, 1]
    for bit, name, _, values in _COLUMNS:
        expected = values if flags & bit else _DEFAULTS[name]
        assert [getattr(s, name) for s in ds.samples] == expected, name


@pytest.mark.parametrize("flag", [1, 2, 4])
def test_load_rejects_truncated_id_column(tmp_path, flag):
    path = tmp_path / "ds.clds"
    path.write_bytes(_hand_built(flag)[:-1])
    with pytest.raises(DatasetFormatError):
        load(path)
