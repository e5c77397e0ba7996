"""Synthetic datasets, task splitting, dataset file I/O, and the rows that
every layer trains on.

Data generation is a desk-scale stand-in for image benchmarks: class means sit
on a sphere (radius = ``separation``) with a rejection step enforcing minimum
pairwise distance, and samples are means plus Gaussian noise.  Inputs are
stored as float32 so files round-trip bit-exactly.

Data travels as rows from file to training step: a ``Dataset`` holds columns,
generation, ``save`` and ``load`` work on whole columns, splits select index
arrays, and a task's train and test sets are ``Pool``s, the float64 rows the
encoders read.  A ``Pool`` is the one row type: a caller with rows of its own
builds a Pool from arrays, and every function that takes rows takes a Pool.

File format (``.clds``, little-endian binary):

    magic   4 bytes  b"CLDS"
    version u32      currently 1
    n       u32      number of samples
    dim     u32      input dimension
    classes u32      number of classes
    flags   u32      one bit per optional id column
    X       float32[n * dim]   row-major inputs
    y       u32[n]             class ids
    ids                        each id column whose flag is set, in ``_ID_COLUMNS`` order

``save`` always writes sample and task ids, so a loaded dataset keeps the
sample identities it was saved with.  ``load`` checks the payload size the
header implies against the file size before reading any payload, and rejects
a flag bit that names no id column, ``dim == 0``, non-finite inputs, class
ids ``>= classes`` and duplicate sample ids.
"""

from __future__ import annotations

import math
import numbers
import os
import struct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DatasetFormatError

_MAGIC = b"CLDS"
_VERSION = 1
# The optional id columns in file order: Dataset column, flag bit, dtype.  An
# absent column reads as ids 0..n-1, task ids -1 or no domains.
_ID_COLUMNS = (
    ("ids", 2, "<u8"),
    ("task_ids", 4, "<i4"),
    ("domain_ids", 1, "<u4"),
)


class Pool:
    """Rows for the encoders: ``X`` (N, d) float64 inputs, ``y`` (N,) int64
    class ids and ``ids`` the sample ids as Python ints (the estimators' keys).

    ``members[k]`` holds class k's row indices in pool order,
    ``class_index`` the distinct classes with each row's position among them
    and each class's first row and row count, and ``class_mask`` each class's
    rows as a bool row; all three are built on first read.
    A Pool is the package's one row type: every function that takes rows takes
    a Pool.  It refuses ``X``, ``y`` and ``ids`` of different lengths.
    """

    def __init__(self, X, y, ids):
        if not len(X) == len(y) == len(ids):
            lengths = f"X {len(X)}, y {len(y)}, ids {len(ids)}"
            raise ValueError(f"Pool columns differ in length: {lengths}")
        self.X, self.y, self.ids = X, y, ids

    @classmethod
    def of(cls, rows) -> "Pool":
        """``rows`` if it is a Pool, else the Pools in ``rows`` joined by ``concat``."""
        return rows if isinstance(rows, cls) else cls.concat(rows)

    @classmethod
    def concat(cls, parts) -> "Pool":
        """The rows of ``parts`` (Pools), one after another.  Parts with no rows
        are skipped, whatever their width; with none left the Pool is empty."""
        parts = [p for p in parts if len(p)]
        if not parts:
            return cls(np.empty((0, 0)), np.empty(0, dtype=np.int64), [])
        return cls(
            np.concatenate([p.X for p in parts]),
            np.concatenate([p.y for p in parts]),
            [i for p in parts for i in p.ids],
        )

    def take(self, idx) -> "Pool":
        """Rows ``idx``, in that order; ``X`` stays (n, d) when ``idx`` is empty."""
        idx = np.asarray(idx, dtype=np.intp)
        return Pool(self.X[idx], self.y[idx], [self.ids[i] for i in idx.tolist()])

    def __getitem__(self, i) -> "Pool":
        """Row ``i`` as a one-row Pool."""
        return self.take([i])

    @cached_property
    def members(self) -> dict[int, np.ndarray]:
        order = np.argsort(self.y, kind="stable")
        classes, starts = np.unique(self.y[order], return_index=True)
        return dict(zip(classes.tolist(), np.split(order, starts[1:])))

    @cached_property
    def class_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The distinct class ids, ascending, each row's position among them
        (``classes[index]`` is ``y``), and each class's first row and row count."""
        classes, first, index, counts = np.unique(
            self.y, return_index=True, return_inverse=True, return_counts=True
        )
        return classes, index, first, counts

    @cached_property
    def class_mask(self) -> np.ndarray:
        """(K, N) bools: row k marks the rows of the k-th of the distinct classes
        of ``class_index``."""
        classes, index = self.class_index[:2]
        return np.arange(len(classes))[:, None] == index

    def __len__(self):
        return len(self.ids)


@dataclass
class Dataset:
    """n samples as columns: ``X`` (n, dim) float32 inputs, ``y`` class ids,
    ``ids`` sample ids (0..n-1 if not given), ``task_ids`` the file's task
    column (-1 if not given) and ``domain_ids``, None without domains."""

    X: np.ndarray
    y: np.ndarray
    num_classes: int
    ids: np.ndarray | None = None
    task_ids: np.ndarray | None = None
    domain_ids: np.ndarray | None = None

    def __post_init__(self):
        n = len(self.y)
        self.ids = np.arange(n) if self.ids is None else self.ids
        self.task_ids = np.full(n, -1) if self.task_ids is None else self.task_ids

    @property
    def input_dim(self) -> int:
        return self.X.shape[1]

    @property
    def has_domains(self) -> bool:
        return self.domain_ids is not None

    @property
    def samples(self) -> Pool:
        """All rows as one Pool, built on each read (``perfbench/sweep.py`` reads it)."""
        return _rows(self, np.arange(len(self.y)))


def _rows(ds: Dataset, idx) -> Pool:
    """The dataset's rows ``idx`` as a Pool."""
    return Pool(ds.X[idx].astype(np.float64), ds.y[idx].astype(np.int64), ds.ids[idx].tolist())


def _first_repeat(items):
    """The first item equal to an earlier one, or None."""
    seen = set()
    return next((item for item in items if item in seen or seen.add(item)), None)


@dataclass
class Task:
    """One stage of a task stream: train and test rows, and the class set."""

    train: Pool
    test: Pool
    classes: frozenset[int]


@dataclass
class TaskStream:
    mode: str  # "cil" | "dil"
    tasks: list[Task] = field(default_factory=list)

    def __post_init__(self):
        if self.mode not in ("cil", "dil"):
            raise ValueError(f"unknown stream mode {self.mode!r}")
        distinct = self.classes_up_to(self.num_tasks)
        if self.mode == "cil" and sum(len(t.classes) for t in self.tasks) > len(distinct):
            raise ValueError("class-incremental tasks must have disjoint class sets")
        for i, t in enumerate(self.tasks):
            for part, rows in (("training", t.train), ("test", t.test)):
                if not len(rows):
                    raise ValueError(f"task {i} gets no {part} samples")
                outside = ~np.isin(rows.y, list(t.classes))
                if outside.any():
                    r = int(np.argmax(outside))
                    raise ValueError(f"{part} sample {rows.ids[r]} has class {rows.y[r]} "
                                     "outside its task's class set")
        # the estimators key on sample ids, so two training rows that share one
        # would share its estimates
        ids = [i for t in self.tasks for i in t.train.ids]
        if len(set(ids)) < len(ids):
            raise ValueError(f"training sample id {_first_repeat(ids)} is held by two rows")

    @property
    def num_tasks(self):
        return len(self.tasks)

    def classes_up_to(self, t: int) -> set[int]:
        """Union of class sets of tasks 0..t inclusive."""
        return set().union(*(task.classes for task in self.tasks[: t + 1]))


# ------------------------------------------------------------------ generation


def _as_float32(X, cause):
    """``X`` as float32; ValueError, naming the ``cause``, where a value overflows it."""
    if not np.abs(X).max(initial=0.0) <= np.finfo(np.float32).max:  # NaN fails too
        raise ValueError(f"generated inputs overflow float32; lower {cause}")
    return X.astype(np.float32)


def _class_means(num_classes, dim, separation, rng):
    """Means on a sphere of radius ``separation``; rejection keeps them apart.

    Candidates closer than 0.9 * separation to an accepted mean are rejected;
    after 500 attempts the best (max-min-distance) candidate is accepted so
    generation always terminates.
    """
    means = np.zeros((num_classes, dim))
    min_dist = 0.9 * separation
    for k in range(num_classes):
        best = None
        best_d = -1.0
        for _ in range(500):
            v = rng.standard_normal(dim)
            v *= separation / np.linalg.norm(v)
            d = np.inf if k == 0 else np.min(np.linalg.norm(means[:k] - v, axis=1))
            if d >= min_dist:
                best = v
                break
            if d > best_d:
                best, best_d = v, d
        means[k] = best
    return means


@np.errstate(over="ignore", invalid="ignore")  # _as_float32 refuses inf and NaN
def gen_synthetic(num_classes, per_class, input_dim, separation, noise, seed) -> Dataset:
    """Gaussian blobs around well-separated class means; deterministic per seed."""
    _check_ints(num_classes=num_classes, per_class=per_class, input_dim=input_dim, seed=seed)
    if num_classes < 1 or per_class < 1 or input_dim < 1:
        raise ValueError("num_classes, per_class and input_dim must be positive")
    if not 0 < separation < math.inf:
        raise ValueError(f"separation must be finite and > 0, got {separation}")
    if not math.isfinite(noise):
        raise ValueError(f"noise must be finite, got {noise}")
    rng = np.random.default_rng(seed)
    means = _class_means(num_classes, input_dim, separation, rng)
    n = num_classes * per_class
    y = np.repeat(np.arange(num_classes), per_class)
    X = noise * rng.standard_normal((n, input_dim))
    X += means[y]
    return Dataset(_as_float32(X, "separation or noise"), y, num_classes)


def _domain_transform(shift_kind, magnitude, dim, rng):
    """Returns a function ndarray (n, dim) -> (n, dim); identity at magnitude 0."""
    if shift_kind == "rotation":
        # compose plane rotations over a random pairing of axes: orthogonal,
        # hence distance-preserving, and continuous in magnitude
        perm = rng.permutation(dim)
        angles = magnitude * rng.uniform(-np.pi, np.pi, dim // 2)
        rot = np.eye(dim)
        for p, theta in enumerate(angles):
            a, b = perm[2 * p], perm[2 * p + 1]
            plane = np.eye(dim)
            plane[a, a] = plane[b, b] = np.cos(theta)
            plane[a, b] = -np.sin(theta)
            plane[b, a] = np.sin(theta)
            rot = plane @ rot
        return lambda X: X @ rot.T
    if shift_kind == "scaling":
        factor = 1.0 + magnitude * rng.uniform(0.1, 1.0)
        return lambda X: X * factor
    if shift_kind == "mean-offset":
        direction = rng.standard_normal(dim)
        direction /= np.linalg.norm(direction)
        offset = magnitude * direction
        return lambda X: X + offset
    raise ValueError(f"unknown shift_kind {shift_kind!r}")


@np.errstate(over="ignore", invalid="ignore")  # _as_float32 refuses inf and NaN
def gen_domain_shift(base: Dataset, num_domains, shift_kind, magnitude, seed) -> Dataset:
    """Replicate ``base`` across domains, transforming inputs per domain.

    Domain 0 is the untouched base; domains 1..num_domains-1 get independent
    seeded transforms.  Class labels are preserved; sample ids are renumbered
    0..num_domains*n-1, domain by domain.
    """
    _check_ints(num_domains=num_domains, seed=seed)
    if num_domains < 2:
        raise ValueError("num_domains must be >= 2")
    if not math.isfinite(magnitude):
        raise ValueError(f"magnitude must be finite, got {magnitude}")
    rng = np.random.default_rng(seed)
    n, dim = base.X.shape
    # the whole output first: a domain count no memory holds fails before any draw
    X = np.empty((num_domains * n, dim), dtype=np.float32)
    X[:n] = base.X
    X64 = base.X.astype(np.float64)
    for d in range(1, num_domains):
        transform = _domain_transform(shift_kind, magnitude, dim, rng)
        X[d * n : (d + 1) * n] = _as_float32(transform(X64), "magnitude")
    domain_ids = np.repeat(np.arange(num_domains), n)
    return Dataset(X, np.tile(base.y, num_domains), base.num_classes, domain_ids=domain_ids)


# ------------------------------------------------------------------- splitting


def _stratified_split(y, rows, test_fraction, rng):
    """Per-class shuffle of the dataset rows ``rows``, first round(n * fraction)
    to test.  Returns (train, test) row indices, class-ascending."""
    by_class = rows[np.argsort(y[rows], kind="stable")]
    starts = np.unique(y[by_class], return_index=True)[1].tolist()
    is_test = np.zeros(len(rows), dtype=bool)
    for start, size in zip(starts, np.diff([*starts, len(rows)]).tolist()):
        is_test[start + rng.permutation(size)[: int(round(size * test_fraction))]] = True
    return by_class[~is_test], by_class[is_test]


def _is_int(value) -> bool:
    """An int or numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_ints(**ints):
    """Refuses a value of ``ints`` that is not an integer (``True`` too) and a
    negative ``seed``, naming it: numpy would draw OS entropy for a seed of
    None, read ``True`` as 1 and refuse a negative one naming no argument."""
    for name, value in ints.items():
        if not _is_int(value):
            raise TypeError(f"{name} must be an integer, got {value!r}")
    if ints.get("seed", 0) < 0:
        raise ValueError(f"seed must be >= 0, got {ints['seed']}")


def _check_split_args(ds, test_fraction, **ints):
    """Refuse a test_fraction outside (0, 1), an ``ints`` value ``_check_ints``
    refuses and a dataset that declares more classes than it holds samples.

    Splits allocate per declared class and the trainer sizes its label tower by
    the count, so a header's ``classes`` is checked before either happens.
    """
    if ds.num_classes > len(ds.y):
        raise ValueError(
            f"dataset declares {ds.num_classes} classes but holds {len(ds.y)} samples"
        )
    _check_ints(**ints)
    if not isinstance(test_fraction, numbers.Real) or not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction!r}")


def split_cil(ds: Dataset, num_tasks, test_fraction, seed) -> TaskStream:
    """Class-incremental split: disjoint contiguous class blocks, seeded shuffle."""
    _check_split_args(ds, test_fraction, num_tasks=num_tasks, seed=seed)
    if num_tasks < 1:
        raise ValueError(f"num_tasks must be >= 1, got {num_tasks}")
    if ds.num_classes % num_tasks != 0:
        raise ValueError(
            f"num_classes={ds.num_classes} is not divisible by num_tasks={num_tasks}"
        )
    rng = np.random.default_rng(seed)
    order = rng.permutation(ds.num_classes)
    per_task = ds.num_classes // num_tasks
    tasks = []
    for t in range(num_tasks):
        block = order[t * per_task : (t + 1) * per_task]
        rows = np.flatnonzero(np.isin(ds.y, block))
        train, test = _stratified_split(ds.y, rows, test_fraction, rng)
        tasks.append(Task(_rows(ds, train), _rows(ds, test), frozenset(block.tolist())))
    return TaskStream(mode="cil", tasks=tasks)


def split_dil(ds: Dataset, domain_order, test_fraction=0.2, seed=0) -> TaskStream:
    """Domain-incremental split: one task per domain, identical class set each."""
    if not ds.has_domains:
        raise ValueError("dataset has no domain labels; use gen_domain_shift first")
    if not domain_order:
        raise ValueError("domain_order must name at least one domain")
    _check_split_args(
        ds, test_fraction, seed=seed,
        **{f"domain_order[{i}]": d for i, d in enumerate(domain_order)},
    )
    rng = np.random.default_rng(seed)
    domains_present = np.unique(ds.domain_ids).tolist()
    if sorted(domain_order) != domains_present:
        raise ValueError(
            f"domain_order {list(domain_order)} is not a permutation of {domains_present}"
        )
    all_classes = frozenset(range(ds.num_classes))
    tasks = []
    for d in domain_order:
        rows = np.flatnonzero(ds.domain_ids == d)
        train, test = _stratified_split(ds.y, rows, test_fraction, rng)
        tasks.append(Task(_rows(ds, train), _rows(ds, test), all_classes))
    return TaskStream(mode="dil", tasks=tasks)


# ------------------------------------------------------------------------- I/O


def save(ds: Dataset, path) -> None:
    """Write the binary dataset format described in the module docstring."""
    n, dim = ds.X.shape
    columns = [c for c in _ID_COLUMNS if getattr(ds, c[0]) is not None]
    flags = sum(bit for _, bit, _ in columns)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IIIII", _VERSION, n, dim, ds.num_classes, flags))
        fh.write(np.asarray(ds.X, dtype="<f4").tobytes())
        fh.write(np.asarray(ds.y, dtype="<u4").tobytes())
        for name, _, dtype in columns:
            fh.write(np.asarray(getattr(ds, name), dtype=dtype).tobytes())


def _read_exact(fh, count, what):
    buf = fh.read(count)
    if len(buf) != count:
        raise DatasetFormatError(f"truncated dataset file while reading {what}")
    return buf


def load(path) -> Dataset:
    """Read a ``.clds`` file; raises DatasetFormatError on any malformation."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise DatasetFormatError(f"bad magic {magic!r}; not a CLDS dataset file")
        header = _read_exact(fh, 20, "header")
        version, n, dim, num_classes, flags = struct.unpack("<IIIII", header)
        if version != _VERSION:
            raise DatasetFormatError(
                f"unsupported dataset version {version} (supported: {_VERSION})"
            )
        if dim == 0:
            raise DatasetFormatError("input dimension is 0")
        unknown = flags & ~sum(bit for _, bit, _ in _ID_COLUMNS)
        if unknown:
            raise DatasetFormatError(f"unknown flag bits {unknown:#x} in flags {flags:#x}")
        columns = [(name, np.dtype(dtype)) for name, bit, dtype in _ID_COLUMNS if flags & bit]
        # per-sample bytes: inputs, class id, then the id columns the flags declare
        row_bytes = 4 * dim + 4 + sum(dtype.itemsize for _, dtype in columns)
        payload = os.fstat(fh.fileno()).st_size - fh.tell()
        if n * row_bytes > payload:
            raise DatasetFormatError(
                f"truncated dataset file: header implies {n * row_bytes} payload bytes, "
                f"file holds {payload}"
            )
        X = np.frombuffer(_read_exact(fh, 4 * n * dim, "inputs"), dtype="<f4").reshape(n, dim)
        finite = np.isfinite(X).all(axis=1)
        if not finite.all():
            raise DatasetFormatError(f"non-finite input in row {int(np.argmin(finite))}")
        y = np.frombuffer(_read_exact(fh, 4 * n, "class ids"), dtype="<u4")
        if n and int(y.max()) >= num_classes:
            raise DatasetFormatError(
                f"class id {int(y.max())} out of range for a {num_classes}-class dataset"
            )
        cols = {
            name: np.frombuffer(_read_exact(fh, dtype.itemsize * n, f"{name} column"), dtype=dtype)
            for name, dtype in columns
        }
        trailing = fh.read(1)
        if trailing:
            raise DatasetFormatError("unexpected trailing bytes after dataset payload")
    ds = Dataset(X, y, int(num_classes), **cols)
    unique, counts = np.unique(ds.ids, return_counts=True)
    if np.any(counts > 1):
        raise DatasetFormatError(f"duplicate sample id {int(unique[counts > 1][0])}")
    return ds
