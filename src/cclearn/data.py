"""Synthetic datasets, task splitting, and dataset file I/O.

Data generation is a desk-scale stand-in for image benchmarks: class means sit
on a sphere (radius = ``separation``) with a rejection step enforcing minimum
pairwise distance, and samples are means plus Gaussian noise.  Inputs are
stored as float32 so files round-trip bit-exactly.

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
``dim == 0``, non-finite inputs, class ids ``>= classes`` and duplicate
sample ids.
"""

from __future__ import annotations

import math
import numbers
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DatasetFormatError

_MAGIC = b"CLDS"
_VERSION = 1
# The optional id columns in file order: Sample field, flag bit, dtype.  An
# absent column reads as ids 0..n-1, or as the Sample default (task -1, domain 0).
_ID_COLUMNS = (
    ("sample_id", 2, "<u8"),
    ("task_id", 4, "<i4"),
    ("domain_id", 1, "<u4"),
)


@dataclass(frozen=True, eq=False)
class Sample:
    """One labeled example. ``x`` is treated as read-only by the whole package.

    ``task_id`` is the file's task column: ``save`` and ``load`` round-trip
    it, and splits never rewrite it (tasks hold the dataset's own samples).
    """

    x: np.ndarray
    class_id: int
    sample_id: int
    task_id: int = -1
    domain_id: int = 0


@dataclass
class Dataset:
    samples: list[Sample]
    num_classes: int
    input_dim: int
    has_domains: bool = False


@dataclass
class Task:
    """One stage of a task stream: train pool, held-out test set, class set."""

    train: list[Sample]
    test: list[Sample]
    classes: frozenset[int]
    domain_id: int | None = None


@dataclass
class TaskStream:
    mode: str  # "cil" | "dil"
    tasks: list[Task] = field(default_factory=list)

    def __post_init__(self):
        if self.mode not in ("cil", "dil"):
            raise ValueError(f"unknown stream mode {self.mode!r}")
        if self.mode == "cil":
            seen: set[int] = set()
            for t in self.tasks:
                if seen & t.classes:
                    raise ValueError("class-incremental tasks must have disjoint class sets")
                seen |= t.classes
        for i, t in enumerate(self.tasks):
            for part, samples in (("training", t.train), ("test", t.test)):
                if not samples:
                    raise ValueError(f"task {i} gets no {part} samples")
            for s in t.test:
                if s.class_id not in t.classes:
                    raise ValueError(
                        f"test sample {s.sample_id} has class {s.class_id} "
                        f"outside its task's class set"
                    )

    @property
    def num_tasks(self):
        return len(self.tasks)

    def classes_up_to(self, t: int) -> set[int]:
        """Union of class sets of tasks 0..t inclusive."""
        out: set[int] = set()
        for task in self.tasks[: t + 1]:
            out |= task.classes
        return out


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
    if num_classes < 1 or per_class < 1 or input_dim < 1:
        raise ValueError("num_classes, per_class and input_dim must be positive")
    if not 0 < separation < math.inf:
        raise ValueError(f"separation must be finite and > 0, got {separation}")
    if not math.isfinite(noise):
        raise ValueError(f"noise must be finite, got {noise}")
    rng = np.random.default_rng(seed)
    means = _class_means(num_classes, input_dim, separation, rng)
    samples = []
    sid = 0
    for k in range(num_classes):
        block = _as_float32(means[k] + noise * rng.standard_normal((per_class, input_dim)),
                            "separation or noise")
        for row in block:
            samples.append(Sample(x=row, class_id=k, sample_id=sid))
            sid += 1
    return Dataset(samples=samples, num_classes=num_classes, input_dim=input_dim)


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
    seeded transforms.  Class labels are preserved and sample ids stay unique.
    """
    if num_domains < 2:
        raise ValueError("num_domains must be >= 2")
    if not math.isfinite(magnitude):
        raise ValueError(f"magnitude must be finite, got {magnitude}")
    rng = np.random.default_rng(seed)
    n = len(base.samples)
    X = np.stack([s.x for s in base.samples]).astype(np.float64)
    samples = []
    for d in range(num_domains):
        if d == 0:
            transform = lambda X: X  # noqa: E731
        else:
            transform = _domain_transform(shift_kind, magnitude, base.input_dim, rng)
        Xd = _as_float32(transform(X), "magnitude")
        for i, s in enumerate(base.samples):
            samples.append(
                Sample(x=Xd[i], class_id=s.class_id, sample_id=d * n + i, domain_id=d)
            )
    return Dataset(
        samples=samples,
        num_classes=base.num_classes,
        input_dim=base.input_dim,
        has_domains=True,
    )


# ------------------------------------------------------------------- splitting


def _stratified_split(samples, test_fraction, rng):
    """Per-class shuffle, first round(n * fraction) to test. Order: class-ascending."""
    by_class: dict[int, list[Sample]] = {}
    for s in samples:
        by_class.setdefault(s.class_id, []).append(s)
    train, test = [], []
    for k in sorted(by_class):
        members = by_class[k]
        idx = rng.permutation(len(members))
        n_test = int(round(len(members) * test_fraction))
        test.extend(members[i] for i in sorted(idx[:n_test]))
        train.extend(members[i] for i in sorted(idx[n_test:]))
    return train, test


def _check_split_args(ds, test_fraction, **ints):
    """Refuse a test_fraction outside (0, 1), a non-integer ``ints`` value (``True`` too)
    and a dataset that declares more classes than it holds samples.

    Splits allocate per declared class and the trainer sizes its label tower by
    the count, so a header's ``classes`` is checked before either happens.
    """
    if ds.num_classes > len(ds.samples):
        raise ValueError(
            f"dataset declares {ds.num_classes} classes but holds {len(ds.samples)} samples"
        )
    for name, value in ints.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise TypeError(f"{name} must be an integer, got {value!r}")
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
        block = set(int(c) for c in order[t * per_task : (t + 1) * per_task])
        members = [s for s in ds.samples if s.class_id in block]
        train, test = _stratified_split(members, test_fraction, rng)
        tasks.append(Task(train, test, frozenset(block)))
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
    domains_present = sorted({s.domain_id for s in ds.samples})
    if sorted(domain_order) != domains_present:
        raise ValueError(
            f"domain_order {list(domain_order)} is not a permutation of {domains_present}"
        )
    all_classes = frozenset(range(ds.num_classes))
    tasks = []
    for d in domain_order:
        members = [s for s in ds.samples if s.domain_id == d]
        train, test = _stratified_split(members, test_fraction, rng)
        tasks.append(Task(train, test, all_classes, domain_id=d))
    return TaskStream(mode="dil", tasks=tasks)


# ------------------------------------------------------------------------- I/O


def save(ds: Dataset, path) -> None:
    """Write the binary dataset format described in the module docstring."""
    n = len(ds.samples)
    columns = [c for c in _ID_COLUMNS if c[0] != "domain_id" or ds.has_domains]
    flags = sum(bit for _, bit, _ in columns)
    X = np.stack([s.x for s in ds.samples]).astype("<f4") if n else np.zeros((0, ds.input_dim), "<f4")
    y = np.array([s.class_id for s in ds.samples], dtype="<u4")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IIIII", _VERSION, n, ds.input_dim, ds.num_classes, flags))
        fh.write(X.tobytes())
        fh.write(y.tobytes())
        for name, _, dtype in columns:
            fh.write(np.array([getattr(s, name) for s in ds.samples], dtype=dtype).tobytes())


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
        ids = {
            name: np.frombuffer(_read_exact(fh, dtype.itemsize * n, f"{name} column"), dtype=dtype)
            for name, dtype in columns
        }
        trailing = fh.read(1)
        if trailing:
            raise DatasetFormatError("unexpected trailing bytes after dataset payload")
    ids.setdefault("sample_id", np.arange(n))
    unique, counts = np.unique(ids["sample_id"], return_counts=True)
    if np.any(counts > 1):
        raise DatasetFormatError(f"duplicate sample id {int(unique[counts > 1][0])}")
    ids = {name: column.tolist() for name, column in ids.items()}
    samples = [
        Sample(x=X[i].copy(), class_id=int(y[i]), **{name: col[i] for name, col in ids.items()})
        for i in range(n)
    ]
    return Dataset(
        samples=samples,
        num_classes=int(num_classes),
        input_dim=int(dim),
        has_domains="domain_id" in ids,
    )
