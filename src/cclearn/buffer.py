"""Fixed-capacity, class-balanced replay store.

The buffer keeps an (as close as possible to) equal number of randomly chosen
samples per class under a constant total budget.  When new classes arrive the
per-class quota shrinks: capacity // K per class, with the capacity % K
remainder slots going to the lowest class ids.  Existing slots are
down-sampled uniformly at random; re-selection only ever draws from what is
currently stored (streaming constraint), never from full past data.  The
buffer rebalances in place: one object and one RNG serve the whole run.

A class whose source holds fewer samples than its quota simply stores all of
them, so per-class counts are exactly min(quota, available); they differ by
at most one across classes whenever the sources cover the quotas.

The buffer is the one object that stores samples.  A stage trains on a
``Pool``: the rows of the buffer's samples followed by the task's, built once
by ``union_view``.  Every batch is a row view of that pool: a gcl or
cross-entropy batch is ``pool.take(rows)``, a gdro per-class batch is
``sample_class_batch``'s take of one class's rows, and gdro's anchor set is
the ``Pool.concat`` of those batches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .data import Sample


class Pool:
    """Rows for the encoders: ``X`` (N, d) float64 inputs, ``y`` (N,) int64
    class ids and ``ids`` the sample ids as Python ints (the estimators' keys).

    ``members[k]`` holds class k's row indices in pool order, built on first
    read.  ``Pool.of`` is the one place a sample becomes a row.
    """

    def __init__(self, X, y, ids):
        self.X, self.y, self.ids = X, y, ids

    @classmethod
    def of(cls, samples) -> "Pool":
        """``samples`` if it is a Pool already, else the rows of the samples in order."""
        if isinstance(samples, cls):
            return samples
        samples = list(samples)
        return cls(
            np.array([s.x for s in samples], dtype=np.float64),
            np.array([s.class_id for s in samples], dtype=np.int64),
            [s.sample_id for s in samples],
        )

    @classmethod
    def concat(cls, parts) -> "Pool":
        """The rows of ``parts`` (Pools), one after another."""
        return cls(
            np.concatenate([p.X for p in parts]),
            np.concatenate([p.y for p in parts]),
            [i for p in parts for i in p.ids],
        )

    def take(self, idx) -> "Pool":
        """Rows ``idx``, in that order; ``X`` stays (n, d) when ``idx`` is empty."""
        idx = np.asarray(idx, dtype=np.intp)
        return Pool(self.X[idx], self.y[idx], [self.ids[i] for i in idx.tolist()])

    @cached_property
    def members(self) -> dict[int, np.ndarray]:
        order = np.argsort(self.y, kind="stable")
        classes, starts = np.unique(self.y[order], return_index=True)
        return dict(zip(classes.tolist(), np.split(order, starts[1:])))

    def __len__(self):
        return len(self.ids)


@dataclass
class MemoryBuffer:
    capacity: int
    rng_seed: int
    slots: dict[int, list[Sample]] = field(default_factory=dict)

    def __post_init__(self):
        if self.capacity < 0:
            raise ValueError("capacity must be >= 0")
        self._rng = np.random.default_rng(self.rng_seed)

    def __len__(self):
        return sum(len(v) for v in self.slots.values())

    def class_counts(self) -> dict[int, int]:
        return {k: len(v) for k, v in sorted(self.slots.items())}

    def rebalance_after_task(self, finished_task_data: list[Sample]) -> "MemoryBuffer":
        """Admit a finished task's data and re-even the per-class quotas.

        Updates the buffer in place and returns it; deterministic given rng_seed
        and call sequence.  Classes already stored (domain-incremental streams)
        merge their stored samples with the incoming ones before down-sampling.
        """
        incoming: dict[int, list[Sample]] = {}
        for s in finished_task_data:
            incoming.setdefault(s.class_id, []).append(s)
        classes = sorted(set(self.slots) | set(incoming))
        if not classes:
            return self
        quota, remainder = divmod(self.capacity, len(classes))
        for i, k in enumerate(classes):
            q = quota + (1 if i < remainder else 0)
            pool = self.slots.get(k, []) + incoming.get(k, [])
            if q < len(pool):
                idx = self._rng.choice(len(pool), size=q, replace=False)
                pool = [pool[j] for j in sorted(idx)]
            self.slots[k] = pool
        return self

    def union_view(self, current_task_data: list[Sample]) -> Pool:
        """Rows of the stored samples (classes ascending), then the task data as given."""
        return Pool.of(
            [s for k in sorted(self.slots) for s in self.slots[k]] + list(current_task_data)
        )


def sample_class_batch(pool, class_id, batch_size, seed) -> Pool:
    """Up to batch_size rows of one class, uniform without replacement."""
    pool = Pool.of(pool)
    rows = pool.members.get(class_id)
    if rows is None:
        raise ValueError(f"class {class_id} not present in pool")
    n = min(batch_size, len(rows))
    idx = np.random.default_rng(seed).choice(len(rows), size=n, replace=False)
    return pool.take(rows[idx])
