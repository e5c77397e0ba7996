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

A stage trains on a ``Pool``: the buffer's samples followed by the task's, as
an immutable sequence that also holds the arrays and sample ids the
estimators read, built once, and the per-class members, built on first read.
A gcl or cross-entropy batch is ``pool.take(rows)``, sliced from the stage
pool's arrays; gdro's anchor sets are ``Pool``s too.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .data import Sample


class Pool(Sequence):
    """An immutable sequence of samples and the arrays the estimators read.

    ``X`` (N, d) float64 holds the inputs, ``y`` (N,) int64 the class ids and
    ``ids`` the sample ids as Python ints (the estimators' keys), row i for
    sample i; ``members[k]`` lists class k's samples in pool order, built on
    first read.  This is the one place a sample becomes encoder rows.
    """

    def __init__(self, samples):
        self._samples = tuple(samples)
        self.X = np.array([s.x for s in self._samples], dtype=np.float64)
        self.y = np.array([s.class_id for s in self._samples], dtype=np.int64)
        self.ids = [s.sample_id for s in self._samples]

    def take(self, idx) -> "Pool":
        """Rows ``idx`` as a Pool, sliced from this pool's arrays, so no sample is
        read; equal to ``Pool([self[i] for i in idx])``, with ``X`` kept (n, d)."""
        idx = np.asarray(idx, dtype=np.intp)
        rows = idx.tolist()
        part = Pool.__new__(Pool)
        part._samples = tuple([self._samples[i] for i in rows])
        part.X, part.y = self.X[idx], self.y[idx]
        part.ids = [self.ids[i] for i in rows]
        return part

    @cached_property
    def members(self) -> dict[int, list[Sample]]:
        members: dict[int, list[Sample]] = {}
        for s in self._samples:
            members.setdefault(s.class_id, []).append(s)
        return members

    @classmethod
    def of(cls, samples) -> "Pool":
        """``samples`` if it is a Pool already, else a Pool of them."""
        return samples if isinstance(samples, cls) else cls(samples)

    def __len__(self):
        return len(self._samples)

    def __getitem__(self, i):
        return self._samples[i]


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
        incoming = Pool(finished_task_data).members
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
        """Stored samples (classes ascending) followed by the task data as given."""
        return Pool(
            [s for k in sorted(self.slots) for s in self.slots[k]] + list(current_task_data)
        )


def sample_class_batch(pool, class_id, batch_size, seed) -> list[Sample]:
    """Up to batch_size samples of one class, uniform without replacement."""
    members = Pool.of(pool).members.get(class_id)
    if not members:
        raise ValueError(f"class {class_id} not present in pool")
    n = min(batch_size, len(members))
    idx = np.random.default_rng(seed).choice(len(members), size=n, replace=False)
    return [members[i] for i in idx]
