"""Fixed-capacity, class-balanced replay store.

The buffer keeps an (as close as possible to) equal number of randomly chosen
rows per class under a constant total budget.  When new classes arrive the
per-class quota shrinks: capacity // K per class, with the capacity % K
remainder slots going to the lowest class ids.  Stored rows are down-sampled
uniformly at random; re-selection only ever draws from what is currently
stored (streaming constraint), never from full past data.  The buffer
rebalances in place: one object and one RNG serve the whole run.

A class whose source holds fewer rows than its quota simply stores all of
them, so per-class counts are exactly min(quota, available); they differ by
at most one across classes whenever the sources cover the quotas.

The buffer takes and stores ``Pool``s: it starts from the empty Pool and
keeps copies of the rows it admits as one class-ascending Pool.  A stage
trains on the stored rows followed by the task's, joined once by
``union_view``.  Every batch is rows of that pool: a gcl or cross-entropy
batch is a slice of a shuffled order of its row indices, and a gdro
per-class batch is ``sample_class_batch``'s draw of one class's row indices,
which gdro joins into its anchor rows and scores against the pool it has
encoded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Pool


@dataclass
class MemoryBuffer:
    capacity: int
    rng_seed: int

    def __post_init__(self):
        if self.capacity < 0:
            raise ValueError("capacity must be >= 0")
        self._rng = np.random.default_rng(self.rng_seed)
        self.stored = Pool.concat([])  # classes ascending, each in admission order

    def __len__(self):
        return len(self.stored)

    def class_counts(self) -> dict[int, int]:
        """Rows stored per class, for each class the buffer holds, ascending."""
        return {k: len(rows) for k, rows in self.stored.members.items()}

    def rebalance_after_task(self, finished_task_data: Pool) -> "MemoryBuffer":
        """Admit a finished task's rows; re-even the quotas.

        Updates the buffer in place and returns it; deterministic given rng_seed
        and call sequence.  Classes already stored (domain-incremental streams)
        merge their stored rows with the incoming ones before down-sampling.
        """
        rows = Pool.concat([self.stored, finished_task_data])
        if not len(rows):
            return self
        quota, remainder = divmod(self.capacity, len(rows.members))
        kept = []
        for i, members in enumerate(rows.members.values()):
            q = quota + (1 if i < remainder else 0)
            if q < len(members):
                members = members[np.sort(self._rng.choice(len(members), size=q, replace=False))]
            kept.append(members)
        self.stored = rows.take(np.concatenate(kept))
        return self

    def union_view(self, current_task_data: Pool) -> Pool:
        """The stored rows (classes ascending), then the task's rows as given."""
        return Pool.concat([self.stored, current_task_data])


def sample_class_batch(pool: Pool, class_id, batch_size, seed) -> np.ndarray:
    """Up to batch_size rows of one class of ``pool``, uniform without replacement,
    as indices into ``pool``."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    rows = pool.members.get(class_id)
    if rows is None:
        raise ValueError(f"class {class_id} not present in pool")
    n = min(batch_size, len(rows))
    return rows[np.random.default_rng(seed).choice(len(rows), size=n, replace=False)]
