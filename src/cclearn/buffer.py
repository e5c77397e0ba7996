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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Sample


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

    def union_view(self, current_task_data: list[Sample]) -> list[Sample]:
        """Stored samples (classes ascending) followed by the task data as given."""
        out: list[Sample] = []
        for k in sorted(self.slots):
            out.extend(self.slots[k])
        out.extend(current_task_data)
        return out


def sample_class_batch(pool, class_id, batch_size, seed) -> list[Sample]:
    """Up to batch_size samples of one class, uniform without replacement."""
    members = [s for s in pool if s.class_id == class_id]
    if not members:
        raise ValueError(f"class {class_id} not present in pool")
    n = min(batch_size, len(members))
    idx = np.random.default_rng(seed).choice(len(members), size=n, replace=False)
    return [members[i] for i in idx]
