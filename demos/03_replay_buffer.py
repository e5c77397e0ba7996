"""Watch the class-balanced replay buffer re-quota itself as tasks arrive.

A fixed total budget is divided as evenly as possible over every class seen
so far; existing slots are down-sampled uniformly at random when quotas
shrink.  The whole process is a deterministic function of the seed.
"""

import numpy as np

from cclearn import MemoryBuffer, Pool, sample_class_batch

rng = np.random.default_rng(0)
sid = 0


def make_task(classes, per_class):
    """per_class random 4-d rows of each class in turn, as one Pool."""
    global sid
    y = np.repeat(list(classes), per_class)
    ids = list(range(sid, sid + len(y)))
    sid += len(y)
    return Pool(rng.standard_normal((len(y), 4)), y, ids)


buf = MemoryBuffer(capacity=24, rng_seed=7)
print(f"buffer capacity: {buf.capacity}\n")
for t in range(4):
    task = make_task(range(t * 3, t * 3 + 3), per_class=15)
    buf = buf.rebalance_after_task(task)
    counts = buf.class_counts()
    print(f"after task {t} (classes {sorted(task.members)}): "
          f"{len(buf)}/{buf.capacity} stored, per-class counts {counts}")

pool = buf.union_view(make_task([99], per_class=5))
print(f"\nunion view with a new 5-sample task: {len(pool)} samples "
      f"(buffer classes first, ascending)")

# a class batch is row indices into the pool; the pool maps them to sample ids
batch = sample_class_batch(pool, class_id=0, batch_size=2, seed=3)
print(f"seeded class-0 batch: rows {batch.tolist()}, sample ids {pool.take(batch).ids}")
batch2 = sample_class_batch(pool, class_id=0, batch_size=2, seed=3)
print(f"same seed again:      rows {batch2.tolist()}, sample ids {pool.take(batch2).ids}")
