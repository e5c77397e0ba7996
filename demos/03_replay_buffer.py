"""Watch the class-balanced replay buffer re-quota itself as tasks arrive.

A fixed total budget is divided as evenly as possible over every class seen
so far; existing slots are down-sampled uniformly at random when quotas
shrink.  The whole process is a deterministic function of the seed.
"""

import numpy as np

from cclearn import MemoryBuffer, Sample, sample_class_batch

rng = np.random.default_rng(0)
sid = 0


def make_task(classes, per_class):
    global sid
    out = []
    for c in classes:
        for _ in range(per_class):
            out.append(Sample(x=rng.standard_normal(4), class_id=c, sample_id=sid))
            sid += 1
    return out


buf = MemoryBuffer(capacity=24, rng_seed=7)
print(f"buffer capacity: {buf.capacity}\n")
for t in range(4):
    task = make_task(range(t * 3, t * 3 + 3), per_class=15)
    buf = buf.rebalance_after_task(task)
    counts = buf.class_counts()
    print(f"after task {t} (classes {sorted({s.class_id for s in task})}): "
          f"{len(buf)}/{buf.capacity} stored, per-class counts {counts}")

pool = buf.union_view(make_task([99], per_class=5))
print(f"\nunion view with a new 5-sample task: {len(pool)} samples "
      f"(buffer classes first, ascending)")

batch = sample_class_batch(pool, class_id=0, batch_size=2, seed=3)
print(f"seeded class-0 batch: sample ids {batch.ids}")
batch2 = sample_class_batch(pool, class_id=0, batch_size=2, seed=3)
print(f"same seed again:      sample ids {batch2.ids}")
