"""Train the global contrastive objective on one task and verify its gradient.

The loss normalizes every anchor against the whole pool.  Mini-batch steps
track the pool-level normalizers with per-sample moving averages; in the
degenerate full-batch, gamma=1 configuration the gradient estimator equals
(tau/2) times the exact loss gradient, which we confirm numerically here
before training.
"""

import numpy as np

from cclearn import (
    EncoderConfig,
    EncoderPair,
    GclEstimatorState,
    RunConfig,
    gen_synthetic,
    run,
    split_cil,
)
from cclearn.gcl import gcl_step

ds = gen_synthetic(num_classes=6, per_class=20, input_dim=8,
                   separation=4.0, noise=0.6, seed=3)
stream = split_cil(ds, num_tasks=1, test_fraction=0.25, seed=4)
task = stream.tasks[0]

# full-batch sanity check of the estimator against finite differences
enc = EncoderPair(EncoderConfig(input_dim=8, num_classes_max=6,
                                hidden_dim=0, embed_dim=6, seed=0))
w = enc.init_params()
pool = task.train.take(range(10))
tau = 0.2
rows = np.arange(len(pool))


def full_batch_step(params):
    """One training step on the whole pool from a fresh estimator state: the exact
    loss, the estimator update and the gradient estimate m."""
    return gcl_step(GclEstimatorState(gamma=1.0), enc, params, pool, rows, tau)


_, m = full_batch_step(w)
eps = 1e-5
fd = np.zeros_like(w)
for i in range(len(w)):
    wp, wm = w.copy(), w.copy()
    wp[i] += eps
    wm[i] -= eps
    fd[i] = (full_batch_step(wp)[0] - full_batch_step(wm)[0]) / (2 * eps)
rel = np.abs(m - tau / 2 * fd).max() / np.abs(fd).max()
print(f"full-batch estimator vs (tau/2) * exact gradient: max rel err {rel:.1e}\n")

config = RunConfig(method="gcl", epochs_per_task=12, memory_capacity=0, seed=0,
                   embed_dim=6, tau=0.2, batch_size=16, gcl_gamma=0.9,
                   eta=0.5, log_every=3)
result = run(stream, config)
losses = [(r["step"], r["loss"]) for r in result.log if r["event"] == "step"]
print("training loss (batch-level):")
for step, loss in losses[:: max(1, len(losses) // 6)]:
    print(f"  step {step:3d}  loss {loss:.4f}")
print(f"\ntest accuracy after training: {result.accuracy.aggregate[0]:.3f}")
print(f"(chance would be {1 / 6:.3f})")
