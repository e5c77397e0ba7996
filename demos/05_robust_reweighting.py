"""How the robust objective shifts attention toward the classes it is losing.

Per-class hinge losses h_k feed a KL-regularized worst-case reweighting with
closed-form weights softmax(h/lam).  lam interpolates between treating all
classes equally (large lam) and caring only about the worst one (small lam).
"""

import numpy as np

from cclearn import (
    EncoderConfig,
    EncoderPair,
    GdroConfig,
    GdroEstimatorState,
    Pool,
    dro_objective,
    dro_weights,
)
from cclearn.gdro import gdro_step

rng = np.random.default_rng(5)
enc = EncoderPair(EncoderConfig(input_dim=6, num_classes_max=4,
                                hidden_dim=0, embed_dim=5, seed=1))
w = enc.init_params()

# class 3 gets overlapping inputs (copies of class 0's region): a hard class
centers = {0: np.zeros(6), 1: np.full(6, 3.0), 2: np.full(6, -3.0), 3: np.full(6, 0.3)}
y = np.repeat(list(centers), 6)
X = np.array([centers[k] for k in y.tolist()]) + 0.4 * rng.standard_normal((len(y), 6))
pool = Pool(X, y, list(range(len(y))))

# one full-batch training step at gamma=1 sets each class estimate u_c to the
# exact h_k (the step also returns the objective and gradient, unused here)
cfg = GdroConfig(lam=0.5, gamma=1.0, margin=0.4, tau=0.3, batch_classes=4, batch_per_class=6)
# the anchors are rows of the pool, one run per class: here every row, by class
rows = np.concatenate([np.flatnonzero(pool.y == k) for k in centers])
state = GdroEstimatorState()
gdro_step(state, enc, w, pool, rows, cfg)
_, h = state.class_losses()  # classes 0..3, ascending
print("per-class hinge losses h_k:", np.round(h, 3))
print("(classes 0 and 3 overlap, so their margins are violated more)\n")

for lam in (5.0, 0.5, 0.05):
    p = dro_weights(h, lam)
    print(f"lam={lam:<4}: weights {np.round(p, 3)}   "
          f"objective {dro_objective(h, lam):.3f}")
print(f"\nmean(h) = {h.mean():.3f}   max(h) = {h.max():.3f}")
print("large lam -> objective ~ mean and uniform weights;")
print("small lam -> objective ~ max and all weight on the worst class")
