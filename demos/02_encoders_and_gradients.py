"""The bimodal encoder pair: unit embeddings, similarities, exact gradients.

Everything downstream (both training objectives, the cross-entropy baseline,
prediction) is built on two primitives shown here.  ``pair_forward`` runs both
encoders, returning each one's forward result (unit embeddings plus what the
backward needs) and the cosine similarities between input and label
embeddings.  ``pair_grad`` takes those three and a coefficient per pair and
returns the analytic gradient of the weighted similarities with respect to the
full flat parameter vector.
"""

import numpy as np

from cclearn import EncoderConfig, EncoderPair

cfg = EncoderConfig(input_dim=5, num_classes_max=4, hidden_dim=6, embed_dim=4, seed=0)
enc = EncoderPair(cfg)
w = enc.init_params()
print(f"encoder pair with {enc.n_params} parameters "
      f"(hidden={cfg.hidden_dim}, embed={cfg.embed_dim})")

rng = np.random.default_rng(1)
x = rng.standard_normal(5)
f_in, f_lab, sims = enc.pair_forward(w, [x], [2])
(e_in,), (e_lab,) = f_in[0], f_lab[0]
print(f"|input embedding| = {np.linalg.norm(e_in):.12f}")
print(f"|label embedding| = {np.linalg.norm(e_lab):.12f}")
print(f"similarity(x, class 2) = {sims[0, 0]:.6f}  (equals the embeddings' dot product)")


def similarity(params):
    return enc.pair_forward(params, [x], [2])[2][0, 0]


# analytic gradient from the same forward results (unit pair coefficient)
# vs central finite differences
g = enc.pair_grad(f_in, f_lab, np.ones((1, 1)))
eps = 1e-6
fd = np.zeros_like(w)
for i in range(len(w)):
    wp, wm = w.copy(), w.copy()
    wp[i] += eps
    wm[i] -= eps
    fd[i] = (similarity(wp) - similarity(wm)) / (2 * eps)
print(f"max |analytic - finite difference| = {np.abs(g - fd).max():.2e} "
      f"over {len(w)} coordinates")

sims = enc.pair_forward(w, [x], list(range(4)))[2][0]
pred = enc.predict_batch(w, [x], set(range(4)))[0]
print(f"similarities to all labels: {np.round(sims, 3)} -> predict {pred}")
