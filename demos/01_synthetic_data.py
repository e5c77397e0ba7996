"""Generate a synthetic dataset, shift it across domains, and round-trip it.

The generator places class means on a sphere (radius = separation) and draws
samples as mean + Gaussian noise, so task difficulty is a two-knob affair:
separation vs. noise.
"""

import os
import tempfile

import numpy as np

from cclearn import gen_domain_shift, gen_synthetic, load, save

ds = gen_synthetic(num_classes=6, per_class=20, input_dim=8,
                   separation=4.0, noise=0.6, seed=42)
print(f"generated {len(ds.y)} samples, {ds.num_classes} classes, dim {ds.input_dim}")

means = {k: ds.X[ds.y == k].mean(axis=0) for k in range(ds.num_classes)}
dists = [np.linalg.norm(means[a] - means[b])
         for a in means for b in means if a < b]
print(f"pairwise mean distances: min={min(dists):.2f} max={max(dists):.2f} "
      f"(noise sigma = 0.6)")

shifted = gen_domain_shift(ds, num_domains=3, shift_kind="rotation",
                           magnitude=0.8, seed=7)
print(f"after domain shift: {len(shifted.y)} samples over 3 domains")

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "demo.clds")
    save(shifted, path)
    back = load(path)
    identical = np.array_equal(shifted.X, back.X)
    print(f"binary round-trip identical: {identical} "
          f"({os.path.getsize(path)} bytes)")
