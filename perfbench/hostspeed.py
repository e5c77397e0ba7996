"""Host-speed probe: training time rescaled to a reference speed of the host.

The benchmark gets a few cores of a shared host, and neighbours' load moves
the speed of those cores by tens of percent over seconds to minutes, so
30-second medians of raw wall time spread by 20 to 50% between runs of the
same code.  To take the host's speed out, a fixed numpy kernel (the probe)
is timed between stretches of training: at stage boundaries (the ``hook=``
of ``cclearn.runner.run``) and before an optimizer step once ``INTERVAL_S``
of training has passed since the last probe.  Each stretch's wall time is
divided by the mean of the two probe times around it and multiplied by the
probe's reference time, which gives the stretch's length on the host at
reference speed.  Probe time itself is not counted.  The probe runs no
cclearn code, so a change to the program moves the rescaled time as much
as it moves the wall time.

The probe stalls where its workload stalls, since contention slows
memory-bound and call-bound code by different factors: ``small`` runs
batch-32 softmax cross-entropy steps written out in numpy, from a list of
records (call-bound, like a ``gcl`` step and the small pools of
``committed``); ``dense`` multiplies and sums pool-sized square matrices
(memory-bound, like ``gdro``'s coefficient matrix on ``gdro-pool``).
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager

import numpy as np

import cclearn.runner

INTERVAL_S = 0.2

# Median probe time in seconds on the reference host (2 vCPUs of a shared
# Intel Xeon host, numpy with OpenBLAS on one thread), over five 30-second
# runs of each workload that uses the kernel: 1436 small and 571 dense probes.
REFERENCE_S = {"small": 0.00496, "dense": 0.01720}

WARMUP_PROBES = 5

# the small probe runs SMALL_STEPS batch-32 steps over a pool of SMALL_POOL records
SMALL_POOL = 1200
SMALL_STEPS = 40

# gdro at pool 1200 builds (n + N)^2 coefficient matrices: the dense probe
# streams matrices of that size through elementwise ops and thin matmuls
DENSE_ROWS = 1232


class HostProbe:
    """Times training stretches and the probes between them, per pass."""

    def __init__(self, kernel: str):
        rng = np.random.default_rng(0)
        self.reference_s = REFERENCE_S[kernel]
        if kernel == "small":
            self._records = [
                {"x": x, "class_id": int(c)}
                for x, c in zip(rng.standard_normal((SMALL_POOL, 16)), rng.integers(0, 20, SMALL_POOL))
            ]
            self._order = rng.integers(0, SMALL_POOL, SMALL_STEPS * 32)
            self._w = rng.standard_normal((8, 16)) * 0.3
            self._labels = rng.standard_normal((20, 8))
            self._kernel = self._small
        else:
            self._e = rng.standard_normal((DENSE_ROWS, 8))
            self._c = rng.standard_normal((DENSE_ROWS, DENSE_ROWS))
            self._kernel = self._dense
        for _ in range(WARMUP_PROBES):
            self._kernel()
        self.probes_s: list[float] = []

    def _small(self):
        # softmax cross-entropy over similarities, batch 32, written out in numpy
        classes = sorted({r["class_id"] for r in self._records[:64]})
        col = {c: j for j, c in enumerate(classes)}
        for start in range(0, SMALL_STEPS * 32, 32):
            batch = [self._records[i] for i in self._order[start : start + 32]]
            x = np.asarray([r["x"] for r in batch])
            idx = np.array([col.get(r["class_id"], 0) for r in batch])
            z = x @ self._w.T
            e = z / np.linalg.norm(z, axis=1, keepdims=True)
            s = e @ self._labels[classes].T / 0.2
            p = np.exp(s - s.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            loss = float(-np.log(p[np.arange(len(batch)), idx]).mean())
            p[np.arange(len(batch)), idx] -= 1.0
            grad = (p @ self._labels[classes]).T @ x
            if not math.isfinite(loss + float(grad.sum())):
                raise FloatingPointError("probe diverged")

    def _dense(self):
        # the arithmetic of weighted_pair_grad on a pool-sized coefficient matrix
        s = self._e @ self._e.T
        t = self._c * s
        w = t.sum(axis=1)
        self._c @ self._e - w[:, None] * self._e

    def _probe(self) -> float:
        t = time.perf_counter()
        self._kernel()
        self._last = time.perf_counter()
        return self._last - t

    def bracket(self, timed) -> tuple[float, float]:
        """Call ``timed``, which returns a wall time, between two probes.

        Returns (that time, that time at reference speed).
        """
        before = self._probe()
        seconds = timed()
        after = self._probe()
        return seconds, seconds * 2 * self.reference_s / (before + after)

    def start_pass(self):
        self._stretches = []
        self._probes = [self._probe()]

    def mark(self):
        """End the current stretch of training and time one probe."""
        self._stretches.append(time.perf_counter() - self._last)
        self._probes.append(self._probe())

    def poll(self, *_):
        """Probe if ``INTERVAL_S`` of training has passed; fits ``run(hook=)``."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.mark()

    def end_pass(self) -> tuple[float, float]:
        """(wall seconds, seconds at reference speed) of the pass's training."""
        self.mark()
        self.probes_s.extend(self._probes)
        p = self._probes
        ref = sum(
            s * 2 * self.reference_s / (p[j] + p[j + 1]) for j, s in enumerate(self._stretches)
        )
        return sum(self._stretches), ref


@contextmanager
def probing(probe: HostProbe):
    """Let ``probe`` poll before every optimizer step of ``cclearn.runner``."""
    step = cclearn.runner.optimizer_step

    def polled_step(*args, **kwargs):
        probe.poll()
        return step(*args, **kwargs)

    cclearn.runner.optimizer_step = polled_step
    try:
        yield probe
    finally:
        cclearn.runner.optimizer_step = step
