"""Spans around cclearn's layer boundaries, and the per-layer metrics they give.

``traced(tracer)`` wraps cclearn functions where the program looks them up:
``runner`` imports its collaborators by name, so those are patched on
``cclearn.runner``; encoder and buffer methods are patched on their classes.
Originals are restored on exit.  A span is ``[name, start, end, parent,
run_id, attrs]``; spans stay in memory until ``Tracer.write``.

``model.encode`` wraps the two batched forward passes (input and label
encoder) that every similarity, prediction and backward pass goes through,
so its row count is the number of rows the program actually encoded.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

import cclearn.benchmark
import cclearn.buffer
import cclearn.data
import cclearn.model
import cclearn.runner

# spans whose work (encoding rows, coefficient matrices) is charged to an estimator
_ESTIMATOR_SPANS = (
    "gcl.loss_full", "gcl.update_estimators", "gcl.gradient_estimate",
    "gdro.update_estimators", "gdro.gradient_estimate",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.run_id = None
        self._stack: list[int] = []

    def open(self, name, attrs=None) -> int:
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.run_id, attrs])
        self._stack.append(i)
        return i

    def close(self, i):
        self.spans[i][2] = time.perf_counter()
        self._stack.pop()

    def stage(self, event, info):
        """``run(..., hook=)`` callback: a zero-length marker at stage boundaries."""
        attrs = {"event": event, "task": info["task"]}
        if "pool_size" in info:
            attrs["pool_size"] = info["pool_size"]
        self.close(self.open("runner.stage", attrs))

    def write(self, path):
        keys = ("name", "start", "end", "parent", "run", "attrs")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _wrap(tracer, name, fn, attrs):
    def traced_call(*args, **kwargs):
        i = tracer.open(name, attrs(*args, **kwargs) if attrs else None)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(i)

    return traced_call


def _patch_table(tracer):
    def coef_attrs(enc, params, X, class_ids, coeff):
        # counting nonzeros is not the program's work: give it its own span
        i = tracer.open("trace.bookkeeping")
        C = np.asarray(coeff)
        out = {"cells": C.size, "nonzero": int(np.count_nonzero(C)), "bytes": C.nbytes}
        tracer.close(i)
        return out

    def pool_attrs(state, enc, params, class_batch, per_class, pool, config):
        return {"pool": len(pool)}

    runner, model, buffer = cclearn.runner, cclearn.model, cclearn.buffer
    return [
        (runner, "run", "runner.run", None),
        (runner, "evaluate", "runner.evaluate", None),
        (runner, "ce_loss", "runner.ce", None),
        (runner, "ce_gradient", "runner.ce", None),
        (runner, "gcl_loss_full", "gcl.loss_full", None),
        (runner, "gcl_update_estimators", "gcl.update_estimators", None),
        (runner, "gcl_gradient_estimate", "gcl.gradient_estimate", None),
        (runner, "gdro_update_estimators", "gdro.update_estimators", pool_attrs),
        (runner, "gdro_gradient_estimate", "gdro.gradient_estimate", pool_attrs),
        (runner, "sample_class_batch", "buffer.sample_class_batch",
         lambda pool, class_id, batch_size, seed: {"rows": len(pool)}),
        (runner, "optimizer_step", "optim.step", None),
        (model.EncoderPair, "_forward_inputs", "model.encode",
         lambda enc, params, X: {"rows": len(X)}),
        (model.EncoderPair, "_forward_labels", "model.encode",
         lambda enc, params, class_ids: {"rows": len(class_ids)}),
        (model.EncoderPair, "weighted_pair_grad", "model.weighted_pair_grad", coef_attrs),
        (model.EncoderPair, "predict_batch", "model.predict_batch", None),
        (buffer.MemoryBuffer, "rebalance_after_task", "buffer.rebalance_after_task", None),
        (buffer.MemoryBuffer, "union_view", "buffer.union_view", None),
        (cclearn.data, "gen_synthetic", "data.gen_synthetic", None),
        (cclearn.data, "split_cil", "data.split_cil", None),
        (cclearn.benchmark, "gen_synthetic", "data.gen_synthetic", None),
        (cclearn.benchmark, "split_cil", "data.split_cil", None),
    ]


@contextmanager
def traced(tracer: Tracer):
    """Wrap every layer boundary in spans recorded by ``tracer``."""
    saved = []
    try:
        for owner, attr, name, attrs in _patch_table(tracer):
            fn = getattr(owner, attr)
            saved.append((owner, attr, fn))
            setattr(owner, attr, _wrap(tracer, name, fn, attrs))
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer counts and self times (span time minus child span time)."""
    child_s = [0.0] * len(spans)
    owner = [-1] * len(spans)  # index of the enclosing estimator span, if any
    for i, (name, start, end, parent, _run, _attrs) in enumerate(spans):
        if parent >= 0:
            child_s[parent] += end - start
        owner[i] = i if name in _ESTIMATOR_SPANS else (owner[parent] if parent >= 0 else -1)

    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    totals: Counter = Counter()
    gdro_pool_passes = 0.0
    gdro_coef_bytes = 0
    for i, (name, start, end, _parent, _run, attrs) in enumerate(spans):
        self_s[name] += end - start - child_s[i]
        calls[name] += 1
        if name == "model.weighted_pair_grad":
            totals["coef_cells"] += attrs["cells"]
            totals["coef_nonzero"] += attrs["nonzero"]
            if owner[i] >= 0 and spans[owner[i]][0].startswith("gdro."):
                gdro_coef_bytes = max(gdro_coef_bytes, attrs["bytes"])
        elif name == "model.encode":
            totals["encode_rows"] += attrs["rows"]
            if owner[i] >= 0:
                est_name, est_attrs = spans[owner[i]][0], spans[owner[i]][5]
                if est_name.startswith("gcl."):
                    totals["gcl_rows"] += attrs["rows"]
                else:
                    # both encoders see each pool row once per full pass
                    gdro_pool_passes += attrs["rows"] / (2 * est_attrs["pool"])
        elif name == "buffer.sample_class_batch":
            totals["rows_scanned"] += attrs["rows"]

    def per(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    gcl_steps = calls["gcl.update_estimators"]
    gdro_steps = calls["gdro.update_estimators"]
    return {
        "model.weighted_pair_grad.calls": calls["model.weighted_pair_grad"],
        "model.weighted_pair_grad.self_s": self_s["model.weighted_pair_grad"],
        "model.weighted_pair_grad.coef_cells": totals["coef_cells"],
        "model.weighted_pair_grad.coef_nonzero_share": per(
            totals["coef_nonzero"], totals["coef_cells"]
        ),
        "model.encode.calls": calls["model.encode"],
        "model.encode.rows": totals["encode_rows"],
        "model.encode.self_s": self_s["model.encode"],
        "model.predict_batch.self_s": self_s["model.predict_batch"],
        "gcl.loss_full.self_s": self_s["gcl.loss_full"],
        "gcl.update_estimators.self_s": self_s["gcl.update_estimators"],
        "gcl.gradient_estimate.self_s": self_s["gcl.gradient_estimate"],
        "gcl.steps": gcl_steps,
        "gcl.rows_encoded_per_step": per(totals["gcl_rows"], gcl_steps),
        "gdro.update_estimators.self_s": self_s["gdro.update_estimators"],
        "gdro.gradient_estimate.self_s": self_s["gdro.gradient_estimate"],
        "gdro.steps": gdro_steps,
        "gdro.pool_rows_encoded_per_step": per(gdro_pool_passes, gdro_steps),
        "gdro.coef_mb_peak": gdro_coef_bytes / 1e6,
        "buffer.sample_class_batch.calls": calls["buffer.sample_class_batch"],
        "buffer.sample_class_batch.self_s": self_s["buffer.sample_class_batch"],
        "buffer.sample_class_batch.rows_scanned": totals["rows_scanned"],
        "buffer.rebalance_after_task.self_s": self_s["buffer.rebalance_after_task"],
        "buffer.union_view.self_s": self_s["buffer.union_view"],
        "optim.step.calls": calls["optim.step"],
        "optim.step.self_s": self_s["optim.step"],
        "runner.run.self_s": self_s["runner.run"],
        "runner.ce.self_s": self_s["runner.ce"],
        "runner.evaluate.self_s": self_s["runner.evaluate"],
        "data.gen_synthetic.self_s": self_s["data.gen_synthetic"],
        "data.split_cil.self_s": self_s["data.split_cil"],
    }
