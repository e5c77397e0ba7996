"""Reference oracles the tests compare the package against.

Single-anchor normalizers for the global contrastive loss (``g_I``, ``g_T``),
single-anchor hinge normalizers and the exact per-class loss for the robust
objective (``hinge_g1``, ``hinge_g2``, ``class_loss_hk``), the robust
gradient estimator through one dense coefficient matrix
(``gdro_gradient_dense``), gdro's hinge statistics, coefficients and step
with g1 scored once per pool row rather than once per class
(``hinge_stats_per_row``, ``coefficients_per_row``, ``gdro_step_per_row``),
the per-key dict recurrence that the array-backed ``moving_average``
vectorises (``dict_moving_average``), the label tower's scatter-add backward
through ``np.add.at`` (``backward_add_at``), a replay buffer that stores
per-class lists of samples (``SampleBuffer``), splits that gather samples one
by one (``split_cil_samples``, ``split_dil_samples``), and a parser for the
accuracy CSV that ``cclearn run`` writes.  None of these is on
a training path: the package computes the same quantities in batch, in
blocks or in arrays, and the tests pin the two against each other.

The per-sample oracles keep their samples as plain ``Record``s, one per row;
``records`` and ``dataset_records`` read them off a Pool or a Dataset, and
``rows`` turns them back into a Pool.  The single-anchor gcl oracles take the
anchor as a one-row Pool (``pool[i]``) and the pool as a Pool; the hinge
oracles take the anchor as its row ``i`` of the pool, as gdro does.
"""

import math
from dataclasses import dataclass

import numpy as np

from cclearn.data import Pool
from cclearn.gcl import _check_tau
from cclearn.gdro import (
    GdroConfig,
    WorkArrays,
    _anchor_rows,
    _anchors,
    _coefficients,
    _gradient,
    _hinge_stats,
    _update,
    dro_objective,
)
from cclearn.model import EncoderPair


def _stable_expsum(scores):
    """sum(exp(scores)) via max-shift, returned in linear scale."""
    m = float(np.max(scores))
    return float(np.exp(m) * np.sum(np.exp(scores - m)))


def g_I(enc: EncoderPair, params, anchor, candidates, tau) -> float:
    """Input-anchored normalizer: sum over candidate labels of exp(sim/tau)."""
    tau = _check_tau(tau)
    if not candidates:
        raise ValueError("candidate list must be non-empty")
    sims = enc.similarity_matrix(params, anchor.X, candidates.y)[0]
    return _stable_expsum(sims / tau)


def g_T(enc: EncoderPair, params, anchor, candidates, tau) -> float:
    """Label-anchored normalizer: sum over candidate inputs of exp(sim/tau)."""
    tau = _check_tau(tau)
    if not candidates:
        raise ValueError("candidate list must be non-empty")
    sims = enc.similarity_matrix(params, candidates.X, anchor.y)[:, 0]
    return _stable_expsum(sims / tau)


def hinge_stats(enc: EncoderPair, params, rows, class_batch, sizes, pool, margin, tau):
    """gdro's ``_hinge_stats`` of the anchors ``rows`` of ``pool``, ``sizes[i]``
    rows of ``class_batch[i]`` per sampled class, on fresh work arrays."""
    anchors = _anchors(pool, rows, class_batch, sizes)
    return _hinge_stats(enc, params, pool, anchors, margin, tau, WorkArrays())


def hinge_g1(enc: EncoderPair, params, i, pool, margin, tau) -> float:
    """Input-anchored hinge normalizer of pool row ``i``, linear scale. Equals 1
    iff no violations."""
    (_, _, _, log_g, _, _), _ = hinge_stats(
        enc, params, np.array([i]), [int(pool.y[i])], [1], pool, margin, tau
    )
    return float(np.exp(log_g[0, 0]))


def hinge_g2(enc: EncoderPair, params, i, pool, margin, tau) -> float:
    """Label-anchored hinge normalizer of pool row ``i``, linear scale."""
    (_, _, _, log_g, _, _), _ = hinge_stats(
        enc, params, np.array([i]), [int(pool.y[i])], [1], pool, margin, tau
    )
    return float(np.exp(log_g[1, 0]))


def class_loss_hk(enc: EncoderPair, params, class_id, pool, config: GdroConfig) -> float:
    """Per-class loss h_k over all pool members of the class; always >= 0."""
    rows = np.flatnonzero(pool.y == class_id)
    if not len(rows):
        raise ValueError(f"class {class_id} not present in pool")
    (_, _, _, log_g, _, _), _ = hinge_stats(
        enc, params, rows, [class_id], [len(rows)], pool, config.margin, config.tau
    )
    return float(config.tau * np.mean(log_g[0] + log_g[1]) / 2.0)


def gdro_gradient_dense(state, enc: EncoderPair, params, class_batch, per_class_batches, pool,
                        config: GdroConfig) -> np.ndarray:
    """``gdro_gradient_estimate`` through one (anchor+pool) x (anchor+pool)
    coefficient matrix and a single backward pass: O((n+N)^2) memory."""
    rows, sizes = _anchor_rows(class_batch, per_class_batches, pool)
    stats, _ = hinge_stats(enc, params, rows, class_batch, sizes, pool, config.margin, config.tau)
    u = state.samples.read(rows, [pool.ids[i] for i in rows.tolist()])
    u_c = state.classes.read(class_batch, class_batch, what="class", positive=False)
    block, coef2 = _coefficients(state, sizes, stats, config, (u, u_c))
    anchors = pool.take(np.concatenate([per_class_batches[k] for k in class_batch]))
    n, N = len(anchors), len(pool)
    coef1 = block[:, n:]
    C = np.zeros((n + N, n + N))
    C[:n, n:] = coef1  # anchor input vs pool label
    C[n:, :n] = coef2.T  # pool input vs anchor label
    C[np.arange(n), np.arange(n)] = -(coef1.sum(axis=1) + coef2.sum(axis=1))

    xs = np.concatenate([anchors.X, pool.X])
    cls = np.concatenate([anchors.y, pool.y])
    return enc.weighted_pair_grad(params, xs, cls, C)


def hinge_stats_per_row(enc: EncoderPair, params, rows, pool, margin, tau):
    """``_hinge_stats`` with g1 scored once per pool row, in (2, n, N) blocks:
    (n_neg, H, A, log_g, H2t), (f1p, f2c, index).  Axis 0 of H, A and log_g
    holds g1 (anchor input x pool label), then g2 (anchor label x pool input);
    the same-class pairs are masked with an (n, N) comparison."""
    classes, index, _, _ = pool.class_index
    f1p = enc._forward_inputs(params, pool.X)
    f2c = enc._forward_labels(params, classes)
    E1p, E2c = f1p[0], f2c[0]
    E1a, E2a, E2p = E1p[rows], E2c[index[rows]], E2c[index]
    n, N = len(rows), len(pool)

    sii = np.sum(E1a * E2a, axis=1)
    H = np.empty((2, n, N))
    np.matmul(E1a, E2p.T, out=H[0])
    H2t = np.empty((N, n))
    H[1] = np.matmul(E1p, E2a.T, out=H2t).T
    ya = pool.y[rows]
    same = pool.y[None, :] == ya[:, None]
    n_neg = N - same.sum(axis=1)
    if np.any(n_neg == 0):
        raise ValueError(f"no negatives in pool for anchor of class {ya[int(np.argmin(n_neg))]}")

    H -= sii[:, None]
    H += margin
    np.maximum(H, 0.0, out=H)
    A = H * H
    A /= tau
    np.copyto(A, -np.inf, where=same)
    m = A.max(axis=2)
    E = A - m[:, :, None]
    log_g = m + np.log(np.exp(E, out=E).sum(axis=2)) - np.log(n_neg)
    return (n_neg, H, A, log_g, H2t), (f1p, f2c, index)


def coefficients_per_row(state, rows, sizes, class_batch, stats, config):
    """``_coefficients`` over the (2, n, N) blocks of ``hinge_stats_per_row``,
    written over their H and A: (coef1, coef2), both n x N over anchors x pool.
    The estimates are read from the state in the columns of the anchors' pool
    ``rows``."""
    if not state.v_initialized or state.v_mantissa <= 0:
        raise ValueError("scalar estimator v is not initialized or non-positive")
    n_neg, H, A, _, _ = stats
    u_c = state.classes.read(class_batch, class_batch, what="class", positive=False)[0]
    norm = state.v_mantissa * len(class_batch) * 2.0
    class_weight = np.repeat(
        [math.exp(u / config.lam - state.v_shift) / (norm * size)
         for u, size in zip(u_c.tolist(), sizes)],
        sizes,
    )
    u = state.samples.read(rows, rows).tolist()
    log_u = np.array([[math.log(x) for x in row] for row in u])

    scale = (class_weight * (1.0 / n_neg))[:, None]
    A -= log_u[:, :, None]
    coef = np.multiply(2.0, H, out=H)
    coef *= np.exp(A, out=A)
    coef *= scale
    return coef[0], coef[1]


def gdro_step_per_row(state, enc: EncoderPair, params, class_batch, per_class_batches, pool,
                      config: GdroConfig):
    """``gdro_step`` through ``hinge_stats_per_row`` and ``coefficients_per_row``,
    which read the estimates back from the state after ``_update``, and a first
    backward block of its own: zeros, the diagonal, then coef1."""
    rows, sizes = _anchor_rows(class_batch, per_class_batches, pool)
    stats, encodings = hinge_stats_per_row(enc, params, rows, pool, config.margin, config.tau)
    anchors = _anchors(pool, rows, class_batch, sizes)
    state.samples.grow(len(pool))
    _update(state, anchors, stats[3], config)
    coef1, coef2 = coefficients_per_row(state, rows, sizes, class_batch, stats, config)
    n = len(rows)
    block = np.zeros((n, n + coef1.shape[1]))
    np.fill_diagonal(block, -(coef1.sum(axis=1) + coef2.sum(axis=1)))
    block[:, n:] = coef1
    grad = _gradient(enc, block, coef2, anchors, encodings, stats[4], WorkArrays())
    return dro_objective(state.class_losses()[1], config.lam), grad


def dict_moving_average(store: dict, keys, values, gamma, floor=None) -> None:
    """In-place ``store[k] <- (1 - gamma) * store[k] + gamma * v`` per (k, v) pair,
    one key at a time; a key's first update writes ``v``, and ``floor`` raises
    each result to at least ``floor`` with Python's ``max``."""
    for key, value in zip(keys, values):
        value = float(value)
        old = store.get(key)
        new = value if old is None else (1 - gamma) * old + gamma * value
        store[key] = new if floor is None else max(floor, new)


def backward_add_at(enc: EncoderPair, g, cache, dZ):
    """``EncoderPair._backward`` with the label tower's one-hot first layer
    scattered through ``np.add.at`` into a zeroed (classes x rows) array."""
    layers = enc._layers[cache["tower"]]
    for k in reversed(range(len(layers))):
        w_slice, b_slice, (rows, cols) = layers[k]
        A = cache["A"][k]
        if k == 0 and cache["tower"] == "e2":
            dWt = np.zeros((cols, rows))
            np.add.at(dWt, A, dZ)
            g[w_slice] = dWt.T.ravel()
        else:
            g[w_slice] = (dZ.T @ A).ravel()
        g[b_slice] = dZ.sum(axis=0)
        if k > 0:
            dZ = (dZ @ cache["W"][k]) * (1.0 - A * A)


@dataclass(frozen=True, eq=False)
class Record:
    """One labeled example, as the per-sample oracles hold it."""

    x: np.ndarray
    class_id: int
    sample_id: int
    domain_id: int = 0


def records(pool: Pool) -> list[Record]:
    """The rows of ``pool`` as records, in order."""
    return [Record(x, k, i) for x, k, i in zip(pool.X, pool.y.tolist(), pool.ids)]


def dataset_records(ds) -> list[Record]:
    """The rows of the Dataset ``ds`` as records, in order, with their domains."""
    domains = ds.domain_ids.tolist() if ds.has_domains else [0] * len(ds.y)
    return [Record(*row) for row in zip(ds.X, ds.y.tolist(), ds.ids.tolist(), domains)]


def rows(recs) -> Pool:
    """The records' rows as a Pool, one row per record in order."""
    if not recs:
        return Pool.concat([])
    return Pool(
        np.array([r.x for r in recs], dtype=np.float64),
        np.array([r.class_id for r in recs], dtype=np.int64),
        [r.sample_id for r in recs],
    )


class SampleBuffer:
    """The class-balanced replay buffer kept as ``slots``, a list of samples per
    class; a class that falls to quota 0 keeps an empty list."""

    def __init__(self, capacity, rng_seed):
        self.capacity = capacity
        self.slots: dict[int, list] = {}
        self._rng = np.random.default_rng(rng_seed)

    def class_counts(self) -> dict[int, int]:
        return {k: len(v) for k, v in sorted(self.slots.items())}

    def rebalance_after_task(self, samples):
        incoming: dict[int, list] = {}
        for s in samples:
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

    def union_view(self, samples) -> Pool:
        return rows([s for k in sorted(self.slots) for s in self.slots[k]] + list(samples))


def _stratified_split_samples(samples, test_fraction, rng):
    """Per-class shuffle, first round(n * fraction) to test. Order: class-ascending."""
    by_class: dict[int, list] = {}
    for s in samples:
        by_class.setdefault(s.class_id, []).append(s)
    train, test = [], []
    for k in sorted(by_class):
        members = by_class[k]
        idx = rng.permutation(len(members))
        n_test = int(round(len(members) * test_fraction))
        test.extend(members[i] for i in sorted(idx[:n_test]))
        train.extend(members[i] for i in sorted(idx[n_test:]))
    return train, test


def split_cil_samples(samples, num_classes, num_tasks, test_fraction, seed):
    """``split_cil`` over a list of samples: [(train, test, classes)] per task."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(num_classes)
    per_task = num_classes // num_tasks
    tasks = []
    for t in range(num_tasks):
        block = set(int(c) for c in order[t * per_task : (t + 1) * per_task])
        members = [s for s in samples if s.class_id in block]
        tasks.append((*_stratified_split_samples(members, test_fraction, rng), frozenset(block)))
    return tasks


def split_dil_samples(samples, num_classes, domain_order, test_fraction, seed):
    """``split_dil`` over a list of samples: [(train, test, classes)] per task."""
    rng = np.random.default_rng(seed)
    tasks = []
    for d in domain_order:
        members = [s for s in samples if s.domain_id == d]
        train, test = _stratified_split_samples(members, test_fraction, rng)
        tasks.append((train, test, frozenset(range(num_classes))))
    return tasks


def read_accuracy_csv(path):
    """Inverse of report.accuracy_csv_text: (entries, aggregate, config_hash)."""
    entries: dict[tuple[int, int], float] = {}
    aggregate: dict[int, float] = {}
    config_hash = ""
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                if "config_sha256=" in line:
                    config_hash = line.split("config_sha256=")[1]
                continue
            if not line or line.startswith("after_task"):
                continue
            t_s, b_s, a_s = line.split(",")
            t, b = int(t_s), int(b_s)
            if b == -1:
                aggregate[t] = float(a_s)
            else:
                entries[(t, b)] = float(a_s)
    return entries, aggregate, config_hash
