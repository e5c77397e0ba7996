"""Global contrastive loss with moving-average normalizer estimators.

The loss is a symmetric two-tower contrastive objective whose per-anchor
normalizers sum exp(sim/tau) over the *entire* pool (current task plus replay
memory), not just a mini-batch:

    L = mean_i [ -s_ii/tau + log sum_j exp(s_ij/tau) ]        (input anchors)
      + mean_i [ -s_ii/tau + log sum_j exp(s_ji/tau) ]        (label anchors)

with s_ij = sim(x_i, label_j).  The positive pair is included in its own
normalizer, so each log term is >= 0 and the loss is >= 0.

Mini-batch training keeps per-sample moving averages u_I[i], u_T[i] of the two
normalizer sums.  In-batch sums are rescaled by pool_size/batch_size so they
estimate the full-pool values, which makes the full-batch, gamma=1
configuration exact.  The resulting gradient estimator

    m = sum_{i in B} [ -grad s_ii / |B|
                       + tau/(2|B| u_I[i]) * grad g_I(i, B)
                       + tau/(2|B| u_T[i]) * grad g_T(i, B) ]

targets (tau/2) * grad L: the positive-pair term carries no 1/tau and the
normalizer terms carry tau/2, which is L's gradient scaled by tau/2.  The
full-batch identity m == (tau/2) * grad L is what the test suite pins down.

Estimator state persists across tasks, carrying normalizer information from
earlier stages forward, keyed by ``Pool.ids``.  The estimates live in arrays
(``MovingAverages``): one column per sample id, an initialized mask, and one
vectorised ``moving_average`` that gdro shares.  A training step is one call
to ``gcl_step``: it encodes the batch once, takes the loss from the batch
logits S, updates the state in place and forms the gradient coefficients, the
update and the coefficients sharing one exp(S) and one id -> column lookup.
``gcl_loss_full``, ``gcl_update_estimators`` (in place; returns the same
state) and ``gcl_gradient_estimate`` are each one of those parts on its own,
built from the same private pieces.  Each entry point takes its batch as a
``Pool``, or as a list of Pools that ``Pool.of`` joins.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Pool
from .model import EncoderPair

# positive floor keeps 1/u finite if an estimate underflows
U_FLOOR = 1e-300
# columns of a fresh MovingAverages; the arrays double from there
_FIRST_CAPACITY = 64


class MovingAverages:
    """``rows`` moving averages per key (a sample or class id), one column per key.

    ``slot`` maps each key to its column of ``values`` (rows x capacity), in
    first-touch order, and ``initialized`` marks the columns written so far:
    that mask is the initialization flag.  Both arrays grow geometrically, and
    new columns start at zero, so no step reads uninitialized memory.  The
    last column is never handed out, so a key without a column reads it, as
    column -1, and finds no estimate there.
    """

    def __init__(self, rows: int):
        self.slot: dict[int, int] = {}
        self.values = np.zeros((rows, _FIRST_CAPACITY))
        self.initialized = np.zeros(_FIRST_CAPACITY, dtype=bool)

    def columns(self, keys) -> np.ndarray:
        """Each key's column, giving a key seen for the first time the next free one."""
        slot = self.slot
        cols = [slot.setdefault(key, len(slot)) for key in keys]
        size = self.initialized.size
        if len(slot) >= size:
            values = np.zeros((len(self.values), max(2 * size, len(slot) + 1)))
            initialized = np.zeros(values.shape[1], dtype=bool)
            values[:, :size], initialized[:size] = self.values, self.initialized
            self.values, self.initialized = values, initialized
        return np.array(cols, dtype=np.intp)

    def read(self, keys, cols=None, what="sample", positive=True) -> np.ndarray:
        """The (rows, n) estimates of ``keys``, whose columns are ``cols`` when known.
        Refuses a key without an estimate and, with ``positive``, a non-positive
        estimate, naming the first such key."""
        if cols is None:
            cols = np.array([self.slot.get(key, -1) for key in keys], dtype=np.intp)
        u = self.values[:, cols]
        ready = self.initialized[cols]
        if not ready.all() or (positive and (u <= 0).any()):
            for key, ok, col in zip(keys, ready, u.T):
                if not ok:
                    raise ValueError(f"estimator not initialized for {what} {key}")
                if positive and (col <= 0).any():
                    raise ValueError(f"non-positive estimator value for {what} {key}")
        return u


@dataclass(eq=False)
class GclEstimatorState:
    """Per-sample moving averages of the two normalizer sums.

    ``samples`` holds u_I (row 0) and u_T (row 1) per sample id; its
    ``initialized`` mask is the initialization flag.  The first update of a
    sample writes the pure in-batch estimate regardless of gamma, so gamma=0
    freezes an initialized estimator without ever dividing by zero.
    """

    gamma: float
    samples: MovingAverages = field(default_factory=lambda: MovingAverages(2))

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")


def _check_tau(tau):
    if not tau > 0:
        raise ValueError(f"tau must be > 0, got {tau}")
    return float(tau)


def moving_average(table: MovingAverages, keys, values, gamma, floor=None) -> np.ndarray:
    """In place, per key k and row r: ``u[r, k] <- (1 - gamma) * u[r, k] + gamma * v[r, k]``
    for the (rows, len(keys)) ``values``.  Returns the keys' columns of ``table``.

    A key's first update writes ``v`` itself, whatever gamma is.  With
    ``floor``, each result is raised to at least ``floor`` (a NaN becomes
    ``floor``).  Refuses repeated keys, since one update writes each key once.
    gcl and gdro keep all their per-sample and per-class averages through
    this one function; only gdro's scalar v, which needs the shifted form, is
    updated elsewhere.
    """
    if len(set(keys)) != len(keys):
        raise ValueError("the ids of one estimator update must not repeat")
    values = np.asarray(values, dtype=np.float64)
    cols = table.columns(keys)
    new = (1 - gamma) * table.values[:, cols] + gamma * values
    init = table.initialized[cols]
    if not init.all():
        new[:, ~init] = values[:, ~init]
        table.initialized[cols] = True
    table.values[:, cols] = new if floor is None else np.fmax(floor, new)
    return cols


def sample_estimates(state, ids, cols=None) -> np.ndarray:
    """The (2, n) array of (u_I, u_T) per sample id, whose columns are ``cols`` when
    known; refuses missing or non-positive estimates, naming the first such id."""
    return state.samples.read(ids, cols)


def _batch_logits(enc, params, batch, tau):
    """The batch (a Pool, or a list of Pools joined into one), s_ab/tau over its
    (input, label) pairs, and the two towers' forward results.  Refuses a
    non-positive tau and an empty batch."""
    tau = _check_tau(tau)
    batch = Pool.of(batch)
    if not batch:
        raise ValueError("batch must be non-empty")
    f1 = enc._forward_inputs(params, batch.X)
    f2 = enc._forward_labels(params, batch.y)
    return batch, (f1[0] @ f2[0].T) / tau, (f1, f2)


def _loss(S) -> float:
    """The exact loss of a batch from its logits S, whose normalizers range over
    the whole batch; computed in log domain for stability."""
    d = np.diag(S)
    row_max = S.max(axis=1)
    col_max = S.max(axis=0)
    lse_rows = row_max + np.log(np.exp(S - row_max[:, None]).sum(axis=1))
    lse_cols = col_max + np.log(np.exp(S - col_max[None, :]).sum(axis=0))
    return float((lse_rows - d).sum() / len(d) + (lse_cols - d).sum() / len(d))


def _update(state, ids, E, pool_size) -> np.ndarray:
    """In-place moving averages of u_I, u_T from E = exp(S): row and column sums
    rescaled by pool_size/|B| to target the full-pool normalizers.  Returns the
    ids' columns of ``state.samples``."""
    if pool_size < len(ids):
        raise ValueError("pool_size must be >= batch size")
    scale = pool_size / len(ids)
    sums = scale * np.array([E.sum(axis=1), E.sum(axis=0)])
    return moving_average(state.samples, ids, sums, state.gamma, U_FLOOR)


def _coefficients(state, ids, E, pool_size, cols=None) -> np.ndarray:
    """The pair coefficients of the gradient estimator m, from E = exp(S):

        C[a, b] = scale * exp(s_ab/tau) * (1/u_I[a] + 1/u_T[b]) / (2|B|)
        C[a, a] -= 1/|B|

    with scale = pool_size/|B| matching the estimator update convention.
    ``cols`` are the ids' columns of ``state.samples`` when known.
    """
    n = len(ids)
    inv_u = 1.0 / sample_estimates(state, ids, cols)
    C = pool_size / n * E * (inv_u[0][:, None] + inv_u[1][None, :]) / (2.0 * n)
    C[np.diag_indices(n)] -= 1.0 / n
    return C


def gcl_step(
    state: GclEstimatorState, enc: EncoderPair, params, batch, tau, pool_size
) -> tuple[float, np.ndarray]:
    """One training step: the batch loss, then the in-place estimator update, then
    the gradient estimate m from the updated state, all from one encoding of the
    batch.  Bitwise the same as ``gcl_loss_full``, ``gcl_update_estimators`` and
    ``gcl_gradient_estimate`` called in that order."""
    batch, S, fwd = _batch_logits(enc, params, batch, tau)
    E = np.exp(S)
    loss = _loss(S)
    cols = _update(state, batch.ids, E, pool_size)
    return loss, enc.pair_grad(*fwd, _coefficients(state, batch.ids, E, pool_size, cols))


def gcl_loss_full(enc: EncoderPair, params, pool, tau) -> float:
    """Exact loss over the samples it is given, whose normalizers range over all of them."""
    return _loss(_batch_logits(enc, params, pool, tau)[1])


def gcl_update_estimators(
    state: GclEstimatorState, enc: EncoderPair, params, batch, tau, pool_size
) -> GclEstimatorState:
    """Moving-average update of u_I, u_T for every anchor in the batch, in place."""
    batch, S, _ = _batch_logits(enc, params, batch, tau)
    _update(state, batch.ids, np.exp(S), pool_size)
    return state


def gcl_gradient_estimate(
    state: GclEstimatorState, enc: EncoderPair, params, batch, tau, pool_size
) -> np.ndarray:
    """Mini-batch gradient estimator m (module docstring), through one coefficient
    matrix (``_coefficients``) and one backward pass."""
    batch, S, fwd = _batch_logits(enc, params, batch, tau)
    return enc.pair_grad(*fwd, _coefficients(state, batch.ids, np.exp(S), pool_size))
