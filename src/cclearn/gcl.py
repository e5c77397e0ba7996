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
vectorised ``moving_average`` that gdro shares.

Every batch is rows of the stage pool.  A training step is one call to
``gcl_step(state, enc, params, pool, rows, tau)``: it gathers and encodes the
batch rows once, takes the loss from the batch logits S, updates the state in
place and forms the gradient coefficients, the update and the coefficients
sharing one exp(S) and one gather of the rows' columns from the pool's column
map (``MovingAverages.row_columns``, built once per pool); the backward reuses
the batch similarities.  ``gcl_loss_full``, ``gcl_update_estimators`` (in
place; returns the same state) and ``gcl_gradient_estimate`` are each one of
those parts on its own, built from the same private pieces.  They take their
batch as a ``Pool``, or as a list of Pools that ``Pool.of`` joins, and look
its ids up one by one.
"""

from __future__ import annotations

import weakref
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

    ``row_columns`` maps rows of a pool to their keys' columns through a map
    it builds once per pool and fills as rows are first touched, so a step
    gathers its columns without looking up a key.  The map holds columns, no
    estimate; retiring a column would have to rebuild it.
    """

    def __init__(self, rows: int):
        self.slot: dict[int, int] = {}
        self.values = np.zeros((rows, _FIRST_CAPACITY))
        self.initialized = np.zeros(_FIRST_CAPACITY, dtype=bool)
        self._pool = lambda: None  # weak reference to the pool ``_pool_cols`` maps
        self._pool_cols = np.empty(0, dtype=np.intp)  # each row's column, -1 if unmapped
        self._unmapped = 0  # rows of the pool with column -1

    def columns(self, keys) -> np.ndarray:
        """Each key's column, giving a key seen for the first time the next free one.
        Refuses repeated keys, naming one, before giving out any column."""
        slot = self.slot
        if len(set(keys)) != len(keys):
            raise ValueError(
                f"the ids of one estimator update must not repeat: {_first_repeat(keys)} does"
            )
        cols = [slot.setdefault(key, len(slot)) for key in keys]
        size = self.initialized.size
        if len(slot) >= size:
            values = np.zeros((len(self.values), max(2 * size, len(slot) + 1)))
            initialized = np.zeros(values.shape[1], dtype=bool)
            values[:, :size], initialized[:size] = self.values, self.initialized
            self.values, self.initialized = values, initialized
        return np.array(cols, dtype=np.intp)

    def row_columns(self, pool, rows) -> np.ndarray:
        """The columns of the ids of ``pool``'s rows ``rows`` (an integer array), as
        ``columns(ids)`` gives them.  Refuses repeated ids, naming one, before
        giving out any column."""
        if self._pool() is not pool:
            self._pool, self._pool_cols = weakref.ref(pool), np.full(len(pool), -1, np.intp)
            self._unmapped = len(pool)
        cols = self._pool_cols[rows]
        if self._unmapped and cols.min(initial=0) < 0:  # rows not mapped yet
            fresh = np.count_nonzero(cols < 0)
            cols = self._pool_cols[rows] = self.columns([pool.ids[i] for i in rows.tolist()])
            self._unmapped -= fresh
        elif len(set(cols.tolist())) != len(cols):
            self.columns(self._keys(cols))  # refuses, naming the id
        return cols

    def _keys(self, cols) -> list:
        """The key of each of the columns ``cols``, which must have been given out."""
        keys = list(self.slot)
        return [keys[c] for c in np.asarray(cols).tolist()]

    def read(self, keys, cols=None, what="sample", positive=True) -> np.ndarray:
        """The (rows, n) estimates of ``keys``, whose columns are ``cols`` when known
        (``keys`` may then be None).  Refuses a key without an estimate and, with
        ``positive``, a non-positive estimate, naming the first such key."""
        if cols is None:
            cols = np.array([self.slot.get(key, -1) for key in keys], dtype=np.intp)
        u = self.values[:, cols]
        ready = self.initialized[cols]
        if not ready.all() or (positive and (u <= 0).any()):
            for key, ok, col in zip(self._keys(cols) if keys is None else keys, ready, u.T):
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


def _first_repeat(items):
    """The first item equal to an earlier one, or None."""
    seen = set()
    return next((item for item in items if item in seen or seen.add(item)), None)


def _check_tau(tau):
    if not tau > 0:
        raise ValueError(f"tau must be > 0, got {tau}")
    return float(tau)


def _check_rows(rows, pool, what="the batch"):
    """Refuses ``rows`` unless it is a 1-d integer array of rows of ``pool``, in
    one line naming ``what``: a negative row would wrap to the pool's end, a
    bool array would act as a mask."""
    if not isinstance(rows, np.ndarray) or rows.ndim != 1 or rows.dtype.kind not in "iu":
        raise ValueError(f"{what} needs its rows as a 1-d integer array")
    if len(rows) and (rows.min() < 0 or rows.max() >= len(pool)):
        raise ValueError(f"rows for {what} fall outside the pool")


def moving_average(table: MovingAverages, cols, values, gamma, floor=None) -> np.ndarray:
    """In place, per column c and row r: ``u[r, c] <- (1 - gamma) * u[r, c] + gamma * v[r, c]``
    for the (rows, len(cols)) ``values`` and the distinct columns ``cols`` of
    ``table`` (``columns`` or ``row_columns``).  Returns the (rows, len(cols))
    values written.

    A column's first update writes ``v`` itself, whatever gamma is.  With
    ``floor``, each result is raised to at least ``floor`` (a NaN becomes
    ``floor``).  gcl and gdro keep all their per-sample and per-class averages
    through this one function; only gdro's scalar v, which needs the shifted
    form, is updated elsewhere.
    """
    values = np.asarray(values, dtype=np.float64)
    new = (1 - gamma) * table.values[:, cols] + gamma * values
    init = table.initialized[cols]
    if not init.all():
        new[:, ~init] = values[:, ~init]
        table.initialized[cols] = True
    new = new if floor is None else np.fmax(floor, new)
    table.values[:, cols] = new
    return new


def _batch_logits(enc, params, batch, tau, rows=None):
    """The batch (a Pool, or a list of Pools joined into one), s_ab/tau over the
    (input, label) pairs of its rows ``rows`` (an integer array), or of all its
    rows with ``rows`` None, their similarities s_ab and the two towers' forward
    results.  Refuses a non-positive tau and an empty batch."""
    tau = _check_tau(tau)
    batch = Pool.of(batch)
    X, y = (batch.X, batch.y) if rows is None else (batch.X[rows], batch.y[rows])
    if not len(y):
        raise ValueError("batch must be non-empty")
    f1, f2, sims = enc.pair_forward(params, X, y)
    return batch, sims / tau, sims, (f1, f2)


def _loss(S) -> float:
    """The exact loss of a batch from its logits S, whose normalizers range over
    the whole batch; computed in log domain for stability."""
    d = np.diag(S)
    row_max = S.max(axis=1)
    col_max = S.max(axis=0)
    lse_rows = row_max + np.log(np.exp(S - row_max[:, None]).sum(axis=1))
    lse_cols = col_max + np.log(np.exp(S - col_max[None, :]).sum(axis=0))
    return float((lse_rows - d).sum() / len(d) + (lse_cols - d).sum() / len(d))


def _update(state, cols, E, pool_size) -> np.ndarray:
    """In-place moving averages of u_I, u_T at the batch's columns ``cols`` of
    ``state.samples`` from E = exp(S): row and column sums rescaled by
    pool_size/|B| to target the full-pool normalizers.  Returns the updated
    (2, |B|) estimates, each floored to a positive value."""
    scale = pool_size / len(cols)
    sums = scale * np.array([E.sum(axis=1), E.sum(axis=0)])
    return moving_average(state.samples, cols, sums, state.gamma, U_FLOOR)


def _coefficients(E, pool_size, u) -> np.ndarray:
    """The pair coefficients of the gradient estimator m, from E = exp(S) and the
    batch's (2, |B|) estimates u = (u_I, u_T):

        C[a, b] = scale * exp(s_ab/tau) * (1/u_I[a] + 1/u_T[b]) / (2|B|)
        C[a, a] -= 1/|B|

    with scale = pool_size/|B| matching the estimator update convention.
    """
    n = len(E)
    inv_u = 1.0 / u
    C = pool_size / n * E * (inv_u[0][:, None] + inv_u[1][None, :]) / (2.0 * n)
    C[np.diag_indices(n)] -= 1.0 / n
    return C


def gcl_step(
    state: GclEstimatorState, enc: EncoderPair, params, pool, rows, tau
) -> tuple[float, np.ndarray]:
    """One training step on the batch ``rows`` (an integer array) of the stage
    ``pool``: the batch loss, then the in-place estimator update, then the
    gradient estimate m from the updated state, all from one encoding of the
    rows.  The rows' estimator columns are one gather (``row_columns``), and
    the backward reuses the batch similarities.  Bitwise the same as
    ``gcl_loss_full``, ``gcl_update_estimators`` and ``gcl_gradient_estimate``
    on ``pool.take(rows)`` with pool size ``len(pool)``, in that order.  Refuses,
    before any state change, rows that are not a 1-d integer array of rows of
    ``pool``."""
    _check_rows(rows, pool)
    _, S, sims, fwd = _batch_logits(enc, params, pool, tau, rows)
    E = np.exp(S)
    loss = _loss(S)
    u = _update(state, state.samples.row_columns(pool, rows), E, len(pool))
    return loss, enc.pair_grad(*fwd, _coefficients(E, len(pool), u), sims)


def gcl_loss_full(enc: EncoderPair, params, pool, tau) -> float:
    """Exact loss over the samples it is given, whose normalizers range over all of them."""
    return _loss(_batch_logits(enc, params, pool, tau)[1])


def gcl_update_estimators(
    state: GclEstimatorState, enc: EncoderPair, params, batch, tau, pool_size
) -> GclEstimatorState:
    """Moving-average update of u_I, u_T for every anchor in the batch, in place.
    Refuses a pool size below the batch size before any state change."""
    batch, S, _, _ = _batch_logits(enc, params, batch, tau)
    if pool_size < len(batch):
        raise ValueError("pool_size must be >= batch size")
    _update(state, state.samples.columns(batch.ids), np.exp(S), pool_size)
    return state


def gcl_gradient_estimate(
    state: GclEstimatorState, enc: EncoderPair, params, batch, tau, pool_size
) -> np.ndarray:
    """Mini-batch gradient estimator m (module docstring), through one coefficient
    matrix (``_coefficients``) and one backward pass."""
    batch, S, sims, fwd = _batch_logits(enc, params, batch, tau)
    u = state.samples.read(batch.ids)
    return enc.pair_grad(*fwd, _coefficients(np.exp(S), pool_size, u), sims)
