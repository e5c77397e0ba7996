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
earlier stages forward.  The estimates live in arrays (``MovingAverages``):
one column per pool row, an initialized mask, and one vectorised
``moving_average`` that gdro shares.  A sample's column is its row in the
pool the state is stepped on.  Between stages the runner moves the estimates
with the buffer's rows (``MovingAverages.carry``): a stored row keeps its
estimate in its new pool row's column, and a new task's rows start without
one.

Every batch is rows of the stage pool.  A training step is one call to
``_gcl_loss_and_grad`` on a prepared batch: the rows' inputs and classes,
checked and gathered, and the rows, which are their estimator columns.  It
encodes the rows once, takes the loss from the batch logits S, updates the
state in place and forms the gradient coefficients, the update and the
coefficients sharing one exp(S); the backward reuses the batch similarities.
The loss is a diagnostic that neither the update nor the gradient reads, so
on a step the runner does not log it is computed only if some logit exceeds
1e300 in magnitude, the one case in which it could be non-finite; the
runner's divergence check then fires at the same step whatever
``log_every`` is.  The runner prepares an epoch's batches at once, as slices
of one gather of its shuffled rows.  Training never calls ``gcl_step(state,
enc, params, pool, rows, tau)``, the one-batch entry: it prepares one batch
of rows of the pool, with every per-call check, refusing repeated rows, and
then takes the same step, loss included.
``gcl_loss_full``, ``gcl_update_estimators`` (in place; returns the same
state) and ``gcl_gradient_estimate`` are each one of those parts on its own,
built from the same private pieces.  They take a batch as a ``Pool``, or as
a list of Pools that ``Pool.of`` joins, and its rows are their columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Pool, _check_reals, _first_repeat
from .model import EncoderPair

# positive floor keeps 1/u finite if an estimate underflows
U_FLOOR = 1e-300
# logits within this bound in magnitude give a finite loss: every shifted
# logit of ``_loss`` lies in [-2e300, 0], each log-sum-exp term is at most
# 2e300 + log n, and their sums stay finite for any n below 8e7 rows
_LOGIT_BOUND = 1e300


class MovingAverages:
    """``rows`` moving averages per column: ``values`` (rows x columns), zero
    where no update wrote, and the ``initialized`` mask, the initialization
    flag.  A sample's column is its row in the pool the state is stepped on, a
    class's its class id; ``grow`` widens the table and ``carry`` moves it to
    the next stage's pool."""

    def __init__(self, rows: int):
        self.values = np.zeros((rows, 0))
        self.initialized = np.zeros(0, dtype=bool)

    def carry(self, rows, size) -> None:
        """Makes the table ``size`` columns wide, column i holding old column
        ``rows[i]`` and every column past ``len(rows)`` no estimate."""
        values = np.zeros((len(self.values), size))
        initialized = np.zeros(size, dtype=bool)
        values[:, : len(rows)] = self.values[:, rows]
        initialized[: len(rows)] = self.initialized[rows]
        self.values, self.initialized = values, initialized

    def grow(self, size) -> None:
        """Widens the table to ``size`` columns if it is narrower; the new
        columns hold no estimate."""
        if size > len(self.initialized):
            self.carry(np.arange(len(self.initialized)), size)

    def read(self, cols, keys, what="sample", positive=True) -> np.ndarray:
        """The (rows, n) estimates in columns ``cols``, which hold ``keys`` (the
        ids or classes that name them).  Refuses a column without an estimate,
        one past the table's end included, and, with ``positive``, a
        non-positive estimate, naming the first such column's key."""
        cols = np.asarray(cols, dtype=np.intp)
        ready = cols < len(self.initialized)
        ready[ready] = self.initialized[cols[ready]]
        u = self.values[:, cols[ready]]
        bad = ~ready
        if positive:
            bad[ready] |= (u <= 0).any(axis=0)
        if bad.any():
            i = int(np.argmax(bad))
            fault = "non-positive estimator value" if ready[i] else "estimator not initialized"
            raise ValueError(f"{fault} for {what} {keys[i]}")
        return u


@dataclass(eq=False)
class GclEstimatorState:
    """Per-sample moving averages of the two normalizer sums.

    ``samples`` holds u_I (row 0) and u_T (row 1) per pool row; its
    ``initialized`` mask is the initialization flag.  The first update of a
    sample writes the pure in-batch estimate regardless of gamma, so gamma=0
    freezes an initialized estimator without ever dividing by zero.
    """

    gamma: float
    samples: MovingAverages = field(default_factory=lambda: MovingAverages(2))

    def __post_init__(self):
        _check_reals(gamma=self.gamma)
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")


def _check_tau(tau):
    if not tau > 0:
        raise ValueError(f"tau must be > 0, got {tau}")
    return float(tau)


def _check_distinct(rows, pool):
    """Refuses ``rows`` of ``pool`` that repeat, naming the first repeated row's
    id: one estimator update writes each row's column once."""
    listed = rows.tolist()
    if len(set(listed)) < len(listed):
        repeat = pool.ids[_first_repeat(listed)]
        raise ValueError(f"the ids of one estimator update must not repeat: {repeat} does")


def _check_rows(rows, pool, what="the batch"):
    """Refuses ``rows`` unless it is a 1-d integer array of rows of ``pool``, in
    one line naming ``what``: a negative row would wrap to the pool's end (as a
    uint64 it is past the end), a bool array would act as a mask."""
    if not isinstance(rows, np.ndarray) or rows.ndim != 1 or rows.dtype.kind not in "iu":
        raise ValueError(f"{what} needs its rows as a 1-d integer array")
    if np.maximum.reduce(rows.astype(np.uint64), initial=0) >= len(pool):
        raise ValueError(f"rows for {what} fall outside the pool")


def moving_average(table: MovingAverages, cols, values, gamma, floor=None) -> np.ndarray:
    """In place, per column c and row r: ``u[r, c] <- (1 - gamma) * u[r, c] + gamma * v[r, c]``
    for the (rows, len(cols)) ``values`` and the distinct columns ``cols`` of
    ``table``, each inside it.  Returns the (rows, len(cols)) values written.

    A column's first update writes ``v`` itself, whatever gamma is.  With
    ``floor``, each result is raised to at least ``floor`` (a NaN becomes
    ``floor``).  gcl and gdro keep all their per-sample and per-class averages
    through this one function; only gdro's scalar v, which needs the shifted
    form, is updated elsewhere.
    """
    values = np.asarray(values, dtype=np.float64)
    new = (1 - gamma) * table.values.take(cols, axis=1) + gamma * values
    init = table.initialized[cols]
    if np.count_nonzero(init) < len(init):
        new[:, ~init] = values[:, ~init]
        table.initialized[cols] = True
    new = new if floor is None else np.fmax(floor, new)
    table.values[:, cols] = new
    return new


def _batch_logits(enc, params, batch, tau):
    """The batch (a Pool, or a list of Pools joined into one), s_ab/tau over the
    (input, label) pairs of its rows, their similarities s_ab and the two
    towers' forward results.  Refuses a non-positive tau and an empty batch."""
    tau = _check_tau(tau)
    batch = Pool.of(batch)
    if not len(batch):
        raise ValueError("batch must be non-empty")
    f1, f2, sims = enc.pair_forward(params, batch.X, batch.y)
    return batch, sims / tau, sims, (f1, f2)


def _loss(S) -> float:
    """The exact loss of a batch from its logits S, whose normalizers range over
    the whole batch; computed in log domain for stability, with the row- and the
    column-shifted logits exponentiated in one call."""
    n = len(S)
    top, lse, shifted = np.empty((2, n)), np.empty((2, n)), np.empty((2, n, n))
    np.maximum.reduce(S, axis=1, out=top[0])
    np.maximum.reduce(S, axis=0, out=top[1])
    np.subtract(S, top[0][:, None], out=shifted[0])
    np.subtract(S, top[1], out=shifted[1])
    np.exp(shifted, out=shifted)
    np.add.reduce(shifted[0], axis=1, out=lse[0])
    np.add.reduce(shifted[1], axis=0, out=lse[1])
    np.log(lse, out=lse)
    lse += top
    lse -= S.diagonal()
    rows, cols = np.add.reduce(lse, axis=1)
    return float(rows / n + cols / n)


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
    C = inv_u[0][:, None] + inv_u[1]
    C *= pool_size / n * E
    C /= 2.0 * n
    C.ravel()[:: n + 1] -= 1.0 / n  # the diagonal
    return C


def _gcl_loss_and_grad(
    state: GclEstimatorState, enc: EncoderPair, params, X, y, cols, pool_size, tau,
    logged=True,
) -> tuple[float | None, np.ndarray]:
    """One training step on a prepared batch: its rows' inputs ``X`` and classes
    ``y``, their estimator columns ``cols`` and the size of their pool, with tau
    a positive float.  The batch loss, then the in-place estimator update, then
    the gradient estimate m from the updated state, all from one encoding of
    the rows; the backward reuses the batch similarities.

    The update and the gradient never read the loss, so a step whose loss is
    not logged (``logged`` false) computes it only where it could be
    non-finite: when every logit is within ``_LOGIT_BOUND`` the loss is
    finite and None stands in its place; otherwise it is ``_loss(S)``, NaN
    or inf included.  The state and the gradient are the same bits either
    way."""
    f1, f2, sims = enc.pair_forward(params, X, y)
    S = sims / tau
    E = np.exp(S)
    finite = not logged and np.maximum.reduce(np.abs(S), axis=None) <= _LOGIT_BOUND
    loss = None if finite else _loss(S)
    u = _update(state, cols, E, pool_size)
    return loss, enc.pair_grad(f1, f2, _coefficients(E, pool_size, u), sims)


def gcl_step(
    state: GclEstimatorState, enc: EncoderPair, params, pool, rows, tau
) -> tuple[float, np.ndarray]:
    """One training step on the batch ``rows`` (an integer array) of the stage
    ``pool``, which are its estimator columns: the batch's checks and gathers,
    then ``_gcl_loss_and_grad``, the step the runner takes on batches it
    prepared once per epoch, with its loss always computed.  Bitwise
    ``gcl_loss_full``, ``gcl_update_estimators`` and ``gcl_gradient_estimate``
    on ``pool.take(rows)`` with pool size ``len(pool)``, in that order, on the
    state carried to the batch (``carry(rows, len(rows))``); a state moves to
    another pool only by ``carry``.  Refuses, before any state change, rows
    that are not a 1-d integer array of rows of ``pool``, a non-positive tau,
    an empty batch, input the forwards refuse and rows that repeat.  A forward
    refused for its embedding norm may leave the table widened to the pool,
    with no estimate in the new columns, which changes no later result."""
    _check_rows(rows, pool)
    tau = _check_tau(tau)
    if not len(rows):
        raise ValueError("batch must be non-empty")
    X = enc._check_inputs(pool.X.take(rows, axis=0))
    y = enc._check_class_ids(pool.y[rows])
    _check_distinct(rows, pool)
    state.samples.grow(len(pool))
    return _gcl_loss_and_grad(state, enc, params, X, y, rows, len(pool), tau)


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
    state.samples.grow(len(batch))
    _update(state, np.arange(len(batch)), np.exp(S), pool_size)
    return state


def gcl_gradient_estimate(
    state: GclEstimatorState, enc: EncoderPair, params, batch, tau, pool_size
) -> np.ndarray:
    """Mini-batch gradient estimator m (module docstring), through one coefficient
    matrix (``_coefficients``) and one backward pass."""
    batch, S, sims, fwd = _batch_logits(enc, params, batch, tau)
    u = state.samples.read(np.arange(len(batch)), batch.ids)
    return enc.pair_grad(*fwd, _coefficients(np.exp(S), pool_size, u), sims)
