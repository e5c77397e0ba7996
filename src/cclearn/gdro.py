"""KL-regularized group-robust objective over per-class contrastive losses.

Replay buffers shrink per-class counts as classes accumulate, so the pool gets
imbalanced.  This module reweights classes adversarially: per-class losses

    h_k = 1/(2 n_k) * sum_{i: class(i)=k} ( tau*log g1(i) + tau*log g2(i) )

    g1(i) = mean over negatives j of exp( hinge(s_ij - s_ii + margin)^2 / tau )
    g2(i) = mean over negatives j of exp( hinge(s_ji - s_ii + margin)^2 / tau )

feed the robust objective

    F = lam * log( (1/K) * sum_k exp(h_k / lam) )

which is the closed-form value of max over simplex weights p of
sum_k p_k h_k - lam * KL(p || uniform); the maximizing weights are
softmax(h / lam).  Harder classes (larger h_k) get larger weight, and lam
interpolates between the mean (lam -> inf) and the max (lam -> 0) of h.

Negatives are always drawn from the full pool (task data plus memory): the
per-class loss is a pool-level quantity, and at desk scale scoring each
sampled anchor against the whole pool is affordable.  g1/g2 are means over
negatives, so an in-batch estimate needs no extra rescaling to target the
pool value; the full-batch, gamma=1 configuration is exact, and there the
stochastic gradient estimator

    (1/(v|Bc|)) * sum_{k in Bc} exp(u_c[k]/lam)
        * 1/(2|Bk|) * sum_{i in Bk} tau * ( grad g1 / u_I[i] + grad g2 / u_T[i] )

equals grad F exactly (the exp(u/lam)/(vK) weights collapse to softmax(h/lam)).

Overflow note: exp(u_c/lam) explodes for small lam, so the scalar estimator v
is stored as (mantissa, shift) with value mantissa * exp(shift); every use of
exp(u_c[k]/lam)/v is computed as exp(u_c[k]/lam - shift)/mantissa.  This keeps
lam down to ~0.01 usable.

The anchors are rows of the pool: ``per_class_batches`` maps each sampled
class to an integer array of its rows in ``pool`` (``sample_class_batch``'s
draw), and the anchor set is those arrays joined in class-batch order.  A
class whose rows are missing, empty, outside the pool or of another class is
refused in one line naming it (the first such class in class-batch order).

A training step is one call to ``gdro_step``: it encodes the pool once per
tower (the input tower over its rows, the label tower over its distinct
classes), and every embedding it scores (``_hinge_stats``) or backpropagates
through (``_gradient``) is a row gather of those two encodings; it updates the
state in place from the log normalizers, then forms the gradient coefficients
from the same hinge statistics and the estimates the update wrote.  The
per-sample and per-class estimates are ``MovingAverages`` arrays updated by
gcl's ``moving_average``; the anchors' sample columns are one gather from the
pool's column map (``MovingAverages.row_columns``), built once per pool.
``gdro_update_estimators`` (in place; returns the same state) and
``gdro_gradient_estimate`` are each one of those parts on its own, built from
the same private pieces: ``_anchor_rows``, then ``_hinge_stats``.

g1 (anchor input x pool label) sees a pool row only through its class's label
embedding, so each anchor has one g1 value per class: ``_hinge_stats`` takes
one column per class of the pool-shaped product E1a @ E2p.T and computes g1's
hinge, log-sum-exp and coefficients on an (n, K) block.  Where row order fixes
the bits it gathers back to pool columns: the exp values of each anchor's row
sum, and the coefficients that ``_gradient`` weighs pool labels with.  Columns
of a class that BLAS rounded apart from its first column score on their own
(``_column_groups``), so the bits are those of a per-row block.  g2 (anchor
label x pool input) stays per pool row: its same-class pairs come from
``pool.members`` and its negative counts from the class counts.

A step's pool-sized arrays are views of the grow-only ``WorkArrays`` on the
state: four float buffers, each handed to the next array once its last one is
spent, and one bool mask (``apart``, ``_column_groups``'s column check):

- ``S1``: the pool-shaped g1 product E1a @ E2p.T, then the exponent block,
  then the first backward block's pair coefficients (n, n + N);
- ``A``: ``_column_groups``'s gather, then the hinge exponents, then the
  first backward block's similarities;
- ``H``: the hinge, then the coefficients (coef1 per column group, coef2 per
  pool row);
- ``H2t``: the (N, n) g2 similarities, which the second backward block
  overwrites.

The exponent, hinge and coefficient blocks each hold the (n, K) g1 block and
the (n, N) g2 block end to end; g1's exp values are gathered to pool columns
over the g2 exp block once that block is summed.  A step allocates none of
these arrays unless its pool or anchor count outgrows every earlier step of
the run.  The hinge statistics are such views and are used up within the
step: ``_coefficients`` overwrites H and A, and ``_gradient`` overwrites
H2t, so each runs once per ``_hinge_stats``.  The estimates that the update
wrote are handed on to the coefficients and the objective, not read back.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .gcl import U_FLOOR, MovingAverages, _check_rows, moving_average
from .model import EncoderPair


@dataclass(frozen=True)
class GdroConfig:
    """Hyperparameters for the robust objective and its estimators."""

    lam: float  # KL regularization strength
    gamma: float  # moving-average rate
    margin: float  # hinge margin on similarity violations
    tau: float  # temperature inside the hinge exponentials
    batch_classes: int  # classes sampled per step
    batch_per_class: int  # samples per sampled class

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError(f"lam must be > 0, got {self.lam}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")
        if not 0 <= self.margin < math.inf:
            raise ValueError(f"margin must be finite and >= 0, got {self.margin}")
        if not self.tau > 0:
            raise ValueError(f"tau must be > 0, got {self.tau}")
        if self.batch_classes < 1 or self.batch_per_class < 1:
            raise ValueError("batch_classes and batch_per_class must be positive")


class WorkArrays:
    """Grow-only flat buffers, one per name, handed out as views of any shape.

    ``take`` returns the first ``prod(shape)`` elements of the named buffer,
    reshaped; the buffer is replaced by a larger one only when a shape needs
    more.  A view is valid until the next ``take`` of the same name.
    """

    def __init__(self):
        self._flat: dict[str, np.ndarray] = {}

    def take(self, name, shape, dtype=np.float64) -> np.ndarray:
        size = math.prod(shape)
        flat = self._flat.get(name)
        if flat is None or flat.size < size:
            flat = self._flat[name] = np.empty(size, dtype)
        return flat[:size].reshape(shape)


@dataclass(eq=False)
class GdroEstimatorState:
    """Moving averages for the compositional estimator.

    ``samples`` holds u_I (row 0) and u_T (row 1), the per-sample hinge
    normalizers g1/g2, per sample id; ``classes`` holds u_c (row 0), the
    per-class losses h_k, per class id; v tracks (1/K) * sum_k exp(u_c[k]/lam)
    over all tracked classes.  Each table's initialized mask is its
    initialization flag; first touches use gamma=1.  ``work`` holds the run's
    pool-sized scratch arrays, which every step overwrites.
    """

    samples: MovingAverages = field(default_factory=lambda: MovingAverages(2))
    classes: MovingAverages = field(default_factory=lambda: MovingAverages(1))
    v_mantissa: float = 0.0
    v_shift: float = 0.0
    v_initialized: bool = False
    work: WorkArrays = field(default_factory=WorkArrays, init=False, repr=False, compare=False)

    def class_losses(self):
        """The tracked classes, ascending, and their u_c estimates as an array."""
        slot = self.classes.slot
        classes = sorted(slot)
        return classes, self.classes.values[0, [slot[k] for k in classes]]

    @property
    def v(self) -> float:
        """Linear-scale value of the scalar estimator (may overflow to inf)."""
        return self.v_mantissa * math.exp(self.v_shift) if self.v_initialized else 0.0


# ------------------------------------------------------------ hinge machinery


def _blocks(flat, n, K):
    """The (n, K) g1 block and the (n, N) g2 block that lie end to end in ``flat``."""
    return flat[: n * K].reshape(n, K), flat[n * K :].reshape(n, -1)


def _column_groups(S1, index, first, work):
    """Groups of bitwise-equal columns of g1's similarities ``S1`` (n, N): each
    column's group, each group's values (n, K') and each group's class position.

    A pool row enters S1 only through its class's label embedding, so a class's
    columns hold the same values, except that BLAS may round a few columns (the
    tail of a block, say) apart; each such column is a group of its own.  The
    comparison gathers into ``work``'s ``A``, which ``_hinge_stats`` writes only
    after this call.
    """
    values = S1.take(first, axis=1)
    shared = values.take(index, axis=1, out=work.take("A", S1.shape), mode="clip")
    apart = np.not_equal(
        S1.view(np.int64), shared.view(np.int64), out=work.take("apart", S1.shape, bool)
    )
    if not np.logical_or.reduce(apart, axis=None):
        return index, values, np.arange(len(first))
    odd = np.flatnonzero(np.logical_or.reduce(apart, axis=0))
    group = index.copy()
    group[odd] = len(first) + np.arange(len(odd))
    group_cls = np.concatenate([np.arange(len(first)), index[odd]])
    return group, np.concatenate([values, S1[:, odd]], axis=1), group_cls


def _hinge_stats(enc, params, rows, class_batch, sizes, pool, margin, tau, work):
    """(n_neg, H, A, log_g, H2t, group), (f1p, f2c, index): negative counts,
    hinge activations, stable log g, the (N, n) g2 similarities E1p @ E2a.T and
    each pool row's g1 column group, for the anchors at ``rows`` of ``pool``,
    ``sizes[i]`` rows of class ``class_batch[i]`` per sampled class; then the
    pool's two encodings, the input tower over ``pool.X`` and the label tower
    over its distinct classes, and each row's position among those classes
    (``pool.class_index``).

    H and A each hold two blocks end to end (``_blocks``): g1 (anchor input x
    pool label) on K' column groups, one per class unless BLAS rounded some of
    a class's columns apart (``_column_groups``), then g2 (anchor label x pool
    input) on the N pool rows.  log_g (2, n) holds g1, then g2.  g1's sums run
    over the pool columns, gathered from the groups, so they add the same terms
    in the same order as a block over the pool rows would.  Every anchor needs
    a negative.  Every embedding scored is a row gather of the two encodings.
    H, A and H2t are views of the ``WorkArrays`` ``work``: ``_coefficients``
    uses up H and A, ``_gradient`` uses up H2t, and the next call on the same
    ``work`` overwrites all three.
    """
    classes, index, first, counts = pool.class_index
    f1p = enc._forward_inputs(params, pool.X)
    f2c = enc._forward_labels(params, classes)
    E1p, E2c = f1p[0], f2c[0]
    anchor_cls = index[rows]
    E1a, E2a, E2p = E1p[rows], E2c[anchor_cls], E2c[index]
    n, N = len(rows), len(pool)
    n_neg = N - counts[anchor_cls]
    if np.any(n_neg == 0):
        bad = classes[anchor_cls[int(np.argmin(n_neg))]]
        raise ValueError(f"no negatives in pool for anchor of class {bad}")

    sii = np.sum(E1a * E2a, axis=1)[:, None]
    S1 = np.matmul(E1a, E2p.T, out=work.take("S1", (n, N)))
    group, values, group_cls = _column_groups(S1, index, first, work)
    K = values.shape[1]
    H = work.take("H", (n * (K + N),))
    H1, H2 = _blocks(H, n, K)
    np.subtract(values, sii, out=H1)
    H2t = np.matmul(E1p, E2a.T, out=work.take("H2t", (N, n)))
    np.subtract(H2t.T, sii, out=H2)  # E2a @ E1p.T would differ in the last bits

    # the similarity blocks become the hinge in place; same operations, same bits.
    # Off the negatives the hinge is left as is: A is -inf there, so exp(A) = 0
    H += margin
    np.maximum(H, 0.0, out=H)
    A = np.multiply(H, H, out=work.take("A", H.shape))
    A /= tau
    A1, A2 = _blocks(A, n, K)
    np.copyto(A1, -np.inf, where=np.equal(group_cls, anchor_cls[:, None]))
    bounds = [0, *itertools.accumulate(sizes)]
    for k, lo, hi in zip(class_batch, bounds, bounds[1:]):
        A2[lo:hi, pool.members[k]] = -np.inf

    m, sums = np.empty((2, n)), np.empty((2, n))
    np.maximum.reduce(A1, axis=1, out=m[0])
    np.maximum.reduce(A2, axis=1, out=m[1])
    E = work.take("S1", H.shape)  # S1 is spent: its values are in H1
    E1, E2 = _blocks(E, n, K)
    np.subtract(A1, m[0][:, None], out=E1)
    np.subtract(A2, m[1][:, None], out=E2)
    np.exp(E, out=E)
    np.add.reduce(E2, axis=1, out=sums[1])
    # g1's exp values at the pool columns, gathered over the summed g2 block
    np.add.reduce(E1.take(group, axis=1, out=E2, mode="clip"), axis=1, out=sums[0])
    log_g = m + np.log(sums) - np.log(n_neg)
    return (n_neg, H, A, log_g, H2t, group), (f1p, f2c, index)


# ------------------------------------------------------------ robust weighting


def _shifted_exp(h, lam):
    """(shift, e): the largest z = h/lam and exp(z - shift), each at most 1.
    Refuses lam <= 0."""
    if not lam > 0:
        raise ValueError(f"lam must be > 0, got {lam}")
    z = np.asarray(h, dtype=np.float64) / lam
    shift = float(z.max())
    return shift, np.exp(z - shift)


def dro_weights(h, lam) -> np.ndarray:
    """Closed-form inner-max weights softmax(h/lam); sums to 1."""
    e = _shifted_exp(h, lam)[1]
    return e / e.sum()


def dro_objective(h, lam) -> float:
    """lam * log-mean-exp(h/lam): between mean(h) and max(h)."""
    shift, e = _shifted_exp(h, lam)
    return float(lam * (shift + np.log(e.sum() / e.size)))


# --------------------------------------------------------------- estimators


def _anchor_rows(class_batch, per_class_batches, pool):
    """Every sampled class's rows into ``pool``, joined in class-batch order, and
    each class's row count.  Refuses a class whose rows are missing, empty, not
    integers, outside the pool or of another class."""
    if len(class_batch) == 0:
        raise ValueError("class_batch must name at least one class")
    parts = []
    for k in class_batch:
        rows = per_class_batches.get(k)
        _check_rows(rows, pool, f"class {k}")
        if not len(rows):
            raise ValueError(f"class {k} has no rows")
        if (pool.y[rows] != k).any():
            raise ValueError(f"rows for class {k} hold another class")
        parts.append(rows.astype(np.intp, copy=False))
    sizes = [len(rows) for rows in parts]
    return np.concatenate(parts), sizes


def _update(state, pool, rows, sizes, class_batch, log_g, config):
    """The moving-average updates for the sampled classes and anchors, in place.

    Order matters: per-sample g estimates first, then per-class h estimates
    from the same fresh statistics, then v from the updated u_c values over
    all tracked classes (stale entries stand in for unsampled classes).
    ``rows`` are the anchors' rows of ``pool``, whose columns are one gather
    from the pool's column map (``row_columns``), and ``sizes`` each sampled
    class's anchor count, in class-batch order.

    Returns what it wrote and read, so that no caller reads the tables again:
    the anchors' (2, n) estimates u = (u_I, u_T), the sampled classes' (1, |Bc|)
    u_c, and every tracked class's u_c in ascending class order (``class_losses``).
    """
    g = config.gamma
    cols = state.samples.row_columns(pool, rows)
    u = moving_average(state.samples, cols, np.exp(log_g), g, U_FLOOR)
    both = log_g[0] + log_g[1]
    bounds = [0, *itertools.accumulate(sizes)]
    h_hat = [
        config.tau * (both[lo:hi].sum() / (hi - lo)) / 2.0 for lo, hi in zip(bounds, bounds[1:])
    ]
    u_c = moving_average(state.classes, state.classes.columns(class_batch), [h_hat], g)

    # v <- (1-gamma) v + gamma * mean_k exp(u_c[k]/lam), in shifted form
    losses = state.class_losses()[1]
    shift, e = _shifted_exp(losses, config.lam)
    mantissa = float(e.sum() / len(e))
    if not state.v_initialized:
        state.v_mantissa, state.v_shift, state.v_initialized = mantissa, shift, True
    else:
        common = max(shift, state.v_shift)
        state.v_mantissa = (1 - g) * state.v_mantissa * math.exp(state.v_shift - common) + (
            g * mantissa * math.exp(shift - common)
        )
        state.v_shift = common
    return u, u_c, losses


def _coefficients(state, ids, sizes, class_batch, stats, config, estimates=None):
    """The nonzero pair coefficients of the compositional estimator, from the
    hinge statistics ``stats`` of ``_hinge_stats``, written over their H and A.

    Returns (block, coef2).  ``block`` (n, n + N) is the first backward block's
    coefficients, anchor inputs x (anchor labels | pool labels): the anchor's
    own (input, label) pair takes minus its row sums of both blocks, and coef1,
    which weighs (anchor input, pool label) pairs, is gathered from g1's column
    groups straight into its last N columns.  coef2 (n, N) weighs (anchor
    label, pool input) pairs.  ``block`` is a view of ``state.work``'s ``S1``.
    ``estimates`` are the (u, u_c) that ``_update`` returns, when known; then
    ``ids``, the anchors' sample ids, may be None.  Otherwise they are read
    from the state, which refuses a class or sample without an estimate.
    """
    if not state.v_initialized or state.v_mantissa <= 0:
        raise ValueError("scalar estimator v is not initialized or non-positive")
    n_neg, H, A, _, _, group = stats
    if estimates is None:
        u_c = state.classes.read(class_batch, what="class", positive=False)
        estimates = state.samples.read(ids), u_c
    u, u_c = estimates
    # exp(u_c/lam) / (v * |Bc|) per anchor, with the shared shift folded in
    norm = state.v_mantissa * len(class_batch) * 2.0
    class_weight = np.repeat(
        [math.exp(uc / config.lam - state.v_shift) / (norm * size)
         for uc, size in zip(u_c[0].tolist(), sizes)],
        sizes,
    )
    # math.log, not np.log: the two differ in the last bit on some inputs
    log_u = np.array([[math.log(x) for x in row] for row in u.tolist()])

    # tau cancels: tau * d/ds exp(h^2/tau) = 2h * exp(h^2/tau).  The 2 rides on
    # the per-anchor scale: doubling is exact, so (h * e) * 2s rounds as
    # (2h * e) * s does unless h * e is subnormal.  Off the negatives A = -inf,
    # so exp(A) = 0 and both coefficients are +0.0 there
    scale = (2.0 * class_weight * (1.0 / n_neg))[:, None]
    n, N = len(n_neg), len(group)
    K = H.size // n - N
    A1, A2 = _blocks(A, n, K)
    A1 -= log_u[0][:, None]
    A2 -= log_u[1][:, None]
    coef = np.multiply(H, np.exp(A, out=A), out=H)
    coef1, coef2 = _blocks(coef, n, K)
    coef1 *= scale
    coef2 *= scale
    # one gather fills the whole contiguous block; its first n columns, which
    # gather column 0, then become the diagonal
    block = coef1.take(
        np.concatenate([np.zeros(n, np.intp), group]),
        axis=1, out=state.work.take("S1", (n, n + N)), mode="clip",
    )
    block[:, :n] = 0.0
    np.fill_diagonal(block[:, :n], -(block[:, n:].sum(axis=1) + coef2.sum(axis=1)))
    return block, coef2


def _gradient(enc, block, coef2, rows, encodings, H2t, work) -> np.ndarray:
    """The estimator's gradient for the anchors at ``rows`` as two backward passes
    over row gathers (``take_forward``) of the pool encodings ``encodings`` of
    ``_hinge_stats``, so the gradient encodes no row again.

    Only anchor rows and anchor columns of the pair coefficients are nonzero,
    so the gradient is the sum of two rectangular blocks, O(n*N) in time and
    memory for n anchors and a pool of N:

    - anchor inputs x (anchor labels | pool labels), coefficients ``block``
      of ``_coefficients``, the labels one gather at the joined class
      positions; its similarities are written into ``work``'s ``A``;
    - pool inputs x anchor labels, coefficients coef2.T.  Its similarities
      are ``H2t``, the g2 similarities of ``_hinge_stats``, which it overwrites.
    """
    f1p, f2c, index = encodings
    anchor_cls = index[rows]
    f1 = enc.take_forward(f1p, rows)
    f2 = enc.take_forward(f2c, np.concatenate([anchor_cls, index]))
    sims = np.matmul(f1[0], f2[0].T, out=work.take("A", block.shape))
    grad = enc.pair_grad(f1, f2, block, sims)
    grad += enc.pair_grad(f1p, enc.take_forward(f2c, anchor_cls), coef2.T, H2t)
    return grad


def gdro_step(
    state: GdroEstimatorState,
    enc: EncoderPair,
    params,
    class_batch,
    per_class_batches,
    pool,
    config: GdroConfig,
) -> tuple[float, np.ndarray]:
    """One training step: the in-place estimator update, then the robust objective
    over the updated u_c and the gradient estimate, from one ``_hinge_stats``.
    The coefficients and the objective take the estimates ``_update`` wrote and
    the class losses it gathered, so no table is read, checked or sorted again.
    Bitwise the same as ``gdro_update_estimators`` then ``gdro_gradient_estimate``."""
    rows, sizes = _anchor_rows(class_batch, per_class_batches, pool)
    stats, encodings = _hinge_stats(
        enc, params, rows, class_batch, sizes, pool, config.margin, config.tau, state.work
    )
    u, u_c, losses = _update(state, pool, rows, sizes, class_batch, stats[3], config)
    block, coef2 = _coefficients(state, None, sizes, class_batch, stats, config, (u, u_c))
    grad = _gradient(enc, block, coef2, rows, encodings, stats[4], state.work)
    return dro_objective(losses, config.lam), grad


def gdro_update_estimators(
    state: GdroEstimatorState,
    enc: EncoderPair,
    params,
    class_batch,
    per_class_batches,
    pool,
    config: GdroConfig,
) -> GdroEstimatorState:
    """One pass of the moving-average updates for sampled classes and samples, in place."""
    rows, sizes = _anchor_rows(class_batch, per_class_batches, pool)
    stats, _ = _hinge_stats(
        enc, params, rows, class_batch, sizes, pool, config.margin, config.tau, state.work
    )
    _update(state, pool, rows, sizes, class_batch, stats[3], config)
    return state


def gdro_gradient_estimate(
    state: GdroEstimatorState,
    enc: EncoderPair,
    params,
    class_batch,
    per_class_batches,
    pool,
    config: GdroConfig,
) -> np.ndarray:
    """Compositional gradient estimator (module docstring) as two backward passes
    (``_gradient``) that gather from the pool encodings of the hinge statistics."""
    rows, sizes = _anchor_rows(class_batch, per_class_batches, pool)
    stats, encodings = _hinge_stats(
        enc, params, rows, class_batch, sizes, pool, config.margin, config.tau, state.work
    )
    ids = [pool.ids[i] for i in rows.tolist()]
    block, coef2 = _coefficients(state, ids, sizes, class_batch, stats, config)
    return _gradient(enc, block, coef2, rows, encodings, stats[4], state.work)
