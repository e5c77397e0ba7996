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
refused in one line naming it.

A training step is one call to ``gdro_step``: it encodes the pool once per
tower (the input tower over its rows, the label tower over its distinct
classes), and every embedding it scores (``_hinge_stats``) or backpropagates
through (``_gradient``) is a row gather of those two encodings; it updates the
state in place from the log normalizers, then forms the gradient coefficients
from the same hinge statistics and the same estimator columns.  The
per-sample and per-class estimates are ``MovingAverages`` arrays updated by
gcl's ``moving_average``; the anchors' sample columns are one gather from the
pool's column map (``MovingAverages.row_columns``), built once per pool.  ``gdro_update_estimators`` (in place; returns the
same state) and ``gdro_gradient_estimate`` are each one of those parts on its
own, built from the same private pieces.

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

A step's pool-sized arrays (the g1 product and its gathers, the g2
similarities, the hinge, exponent and coefficient blocks, each holding the
(n, K) g1 block and the (n, N) g2 block end to end, and the anchor block of
pair coefficients; the coefficients overwrite the hinge, the second backward
block the g2 similarities) are views of the grow-only ``WorkArrays`` on the
state.  A step allocates none of them unless its pool or anchor count
outgrows every earlier step of the run.  The hinge statistics are such views,
valid until the next step on the same state overwrites them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .gcl import U_FLOOR, MovingAverages, moving_average, sample_estimates
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
    tail of a block, say) apart; each such column is a group of its own.
    """
    values = S1.take(first, axis=1)
    shared = values.take(index, axis=1, out=work.take("G", S1.shape), mode="clip")
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
    H, A and H2t are views of the ``WorkArrays`` ``work``, so they hold until
    the next call on the same ``work`` overwrites them.
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
    H2[...] = H2t.T  # E2a @ E1p.T would differ in the last bits
    H2 -= sii

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
    G = E1.take(group, axis=1, out=work.take("G", (n, N)), mode="clip")
    np.add.reduce(G, axis=1, out=sums[0])
    np.add.reduce(E2, axis=1, out=sums[1])
    log_g = m + np.log(sums) - np.log(n_neg)
    return (n_neg, H, A, log_g, H2t, group), (f1p, f2c, index)


# ------------------------------------------------------------ robust weighting


def dro_weights(h, lam) -> np.ndarray:
    """Closed-form inner-max weights softmax(h/lam); sums to 1."""
    if not lam > 0:
        raise ValueError(f"lam must be > 0, got {lam}")
    h = np.asarray(h, dtype=np.float64)
    z = h / lam
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def dro_objective(h, lam) -> float:
    """lam * log-mean-exp(h/lam): between mean(h) and max(h)."""
    if not lam > 0:
        raise ValueError(f"lam must be > 0, got {lam}")
    h = np.asarray(h, dtype=np.float64)
    z = h / lam
    m = z.max()
    e = np.exp(z - m)
    return float(lam * (m + np.log(e.sum() / e.size)))


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
        if not isinstance(rows, np.ndarray) or rows.ndim != 1 or rows.dtype.kind not in "iu":
            raise ValueError(f"class {k} needs its rows as a 1-d integer array")
        if not len(rows):
            raise ValueError(f"class {k} has no rows")
        parts.append(rows.astype(np.intp, copy=False))
    sizes = [len(rows) for rows in parts]
    rows = np.concatenate(parts)
    want = np.repeat(class_batch, sizes)
    ok = (rows >= 0) & (rows < len(pool))
    ok[ok] = pool.y[rows[ok]] == want[ok]
    if not ok.all():
        k = want[int(np.argmin(ok))]
        raise ValueError(f"rows for class {k} fall outside the pool or hold another class")
    return rows, sizes


def _update(state, pool, rows, sizes, class_batch, log_g, config):
    """The moving-average updates for the sampled classes and anchors, in place.

    Order matters: per-sample g estimates first, then per-class h estimates
    from the same fresh statistics, then v from the updated u_c values over
    all tracked classes (stale entries stand in for unsampled classes).
    ``rows`` are the anchors' rows of ``pool``, whose columns are one gather
    from the pool's column map (``row_columns``), and ``sizes`` each sampled
    class's anchor count, in class-batch order.  Returns the anchors' columns
    of ``state.samples`` and the classes' columns of ``state.classes``.
    """
    g = config.gamma
    cols = state.samples.row_columns(pool, rows)
    moving_average(state.samples, cols, np.exp(log_g), g, U_FLOOR)
    both = log_g[0] + log_g[1]
    bounds = [0, *itertools.accumulate(sizes)]
    h_hat = [
        config.tau * (both[lo:hi].sum() / (hi - lo)) / 2.0 for lo, hi in zip(bounds, bounds[1:])
    ]
    class_cols = state.classes.columns(class_batch)
    moving_average(state.classes, class_cols, [h_hat], g)

    # v <- (1-gamma) v + gamma * mean_k exp(u_c[k]/lam), in shifted form
    z = state.class_losses()[1] / config.lam
    shift = float(z.max())
    e = np.exp(z - shift)
    mantissa = float(e.sum() / len(e))
    if not state.v_initialized:
        state.v_mantissa, state.v_shift, state.v_initialized = mantissa, shift, True
    else:
        common = max(shift, state.v_shift)
        state.v_mantissa = (1 - g) * state.v_mantissa * math.exp(state.v_shift - common) + (
            g * mantissa * math.exp(shift - common)
        )
        state.v_shift = common
    return cols, class_cols


def _coefficients(state, ids, sizes, class_batch, stats, config, cols=(None, None)):
    """The nonzero pair coefficients of the compositional estimator, from the
    hinge statistics ``stats`` of ``_hinge_stats``, written over their H and A.

    Returns (coef1, coef2), both n x N over anchors x pool: coef1 weighs
    (anchor input, pool label) pairs, coef2 (anchor label, pool input) pairs.
    coef1 is gathered from g1's column groups into ``state.work``.  The anchor's
    own (input, label) pair takes minus its row sums of both; ``_gradient``
    places that diagonal.  ``cols`` are the columns ``_update`` returns, when
    known; ``ids``, the anchors' sample ids, may then be None.
    """
    if not state.v_initialized or state.v_mantissa <= 0:
        raise ValueError("scalar estimator v is not initialized or non-positive")
    n_neg, H, A, _, _, group = stats
    u_c = state.classes.read(class_batch, cols[1], what="class", positive=False)[0]
    # exp(u_c/lam) / (v * |Bc|) per anchor, with the shared shift folded in
    norm = state.v_mantissa * len(class_batch) * 2.0
    class_weight = np.repeat(
        [math.exp(u / config.lam - state.v_shift) / (norm * size)
         for u, size in zip(u_c.tolist(), sizes)],
        sizes,
    )
    # math.log, not np.log: the two differ in the last bit on some inputs
    u = sample_estimates(state, ids, cols[0]).tolist()
    log_u = np.array([[math.log(x) for x in row] for row in u])

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
    return coef1.take(group, axis=1, out=state.work.take("G", (n, N)), mode="clip"), coef2


def _gradient(enc, coef1, coef2, rows, encodings, H2t, work) -> np.ndarray:
    """The estimator's gradient for the anchors at ``rows`` as two backward passes
    over row gathers (``take_forward``) of the pool encodings ``encodings`` of
    ``_hinge_stats``, so the gradient encodes no row again.

    Only anchor rows and anchor columns of the pair coefficients are nonzero,
    so the gradient is the sum of two rectangular blocks, O(n*N) in time and
    memory for n anchors and a pool of N:

    - anchor inputs x (anchor labels | pool labels), coefficients
      [diag(-(row sums of coef1 + coef2)) | coef1], the labels one gather at
      the joined class positions;
    - pool inputs x anchor labels, coefficients coef2.T.

    The first block's coefficients are written into ``work``.  The second
    block's similarities are ``H2t``, the g2 similarities of ``_hinge_stats``,
    which it overwrites.
    """
    f1p, f2c, index = encodings
    n, anchor_cls = len(rows), index[rows]
    C_anchor = work.take("C_anchor", (n, n + coef1.shape[1]))
    C_anchor[:, :n] = 0.0
    np.fill_diagonal(C_anchor[:, :n], -(coef1.sum(axis=1) + coef2.sum(axis=1)))
    C_anchor[:, n:] = coef1
    f2 = enc.take_forward(f2c, np.concatenate([anchor_cls, index]))
    grad = enc.pair_grad(enc.take_forward(f1p, rows), f2, C_anchor)
    grad += enc.pair_grad(f1p, enc.take_forward(f2c, anchor_cls), coef2.T, H2t)
    return grad


def _anchor_stats(enc, params, class_batch, per_class_batches, pool, config, work):
    """The anchors' rows into ``pool``, each sampled class's anchor count, the
    hinge statistics (views of ``work``) and the pool's two encodings: one
    encoding and scoring of the pool (``_hinge_stats``)."""
    rows, sizes = _anchor_rows(class_batch, per_class_batches, pool)
    stats, encodings = _hinge_stats(
        enc, params, rows, class_batch, sizes, pool, config.margin, config.tau, work
    )
    return rows, sizes, stats, encodings


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
    Bitwise the same as ``gdro_update_estimators`` then ``gdro_gradient_estimate``."""
    rows, sizes, stats, encodings = _anchor_stats(
        enc, params, class_batch, per_class_batches, pool, config, state.work
    )
    cols = _update(state, pool, rows, sizes, class_batch, stats[3], config)
    coef1, coef2 = _coefficients(state, None, sizes, class_batch, stats, config, cols)
    grad = _gradient(enc, coef1, coef2, rows, encodings, stats[4], state.work)
    return dro_objective(state.class_losses()[1], config.lam), grad


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
    rows, sizes, stats, _ = _anchor_stats(
        enc, params, class_batch, per_class_batches, pool, config, state.work
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
    rows, sizes, stats, encodings = _anchor_stats(
        enc, params, class_batch, per_class_batches, pool, config, state.work
    )
    ids = [pool.ids[i] for i in rows.tolist()]
    coef1, coef2 = _coefficients(state, ids, sizes, class_batch, stats, config)
    return _gradient(enc, coef1, coef2, rows, encodings, stats[4], state.work)
