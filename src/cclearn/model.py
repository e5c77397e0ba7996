"""Bimodal encoder pair with analytic forward and backward passes.

Two small encoders share one flat parameter vector: an input encoder that maps
feature vectors to unit-norm embeddings, and a label encoder that maps class
ids (as fixed one-hot vectors) to unit-norm embeddings.  Classification is
nearest-label-embedding by cosine similarity, so every objective in this
package reduces to weighted sums of pairwise inner products between the two
embedding sets.

Each encoder (tower ``e1`` for inputs, ``e2`` for labels) is a list of affine
layers with a tanh between consecutive layers, followed by L2 normalization.
The layer shapes (rows x fan-in) are

    hidden_dim > 0:   [(h x in), (e x h)]  for e1,   [(h x C), (e x h)]  for e2
    hidden_dim == 0:  [(e x in)]           for e1,   [(e x C)]           for e2

where ``in`` = input_dim, ``h`` = hidden_dim, ``e`` = embed_dim and
``C`` = num_classes_max.  The flat float64 vector holds e1 then e2; within a
tower, every layer's weights (row-major), then every layer's biases, named
``e1_w1, e1_w2, e1_b1, e1_b2, e2_w1, ...`` (``e1_w, e1_b, ...`` for one
layer).  The layout is stable so that finite-difference checks can index
coordinates deterministically.

The label tower's one-hot input makes its first layer a column gather on the
forward pass and a scatter-add on the backward pass.  tanh keeps everything
smooth, which keeps numerical gradient checks clean.

The forward pass (``_forward_inputs``, ``_forward_labels``) returns a tower's
unit embeddings with the cache its backward needs; it checks its input
(``_check_inputs``, ``_check_class_ids``, which the runner also calls once per
stage on the pool) and then runs ``_forward``.  ``pair_forward`` returns
both towers' forward results and their similarities, exactly what the one
backward, ``pair_grad``, takes: every pair objective is ``pair_forward``, its
coefficient matrix, then ``pair_grad``, and encodes no row twice
(``weighted_pair_grad`` is the two calls in one).  Forward passes are
row-wise, so ``take_forward`` gathers rows of a forward result as if the
gathered rows had been encoded; a joined row set is one gather at the joined
index.  Class ids are integers: a float or bool id is refused, never
truncated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import _check_ints


@dataclass(frozen=True)
class EncoderConfig:
    """Shapes and seed for the encoder pair.

    hidden_dim == 0 collapses each encoder to a single affine map.
    """

    input_dim: int
    num_classes_max: int
    hidden_dim: int
    embed_dim: int
    seed: int

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        _check_ints(**vars(self))
        for name, least in (("input_dim", 1), ("num_classes_max", 1), ("hidden_dim", 0),
                            ("embed_dim", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")


def _class_ids(class_ids):
    """Class ids as a flat int64 array.  Refuses float and bool ids, which an int
    cast would silently truncate; an empty input passes."""
    ids = np.asarray(class_ids)
    if ids.dtype.kind not in "iu" and ids.size:
        raise ValueError(f"class ids must be integers, got dtype {ids.dtype}")
    return ids.astype(np.int64, copy=False).reshape(-1)


def _normalize_rows(z):
    """Row-normalize z in place, returning (z, norms). Zero or non-finite rows error."""
    norms = np.sqrt(np.add.reduce(z * z, axis=1))
    # one reduction: finite norms are below 1.4e154, so their sum is finite unless one is not
    if not (np.count_nonzero(norms) == len(norms) and np.add.reduce(norms) < np.inf):
        if np.any(norms == 0.0):
            raise ValueError("cannot normalize a zero-norm embedding")
        raise ValueError("embedding norm overflowed or is NaN")
    return np.divide(z, norms[:, None], out=z), norms


class EncoderPair:
    """Input encoder + label encoder over a shared flat parameter vector.

    All methods are pure functions of their arguments; nothing is cached on
    the instance besides the configuration and the derived layout, so
    concurrent reads are safe.
    """

    def __init__(self, config: EncoderConfig):
        self.config = config
        self._layers, self._slices = self._build_layout(config)
        self.n_params = self._slices["__total__"]
        # the label tower's first layer: each row's offset in W's flat cells
        rows, cols = self._layers["e2"][0][2]
        self._label_cells = np.arange(rows) * cols
        self._label_cells.flags.writeable = False

    @staticmethod
    def _build_layout(cfg: EncoderConfig):
        """Per tower, each layer's (weight slice, bias slice, shape); and every
        named segment's slice."""
        h, e = cfg.hidden_dim, cfg.embed_dim
        layers: dict[str, list] = {}
        slices = {}
        off = 0
        for tower, fan_in in (("e1", cfg.input_dim), ("e2", cfg.num_classes_max)):
            shapes = [(h, fan_in), (e, h)] if h > 0 else [(e, fan_in)]
            tags = ["1", "2"] if h > 0 else [""]
            w, b = [f"{tower}_w{t}" for t in tags], [f"{tower}_b{t}" for t in tags]
            sizes = [rows * cols for rows, cols in shapes] + [rows for rows, _ in shapes]
            for name, size in zip(w + b, sizes):
                slices[name] = slice(off, off + size)
                off += size
            layers[tower] = [(slices[wn], slices[bn], s) for wn, bn, s in zip(w, b, shapes)]
        slices["__total__"] = off
        return layers, slices

    def init_params(self) -> np.ndarray:
        """Seeded initialization: weights ~ U(-1, 1)/sqrt(fan_in), biases zero.

        Weight segments are filled in layout order from a single PCG64 stream,
        so the result is a deterministic function of the config's seed.
        """
        rng = np.random.default_rng(self.config.seed)
        w = np.zeros(self.n_params)
        for tower in ("e1", "e2"):
            for w_slice, _, (rows, fan_in) in self._layers[tower]:
                w[w_slice] = rng.uniform(-1.0, 1.0, rows * fan_in) / np.sqrt(fan_in)
        return w

    # ---------------------------------------------------------------- forward

    def _forward(self, params, tower, inp):
        """One tower's forward pass. Returns (unit embeddings, cache).

        ``inp`` is an input matrix for ``e1`` and a class-id vector for
        ``e2``, whose first layer (a one-hot matmul) is a column gather.
        """
        params = np.asarray(params, dtype=np.float64)
        if params.shape != (self.n_params,):
            raise ValueError(
                f"parameter vector has shape {params.shape}, expected ({self.n_params},)"
            )
        weights, acts = [], []
        for k, (w_slice, b_slice, shape) in enumerate(self._layers[tower]):
            W = params[w_slice].reshape(shape)
            A = inp if k == 0 else np.tanh(Z)
            weights.append(W)
            acts.append(A)
            Z = (W.T.take(A, axis=0) if k == 0 and tower == "e2" else A @ W.T) + params[b_slice]
        E, R = _normalize_rows(Z)
        return E, {"tower": tower, "W": weights, "A": acts, "R": R}

    def _check_inputs(self, X) -> np.ndarray:
        """``X`` as the float64 rows the input forward takes (a 1-d input is one
        row).  Refuses input that is not rows of ``input_dim`` features, in one
        line naming its shape."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.ndim > 2 or X.shape[1] != self.config.input_dim:
            raise ValueError(f"input has shape {X.shape}, expected (rows, {self.config.input_dim})")
        return X

    def _check_class_ids(self, class_ids) -> np.ndarray:
        """Class ids as the flat int64 array the label forward takes.  Refuses
        float and bool ids and ids outside [0, num_classes_max)."""
        cls = _class_ids(class_ids)
        # one reduction: a negative id wraps to a huge unsigned value; initial=0 admits no ids
        if np.maximum.reduce(cls.view(np.uint64), initial=0) >= self.config.num_classes_max:
            raise ValueError(f"class id out of range [0, {self.config.num_classes_max})")
        return cls

    def _forward_inputs(self, params, X):
        """Batched input-encoder forward. Returns (unit embeddings, cache)."""
        return self._forward(params, "e1", self._check_inputs(X))

    def _forward_labels(self, params, class_ids):
        """Batched label-encoder forward over one-hot class inputs."""
        return self._forward(params, "e2", self._check_class_ids(class_ids))

    @staticmethod
    def take_forward(result, idx):
        """One tower's forward result over rows ``idx`` (an integer array, repeats
        and any order allowed) of the rows it was computed on.  Forward passes
        are row-wise, so this equals the forward pass of those rows, bit for bit
        when both row sets have two or more rows (numpy multiplies a one-row
        matrix with gemv, not gemm).  Gathering a joined index gives the join of
        the gathers, rows, bits and layout alike."""
        E, cache = result
        return E.take(idx, axis=0), {
            "tower": cache["tower"],
            "W": cache["W"],
            "A": [A.take(idx, axis=0) for A in cache["A"]],
            "R": cache["R"].take(idx),
        }

    def pair_forward(self, params, X, class_ids):
        """(f1, f2, sims): the input tower's forward result over X, the label
        tower's over class_ids and their cosine similarities ``E1 @ E2.T``, shape
        (len(X), len(class_ids)); the forward twin of ``pair_grad``."""
        f1 = self._forward_inputs(params, X)
        f2 = self._forward_labels(params, class_ids)
        return f1, f2, f1[0] @ f2[0].T

    def similarity_matrix(self, params, X, class_ids) -> np.ndarray:
        """Cosine similarities, shape (len(X), len(class_ids))."""
        return self.pair_forward(params, X, class_ids)[2]

    # --------------------------------------------------------------- backward

    def _backward(self, g, cache, dZ):
        """Write every segment of one tower's gradient into ``g`` from ``dZ``, the
        gradient at its pre-normalization output."""
        layers = self._layers[cache["tower"]]
        for k in reversed(range(len(layers))):
            w_slice, b_slice, (rows, cols) = layers[k]
            A = cache["A"][k]
            if k == 0 and cache["tower"] == "e2":
                # scatter-add dZ's rows into W's columns A: bincount adds each
                # (row, class) cell's terms in row order from 0.0, as np.add.at does
                cells = self._label_cells + A[:, None]
                g[w_slice] = np.bincount(cells.ravel(), dZ.ravel(), rows * cols)
            else:
                np.matmul(dZ.T, A, out=g[w_slice].reshape(rows, cols))
            np.add.reduce(dZ, axis=0, out=g[b_slice])
            if k > 0:
                dZ = (dZ @ cache["W"][k]) * (1.0 - A * A)

    def pair_grad(self, f1, f2, coeff, sims=None) -> np.ndarray:
        """Gradient of sum_ij coeff[i, j] * sim(row i of f1, row j of f2) w.r.t. all
        parameters, from the forward results ``(E, cache)`` of the input tower
        (``f1``) and the label tower (``f2``).

        This is the single backward primitive every objective is built from:
        any loss over pairwise similarities differentiates to a coefficient
        matrix over (input, label) pairs.  Callers pass the forward results
        they already hold, so a gradient costs no second forward pass.  A
        caller that already holds the similarities ``E1 @ E2.T`` of the two
        results may pass them as ``sims``, which the call then overwrites.
        """
        (E1, c1), (E2, c2) = f1, f2
        C = np.asarray(coeff, dtype=np.float64)
        if C.shape != (E1.shape[0], E2.shape[0]):
            raise ValueError(
                f"coefficient matrix has shape {C.shape}, expected {(E1.shape[0], E2.shape[0])}"
            )
        CS = E1 @ E2.T if sims is None else sims
        CS *= C
        # d sim / d z = (other - sim * self) / norm for each side
        row_w = np.add.reduce(CS, axis=1)
        col_w = np.add.reduce(CS, axis=0)
        dZ1 = C @ E2
        dZ1 -= row_w[:, None] * E1
        dZ1 /= c1["R"][:, None]
        dZ2 = C.T @ E1
        dZ2 -= col_w[:, None] * E2
        dZ2 /= c2["R"][:, None]

        g = np.empty(self.n_params)  # the two backwards write every segment
        self._backward(g, c1, dZ1)
        self._backward(g, c2, dZ2)
        return g

    def weighted_pair_grad(self, params, X, class_ids, coeff) -> np.ndarray:
        """``pair_grad`` over ``pair_forward`` of X and class_ids."""
        f1, f2, sims = self.pair_forward(params, X, class_ids)
        return self.pair_grad(f1, f2, coeff, sims)

    # -------------------------------------------------------------- inference

    def predict_batch(self, params, X, candidate_classes) -> np.ndarray:
        """Most similar candidate class per row of X; ties go to the smallest class id.
        Refuses float and bool candidates, as the label forward does."""
        ids = _class_ids(list(candidate_classes)).tolist()
        # not np.unique: its first call raises the process's peak RSS by about 1 MB
        candidates = np.array(sorted(set(ids)), dtype=np.int64)
        if candidates.size == 0:
            raise ValueError("candidate_classes must be non-empty")
        sims = self.similarity_matrix(params, X, candidates)
        return candidates[np.argmax(sims, axis=1)]
