"""Bimodal encoder pair with analytic forward and backward passes.

Two small encoders share one flat parameter vector: an input encoder that maps
feature vectors to unit-norm embeddings, and a label encoder that maps class
ids (as fixed one-hot vectors) to unit-norm embeddings.  Classification is
nearest-label-embedding by cosine similarity, so every objective in this
package reduces to weighted sums of pairwise inner products between the two
embedding sets.

Parameter layout (flat float64 vector, offsets fixed by ``EncoderConfig``):

    hidden_dim > 0:
        [E1.W1 (h x in) | E1.W2 (e x h) | E1.b1 (h) | E1.b2 (e) |
         E2.W1 (h x C)  | E2.W2 (e x h) | E2.b1 (h) | E2.b2 (e)]
    hidden_dim == 0:
        [E1.W (e x in) | E1.b (e) | E2.W (e x C) | E2.b (e)]

where ``in`` = input_dim, ``h`` = hidden_dim, ``e`` = embed_dim and
``C`` = num_classes_max.  Matrices are stored row-major.  The layout is stable
so that finite-difference checks can index coordinates deterministically.

Forward pass per encoder: affine -> tanh (if hidden) -> affine -> L2
normalization.  tanh keeps everything smooth, which keeps numerical gradient
checks clean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
        if self.input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {self.input_dim}")
        if self.num_classes_max < 1:
            raise ValueError(f"num_classes_max must be >= 1, got {self.num_classes_max}")
        if self.hidden_dim < 0:
            raise ValueError(f"hidden_dim must be >= 0, got {self.hidden_dim}")
        if self.embed_dim < 1:
            raise ValueError(f"embed_dim must be >= 1, got {self.embed_dim}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")


def _normalize_rows(z):
    """Row-normalize, returning (unit rows, norms). Zero or non-finite rows error."""
    norms = np.sqrt(np.sum(z * z, axis=1))
    if np.any(norms == 0.0):
        raise ValueError("cannot normalize a zero-norm embedding")
    if not np.all(np.isfinite(norms)):
        raise ValueError("embedding norm overflowed or is NaN")
    return z / norms[:, None], norms


class EncoderPair:
    """Input encoder + label encoder over a shared flat parameter vector.

    All methods are pure functions of their arguments; nothing is cached on
    the instance besides the configuration and the derived layout, so
    concurrent reads are safe.
    """

    def __init__(self, config: EncoderConfig):
        self.config = config
        self._slices = self._build_layout(config)
        self.n_params = self._slices["__total__"]

    @staticmethod
    def _build_layout(cfg: EncoderConfig) -> dict:
        i, h, e, c = cfg.input_dim, cfg.hidden_dim, cfg.embed_dim, cfg.num_classes_max
        names: list[tuple[str, int]]
        if h > 0:
            names = [
                ("e1_w1", h * i), ("e1_w2", e * h), ("e1_b1", h), ("e1_b2", e),
                ("e2_w1", h * c), ("e2_w2", e * h), ("e2_b1", h), ("e2_b2", e),
            ]
        else:
            names = [("e1_w", e * i), ("e1_b", e), ("e2_w", e * c), ("e2_b", e)]
        slices = {}
        off = 0
        for name, size in names:
            slices[name] = slice(off, off + size)
            off += size
        slices["__total__"] = off
        return slices

    def segment(self, name: str) -> slice:
        """Flat-vector slice for one named parameter segment."""
        return self._slices[name]

    def init_params(self, seed: int | None = None) -> np.ndarray:
        """Seeded initialization: weights ~ U(-1, 1)/sqrt(fan_in), biases zero.

        Segments are filled in layout order from a single PCG64 stream, so the
        result is a deterministic function of the seed.
        """
        cfg = self.config
        rng = np.random.default_rng(cfg.seed if seed is None else seed)
        w = np.zeros(self.n_params)
        i, h, c = cfg.input_dim, cfg.hidden_dim, cfg.num_classes_max

        def fill(name, n, fan_in):
            w[self._slices[name]] = rng.uniform(-1.0, 1.0, n) / np.sqrt(fan_in)

        if h > 0:
            e = cfg.embed_dim
            fill("e1_w1", h * i, i)
            fill("e1_w2", e * h, h)
            fill("e2_w1", h * c, c)
            fill("e2_w2", e * h, h)
        else:
            e = cfg.embed_dim
            fill("e1_w", e * i, i)
            fill("e2_w", e * c, c)
        return w

    def _unpack(self, params):
        cfg = self.config
        i, h, e, c = cfg.input_dim, cfg.hidden_dim, cfg.embed_dim, cfg.num_classes_max
        params = np.asarray(params, dtype=np.float64)
        if params.shape != (self.n_params,):
            raise ValueError(
                f"parameter vector has shape {params.shape}, expected ({self.n_params},)"
            )
        s = self._slices
        if h > 0:
            return {
                "W1": params[s["e1_w1"]].reshape(h, i),
                "W2": params[s["e1_w2"]].reshape(e, h),
                "b1": params[s["e1_b1"]],
                "b2": params[s["e1_b2"]],
                "V1": params[s["e2_w1"]].reshape(h, c),
                "V2": params[s["e2_w2"]].reshape(e, h),
                "c1": params[s["e2_b1"]],
                "c2": params[s["e2_b2"]],
            }
        return {
            "W": params[s["e1_w"]].reshape(e, i),
            "b": params[s["e1_b"]],
            "V": params[s["e2_w"]].reshape(e, c),
            "c": params[s["e2_b"]],
        }

    # ---------------------------------------------------------------- forward

    def _forward_inputs(self, params, X):
        """Batched input-encoder forward. Returns (unit embeddings, cache)."""
        p = self._unpack(params)
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.config.input_dim:
            raise ValueError(
                f"input has {X.shape[1]} features, expected {self.config.input_dim}"
            )
        if self.config.hidden_dim > 0:
            H = np.tanh(X @ p["W1"].T + p["b1"])
            Z = H @ p["W2"].T + p["b2"]
        else:
            H = None
            Z = X @ p["W"].T + p["b"]
        E, R = _normalize_rows(Z)
        return E, {"X": X, "H": H, "E": E, "R": R, "p": p}

    def _forward_labels(self, params, class_ids):
        """Batched label-encoder forward over one-hot class inputs."""
        p = self._unpack(params)
        cls = np.asarray(class_ids, dtype=np.int64)
        if cls.ndim != 1:
            cls = cls.reshape(-1)
        if np.any(cls < 0) or np.any(cls >= self.config.num_classes_max):
            raise ValueError(
                f"class id out of range [0, {self.config.num_classes_max})"
            )
        if self.config.hidden_dim > 0:
            # one-hot matmul == column gather
            H = np.tanh(p["V1"].T[cls] + p["c1"])
            Z = H @ p["V2"].T + p["c2"]
        else:
            H = None
            Z = p["V"].T[cls] + p["c"]
        E, R = _normalize_rows(Z)
        return E, {"cls": cls, "H": H, "E": E, "R": R, "p": p}

    def encode_input_batch(self, params, X) -> np.ndarray:
        """Unit-norm embeddings for a batch of input vectors, shape (n, embed_dim)."""
        E, _ = self._forward_inputs(params, X)
        return E

    def encode_label_batch(self, params, class_ids) -> np.ndarray:
        """Unit-norm embeddings for a batch of class ids, shape (n, embed_dim)."""
        E, _ = self._forward_labels(params, class_ids)
        return E

    def similarity_matrix(self, params, X, class_ids) -> np.ndarray:
        """Cosine similarities, shape (len(X), len(class_ids))."""
        E1 = self.encode_input_batch(params, X)
        E2 = self.encode_label_batch(params, class_ids)
        return E1 @ E2.T

    # --------------------------------------------------------------- backward

    def weighted_pair_grad(self, params, X, class_ids, coeff) -> np.ndarray:
        """Gradient of sum_ij coeff[i, j] * sim(x_i, class_j) w.r.t. all parameters.

        This is the single backward primitive every objective is built from:
        any loss over pairwise similarities differentiates to a coefficient
        matrix over (input, label) pairs.
        """
        E1, c1 = self._forward_inputs(params, X)
        E2, c2 = self._forward_labels(params, class_ids)
        C = np.asarray(coeff, dtype=np.float64)
        if C.shape != (E1.shape[0], E2.shape[0]):
            raise ValueError(
                f"coefficient matrix has shape {C.shape}, expected {(E1.shape[0], E2.shape[0])}"
            )
        S = E1 @ E2.T
        # d sim / d z = (other - sim * self) / norm for each side
        row_w = np.sum(C * S, axis=1)
        col_w = np.sum(C * S, axis=0)
        dZ1 = (C @ E2 - row_w[:, None] * E1) / c1["R"][:, None]
        dZ2 = (C.T @ E1 - col_w[:, None] * E2) / c2["R"][:, None]

        g = np.zeros(self.n_params)
        s = self._slices
        p = c1["p"]
        if self.config.hidden_dim > 0:
            H1 = c1["H"]
            g[s["e1_w2"]] = (dZ1.T @ H1).ravel()
            g[s["e1_b2"]] = dZ1.sum(axis=0)
            dA1 = (dZ1 @ p["W2"]) * (1.0 - H1 * H1)
            g[s["e1_w1"]] = (dA1.T @ c1["X"]).ravel()
            g[s["e1_b1"]] = dA1.sum(axis=0)

            H2 = c2["H"]
            g[s["e2_w2"]] = (dZ2.T @ H2).ravel()
            g[s["e2_b2"]] = dZ2.sum(axis=0)
            dA2 = (dZ2 @ p["V2"]) * (1.0 - H2 * H2)
            dV1t = np.zeros((self.config.num_classes_max, self.config.hidden_dim))
            np.add.at(dV1t, c2["cls"], dA2)
            g[s["e2_w1"]] = dV1t.T.ravel()
            g[s["e2_b1"]] = dA2.sum(axis=0)
        else:
            g[s["e1_w"]] = (dZ1.T @ c1["X"]).ravel()
            g[s["e1_b"]] = dZ1.sum(axis=0)
            dVt = np.zeros((self.config.num_classes_max, self.config.embed_dim))
            np.add.at(dVt, c2["cls"], dZ2)
            g[s["e2_w"]] = dVt.T.ravel()
            g[s["e2_b"]] = dZ2.sum(axis=0)
        return g

    # -------------------------------------------------------------- inference

    def predict_batch(self, params, X, candidate_classes) -> np.ndarray:
        """Most similar candidate class per row of X; ties go to the smallest class id."""
        candidates = np.array(sorted(set(int(c) for c in candidate_classes)), dtype=np.int64)
        if candidates.size == 0:
            raise ValueError("candidate_classes must be non-empty")
        sims = self.similarity_matrix(params, X, candidates)
        return candidates[np.argmax(sims, axis=1)]
