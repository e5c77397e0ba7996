"""Shared helpers: finite-difference oracles and random instance builders.

The finite-difference gradient, single-pair similarity helpers, the
instance builders (random ``Pool``s and a Pool's per-class batches) and
``state_bytes`` (an estimator state as comparable keys and bytes) live
here.  The reference oracles that several test files compare against
(g_I/g_T, hinge_g1/hinge_g2, class_loss_hk and the accuracy CSV parser) live
in ``oracles.py``.  The duplicate-implementation oracles
(straight-line forward passes, naive loss loops, the simplex maximizer) live
next to the tests that use them so each stays independent of the code path
it checks.
"""

import numpy as np
import pytest

from cclearn.data import Pool
from cclearn.gdro import GdroEstimatorState
from cclearn.model import EncoderConfig, EncoderPair


def central_diff(f, w, eps=1e-5):
    """Central finite-difference gradient of a scalar function of a flat vector."""
    g = np.zeros_like(w)
    for i in range(len(w)):
        wp, wm = w.copy(), w.copy()
        wp[i] += eps
        wm[i] -= eps
        g[i] = (f(wp) - f(wm)) / (2.0 * eps)
    return g


def assert_grad_close(analytic, reference, rtol=1e-4, floor=1e-7):
    """Coordinate-wise |a - r| <= floor + rtol * |r|."""
    analytic = np.asarray(analytic)
    reference = np.asarray(reference)
    err = np.abs(analytic - reference)
    tol = floor + rtol * np.abs(reference)
    worst = int(np.argmax(err - tol))
    assert np.all(err <= tol), (
        f"gradient mismatch at coord {worst}: analytic={analytic[worst]!r} "
        f"reference={reference[worst]!r} err={err[worst]:.3e} tol={tol[worst]:.3e}"
    )


def pair_sim(enc, params, x, class_id) -> float:
    """Similarity of one (input, class) pair, a scalar in [-1, 1]."""
    return float(enc.similarity_matrix(params, [x], [class_id])[0, 0])


def pair_sim_grad(enc, params, x, class_id) -> np.ndarray:
    """Analytic gradient of pair_sim, through both normalizations."""
    return enc.weighted_pair_grad(params, [x], [class_id], np.ones((1, 1)))


def make_encoder(seed, input_dim=3, num_classes=4, hidden_dim=4, embed_dim=3):
    enc = EncoderPair(
        EncoderConfig(
            input_dim=input_dim,
            num_classes_max=num_classes,
            hidden_dim=hidden_dim,
            embed_dim=embed_dim,
            seed=seed,
        )
    )
    return enc


def state_bytes(state):
    """Every estimator of a gcl or gdro state: its keys in first-touch order and
    its float bits."""
    ids = list(state.samples.slot)
    out = [ids, state.samples.read(ids).tobytes()]
    if isinstance(state, GdroEstimatorState):
        classes, u_c = state.class_losses()
        out += [list(state.classes.slot), classes, u_c.tobytes()]
        out += [np.float64([state.v_mantissa, state.v_shift]).tobytes(), state.v_initialized]
    return out


def make_pool(rng, n, num_classes, input_dim, id_offset=0):
    """n random rows with classes cycling so every class is represented.  One
    (n, input_dim) draw, which gives the numbers of n per-row draws."""
    y = np.arange(n, dtype=np.int64) % num_classes
    return Pool(rng.standard_normal((n, input_dim)), y, list(range(id_offset, id_offset + n)))


def class_pool(rng, classes, per_class, input_dim, id_offset=0):
    """``per_class`` random rows of each of ``classes`` in turn, ids from ``id_offset``."""
    y = np.repeat(np.asarray(classes, dtype=np.int64), per_class)
    return Pool(rng.standard_normal((len(y), input_dim)), y, list(range(id_offset, id_offset + len(y))))


def class_batches(pool, classes):
    """Every row of each of ``classes``, as gdro's per-class batches of row indices."""
    return {k: pool.members[k] for k in classes}


@pytest.fixture
def rng():
    return np.random.default_rng(0)
