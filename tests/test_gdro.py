import copy
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cclearn import benchmark
from cclearn.buffer import sample_class_batch
from cclearn.data import Pool, gen_synthetic
from cclearn.gdro import (
    GdroConfig,
    GdroEstimatorState,
    WorkArrays,
    _anchor_rows,
    _coefficients,
    _column_groups,
    _hinge_stats,
    dro_objective,
    dro_weights,
    gdro_gradient_estimate,
    gdro_step,
    gdro_update_estimators,
)
from cclearn.model import EncoderPair

from conftest import (
    assert_grad_close,
    central_diff,
    class_batches,
    class_pool,
    make_encoder,
    make_pool,
    pair_sim,
    state_bytes,
)
from oracles import (
    class_loss_hk,
    coefficients_per_row,
    gdro_gradient_dense,
    gdro_step_per_row,
    hinge_g1,
    hinge_g2,
    hinge_stats_per_row,
)


def _cfg(**kw):
    base = dict(lam=0.7, gamma=1.0, margin=0.15, tau=0.4, batch_classes=3, batch_per_class=4)
    base.update(kw)
    return GdroConfig(**base)


@pytest.mark.parametrize("margin", [math.nan, math.inf])
def test_config_rejects_non_finite_margin(margin):
    with pytest.raises(ValueError, match="margin"):
        _cfg(margin=margin)


def _naive_g1(enc, w, anchor, pool, margin, tau):
    x, k = anchor.X[0], int(anchor.y[0])
    s_ii = pair_sim(enc, w, x, k)
    terms = [
        math.exp(max(0.0, pair_sim(enc, w, x, j) - s_ii + margin) ** 2 / tau)
        for j in pool.y.tolist()
        if j != k
    ]
    return sum(terms) / len(terms)


def _naive_g2(enc, w, anchor, pool, margin, tau):
    x, k = anchor.X[0], int(anchor.y[0])
    s_ii = pair_sim(enc, w, x, k)
    terms = [
        math.exp(max(0.0, pair_sim(enc, w, xj, k) - s_ii + margin) ** 2 / tau)
        for xj, j in zip(pool.X, pool.y.tolist())
        if j != k
    ]
    return sum(terms) / len(terms)


def _naive_hk(enc, w, k, pool, cfg):
    members = pool.members[k].tolist()
    total = sum(
        cfg.tau * math.log(_naive_g1(enc, w, pool[i], pool, cfg.margin, cfg.tau))
        + cfg.tau * math.log(_naive_g2(enc, w, pool[i], pool, cfg.margin, cfg.tau))
        for i in members
    )
    return total / (2 * len(members))


def _separated_two_class_setup():
    """Linear encoders mapping class-0 inputs to +e0 and class-1 inputs to -e0,
    with matching label embeddings: similarities are +1 to own label, -1 to the
    other, so every hinge with margin < 2 is inactive."""
    enc = make_encoder(seed=0, hidden_dim=0, num_classes=2, input_dim=3, embed_dim=3)
    w = np.zeros(enc.n_params)
    W = np.zeros((3, 3))
    W[0, 0] = 1.0
    w[enc.segment("e1_w")] = W.ravel()
    V = np.zeros((3, 2))
    V[0, 0], V[0, 1] = 1.0, -1.0
    w[enc.segment("e2_w")] = V.ravel()
    u = np.array([1.0, 0.0, 0.0])
    pool = Pool(np.array([u, u * 2.0, -u, -u * 3.0]), np.array([0, 0, 1, 1]), [0, 1, 2, 3])
    return enc, w, pool


def test_hinge_g_inactive_is_one():
    enc, w, pool = _separated_two_class_setup()
    for i in range(4):
        assert hinge_g1(enc, w, i, pool, margin=0.5, tau=0.3) == pytest.approx(1.0, abs=1e-12)
        assert hinge_g2(enc, w, i, pool, margin=0.5, tau=0.3) == pytest.approx(1.0, abs=1e-12)


def test_hinge_g_single_active_negative(rng):
    enc = make_encoder(seed=3)
    w = enc.init_params()
    pool = class_pool(rng, [0, 1], 1, 3)  # an anchor of class 0 and one negative
    anchor_x, neg_x = pool.X
    margin, tau = 1.9, 0.4  # margin large enough to force an active hinge
    s_ii = pair_sim(enc, w, anchor_x, 0)
    s_ij = pair_sim(enc, w, anchor_x, 1)
    h = max(0.0, s_ij - s_ii + margin)
    assert h > 0
    got = hinge_g1(enc, w, 0, pool, margin, tau)
    assert abs(got - math.exp(h * h / tau)) < 1e-12
    s_ji = pair_sim(enc, w, neg_x, 0)
    h2 = max(0.0, s_ji - s_ii + margin)
    got2 = hinge_g2(enc, w, 0, pool, margin, tau)
    assert abs(got2 - math.exp(h2 * h2 / tau)) < 1e-12


@pytest.mark.parametrize("hidden", [0, 4])
def test_hinge_g_matches_naive_oracle(hidden, rng):
    enc = make_encoder(seed=5, hidden_dim=hidden)
    w = enc.init_params() + 0.1 * rng.standard_normal(enc.n_params)
    pool = class_pool(rng, range(3), 3, 3)
    for i in range(4):
        got = hinge_g1(enc, w, i, pool, 0.3, 0.5)
        want = _naive_g1(enc, w, pool[i], pool, 0.3, 0.5)
        assert abs(got - want) / want < 1e-12
        got = hinge_g2(enc, w, i, pool, 0.3, 0.5)
        want = _naive_g2(enc, w, pool[i], pool, 0.3, 0.5)
        assert abs(got - want) / want < 1e-12


def test_hinge_g_requires_negatives(rng):
    enc = make_encoder(seed=1)
    w = enc.init_params()
    pool = class_pool(rng, [0], 3, 3)
    with pytest.raises(ValueError):
        hinge_g1(enc, w, 0, pool, 0.1, 0.3)


def test_class_loss_zero_when_hinges_inactive():
    enc, w, pool = _separated_two_class_setup()
    cfg = _cfg(margin=0.5, tau=0.3)
    assert class_loss_hk(enc, w, 0, pool, cfg) == pytest.approx(0.0, abs=1e-12)
    assert class_loss_hk(enc, w, 1, pool, cfg) == pytest.approx(0.0, abs=1e-12)


def test_class_loss_single_member(rng):
    enc = make_encoder(seed=6)
    w = enc.init_params()
    pool = Pool(rng.standard_normal((3, 3)), np.array([0, 1, 1]), [0, 1, 2])
    cfg = _cfg(margin=0.4, tau=0.5)
    want = (cfg.tau / 2) * (
        math.log(hinge_g1(enc, w, 0, pool, 0.4, 0.5))
        + math.log(hinge_g2(enc, w, 0, pool, 0.4, 0.5))
    )
    assert abs(class_loss_hk(enc, w, 0, pool, cfg) - want) < 1e-12


def test_class_loss_matches_naive_oracle(rng):
    enc = make_encoder(seed=7)
    w = enc.init_params() + 0.1 * rng.standard_normal(enc.n_params)
    pool = class_pool(rng, range(3), 4, 3)
    cfg = _cfg(margin=0.25, tau=0.45)
    for k in range(3):
        got = class_loss_hk(enc, w, k, pool, cfg)
        want = _naive_hk(enc, w, k, pool, cfg)
        assert abs(got - want) < 1e-10
        assert got >= 0.0


def test_class_loss_missing_class(rng):
    enc = make_encoder(seed=1)
    w = enc.init_params()
    pool = class_pool(rng, range(2), 2, 3)
    with pytest.raises(ValueError):
        class_loss_hk(enc, w, 9, pool, _cfg())


# ------------------------------------------------------------ robust weights


def _project_simplex_rows(V):
    n, K = V.shape
    U = np.sort(V, axis=1)[:, ::-1]
    css = np.cumsum(U, axis=1)
    j = np.arange(1, K + 1)
    cond = U * j > (css - 1.0)
    rho = K - 1 - np.argmax(cond[:, ::-1], axis=1)
    theta = (css[np.arange(n), rho] - 1.0) / (rho + 1.0)
    return np.maximum(V - theta[:, None], 0.0)


def pga_simplex_oracle(H, lam, iters=2500):
    """Projected gradient ascent on sum p*h - lam*KL(p||uniform), row-wise."""
    n, K = H.shape
    P = np.full((n, K), 1.0 / K)
    # step ~ 1/L with L = lam / (interior lower bound on p*)
    eta = (0.0148 / lam)[:, None]
    for _ in range(iters):
        grad = H - lam[:, None] * (np.log(np.maximum(P, 1e-300) * K) + 1.0)
        P = _project_simplex_rows(P + eta * grad)
    return P


def test_weights_uniform_for_constant_losses():
    for c in (-3.0, 0.0, 7.5):
        for lam in (0.1, 1.0, 50.0):
            p = dro_weights(np.full(3, c), lam)
            assert np.allclose(p, 1.0 / 3.0, atol=1e-12)


def test_weights_exp_ratio():
    lam = 0.8
    p = dro_weights(np.array([0.0, lam * math.log(2.0)]), lam)
    assert np.allclose(p, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)


def test_weights_sum_to_one_and_monotone(rng):
    for _ in range(200):
        h = rng.uniform(-2, 2, int(rng.integers(2, 12)))
        lam = float(rng.uniform(0.05, 20.0))
        p = dro_weights(h, lam)
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(p >= 0)
        order = np.argsort(h)
        assert np.all(np.diff(p[order]) >= -1e-15)


def test_weights_match_projected_ascent_oracle(rng):
    n, K = 300, 10
    H = rng.uniform(0.0, 1.5, (n, K))
    lam = rng.uniform(0.75, 5.0, n)
    P = pga_simplex_oracle(H, lam)
    for i in range(n):
        assert np.abs(dro_weights(H[i], lam[i]) - P[i]).max() < 1e-6


def test_objective_constant_vector_is_exact():
    for c in (-1.5, 0.0, 4.0):
        assert dro_objective(np.full(7, c), 0.3) == pytest.approx(c, abs=1e-12)


def test_objective_large_lambda_approaches_mean(rng):
    h = rng.uniform(0, 3, 10)
    assert abs(dro_objective(h, 1e9) - h.mean()) < 1e-6


def test_objective_limits_and_bounds(rng):
    h = rng.uniform(0, 3, 10)
    for lam in (1e-3, 1.0, 1e3, 1e6):
        val = dro_objective(h, lam)
        assert h.mean() - 1e-12 <= val <= h.max() + 1e-12
    assert abs(dro_objective(h, 1e-3) - h.max()) < 1e-2
    assert abs(dro_objective(h, 1e6) - h.mean()) < 1e-4


def test_objective_equals_inner_max_value(rng):
    # duality: lam*logmeanexp(h/lam) == sum p h - lam*KL(p||uniform) at p = weights
    for _ in range(300):
        h = rng.uniform(-2, 2, int(rng.integers(2, 10)))
        lam = float(rng.uniform(0.05, 10.0))
        p = dro_weights(h, lam)
        kl = float(np.sum(p * np.log(np.maximum(p, 1e-300) * len(h))))
        inner = float(p @ h) - lam * kl
        assert abs(dro_objective(h, lam) - inner) < 1e-10


# -------------------------------------------------------------- estimators


def test_update_gamma_one_full_batch_exact(rng):
    enc = make_encoder(seed=8)
    w = enc.init_params()
    pool = class_pool(rng, range(3), 4, 3)
    cfg = _cfg(gamma=1.0)
    batches = class_batches(pool, range(3))
    st = gdro_update_estimators(GdroEstimatorState(), enc, w, [0, 1, 2], batches, pool, cfg)
    h = np.array([class_loss_hk(enc, w, k, pool, cfg) for k in range(3)])
    classes, u_c = st.class_losses()
    assert classes == [0, 1, 2]
    assert np.abs(u_c - h).max() < 1e-12
    assert abs(st.v - np.mean(np.exp(h / cfg.lam))) < 1e-10
    for i, ui in enumerate(st.samples.read(pool.ids)[0]):
        assert abs(ui - _naive_g1(enc, w, pool[i], pool, cfg.margin, cfg.tau)) < 1e-10


def test_update_gamma_zero_freezes(rng):
    enc = make_encoder(seed=8)
    w = enc.init_params()
    pool = class_pool(rng, range(3), 4, 3)
    batches = class_batches(pool, range(3))
    st = gdro_update_estimators(GdroEstimatorState(), enc, w, [0, 1, 2], batches, pool, _cfg(gamma=1.0))
    before = copy.deepcopy(st)
    frozen = _cfg(gamma=0.0)
    st2 = gdro_update_estimators(st, enc, w + 0.3, [0, 1, 2], batches, pool, frozen)
    assert st2 is st  # updated in place
    assert state_bytes(st2)[:-2] == state_bytes(before)[:-2]  # all but v
    assert st2.v == before.v


@pytest.mark.parametrize("repeat", ["anchor", "class"])
def test_update_refuses_repeated_ids_and_leaves_state_alone(rng, repeat):
    enc = make_encoder(seed=8)
    w = enc.init_params()
    pool = class_pool(rng, range(3), 4, 3)
    batches = class_batches(pool, range(3))
    st = gdro_update_estimators(GdroEstimatorState(), enc, w, [0, 1], batches, pool, _cfg())
    before = state_bytes(st)
    if repeat == "anchor":
        classes, batches[2] = [2], np.append(batches[2], batches[2][0])
    else:
        classes = [2, 2]  # every anchor of class 2 twice
    repeated = pool.ids[int(batches[2][0])]
    with pytest.raises(
        ValueError, match=f"^the ids of one estimator update must not repeat: {repeated} does$"
    ):
        gdro_update_estimators(st, enc, w, classes, batches, pool, _cfg())
    assert state_bytes(st) == before


def test_update_two_level_geometric_convergence(rng):
    enc = make_encoder(seed=9)
    w0 = enc.init_params()
    w1 = enc.init_params(seed=50)
    pool = class_pool(rng, range(3), 4, 3)
    batches = class_batches(pool, range(3))
    st = gdro_update_estimators(GdroEstimatorState(), enc, w0, [0, 1, 2], batches, pool, _cfg(gamma=1.0))
    cfg = _cfg(gamma=0.5)
    h_target = np.array([class_loss_hk(enc, w1, k, pool, cfg) for k in range(3)])

    # independent two-level recursion oracle
    uc_hat = st.class_losses()[1]
    v_hat = st.v
    errs = []
    for _ in range(16):
        st = gdro_update_estimators(st, enc, w1, [0, 1, 2], batches, pool, cfg)
        uc_hat = 0.5 * uc_hat + 0.5 * h_target
        v_hat = 0.5 * v_hat + 0.5 * float(np.mean(np.exp(uc_hat / cfg.lam)))
        got_uc = st.class_losses()[1]
        assert np.abs(got_uc - uc_hat).max() < 1e-9
        assert abs(st.v - v_hat) < 1e-9 * max(1.0, v_hat)
        errs.append(np.abs(got_uc - h_target).max())
    for prev, cur in zip(errs, errs[1:]):
        assert abs(cur - 0.5 * prev) < 1e-9 * max(1.0, prev)
    assert abs(st.v - np.mean(np.exp(h_target / cfg.lam))) < 1e-2


@pytest.mark.parametrize("entry", [gdro_update_estimators, gdro_gradient_estimate, gdro_step])
def test_empty_class_batch_is_refused(rng, entry):
    """A step that samples no class has no anchors: one line, and the state stays
    as it was."""
    enc = make_encoder(seed=8)
    w = enc.init_params()
    pool = class_pool(rng, range(3), 4, 3)
    st = GdroEstimatorState()
    with pytest.raises(ValueError, match="^class_batch must name at least one class$"):
        entry(st, enc, w, [], {}, pool, _cfg())
    assert state_bytes(st) == state_bytes(GdroEstimatorState())


@pytest.mark.parametrize("entry", [gdro_update_estimators, gdro_gradient_estimate, gdro_step])
@pytest.mark.parametrize("rows, message", [
    (None, "class 2 needs its rows as a 1-d integer array"),
    (np.array([8.0, 9.0]), "class 2 needs its rows as a 1-d integer array"),
    (np.array([], dtype=np.intp), "class 2 has no rows"),
    (np.array([8, 12]), "rows for class 2 fall outside the pool"),
    (np.array([8, -1]), "rows for class 2 fall outside the pool"),
    (np.array([8, 3]), "rows for class 2 hold another class"),
], ids=["missing", "float", "empty", "past-end", "negative", "other-class"])
def test_bad_anchor_rows_are_refused(rng, entry, rows, message):
    """A class's anchors are rows of its own class in the pool: anything else is
    refused in one line naming the class, and the state stays as it was."""
    enc = make_encoder(seed=8)
    w = enc.init_params()
    pool = class_pool(rng, range(3), 4, 3)  # class 2 holds rows 8 to 11
    st = GdroEstimatorState()
    batches = class_batches(pool, [0, 1])
    if rows is not None:
        batches[2] = rows
    with pytest.raises(ValueError, match=f"^{message}$"):
        entry(st, enc, w, [0, 1, 2], batches, pool, _cfg())
    assert state_bytes(st) == state_bytes(GdroEstimatorState())


_BAD_ROWS = {  # a bad class's rows, from its own rows, and the message naming it
    "past-end": (lambda own: np.array([own[0], 16]), "rows for class {} fall outside the pool"),
    "negative": (lambda own: np.array([own[0], -1]), "rows for class {} fall outside the pool"),
    "other-class": (lambda own: np.array([own[0], (own[0] + 4) % 16]),
                    "rows for class {} hold another class"),
    "float": (lambda own: own.astype(np.float64), "class {} needs its rows as a 1-d integer array"),
    "empty": (lambda own: own[:0], "class {} has no rows"),
}


@pytest.mark.parametrize("order", [[2, 0, 3, 1], [2, 1, 3, 0]], ids=["0-first", "1-first"])
@pytest.mark.parametrize("second", list(_BAD_ROWS))
@pytest.mark.parametrize("first", list(_BAD_ROWS))
def test_two_bad_classes_name_the_first_in_class_batch_order(rng, first, second, order):
    """Classes 0 and 1 both hold bad rows, of any two kinds: the refusal names the
    one that comes first in the class batch, with that class's own message."""
    pool = class_pool(rng, range(4), 4, 3)  # class k holds rows 4k to 4k + 3
    batches = class_batches(pool, range(4))
    bad_first, bad_second = (0, 1) if order.index(0) < order.index(1) else (1, 0)
    batches[bad_first] = _BAD_ROWS[first][0](batches[bad_first])
    batches[bad_second] = _BAD_ROWS[second][0](batches[bad_second])
    with pytest.raises(ValueError, match=f"^{_BAD_ROWS[first][1].format(bad_first)}$"):
        _anchor_rows(order, batches, pool)


@pytest.mark.parametrize("hidden", [0, 4])
def test_gradient_full_batch_matches_finite_differences(hidden):
    rng = np.random.default_rng(23)
    enc = make_encoder(seed=10, hidden_dim=hidden)
    w = enc.init_params() + 0.1 * rng.standard_normal(enc.n_params)
    pool = class_pool(rng, range(3), 4, 3)
    cfg = _cfg(gamma=1.0, margin=0.3, tau=0.5, lam=0.8)
    batches = class_batches(pool, range(3))
    st = gdro_update_estimators(GdroEstimatorState(), enc, w, [0, 1, 2], batches, pool, cfg)
    grad = gdro_gradient_estimate(st, enc, w, [0, 1, 2], batches, pool, cfg)

    def objective(wv):
        h = np.array([class_loss_hk(enc, wv, k, pool, cfg) for k in range(3)])
        return dro_objective(h, cfg.lam)

    fd = central_diff(objective, w)
    assert_grad_close(grad, fd)


def test_gradient_zero_when_all_hinges_inactive():
    enc, w, pool = _separated_two_class_setup()
    cfg = _cfg(gamma=1.0, margin=0.5, tau=0.3, batch_classes=2, batch_per_class=2)
    batches = class_batches(pool, range(2))
    st = gdro_update_estimators(GdroEstimatorState(), enc, w, [0, 1], batches, pool, cfg)
    grad = gdro_gradient_estimate(st, enc, w, [0, 1], batches, pool, cfg)
    assert np.max(np.abs(grad)) == 0.0


def test_gradient_single_tracked_class_reduces_to_class_loss_gradient(rng):
    enc = make_encoder(seed=12)
    w = enc.init_params() + 0.1 * rng.standard_normal(enc.n_params)
    pool = class_pool(rng, range(3), 4, 3)
    cfg = _cfg(gamma=1.0, margin=0.3, tau=0.5)
    k = 0
    batches = class_batches(pool, [k])
    st = gdro_update_estimators(GdroEstimatorState(), enc, w, [k], batches, pool, cfg)
    grad = gdro_gradient_estimate(st, enc, w, [k], batches, pool, cfg)
    fd = central_diff(lambda wv: class_loss_hk(enc, wv, k, pool, cfg), w)
    assert_grad_close(grad, fd)


def test_gradient_requires_initialized_state(rng):
    enc = make_encoder(seed=12)
    w = enc.init_params()
    pool = class_pool(rng, range(2), 2, 3)
    batches = class_batches(pool, [0])
    with pytest.raises(ValueError):
        gdro_gradient_estimate(GdroEstimatorState(), enc, w, [0], batches, pool, _cfg())


def test_small_lambda_is_numerically_usable(rng):
    # lam = 0.01 with h spreads around 1: exp(h/lam) overflows in linear scale,
    # but the shifted v keeps weights finite
    enc = make_encoder(seed=14)
    w = enc.init_params() + 0.2 * rng.standard_normal(enc.n_params)
    pool = class_pool(rng, range(3), 4, 3)
    cfg = _cfg(gamma=1.0, lam=0.01, margin=0.8, tau=0.3)
    batches = class_batches(pool, range(3))
    st = gdro_update_estimators(GdroEstimatorState(), enc, w, [0, 1, 2], batches, pool, cfg)
    grad = gdro_gradient_estimate(st, enc, w, [0, 1, 2], batches, pool, cfg)
    assert np.all(np.isfinite(grad))
    h = np.array([class_loss_hk(enc, w, k, pool, cfg) for k in range(3)])
    # near the lam -> 0 limit the objective tracks the worst class
    assert abs(dro_objective(h, cfg.lam) - h.max()) < 0.1


@settings(max_examples=60, deadline=None)
@given(
    hidden=st.sampled_from([0, 3]),
    n_classes=st.integers(2, 6),
    per_class=st.integers(1, 5),
    batch_classes=st.integers(1, 6),
    batch_per_class=st.integers(1, 5),
    lam=st.floats(0.02, 20.0),
    margin=st.floats(0.0, 1.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_gradient_blocks_match_dense_oracle(
    hidden, n_classes, per_class, batch_classes, batch_per_class, lam, margin, seed
):
    rng = np.random.default_rng(seed)
    enc = make_encoder(seed=seed, hidden_dim=hidden, num_classes=n_classes)
    w0 = enc.init_params()
    pool = class_pool(rng, range(n_classes), per_class, 3)
    classes = [int(k) for k in rng.choice(n_classes, min(batch_classes, n_classes), replace=False)]
    batches = {k: sample_class_batch(pool, k, batch_per_class, seed + k) for k in classes}
    cfg = _cfg(lam=lam, margin=margin, gamma=0.6, batch_classes=len(classes),
               batch_per_class=batch_per_class)
    # estimators from other parameters, so they differ from the values at w1
    state = gdro_update_estimators(GdroEstimatorState(), enc, w0, classes, batches, pool, cfg)
    w1 = w0 + 0.2 * rng.standard_normal(enc.n_params)
    state = gdro_update_estimators(state, enc, w1, classes, batches, pool, cfg)

    got = gdro_gradient_estimate(state, enc, w1, classes, batches, pool, cfg)
    want = gdro_gradient_dense(state, enc, w1, classes, batches, pool, cfg)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


@settings(max_examples=120, deadline=None)
@given(
    hidden=st.sampled_from([0, 3]),
    embed=st.sampled_from([2, 3, 8, 32, 64]),
    counts=st.lists(st.integers(1, 90), min_size=2, max_size=6),
    one_row=st.booleans(),
    every_class=st.booleans(),
    shuffle=st.booleans(),
    per_class=st.integers(1, 6),
    margin=st.floats(0.0, 1.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_per_class_scoring_gives_the_per_row_bytes(
    hidden, embed, counts, one_row, every_class, shuffle, per_class, margin, seed
):
    """g1 scored once per class (or per group of bitwise-equal pool columns)
    gives the bytes of g1 scored once per pool row: log g, the negative counts,
    both coefficient blocks, and a whole step's loss, gradient and state.  The
    pools hold 2 to 6 classes of 1 to 90 rows, in class order or shuffled, so
    some of BLAS's tail columns round apart from their class."""
    rng = np.random.default_rng(seed)
    num_classes = len(counts)
    if one_row:
        counts[0] = 1
    enc = make_encoder(seed=seed % 2**16, hidden_dim=hidden, embed_dim=embed,
                       num_classes=num_classes)
    y = np.repeat(np.arange(num_classes), counts)
    if shuffle:
        y = rng.permutation(y)
    pool = Pool(rng.standard_normal((len(y), 3)), y, list(range(len(y))))
    picked = list(range(num_classes))
    if not every_class:
        picked = [int(k) for k in rng.choice(num_classes, int(rng.integers(1, num_classes + 1)),
                                             replace=False)]
    batches = {k: sample_class_batch(pool, k, per_class, seed + k) for k in picked}
    cfg = _cfg(margin=margin, gamma=0.6, batch_classes=len(picked), batch_per_class=per_class)
    w0 = enc.init_params()
    w1 = w0 + 0.2 * rng.standard_normal(enc.n_params)
    state = gdro_update_estimators(GdroEstimatorState(), enc, w0, picked, batches, pool, cfg)

    rows, sizes = _anchor_rows(picked, batches, pool)
    stats, _ = _hinge_stats(enc, w1, rows, picked, sizes, pool, cfg.margin, cfg.tau, WorkArrays())
    ids = [pool.ids[i] for i in rows.tolist()]
    want, _ = hinge_stats_per_row(enc, w1, rows, pool, cfg.margin, cfg.tau)
    assert stats[0].tobytes() == want[0].tobytes()  # n_neg
    assert stats[3].tobytes() == want[3].tobytes()  # log_g
    block, coef2 = _coefficients(state, ids, sizes, picked, stats, cfg)
    want = coefficients_per_row(state, ids, sizes, picked, want, cfg)
    assert [block[:, len(rows):].tobytes(), coef2.tobytes()] == [c.tobytes() for c in want]

    per_row = copy.deepcopy(state)
    loss, grad = gdro_step(state, enc, w1, picked, batches, pool, cfg)
    want_loss, want_grad = gdro_step_per_row(per_row, enc, w1, picked, batches, pool, cfg)
    assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
    assert grad.tobytes() == want_grad.tobytes()
    assert state_bytes(state) == state_bytes(per_row)


@settings(max_examples=40, deadline=None)
@given(
    hidden=st.sampled_from([0, 3]),
    counts=st.lists(st.integers(1, 40), min_size=2, max_size=5),
    per_class=st.integers(1, 6),
    gamma=st.floats(0.1, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_steps_read_no_stale_statistics(hidden, counts, per_class, gamma, seed):
    """A step uses up its hinge statistics and work arrays and hands on the
    estimates it wrote.  Three steps on one shuffled random pool, each on other
    classes and parameters, give the same loss, gradient and state bytes through
    ``gdro_step``, through ``gdro_update_estimators`` then
    ``gdro_gradient_estimate`` (which read the estimates back from the state),
    and through the per-row oracle."""
    rng = np.random.default_rng(seed)
    num_classes = len(counts)
    enc = make_encoder(seed=seed % 2**16, hidden_dim=hidden, num_classes=num_classes)
    w = enc.init_params()
    y = rng.permutation(np.repeat(np.arange(num_classes), counts))
    pool = Pool(rng.standard_normal((len(y), 3)), y, list(range(len(y))))
    fused, separate, per_row = GdroEstimatorState(), GdroEstimatorState(), GdroEstimatorState()
    for step in range(3):
        picked = [int(k) for k in rng.choice(num_classes, int(rng.integers(1, num_classes + 1)),
                                             replace=False)]
        batches = {k: sample_class_batch(pool, k, per_class, seed + 7 * step + k) for k in picked}
        cfg = _cfg(gamma=gamma, batch_classes=len(picked), batch_per_class=per_class)
        w = w + 0.1 * rng.standard_normal(enc.n_params)
        loss, grad = gdro_step(fused, enc, w, picked, batches, pool, cfg)
        gdro_update_estimators(separate, enc, w, picked, batches, pool, cfg)
        separate_grad = gdro_gradient_estimate(separate, enc, w, picked, batches, pool, cfg)
        separate_loss = dro_objective(separate.class_losses()[1], cfg.lam)
        oracle_loss, oracle_grad = gdro_step_per_row(per_row, enc, w, picked, batches, pool, cfg)
        got = [np.float64(loss).tobytes(), grad.tobytes(), *state_bytes(fused)]
        assert got == [np.float64(separate_loss).tobytes(), separate_grad.tobytes(),
                       *state_bytes(separate)]
        assert got == [np.float64(oracle_loss).tobytes(), oracle_grad.tobytes(),
                       *state_bytes(per_row)]


def test_columns_rounded_apart_score_on_their_own():
    """A pool column whose similarities differ in the last bit from its class's
    first column is a column group of its own, holding its own values."""
    rng = np.random.default_rng(4)
    index = np.array([0, 1, 0, 1, 1, 0])
    first = np.array([0, 1])
    S1 = rng.standard_normal((3, 2))[:, index]
    S1[1, 4] = np.nextafter(S1[1, 4], np.inf)
    group, values, group_cls = _column_groups(S1, index, first, WorkArrays())
    assert group.tolist() == [0, 1, 0, 1, 2, 0]
    assert group_cls.tolist() == [0, 1, 1]
    assert values[:, group].tobytes() == S1.tobytes()

    group, values, group_cls = _column_groups(S1[[0, 2]], index, first, WorkArrays())
    assert group is index and group_cls.tolist() == [0, 1]


def _benchmark_gdro(pool_size, num_classes=40):
    """The benchmark's gdro encoder, parameters and config, a synthetic pool of
    ``pool_size`` rows over ``num_classes`` classes, and 30 anchors."""
    run_cfg = benchmark.benchmark_config("gdro", 0, 0)
    cfg = run_cfg.gdro_config()
    pool = gen_synthetic(
        num_classes, pool_size // num_classes, benchmark.INPUT_DIM,
        benchmark.SEPARATION, benchmark.NOISE, 3,
    ).samples
    enc = EncoderPair(run_cfg.encoder_config(benchmark.INPUT_DIM, num_classes))
    classes = list(range(0, num_classes, num_classes // cfg.batch_classes))
    batches = {k: sample_class_batch(pool, k, cfg.batch_per_class, k) for k in classes}
    assert sum(len(b) for b in batches.values()) == 30
    return enc, enc.init_params(), classes, batches, pool, cfg


def test_gradient_memory_is_linear_in_pool():
    """30 anchors against a pool of 3200: a dense (n+N)^2 coefficient matrix
    alone would take 83 MB; each of the two rectangular blocks takes under 1 MB."""
    enc, w, classes, batches, pool, cfg = _benchmark_gdro(3200)
    state = gdro_update_estimators(GdroEstimatorState(), enc, w, classes, batches, pool, cfg)

    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        grad = gdro_gradient_estimate(state, enc, w, classes, batches, pool, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(grad)) and np.any(grad != 0.0)
    assert peak < 20e6, f"gradient estimate peaked at {peak / 1e6:.1f} MB"


def test_warm_step_allocates_no_pool_sized_block():
    """Once a run's work arrays have grown, a gdro step at pool 1200 with 30
    anchors writes its pool-sized blocks into them, and spent buffers take the
    later blocks: the work arrays hold three 30 x (40 + 1200) float blocks, the
    1200 x 30 g2 similarities and a 30 x 1200 mask, under 1.2 MiB, and the
    step's traced peak stays under 0.6 MB, where one more such float block
    would take 0.3 MB."""
    enc, w, classes, batches, pool, cfg = _benchmark_gdro(1200)
    state = GdroEstimatorState()
    gdro_step(state, enc, w, classes, batches, pool, cfg)  # grows the work arrays
    work = sum(flat.nbytes for flat in state.work._flat.values())
    assert work <= 1.2 * 2**20, f"work arrays hold {work / 2**20:.2f} MiB"

    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        _, grad = gdro_step(state, enc, w, classes, batches, pool, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(grad)) and np.any(grad != 0.0)
    assert peak < 0.6e6, f"warm gdro step peaked at {peak / 1e6:.2f} MB"


@settings(max_examples=6, deadline=None)
@given(hidden=st.sampled_from([0, 3]), seed=st.integers(0, 2**32 - 1))
def test_reused_work_arrays_leak_nothing_between_steps(hidden, seed):
    """Steps on one state, with the anchor count n shrinking and growing and the
    pool size N changing (1200, 400, 800), give the bytes of the same steps each
    run with fresh work arrays.  Class 7 holds 2 rows, fewer than a class batch."""
    rng = np.random.default_rng(seed)
    num_classes, per_class = 8, 6
    enc = make_encoder(seed=seed % 2**16, hidden_dim=hidden, num_classes=num_classes)
    w = enc.init_params()
    small = class_pool(rng, [7], 2, 3, id_offset=10_000)
    rows = Pool.concat([small, make_pool(rng, 1200, num_classes - 1, 3)])
    cfg = _cfg(gamma=0.8, batch_per_class=per_class)
    reused, fresh = GdroEstimatorState(), GdroEstimatorState()
    for size, with_small in ((1200, False), (400, True), (800, False)):
        pool = rows.take(range(size))
        picked = [int(k) for k in rng.choice(num_classes - 1, 3, replace=False)]
        if with_small:
            picked[0] = 7
        batches = {k: sample_class_batch(pool, k, per_class, seed + k) for k in picked}
        w = w + 0.05 * rng.standard_normal(enc.n_params)
        fresh.work = WorkArrays()
        loss, grad = gdro_step(fresh, enc, w, picked, batches, pool, cfg)
        want = [np.float64(loss).tobytes(), grad.tobytes(), *state_bytes(fresh)]
        loss, grad = gdro_step(reused, enc, w, picked, batches, pool, cfg)
        assert [np.float64(loss).tobytes(), grad.tobytes(), *state_bytes(reused)] == want


@pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, -math.inf])
@pytest.mark.parametrize("fn", [dro_weights, dro_objective])
def test_robust_weighting_refuses_a_non_positive_lam(fn, lam):
    """The weights and the objective share one lam check and refuse in one line."""
    with pytest.raises(ValueError, match=f"^lam must be > 0, got {lam}$"):
        fn([0.1, 0.4, 0.2], lam)
