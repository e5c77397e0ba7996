import math

import numpy as np
import pytest

from cclearn.gcl import (
    GclEstimatorState,
    gcl_gradient_estimate,
    gcl_loss_full,
    gcl_update_estimators,
)

from conftest import (
    assert_grad_close,
    central_diff,
    make_encoder,
    make_pool,
    pair_sim,
    pair_sim_grad,
)
from oracles import g_I, g_T


def _constant_sim_params(enc):
    """Zero weights, constant biases: every pairwise similarity is identical."""
    w = np.zeros(enc.n_params)
    w[enc.segment("e1_b" if enc.config.hidden_dim == 0 else "e1_b2")] = [1.0, 0.5, -0.25]
    w[enc.segment("e2_b" if enc.config.hidden_dim == 0 else "e2_b2")] = [0.0, 2.0, 1.0]
    return w


def _naive_g_I(enc, w, anchor, candidates, tau):
    return sum(
        math.exp(pair_sim(enc, w, anchor.x, s.class_id) / tau) for s in candidates
    )


def _naive_g_T(enc, w, anchor, candidates, tau):
    return sum(
        math.exp(pair_sim(enc, w, s.x, anchor.class_id) / tau) for s in candidates
    )


def _naive_loss(enc, w, pool, tau):
    """From-scratch loss: two softmax terms per anchor, plain python loops."""
    n = len(pool)
    total = 0.0
    for i, a in enumerate(pool):
        s_ii = pair_sim(enc, w, a.x, a.class_id)
        total += -math.log(math.exp(s_ii / tau) / _naive_g_I(enc, w, a, pool, tau))
        total += -math.log(math.exp(s_ii / tau) / _naive_g_T(enc, w, a, pool, tau))
    return total / n


def test_g_single_candidate_is_exp_sim_over_tau(rng):
    enc = make_encoder(seed=1)
    w = enc.init_params()
    a, b = make_pool(rng, 2, 3, 3)
    tau = 0.5
    s = pair_sim(enc, w, a.x, b.class_id)
    assert abs(g_I(enc, w, a, [b], tau) - math.exp(s / tau)) < 1e-12
    s2 = pair_sim(enc, w, b.x, a.class_id)
    assert abs(g_T(enc, w, a, [b], tau) - math.exp(s2 / tau)) < 1e-12


def test_g_with_orthogonal_similarities_counts_candidates():
    enc = make_encoder(seed=0, hidden_dim=0)
    w = np.zeros(enc.n_params)
    w[enc.segment("e1_b")] = [1.0, 0.0, 0.0]
    w[enc.segment("e2_b")] = [0.0, 1.0, 0.0]  # all sims exactly 0
    rng = np.random.default_rng(2)
    pool = make_pool(rng, 6, 3, 3)
    assert abs(g_I(enc, w, pool[0], pool, tau=0.3) - 6.0) < 1e-9


def test_g_symmetric_construction_makes_g_T_equal_g_I(rng):
    enc = make_encoder(seed=0, hidden_dim=0)
    w = _constant_sim_params(enc)
    pool = make_pool(rng, 5, 3, 3)
    for anchor in pool:
        assert abs(
            g_I(enc, w, anchor, pool, 0.7) - g_T(enc, w, anchor, pool, 0.7)
        ) < 1e-9


@pytest.mark.parametrize("hidden", [0, 4])
def test_g_matches_naive_oracle(hidden, rng):
    enc = make_encoder(seed=5, hidden_dim=hidden)
    w = enc.init_params() + 0.1 * rng.standard_normal(enc.n_params)
    pool = make_pool(rng, 8, 4, 3)
    tau = 0.3
    for anchor in pool[:3]:
        got = g_I(enc, w, anchor, pool, tau)
        want = _naive_g_I(enc, w, anchor, pool, tau)
        assert abs(got - want) / want < 1e-12
        got = g_T(enc, w, anchor, pool, tau)
        want = _naive_g_T(enc, w, anchor, pool, tau)
        assert abs(got - want) / want < 1e-12
        assert got > 0


def test_g_rejects_empty_candidates(rng):
    enc = make_encoder(seed=1)
    w = enc.init_params()
    (a,) = make_pool(rng, 1, 3, 3)
    with pytest.raises(ValueError):
        g_I(enc, w, a, [], 0.5)


def test_loss_single_sample_is_zero(rng):
    enc = make_encoder(seed=2)
    w = enc.init_params()
    pool = make_pool(rng, 1, 3, 3)
    assert abs(gcl_loss_full(enc, w, pool, 0.2)) < 1e-12


def test_loss_uniform_similarities_is_2_log_n(rng):
    enc = make_encoder(seed=0, hidden_dim=0)
    w = _constant_sim_params(enc)
    for n in (2, 5, 9):
        pool = make_pool(rng, n, 3, 3)
        assert abs(gcl_loss_full(enc, w, pool, 0.4) - 2.0 * math.log(n)) < 1e-9


def test_loss_matches_naive_oracle(rng):
    enc = make_encoder(seed=8)
    w = enc.init_params() + 0.1 * rng.standard_normal(enc.n_params)
    pool = make_pool(rng, 12, 4, 3)
    got = gcl_loss_full(enc, w, pool, 0.25)
    want = _naive_loss(enc, w, pool, 0.25)
    assert abs(got - want) < 1e-10
    assert got >= 0.0


def test_update_gamma_one_full_batch_is_exact(rng):
    enc = make_encoder(seed=3)
    w = enc.init_params()
    pool = make_pool(rng, 6, 3, 3)
    st = gcl_update_estimators(GclEstimatorState(gamma=1.0), enc, w, pool, 0.3, len(pool))
    for s in pool:
        assert abs(st.u_I[s.sample_id] - g_I(enc, w, s, pool, 0.3)) < 1e-10
        assert abs(st.u_T[s.sample_id] - g_T(enc, w, s, pool, 0.3)) < 1e-10
        assert st.u_I[s.sample_id] > 0


def test_update_gamma_zero_freezes_initialized_state(rng):
    enc = make_encoder(seed=3)
    w = enc.init_params()
    pool = make_pool(rng, 6, 3, 3)
    st = gcl_update_estimators(GclEstimatorState(gamma=0.0), enc, w, pool, 0.3, len(pool))
    before = (dict(st.u_I), dict(st.u_T))
    w2 = w + 0.5  # different params would move an unfrozen estimator
    st2 = gcl_update_estimators(st, enc, w2, pool, 0.3, len(pool))
    assert st2 is st  # updated in place
    assert (st2.u_I, st2.u_T) == before


def test_update_converges_geometrically(rng):
    enc = make_encoder(seed=4)
    w0 = enc.init_params()
    w1 = enc.init_params(seed=99)
    pool = make_pool(rng, 6, 3, 3)
    tau = 0.3
    st = gcl_update_estimators(GclEstimatorState(gamma=1.0), enc, w0, pool, tau, len(pool))
    st = GclEstimatorState(gamma=0.5, u_I=dict(st.u_I), u_T=dict(st.u_T))
    target = {s.sample_id: g_I(enc, w1, s, pool, tau) for s in pool}
    errs = []
    for _ in range(12):
        st = gcl_update_estimators(st, enc, w1, pool, tau, len(pool))
        errs.append(max(abs(st.u_I[k] - target[k]) for k in target))
    for prev, cur in zip(errs, errs[1:]):
        assert abs(cur - 0.5 * prev) < 1e-9 * max(1.0, prev)


@pytest.mark.parametrize("hidden", [0, 4])
def test_gradient_full_batch_matches_scaled_finite_differences(hidden):
    rng = np.random.default_rng(17)
    enc = make_encoder(seed=6, hidden_dim=hidden)
    w = enc.init_params() + 0.1 * rng.standard_normal(enc.n_params)
    pool = make_pool(rng, 8, 4, 3)
    tau = 0.4
    st = gcl_update_estimators(GclEstimatorState(gamma=1.0), enc, w, pool, tau, len(pool))
    m = gcl_gradient_estimate(st, enc, w, pool, tau, len(pool))
    fd = central_diff(lambda wv: gcl_loss_full(enc, wv, pool, tau), w)
    assert_grad_close(m, (tau / 2.0) * fd)


def test_gradient_single_sample_pool_is_zero(rng):
    enc = make_encoder(seed=6)
    w = enc.init_params()
    pool = make_pool(rng, 1, 3, 3)
    tau = 0.5
    st = gcl_update_estimators(GclEstimatorState(gamma=1.0), enc, w, pool, tau, 1)
    m = gcl_gradient_estimate(st, enc, w, pool, tau, 1)
    assert np.max(np.abs(m)) < 1e-12
    fd = central_diff(lambda wv: gcl_loss_full(enc, wv, pool, tau), w)
    assert np.max(np.abs(fd)) < 1e-8


def _reassembled_estimate(enc, w, batch, tau, pool_size, u_I, u_T):
    """Re-derived estimator from scalar pair gradients, term by term."""
    n = len(batch)
    scale = pool_size / n
    m = np.zeros(enc.n_params)
    for i, a in enumerate(batch):
        m += -pair_sim_grad(enc, w, a.x, a.class_id) / n
        for b in batch:
            s_ab = pair_sim(enc, w, a.x, b.class_id)
            grad_ab = pair_sim_grad(enc, w, a.x, b.class_id)
            # d/dw of scale*exp(s/tau), weighted by tau/(2 n u)
            m += (tau / (2 * n * u_I[a.sample_id])) * scale * math.exp(s_ab / tau) / tau * grad_ab
            s_ba = pair_sim(enc, w, b.x, a.class_id)
            grad_ba = pair_sim_grad(enc, w, b.x, a.class_id)
            m += (tau / (2 * n * u_T[a.sample_id])) * scale * math.exp(s_ba / tau) / tau * grad_ba
    return m


@pytest.mark.parametrize("tau", [0.3, 0.6])
def test_gradient_matches_symbolic_reassembly_under_tau_change(tau, rng):
    enc = make_encoder(seed=7)
    w = enc.init_params() + 0.1 * rng.standard_normal(enc.n_params)
    pool = make_pool(rng, 5, 3, 3)
    st = gcl_update_estimators(GclEstimatorState(gamma=1.0), enc, w, pool, tau, 10)
    got = gcl_gradient_estimate(st, enc, w, pool, tau, 10)
    want = _reassembled_estimate(enc, w, pool, tau, 10, st.u_I, st.u_T)
    assert np.max(np.abs(got - want)) < 1e-10


def test_gradient_requires_initialized_estimators(rng):
    enc = make_encoder(seed=7)
    w = enc.init_params()
    pool = make_pool(rng, 3, 3, 3)
    with pytest.raises(ValueError):
        gcl_gradient_estimate(GclEstimatorState(gamma=0.9), enc, w, pool, 0.3, 3)
    st = gcl_update_estimators(GclEstimatorState(gamma=1.0), enc, w, pool, 0.3, 3)
    st.u_I[pool[0].sample_id] = -1.0
    with pytest.raises(ValueError):
        gcl_gradient_estimate(st, enc, w, pool, 0.3, 3)


def test_state_determinism_snapshot(rng):
    enc = make_encoder(seed=9)
    w = enc.init_params()
    pool = make_pool(rng, 5, 3, 3)

    def build():
        st = GclEstimatorState(gamma=0.7)
        for batch in (pool[:3], pool[2:], pool):
            st = gcl_update_estimators(st, enc, w, batch, 0.2, len(pool))
        return st

    a, b = build(), build()
    assert a.u_I == b.u_I and a.u_T == b.u_T
