import copy
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cclearn.data import Pool
from cclearn.gcl import (
    U_FLOOR,
    GclEstimatorState,
    MovingAverages,
    _gcl_loss_and_grad,
    _loss,
    gcl_gradient_estimate,
    gcl_loss_full,
    gcl_step,
    gcl_update_estimators,
    moving_average,
)
from cclearn.model import EncoderPair

from conftest import (
    assert_grad_close,
    central_diff,
    make_encoder,
    make_pool,
    pair_sim,
    pair_sim_grad,
    state_bytes,
)
from oracles import dict_moving_average, g_I, g_T


def _constant_sim_params(enc):
    """Zero weights, constant biases: every pairwise similarity is identical."""
    w = np.zeros(enc.n_params)
    w[enc._slices["e1_b" if enc.config.hidden_dim == 0 else "e1_b2"]] = [1.0, 0.5, -0.25]
    w[enc._slices["e2_b" if enc.config.hidden_dim == 0 else "e2_b2"]] = [0.0, 2.0, 1.0]
    return w


def _naive_g_I(enc, w, anchor, candidates, tau):
    return sum(
        math.exp(pair_sim(enc, w, anchor.X[0], k) / tau) for k in candidates.y.tolist()
    )


def _naive_g_T(enc, w, anchor, candidates, tau):
    return sum(
        math.exp(pair_sim(enc, w, x, int(anchor.y[0])) / tau) for x in candidates.X
    )


def _naive_loss(enc, w, pool, tau):
    """From-scratch loss: two softmax terms per anchor, plain python loops."""
    n = len(pool)
    total = 0.0
    for i in range(n):
        a = pool[i]
        s_ii = pair_sim(enc, w, a.X[0], int(a.y[0]))
        total += -math.log(math.exp(s_ii / tau) / _naive_g_I(enc, w, a, pool, tau))
        total += -math.log(math.exp(s_ii / tau) / _naive_g_T(enc, w, a, pool, tau))
    return total / n


def test_g_single_candidate_is_exp_sim_over_tau(rng):
    enc = make_encoder(seed=1)
    w = enc.init_params()
    pool = make_pool(rng, 2, 3, 3)
    a, b = pool[0], pool[1]
    tau = 0.5
    s = pair_sim(enc, w, a.X[0], int(b.y[0]))
    assert abs(g_I(enc, w, a, b, tau) - math.exp(s / tau)) < 1e-12
    s2 = pair_sim(enc, w, b.X[0], int(a.y[0]))
    assert abs(g_T(enc, w, a, b, tau) - math.exp(s2 / tau)) < 1e-12


def test_g_with_orthogonal_similarities_counts_candidates():
    enc = make_encoder(seed=0, hidden_dim=0)
    w = np.zeros(enc.n_params)
    w[enc._slices["e1_b"]] = [1.0, 0.0, 0.0]
    w[enc._slices["e2_b"]] = [0.0, 1.0, 0.0]  # all sims exactly 0
    rng = np.random.default_rng(2)
    pool = make_pool(rng, 6, 3, 3)
    assert abs(g_I(enc, w, pool[0], pool, tau=0.3) - 6.0) < 1e-9


def test_g_symmetric_construction_makes_g_T_equal_g_I(rng):
    enc = make_encoder(seed=0, hidden_dim=0)
    w = _constant_sim_params(enc)
    pool = make_pool(rng, 5, 3, 3)
    for i in range(len(pool)):
        assert abs(
            g_I(enc, w, pool[i], pool, 0.7) - g_T(enc, w, pool[i], pool, 0.7)
        ) < 1e-9


@pytest.mark.parametrize("hidden", [0, 4])
def test_g_matches_naive_oracle(hidden, rng):
    enc = make_encoder(seed=5, hidden_dim=hidden)
    w = enc.init_params() + 0.1 * rng.standard_normal(enc.n_params)
    pool = make_pool(rng, 8, 4, 3)
    tau = 0.3
    for anchor in (pool[0], pool[1], pool[2]):
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
    a = make_pool(rng, 1, 3, 3)
    with pytest.raises(ValueError):
        g_I(enc, w, a, a.take([]), 0.5)


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
    u_I, u_T = st.samples.read(pool.ids)
    for i, (ui, ut) in enumerate(zip(u_I, u_T)):
        assert abs(ui - g_I(enc, w, pool[i], pool, 0.3)) < 1e-10
        assert abs(ut - g_T(enc, w, pool[i], pool, 0.3)) < 1e-10
        assert ui > 0


def test_update_gamma_zero_freezes_initialized_state(rng):
    enc = make_encoder(seed=3)
    w = enc.init_params()
    pool = make_pool(rng, 6, 3, 3)
    st = gcl_update_estimators(GclEstimatorState(gamma=0.0), enc, w, pool, 0.3, len(pool))
    before = state_bytes(st)
    w2 = w + 0.5  # different params would move an unfrozen estimator
    st2 = gcl_update_estimators(st, enc, w2, pool, 0.3, len(pool))
    assert st2 is st  # updated in place
    assert state_bytes(st2) == before


def test_update_converges_geometrically(rng):
    enc = make_encoder(seed=4)
    w0 = enc.init_params()
    w1 = EncoderPair(replace(enc.config, seed=99)).init_params()
    pool = make_pool(rng, 6, 3, 3)
    tau = 0.3
    st = gcl_update_estimators(GclEstimatorState(gamma=1.0), enc, w0, pool, tau, len(pool))
    st = GclEstimatorState(gamma=0.5, samples=copy.deepcopy(st.samples))
    ids = pool.ids
    target = [g_I(enc, w1, pool[i], pool, tau) for i in range(len(pool))]
    errs = []
    for _ in range(12):
        st = gcl_update_estimators(st, enc, w1, pool, tau, len(pool))
        errs.append(max(abs(u - t) for u, t in zip(st.samples.read(ids)[0], target)))
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
    rows = list(zip(batch.X, batch.y.tolist(), batch.ids))
    for a_x, a_class, a_id in rows:
        m += -pair_sim_grad(enc, w, a_x, a_class) / n
        for b_x, b_class, _ in rows:
            s_ab = pair_sim(enc, w, a_x, b_class)
            grad_ab = pair_sim_grad(enc, w, a_x, b_class)
            # d/dw of scale*exp(s/tau), weighted by tau/(2 n u)
            m += (tau / (2 * n * u_I[a_id])) * scale * math.exp(s_ab / tau) / tau * grad_ab
            s_ba = pair_sim(enc, w, b_x, a_class)
            grad_ba = pair_sim_grad(enc, w, b_x, a_class)
            m += (tau / (2 * n * u_T[a_id])) * scale * math.exp(s_ba / tau) / tau * grad_ba
    return m


@pytest.mark.parametrize("tau", [0.3, 0.6])
def test_gradient_matches_symbolic_reassembly_under_tau_change(tau, rng):
    enc = make_encoder(seed=7)
    w = enc.init_params() + 0.1 * rng.standard_normal(enc.n_params)
    pool = make_pool(rng, 5, 3, 3)
    st = gcl_update_estimators(GclEstimatorState(gamma=1.0), enc, w, pool, tau, 10)
    got = gcl_gradient_estimate(st, enc, w, pool, tau, 10)
    ids = pool.ids
    u_I, u_T = (dict(zip(ids, row)) for row in st.samples.read(ids))
    want = _reassembled_estimate(enc, w, pool, tau, 10, u_I, u_T)
    assert np.max(np.abs(got - want)) < 1e-10


def test_gradient_requires_initialized_estimators(rng):
    enc = make_encoder(seed=7)
    w = enc.init_params()
    pool = make_pool(rng, 3, 3, 3)
    first = pool.ids[0]
    with pytest.raises(ValueError, match=f"estimator not initialized for sample {first}$"):
        gcl_gradient_estimate(GclEstimatorState(gamma=0.9), enc, w, pool, 0.3, 3)
    st = gcl_update_estimators(GclEstimatorState(gamma=1.0), enc, w, pool, 0.3, 3)
    st.samples.values[0, st.samples.slot[first]] = -1.0  # u_I of the first sample
    with pytest.raises(ValueError, match=f"non-positive estimator value for sample {first}$"):
        gcl_gradient_estimate(st, enc, w, pool, 0.3, 3)


def test_state_determinism_snapshot(rng):
    enc = make_encoder(seed=9)
    w = enc.init_params()
    pool = make_pool(rng, 5, 3, 3)

    def build():
        st = GclEstimatorState(gamma=0.7)
        for batch in (pool.take(range(3)), pool.take(range(2, 5)), pool):
            st = gcl_update_estimators(st, enc, w, batch, 0.2, len(pool))
        return st

    a, b = build(), build()
    assert state_bytes(a) == state_bytes(b)
    assert state_bytes(a)[0] == pool.ids  # first-touch order


def test_step_refuses_repeated_ids_and_leaves_state_alone(rng):
    """A repeated id is refused, naming it, whether or not its rows have columns
    yet, and whether it repeats as one row twice or as two rows that share it."""
    enc = make_encoder(seed=3)
    w = enc.init_params()
    pool = make_pool(rng, 6, 3, 3)
    st = GclEstimatorState(gamma=0.9)
    gcl_step(st, enc, w, pool, np.arange(4), 0.3)
    before = state_bytes(st)
    message = "^the ids of one estimator update must not repeat: {} does$"
    for rows in ([3, 4, 5, 0, 3], [3, 0, 3]):
        with pytest.raises(ValueError, match=message.format(pool.ids[3])):
            gcl_step(st, enc, w, pool, np.array(rows), 0.3)
        assert state_bytes(st) == before
    shared = Pool(pool.X, pool.y, pool.ids[:5] + [pool.ids[1]])  # rows 1 and 5 share an id
    with pytest.raises(ValueError, match=message.format(pool.ids[1])):
        gcl_step(st, enc, w, shared, np.array([1, 5]), 0.3)
    gcl_step(st, enc, w, shared, np.array([1, 2]), 0.3)
    gcl_step(st, enc, w, shared, np.array([5, 2]), 0.3)  # row 5 takes id 1's column
    with pytest.raises(ValueError, match=message.format(pool.ids[1])):
        gcl_step(st, enc, w, shared, np.array([5, 1]), 0.3)


class _DrawnSims:
    """An encoder pair whose forward gives the drawn similarities, NaN and inf
    included, in place of its own, and whose backward is the real one."""

    def __init__(self, enc, sims):
        self.enc, self.sims = enc, sims

    def pair_forward(self, params, X, y):
        f1, f2, _ = self.enc.pair_forward(params, X, y)
        return f1, f2, self.sims.copy()  # the backward overwrites its sims

    def pair_grad(self, *args):
        return self.enc.pair_grad(*args)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 5),
    decade=st.integers(-320, 0),
    mantissa=st.floats(1.0, 10.0),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_an_unlogged_step_skips_only_a_loss_it_proves_finite(n, decade, mantissa, seed, data):
    """On logits sims/tau, with tau log-uniform in [1e-320, 1e1] (a decade, then
    a mantissa) and sims in [-1, 1] with NaN and inf among them: an unlogged
    step gives None only where ``_loss`` of the logits is finite, and gives
    that loss's bits otherwise; it always gives None when every logit is
    within 1e300.  Its gradient and estimator state are, to the bit, a logged
    step's, whose loss is ``_loss``'s bits."""
    tau = mantissa * 10.0**decade
    sims = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n * n, max_size=n * n)))
    special = st.tuples(st.integers(0, n * n - 1), st.sampled_from([math.nan, math.inf, -math.inf]))
    for at, value in data.draw(st.lists(special, max_size=2)):
        sims[at] = value
    sims = sims.reshape(n, n)
    enc = make_encoder(seed=seed % 7, num_classes=3)
    w = enc.init_params()
    pool = make_pool(np.random.default_rng(seed), n, 3, 3)
    steps = {}
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        S = sims / tau
        exact = np.float64(_loss(S)).tobytes()
        for logged in (True, False):
            state = GclEstimatorState(gamma=0.9)
            cols = state.samples.columns(pool.ids)
            loss, grad = _gcl_loss_and_grad(
                state, _DrawnSims(enc, sims), w, pool.X, pool.y, cols, 2 * n, tau, logged
            )
            steps[logged] = loss, grad.tobytes(), state_bytes(state)
    (logged_loss, *logged_rest), (loss, *rest) = steps[True], steps[False]
    assert rest == logged_rest
    assert np.float64(logged_loss).tobytes() == exact
    if loss is None:
        assert math.isfinite(logged_loss)
    else:
        assert np.float64(loss).tobytes() == exact
    assert (loss is None) == (np.abs(S).max() <= 1e300)


# values the floor and the first touch must treat exactly as the per-key loop:
# NaN, infinities, zeros, subnormals and values just under and over U_FLOOR
_ESTIMATES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 0.5 * U_FLOOR, U_FLOOR, 2 * U_FLOOR]),
)


@settings(max_examples=150, deadline=None)
@given(
    rows=st.integers(1, 2),
    gamma=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    floor=st.sampled_from([None, U_FLOOR]),
    data=st.data(),
)
def test_moving_average_is_bitwise_the_per_key_recurrence(rows, gamma, floor, data):
    """Across calls with fresh and repeated keys, past the first capacity, the
    columns hold the dict recurrence's keys in first-touch order and its bits."""
    table, stores = MovingAverages(rows), [{} for _ in range(rows)]
    for _ in range(data.draw(st.integers(1, 5))):
        keys = data.draw(st.lists(st.integers(0, 150), min_size=1, max_size=40, unique=True))
        values = data.draw(
            st.lists(
                st.lists(_ESTIMATES, min_size=len(keys), max_size=len(keys)),
                min_size=rows,
                max_size=rows,
            )
        )
        cols = table.columns(keys)
        with np.errstate(invalid="ignore", over="ignore"):
            written = moving_average(table, cols, values, gamma, floor)
        for store, row in zip(stores, values):
            dict_moving_average(store, keys, row, gamma, floor)

        assert list(table.slot) == list(stores[0])
        assert [table.slot[k] for k in keys] == cols.tolist()
        assert written.tobytes() == table.read(keys, positive=False).tobytes()
        every = list(stores[0])
        got = table.read(every, positive=False)
        assert got.tobytes() == np.array([[s[k] for k in every] for s in stores]).tobytes()


@pytest.mark.parametrize("case, message", [
    ("empty-pool", "batch must be non-empty"),
    ("empty-list", "batch must be non-empty"),
    ("empty-rows", "batch must be non-empty"),
    ("pool-smaller-than-batch", "pool_size must be >= batch size"),
])
def test_gcl_refuses_hostile_input(rng, case, message):
    """An empty batch, given as a Pool, a list of Pools or rows of the pool, and
    a pool size below the batch size are each refused in one line."""
    enc = make_encoder(seed=3)
    w = enc.init_params()
    pool = make_pool(rng, 6, 3, 3)
    state = GclEstimatorState(gamma=0.5)
    call = {
        "empty-pool": lambda: gcl_loss_full(enc, w, pool.take([]), 0.2),
        "empty-list": lambda: gcl_gradient_estimate(state, enc, w, [], 0.2, 6),
        "empty-rows": lambda: gcl_step(state, enc, w, pool, np.arange(0), 0.2),
        "pool-smaller-than-batch": lambda: gcl_update_estimators(state, enc, w, pool, 0.2, 5),
    }[case]
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_refused_pool_size_leaves_the_state_alone(rng):
    """A pool size below the batch size is refused before any of the batch's ids
    gets an estimator column: the state keeps its keys and its bits."""
    enc = make_encoder(seed=3)
    w = enc.init_params()
    pool = make_pool(rng, 6, 3, 3)
    state = gcl_update_estimators(GclEstimatorState(gamma=0.5), enc, w, pool.take(range(3)), 0.2, 6)
    before = state_bytes(state)
    with pytest.raises(ValueError, match="^pool_size must be >= batch size$"):
        gcl_update_estimators(state, enc, w, pool, 0.2, 5)
    assert state_bytes(state) == before
