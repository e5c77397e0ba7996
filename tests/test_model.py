from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cclearn.data import Pool
from cclearn.model import EncoderConfig, EncoderPair, _normalize_rows

from conftest import assert_grad_close, central_diff, make_encoder, pair_sim, pair_sim_grad
from oracles import backward_add_at


def _expected_length(cfg):
    # independent re-derivation of the documented flat layout
    i, h, e, c = cfg.input_dim, cfg.hidden_dim, cfg.embed_dim, cfg.num_classes_max
    if h > 0:
        return (h * i + e * h + h + e) + (h * c + e * h + h + e)
    return (e * i + e) + (e * c + e)


def _oracle_forward_input(cfg, params, x):
    """Straight-line reimplementation of the input-encoder forward pass."""
    i, h, e = cfg.input_dim, cfg.hidden_dim, cfg.embed_dim
    off = 0
    if h > 0:
        W1 = params[off : off + h * i].reshape(h, i); off += h * i
        W2 = params[off : off + e * h].reshape(e, h); off += e * h
        b1 = params[off : off + h]; off += h
        b2 = params[off : off + e]; off += e
        z = W2 @ np.tanh(W1 @ x + b1) + b2
    else:
        W = params[off : off + e * i].reshape(e, i); off += e * i
        b = params[off : off + e]; off += e
        z = W @ x + b
    return z / np.sqrt(np.sum(z * z))


def _oracle_forward_label(cfg, params, class_id):
    i, h, e, c = cfg.input_dim, cfg.hidden_dim, cfg.embed_dim, cfg.num_classes_max
    onehot = np.zeros(c)
    onehot[class_id] = 1.0
    if h > 0:
        off = h * i + e * h + h + e
        V1 = params[off : off + h * c].reshape(h, c); off += h * c
        V2 = params[off : off + e * h].reshape(e, h); off += e * h
        c1 = params[off : off + h]; off += h
        c2 = params[off : off + e]
        z = V2 @ np.tanh(V1 @ onehot + c1) + c2
    else:
        off = e * i + e
        V = params[off : off + e * c].reshape(e, c); off += e * c
        cb = params[off : off + e]
        z = V @ onehot + cb
    return z / np.sqrt(np.sum(z * z))


def _oracle_init(cfg, seed):
    """Straight-line initialization: one PCG64 stream, each tower's weights drawn
    in layout order as U(-1, 1)/sqrt(fan_in), biases zero."""
    i, h, e, c = cfg.input_dim, cfg.hidden_dim, cfg.embed_dim, cfg.num_classes_max
    rng = np.random.default_rng(seed)

    def draw(rows, fan_in):
        return rng.uniform(-1.0, 1.0, rows * fan_in) / np.sqrt(fan_in)

    if h > 0:
        e1_w1, e1_w2 = draw(h, i), draw(e, h)
        e2_w1, e2_w2 = draw(h, c), draw(e, h)
        return np.concatenate([e1_w1, e1_w2, np.zeros(h + e), e2_w1, e2_w2, np.zeros(h + e)])
    e1_w, e2_w = draw(e, i), draw(e, c)
    return np.concatenate([e1_w, np.zeros(e), e2_w, np.zeros(e)])


@pytest.mark.parametrize("hidden", [0, 4])
def test_init_params_match_fill_order_oracle(hidden):
    cfg = EncoderConfig(input_dim=3, num_classes_max=5, hidden_dim=hidden, embed_dim=2, seed=17)
    enc = EncoderPair(cfg)
    assert np.array_equal(enc.init_params(), _oracle_init(cfg, 17))
    assert np.array_equal(enc.init_params(seed=4), _oracle_init(cfg, 4))


def test_init_params_deterministic():
    enc = make_encoder(seed=42)
    assert np.array_equal(enc.init_params(), enc.init_params())


def test_init_params_seed_sensitivity():
    enc = make_encoder(seed=42)
    assert np.any(enc.init_params(seed=1) != enc.init_params(seed=2))


@pytest.mark.parametrize("hidden", [0, 4])
def test_param_vector_length(hidden):
    cfg = EncoderConfig(input_dim=2, num_classes_max=5, hidden_dim=hidden, embed_dim=2, seed=0)
    enc = EncoderPair(cfg)
    assert enc.n_params == _expected_length(cfg)
    assert enc.init_params().shape == (enc.n_params,)


def test_init_biases_zero():
    enc = make_encoder(seed=3, hidden_dim=0)
    w = enc.init_params()
    assert np.all(w[enc.segment("e1_b")] == 0.0)
    assert np.all(w[enc.segment("e2_b")] == 0.0)


@pytest.mark.parametrize("hidden", [0, 4])
def test_encode_outputs_unit_norm(hidden, rng):
    enc = make_encoder(seed=1, hidden_dim=hidden)
    w = enc.init_params()
    for _ in range(20):
        (e_in,), _ = enc._forward_inputs(w, [rng.standard_normal(3)])
        assert abs(np.linalg.norm(e_in) - 1.0) < 1e-9
    for c in range(4):
        (e_lab,), _ = enc._forward_labels(w, [c])
        assert abs(np.linalg.norm(e_lab) - 1.0) < 1e-9


def test_encode_zero_input_returns_normalized_bias():
    enc = make_encoder(seed=0, hidden_dim=0)
    w = np.zeros(enc.n_params)
    b = np.array([0.5, -1.0, 2.0])
    w[enc.segment("e1_b")] = b
    w[enc.segment("e2_b")] = [1.0, 0.0, 0.0]
    (out,), _ = enc._forward_inputs(w, [np.zeros(3)])
    assert np.allclose(out, b / np.linalg.norm(b), atol=1e-12)


@pytest.mark.parametrize("hidden", [0, 4])
def test_encode_matches_straightline_oracle(hidden, rng):
    enc = make_encoder(seed=9, hidden_dim=hidden)
    w = enc.init_params() + 0.05 * rng.standard_normal(enc.n_params)
    for _ in range(10):
        x = rng.standard_normal(3)
        (got,), _ = enc._forward_inputs(w, [x])
        want = _oracle_forward_input(enc.config, w, x)
        assert np.max(np.abs(got - want)) < 1e-12
    for c in range(4):
        (got,), _ = enc._forward_labels(w, [c])
        want = _oracle_forward_label(enc.config, w, c)
        assert np.max(np.abs(got - want)) < 1e-12


def test_encode_label_deterministic(rng):
    enc = make_encoder(seed=5)
    w = enc.init_params()
    assert np.array_equal(enc._forward_labels(w, [2])[0], enc._forward_labels(w, [2])[0])


def test_encode_rejects_bad_shapes():
    enc = make_encoder(seed=0)
    w = enc.init_params()
    with pytest.raises(ValueError):
        enc._forward_inputs(w, [np.zeros(7)])
    with pytest.raises(ValueError):
        enc._forward_labels(w, [99])
    with pytest.raises(ValueError):
        enc._forward_labels(w, [-1])


@pytest.mark.parametrize(
    "class_ids",
    [[1.7], [True], np.array([1.7]), np.array([0, 1], dtype=bool), [1, 2.0]],
    ids=["float", "bool", "float-array", "bool-array", "mixed"],
)
def test_label_forward_refuses_non_integer_class_ids(class_ids):
    """A float or bool class id is refused in one line, not truncated to a class."""
    enc = make_encoder(seed=0)
    w = enc.init_params()
    with pytest.raises(ValueError, match=r"^class ids must be integers, got dtype \w+$"):
        enc.similarity_matrix(w, [np.ones(3)], class_ids)
    with pytest.raises(ValueError, match="^class ids must be integers"):
        enc._forward_labels(w, class_ids)


def test_label_forward_keeps_the_bits_of_integer_and_empty_class_ids(rng):
    enc = make_encoder(seed=4, num_classes=5)
    w = enc.init_params()
    X = rng.standard_normal((3, 3))
    want = enc.similarity_matrix(w, X, [3, 0, 3]).tobytes()
    for ids in (np.array([3, 0, 3], dtype=np.uint8), np.array([[3], [0], [3]]), (3, 0, 3)):
        assert enc.similarity_matrix(w, X, ids).tobytes() == want
    for empty in ([], np.array([], dtype=np.int64)):
        assert enc.similarity_matrix(w, X, empty).shape == (3, 0)


@pytest.mark.parametrize(
    "candidates", [[1.5, 2.5], {2.0}, [True, False], np.array([1.0, 2.0])],
    ids=["floats", "float-set", "bools", "float-array"],
)
def test_predict_refuses_non_integer_candidates(candidates):
    """predict_batch used to return class 2 for candidates [1.5, 2.5]."""
    enc = make_encoder(seed=0)
    w = enc.init_params()
    with pytest.raises(ValueError, match="^class ids must be integers"):
        enc.predict_batch(w, [np.ones(3)], candidates)


def test_predict_keeps_integer_candidates_of_any_kind(rng):
    enc = make_encoder(seed=8, num_classes=5)
    w = enc.init_params()
    X = rng.standard_normal((6, 3))
    want = enc.predict_batch(w, X, {4, 1, 2})
    for candidates in ([2, 4, 1, 4], np.array([4, 1, 2], dtype=np.uint16),
                       frozenset(np.array([1, 2, 4])), (np.int64(1), 2, 4)):
        got = enc.predict_batch(w, X, candidates)
        assert got.dtype == np.int64 and got.tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="^candidate_classes must be non-empty$"):
        enc.predict_batch(w, X, [])


def _constant_embedding_params(enc, input_bias, label_bias):
    """Zero weights; both encoders output a normalized bias regardless of input."""
    w = np.zeros(enc.n_params)
    w[enc.segment("e1_b")] = input_bias
    w[enc.segment("e2_b")] = label_bias
    return w


def test_pair_similarity_identical_embeddings():
    enc = make_encoder(seed=0, hidden_dim=0)
    v = np.array([1.0, 2.0, -0.5])
    w = _constant_embedding_params(enc, v, v)
    assert abs(pair_sim(enc, w, np.ones(3), 1) - 1.0) < 1e-9


def test_pair_similarity_orthogonal_embeddings():
    enc = make_encoder(seed=0, hidden_dim=0)
    w = _constant_embedding_params(enc, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    assert abs(pair_sim(enc, w, np.ones(3), 0)) < 1e-9


def test_pair_similarity_is_dot_of_unit_embeddings(rng):
    enc = make_encoder(seed=7)
    w = enc.init_params()
    for _ in range(10):
        x = rng.standard_normal(3)
        c = int(rng.integers(4))
        s = pair_sim(enc, w, x, c)
        ((e_in,), _), ((e_lab,), _), sims = enc.pair_forward(w, [x], [c])
        want = float(e_in @ e_lab)
        assert sims.shape == (1, 1) and abs(sims[0, 0] - want) < 1e-12
        assert abs(s - want) < 1e-12
        assert -1.0 - 1e-12 <= s <= 1.0 + 1e-12


@pytest.mark.parametrize("hidden", [0, 4])
def test_pair_similarity_grad_matches_finite_differences(hidden):
    rng = np.random.default_rng(123)
    enc = make_encoder(seed=11, hidden_dim=hidden)
    for trial in range(50):
        w = enc.init_params(seed=trial) + 0.1 * rng.standard_normal(enc.n_params)
        x = rng.standard_normal(3)
        c = int(rng.integers(4))
        g = pair_sim_grad(enc, w, x, c)
        fd = central_diff(lambda wv: pair_sim(enc, wv, x, c), w)
        assert_grad_close(g, fd)


def test_pair_similarity_grad_zero_at_maximum():
    # identical constant embeddings pin similarity at its maximum of 1
    enc = make_encoder(seed=0, hidden_dim=0)
    v = np.array([0.3, -1.2, 0.8])
    w = _constant_embedding_params(enc, v, v)
    g = pair_sim_grad(enc, w, np.ones(3), 2)
    assert np.max(np.abs(g)) < 1e-8


def test_pair_similarity_grad_zero_input_zeroes_weight_segment(rng):
    enc = make_encoder(seed=4, hidden_dim=0)
    w = enc.init_params() + 0.1 * rng.standard_normal(enc.n_params)
    w[enc.segment("e1_b")] = [0.1, 0.2, 0.3]  # keep the pre-norm output nonzero
    g = pair_sim_grad(enc, w, np.zeros(3), 1)
    assert np.all(g[enc.segment("e1_w")] == 0.0)


def test_predict_singleton(rng):
    enc = make_encoder(seed=2)
    w = enc.init_params()
    assert enc.predict_batch(w, [rng.standard_normal(3)], {3})[0] == 3


def test_predict_matches_bruteforce(rng):
    enc = make_encoder(seed=8, num_classes=5)
    w = enc.init_params()
    for _ in range(20):
        x = rng.standard_normal(3)
        best = min(
            range(5),
            key=lambda c: (-pair_sim(enc, w, x, c), c),
        )
        assert enc.predict_batch(w, [x], set(range(5)))[0] == best


def test_predict_tie_breaks_to_smallest_id():
    # all label embeddings identical -> every candidate ties
    enc = make_encoder(seed=0, hidden_dim=0)
    w = _constant_embedding_params(enc, [1.0, 1.0, 0.0], [0.0, 1.0, 1.0])
    assert enc.predict_batch(w, [np.ones(3)], {3, 1, 2})[0] == 1


def test_argmax_invariant_to_positive_affine_rescale(rng):
    enc = make_encoder(seed=6, num_classes=5)
    w = enc.init_params()
    for _ in range(20):
        sims = enc.similarity_matrix(w, [rng.standard_normal(3)], list(range(5)))[0]
        a = float(rng.uniform(0.1, 10.0))
        b = float(rng.uniform(-5.0, 5.0))
        assert np.argmax(sims) == np.argmax(a * sims + b)


def test_operations_are_pure(rng):
    enc = make_encoder(seed=14)
    w = enc.init_params()
    x = rng.standard_normal(3)
    assert np.array_equal(enc._forward_inputs(w, [x])[0], enc._forward_inputs(w, [x])[0])
    assert pair_sim(enc, w, x, 1) == pair_sim(enc, w, x, 1)
    assert np.array_equal(pair_sim_grad(enc, w, x, 1), pair_sim_grad(enc, w, x, 1))


_ZERO_NORM = "cannot normalize a zero-norm embedding"
_NOT_FINITE = "embedding norm overflowed or is NaN"


@pytest.mark.parametrize(
    "bad_rows, message",
    [
        ([[0.0, 0.0]], _ZERO_NORM),
        ([[np.nan, 1.0]], _NOT_FINITE),
        ([[np.inf, 1.0]], _NOT_FINITE),
        ([[np.nan, 1.0], [0.0, 0.0]], _ZERO_NORM),  # zero norm takes precedence
    ],
    ids=["zero", "nan", "inf", "zero-and-nan"],
)
def test_normalize_rows_rejects_bad_rows(bad_rows, message):
    z = np.array([[3.0, 4.0], *bad_rows, [1.0, 0.0]])
    with pytest.raises(ValueError, match=f"^{message}$"):
        _normalize_rows(z)


@settings(max_examples=40, deadline=None)
@given(
    hidden=st.sampled_from([0, 3]),
    n_inputs=st.integers(1, 7),
    n_classes=st.integers(2, 5),
    label_parts=st.lists(st.integers(2, 6), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_pair_grad_on_forward_results_is_bitwise_weighted_pair_grad(
    hidden, n_inputs, n_classes, label_parts, seed
):
    """The backward from forward results equals forward-then-backward, also when
    the label rows are a gather of one label forward over the distinct classes
    at a joined index (as gdro's first backward block is), and when the caller
    hands over the similarities it already holds.

    The classes and every part have at least two rows: numpy multiplies a
    one-row matrix with gemv, not gemm, so with hidden layers a one-row forward
    may differ in the last bits.
    """
    rng = np.random.default_rng(seed)
    enc = make_encoder(seed=seed % 1000, hidden_dim=hidden, num_classes=5)
    w = enc.init_params() + 0.1 * rng.standard_normal(enc.n_params)
    X = rng.standard_normal((n_inputs, 3))
    classes = np.sort(rng.choice(5, n_classes, replace=False))
    index = np.concatenate([rng.integers(0, n_classes, size=k) for k in label_parts])
    C = rng.standard_normal((n_inputs, len(index)))

    want = enc.weighted_pair_grad(w, X, classes[index], C)
    f2 = enc.take_forward(enc._forward_labels(w, classes), index)
    f1 = enc._forward_inputs(w, X)
    assert enc.pair_grad(f1, f2, C).tobytes() == want.tobytes()
    assert enc.pair_grad(f1, f2, C, f1[0] @ f2[0].T).tobytes() == want.tobytes()


def _forward_bytes(result):
    """A forward result's embeddings, layer inputs and norms, as bytes."""
    E, cache = result
    return [E.tobytes(), *(A.tobytes() for A in cache["A"]), cache["R"].tobytes()]


@settings(max_examples=60, deadline=None)
@given(
    hidden=st.sampled_from([0, 3]),
    n_rows=st.integers(2, 300),
    n_take=st.integers(2, 300),
    repeats=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_take_forward_is_bitwise_the_forward_of_the_taken_rows(
    hidden, n_rows, n_take, repeats, seed
):
    """Rows ``idx`` of a tower's forward result over all rows are the forward
    result over the rows ``idx``, to the bit, for index arrays of two or more
    rows in any order, with or without repeats.  The pool's label forward
    gathered from its distinct classes is the label forward of its rows, so
    gdro encodes K classes in place of N labels and gathers its anchors."""
    rng = np.random.default_rng(seed)
    enc = make_encoder(seed=seed % 1000, hidden_dim=hidden, num_classes=7)
    w = enc.init_params() + 0.1 * rng.standard_normal(enc.n_params)
    X = rng.standard_normal((n_rows, 3))
    y = rng.integers(0, 7, n_rows)
    y[:2] = rng.choice(7, 2, replace=False)  # two or more distinct classes
    idx = rng.choice(n_rows, n_take if repeats else min(n_take, n_rows), replace=repeats)

    for forward, rows in ((enc._forward_inputs, X), (enc._forward_labels, y)):
        taken = enc.take_forward(forward(w, rows), idx)
        assert _forward_bytes(taken) == _forward_bytes(forward(w, rows[idx]))

    classes, index, _, _ = Pool(X, y, list(range(n_rows))).class_index
    gathered = enc.take_forward(enc._forward_labels(w, classes), index)
    assert _forward_bytes(gathered) == _forward_bytes(enc._forward_labels(w, y))


@settings(max_examples=80, deadline=None)
@given(
    hidden=st.sampled_from([0, 1, 3]),
    num_classes=st.integers(1, 6),
    classes=st.lists(st.integers(0, 5), min_size=1, max_size=12),
    n_inputs=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_label_tower_backward_is_bitwise_add_at(hidden, num_classes, classes, n_inputs, seed):
    """The one-hot first layer's scatter-add gives np.add.at's bytes, with one
    label row or many, with classes repeated and classes absent."""
    rng = np.random.default_rng(seed)
    enc = make_encoder(seed=seed % 1000, hidden_dim=hidden, num_classes=num_classes)
    w = enc.init_params() + 0.1 * rng.standard_normal(enc.n_params)
    f1 = enc._forward_inputs(w, rng.standard_normal((n_inputs, 3)))
    f2 = enc._forward_labels(w, [k % num_classes for k in classes])
    C = rng.standard_normal((n_inputs, len(classes)))

    got = enc.pair_grad(f1, f2, C)
    with mock.patch.object(EncoderPair, "_backward", backward_add_at):
        want = enc.pair_grad(f1, f2, C)
    assert got.tobytes() == want.tobytes()


def _hostile_model_calls():
    """Each hostile case's call and the one-line message it must raise."""
    enc = make_encoder(seed=0)
    w, n = enc.init_params(), enc.n_params
    X = np.ones((2, 3))
    f1, f2, _ = enc.pair_forward(w, X, [0, 1, 2])
    shapes = dict(input_dim=3, num_classes_max=4, hidden_dim=0, embed_dim=2, seed=0)
    return {
        "params-short": (lambda: enc._forward_inputs(w[:-1], X),
                         f"parameter vector has shape ({n - 1},), expected ({n},)"),
        "params-2d": (lambda: enc._forward_labels(w[None], [0]),
                      f"parameter vector has shape (1, {n}), expected ({n},)"),
        "coefficient-shape": (lambda: enc.pair_grad(f1, f2, np.ones((3, 2))),
                              "coefficient matrix has shape (3, 2), expected (2, 3)"),
        "input_dim": (lambda: EncoderConfig(**{**shapes, "input_dim": 0}),
                      "input_dim must be >= 1, got 0"),
        "num_classes_max": (lambda: EncoderConfig(**{**shapes, "num_classes_max": 0}),
                            "num_classes_max must be >= 1, got 0"),
        "seed=-1": (lambda: EncoderConfig(**{**shapes, "seed": -1}),
                    "seed must fit in an unsigned 64-bit integer"),
        "seed=2**64": (lambda: EncoderConfig(**{**shapes, "seed": 2**64}),
                       "seed must fit in an unsigned 64-bit integer"),
    }


@pytest.mark.parametrize("case", [
    "params-short", "params-2d", "coefficient-shape", "input_dim", "num_classes_max",
    "seed=-1", "seed=2**64",
])
def test_model_refuses_hostile_input(case):
    """A parameter vector of the wrong shape, a coefficient matrix that does not
    match the forward results and an encoder config out of range are each
    refused in one line naming what is wrong."""
    call, message = _hostile_model_calls()[case]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
