import numpy as np
import pytest

from cclearn.errors import NonFiniteGradientError
from cclearn.optim import init_optimizer, step


def test_beta1_one_is_plain_sgd(rng):
    opt = init_optimizer(5, eta=0.1, beta1=1.0)
    w = rng.standard_normal(5)
    g = rng.standard_normal(5)
    opt, w2 = step(opt, w, g)
    assert np.allclose(w2, w - 0.1 * g, atol=0, rtol=0)
    g2 = rng.standard_normal(5)
    _, w3 = step(opt, w2, g2)
    assert np.allclose(w3, w2 - 0.1 * g2, atol=0, rtol=0)


def test_zero_grad_zero_momentum_is_fixed_point(rng):
    opt = init_optimizer(4, eta=0.5, beta1=0.9)
    w = rng.standard_normal(4)
    opt, w2 = step(opt, w, np.zeros(4))
    assert np.array_equal(w2, w)
    assert opt.step_count == 1


def test_momentum_weighs_new_gradient_by_beta1():
    opt = init_optimizer(2, eta=1.0, beta1=0.25)
    g = np.array([4.0, -8.0])
    opt, _ = step(opt, np.zeros(2), g)
    assert np.allclose(opt.momentum, 0.25 * g, atol=0, rtol=0)


def test_quadratic_convergence_momentum_sgd(rng):
    # f(w) = ||w||^2 / 2, grad = w
    w = rng.standard_normal(20)
    initial = np.linalg.norm(w)
    opt = init_optimizer(20, eta=0.1, beta1=0.9)
    norms = [initial]
    for _ in range(100):
        opt, w = step(opt, w, w)
        norms.append(np.linalg.norm(w))
    assert norms[-1] < 1e-3 * initial
    burn_in = 10
    assert all(b <= a for a, b in zip(norms[burn_in:], norms[burn_in + 1 :]))


def test_quadratic_convergence_adam(rng):
    w = rng.standard_normal(20)
    initial = np.linalg.norm(w)
    opt = init_optimizer(20, eta=0.05, beta1=0.9, mode="adam")
    for _ in range(300):
        opt, w = step(opt, w, w)
    assert np.linalg.norm(w) < 1e-2 * initial


def test_determinism(rng):
    w = rng.standard_normal(6)
    g = rng.standard_normal(6)
    a = step(init_optimizer(6, eta=0.2, beta1=0.7, mode="adam"), w, g)
    b = step(init_optimizer(6, eta=0.2, beta1=0.7, mode="adam"), w, g)
    assert np.array_equal(a[1], b[1])
    assert np.array_equal(a[0].momentum, b[0].momentum)


def test_non_finite_gradient_refused(rng):
    opt = init_optimizer(3, eta=0.1, beta1=0.9)
    w = rng.standard_normal(3)
    bad = np.array([1.0, np.nan, 0.0])
    with pytest.raises(NonFiniteGradientError):
        step(opt, w, bad)
    with pytest.raises(NonFiniteGradientError):
        step(opt, w, np.array([np.inf, 0.0, 0.0]))


def test_shape_mismatch_rejected(rng):
    opt = init_optimizer(3, eta=0.1, beta1=0.9)
    with pytest.raises(ValueError):
        step(opt, rng.standard_normal(3), rng.standard_normal(4))


def test_invalid_hyperparameters():
    with pytest.raises(ValueError):
        init_optimizer(3, eta=0.0, beta1=0.5)
    with pytest.raises(ValueError):
        init_optimizer(3, eta=0.1, beta1=1.5)
    with pytest.raises(ValueError):
        init_optimizer(3, eta=0.1, beta1=0.5, mode="nesterov")


@pytest.mark.parametrize("mode", ["momentum-sgd", "adam"])
def test_step_leaves_its_inputs_untouched(rng, mode):
    """A step builds new momentum and parameter arrays: the old state, the
    parameters and the gradient keep their bits, and nothing returned shares
    memory with them."""
    opt, w = step(init_optimizer(6, eta=0.2, beta1=0.7, mode=mode), rng.standard_normal(6),
                  rng.standard_normal(6))
    g = rng.standard_normal(6)
    inputs = [opt.momentum, w, g] + ([opt.second_moment] if mode == "adam" else [])
    before = [a.tobytes() for a in inputs]
    new, w2 = step(opt, w, g)
    assert [a.tobytes() for a in inputs] == before
    for out in (new.momentum, w2) + ((new.second_moment,) if mode == "adam" else ()):
        assert not any(np.shares_memory(out, a) for a in inputs)
