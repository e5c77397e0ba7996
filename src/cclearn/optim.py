"""Parameter updates: momentum buffer plus SGD or Adam-style step.

Convention note: the momentum recursion is

    momentum <- (1 - beta1) * momentum + beta1 * grad

so beta1 weighs the NEW gradient, the opposite of the common momentum
convention.  beta1 = 1 therefore reduces momentum-SGD to plain gradient
descent.  Adam-style mode reuses the same buffer as the first moment, with a
fixed second-moment decay of 0.999, epsilon 1e-8, and bias correction for
both moments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import _check_ints, _check_reals
from .errors import NonFiniteGradientError

_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8
MODES = ("momentum-sgd", "adam")


@dataclass(frozen=True)
class OptimizerState:
    momentum: np.ndarray
    second_moment: np.ndarray | None
    step_count: int
    beta1: float
    eta: float
    mode: str


def init_optimizer(n_params, eta, beta1, mode="momentum-sgd") -> OptimizerState:
    if mode not in MODES:
        raise ValueError(f"unknown optimizer mode {mode!r}; expected one of {MODES}")
    _check_ints(n_params=n_params)
    _check_reals(eta=eta, beta1=beta1)
    if n_params < 0:
        raise ValueError(f"n_params must be >= 0, got {n_params}")
    if not 0 < eta < np.inf:
        raise ValueError(f"eta must be finite and > 0, got {eta}")
    if not 0.0 <= beta1 <= 1.0:
        raise ValueError(f"beta1 must be in [0, 1], got {beta1}")
    return OptimizerState(
        momentum=np.zeros(n_params),
        second_moment=np.zeros(n_params) if mode == "adam" else None,
        step_count=0,
        beta1=beta1,
        eta=eta,
        mode=mode,
    )


def step(opt: OptimizerState, params, grad):
    """Apply one update; returns (new state, new params). Refuses non-finite grads."""
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != opt.momentum.shape or np.shape(params) != grad.shape:
        raise ValueError("params, grad and optimizer state must have matching shapes")
    if np.count_nonzero(np.isfinite(grad)) < grad.size:
        raise NonFiniteGradientError("gradient contains NaN or Inf; step refused")

    momentum = (1.0 - opt.beta1) * opt.momentum + opt.beta1 * grad
    t = opt.step_count + 1
    if opt.mode == "momentum-sgd":
        new_params = params - opt.eta * momentum
        second = None
    else:
        second = _ADAM_BETA2 * opt.second_moment + (1.0 - _ADAM_BETA2) * grad * grad
        m_corr = 1.0 - (1.0 - opt.beta1) ** t
        m_hat = momentum / m_corr if m_corr > 0 else momentum
        v_hat = second / (1.0 - _ADAM_BETA2**t)
        new_params = params - opt.eta * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)
    return OptimizerState(momentum, second, t, opt.beta1, opt.eta, opt.mode), new_params
