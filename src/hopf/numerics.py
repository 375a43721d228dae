"""Activations, Glorot init, Adam, dropout masks, and a finite-difference oracle.

Matrices are plain float64 numpy arrays. Everything here is deterministic
given explicit seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, ShapeError

_ONE_BELOW = np.nextafter(1.0, 0.0)


def glorot_init(fan_in: int, fan_out: int, rng_seed) -> np.ndarray:
    """Uniform draws on [-L, L] with L = sqrt(6 / (fan_in + fan_out))."""
    if fan_in < 1 or fan_out < 1:
        raise ShapeError(f"fans must be >= 1, got ({fan_in}, {fan_out})")
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return np.random.default_rng(rng_seed).uniform(-limit, limit, size=(fan_in, fan_out))


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function, clipped to stay strictly inside (0, 1).

    Plain numpy, so importing this module loads no ``scipy.special``; it
    differs from ``scipy.special.expit`` by at most 2.2e-16. ``exp(-x)``
    overflows to inf for x below about -709, which gives 0 before the clip.
    """
    y = np.array(x, dtype=np.float64)  # one copy, which every step below reuses
    np.negative(y, out=y)
    with np.errstate(over="ignore"):
        np.exp(y, out=y)
    y += 1.0
    np.divide(1.0, y, out=y)
    return np.clip(y, np.finfo(np.float64).tiny, _ONE_BELOW, out=y)


def softmax_rows(m: np.ndarray) -> np.ndarray:
    """Row-wise softmax, computed with row-max subtraction for stability."""
    m = np.asarray(m, dtype=np.float64)
    e = m - m.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


# Adam's decay rates and denominator guard; the rate is the caller's, per step.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """One parameter's Adam moments and step count."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0

    @classmethod
    def for_param(cls, param: np.ndarray) -> "AdamState":
        return cls(first_moment=np.zeros_like(param), second_moment=np.zeros_like(param))


def adam_step(param: np.ndarray, grad: np.ndarray, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update at rate ``lr``, applied to ``param`` in place."""
    if param.shape != grad.shape:
        raise ShapeError(f"param {param.shape} vs grad {grad.shape}")
    if not np.all(np.isfinite(grad)):
        raise NumericsError("non-finite gradient passed to adam_step")
    state.step_count += 1
    t = state.step_count
    state.first_moment *= ADAM_BETA1
    state.first_moment += (1.0 - ADAM_BETA1) * grad
    state.second_moment *= ADAM_BETA2
    state.second_moment += (1.0 - ADAM_BETA2) * grad * grad
    m_hat = state.first_moment / (1.0 - ADAM_BETA1**t)
    v_hat = state.second_moment / (1.0 - ADAM_BETA2**t)
    param -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def finite_diff_grad(loss_fn, param: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar loss with respect to ``param``.

    Deliberately slow and simple; this is the oracle the analytic backward
    passes are checked against.
    """
    if eps <= 0:
        raise NumericsError(f"eps must be positive, got {eps}")
    p = np.array(param, dtype=np.float64)
    grad = np.zeros_like(p)
    it = np.nditer(p, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = p[idx]
        p[idx] = orig + eps
        hi = loss_fn(p)
        p[idx] = orig - eps
        lo = loss_fn(p)
        p[idx] = orig
        grad[idx] = (hi - lo) / (2.0 * eps)
    return grad


def dropout_mask(rng: np.random.Generator, shape, rate: float) -> np.ndarray:
    """Inverted-dropout mask: zeros with probability ``rate``, survivors scaled by 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise NumericsError(f"dropout rate must be in [0, 1), got {rate}")
    keep = 1.0 - rate
    return (rng.random(shape) < keep).astype(np.float64) / keep
