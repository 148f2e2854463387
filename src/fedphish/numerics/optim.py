"""Gradient clipping and optimizers."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

__all__ = ["clip_global_norm", "Adam", "Sgd", "make_optimizer"]


def clip_global_norm(grads: list[np.ndarray], tau: float) -> list[np.ndarray]:
    """Scale all gradients by tau/norm when the global L2 norm exceeds tau.

    Scaling happens in place; applying the clip twice equals applying it
    once (the scaled norm is exactly tau, which no longer exceeds tau).
    """
    if tau <= 0:
        raise ValueError(f"clip threshold must be positive, got {tau}")
    total = 0.0
    for g in grads:
        total += float(np.sum(g * g))
    norm = np.sqrt(total)
    if norm > tau:
        scale = tau / norm
        for g in grads:
            g *= scale
    return grads


class Adam:
    """Bias-corrected adaptive moment estimation.

    Moments and step counters are tracked per parameter name so heads
    trained in separate phases keep independent bias corrections.
    """

    def __init__(
        self,
        params: dict[str, Tensor],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.t = {k: 0 for k in params}

    def step(self) -> None:
        """Update every parameter that has a gradient, in sorted name order."""
        for k in sorted(self.params):
            p = self.params[k]
            if p.grad is None:
                continue
            g = p.grad
            self.t[k] += 1
            t = self.t[k]
            m = self.m[k]
            v = self.v[k]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            m_hat = m / (1.0 - self.beta1**t)
            v_hat = v / (1.0 - self.beta2**t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class Sgd:
    """Plain gradient descent, used for controlled proximal-drift runs."""

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3):
        self.params = params
        self.lr = lr

    def step(self) -> None:
        for k in sorted(self.params):
            p = self.params[k]
            if p.grad is not None:
                p.data -= self.lr * p.grad


def make_optimizer(kind: str, params: dict[str, Tensor], lr: float):
    if kind == "adam":
        return Adam(params, lr=lr)
    if kind == "sgd":
        return Sgd(params, lr=lr)
    raise ValueError(f"unknown optimizer {kind!r}")
