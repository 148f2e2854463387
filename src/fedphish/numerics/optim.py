"""Gradient clipping and the Adam optimizer, both over dense arrays.

A table that a client trains is the compact table of the rows its data can
look up, so its gradient and Adam state are dense over those rows only. A
row no gradient has reached yet has m = v = 0, and its update is exactly 0.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

__all__ = ["clip_global_norm", "Adam", "make_optimizer"]


def clip_global_norm(grads: list, tau: float) -> list:
    """Scale all gradients by tau/norm when the global L2 norm exceeds tau.

    Scaling happens in place, so each gradient must be an ndarray, 0-d
    included: a numpy scalar would count in the norm but stay unscaled, and
    raises ``TypeError``. Applying the clip twice equals applying it once
    (the scaled norm is exactly tau, which no longer exceeds tau).
    """
    if tau <= 0:
        raise ValueError(f"clip threshold must be positive, got {tau}")
    total = 0.0
    for g in grads:
        if not isinstance(g, np.ndarray):
            raise TypeError(f"a gradient must be an ndarray to be clipped in place, got {type(g).__name__}")
        total += float(np.sum(g * g))
    norm = np.sqrt(total)
    if norm > tau:
        scale = tau / norm
        for g in grads:
            g *= scale
    return grads


class Adam:
    """Bias-corrected adaptive moment estimation (Kingma & Ba, 2014).

    Moments and step counters are tracked per parameter name so heads
    trained in separate phases keep independent bias corrections. The
    update runs in place through two reused scratch buffers. Moments are
    uninitialised until a parameter's first step writes them, so no page of
    them is read before it is written.
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
        self.m = {k: np.empty(p.shape) for k, p in params.items()}
        self.v = {k: np.empty(p.shape) for k, p in params.items()}
        self.t = {k: 0 for k in params}
        # lazily mapped: an update maps only the prefix it uses
        self._scratch = np.empty((2, max((p.size for p in params.values()), default=0)))
        self._views: dict[tuple[int, ...], tuple[np.ndarray, ...]] = {}  # per shape: scratch views

    def step(self) -> None:
        """Update every parameter that has a gradient, in sorted name order."""
        for k in sorted(self.params):
            p = self.params[k]
            if p.grad is None:
                continue
            self.t[k] += 1
            self._update(p.data, self.m[k], self.v[k], p.grad, self.t[k])

    def _update(self, p: np.ndarray, m: np.ndarray, v: np.ndarray, g: np.ndarray, t: int) -> None:
        """One Adam step on same-shape arrays, in place. The operations and
        their order are those of ``p -= lr * m_hat / (sqrt(v_hat) + eps)``.
        At ``t == 1`` the moments are not read: ``0 * beta + s`` is written
        as ``s + 0.0``, the same bits (a -0.0 term gives +0.0)."""
        views = self._views.get(g.shape)
        if views is None:
            views = self._views[g.shape] = tuple(s[: g.size].reshape(g.shape) for s in self._scratch)
        s1, s2 = views
        np.multiply(g, 1.0 - self.beta1, out=s1)
        _decay_add(m, self.beta1, s1, t)
        np.multiply(g, g, out=s1)
        s1 *= 1.0 - self.beta2
        _decay_add(v, self.beta2, s1, t)
        np.divide(m, 1.0 - self.beta1**t, out=s1)
        s1 *= self.lr
        np.divide(v, 1.0 - self.beta2**t, out=s2)
        np.sqrt(s2, out=s2)
        s2 += self.eps
        s1 /= s2
        p -= s1


def _decay_add(moment: np.ndarray, beta: float, s: np.ndarray, t: int) -> None:
    """``moment = beta * moment + s`` in place; at step 1 the moment is
    written from ``s`` alone, never read."""
    if t == 1:
        np.add(s, 0.0, out=moment)
    else:
        moment *= beta
        moment += s


def make_optimizer(params: dict[str, Tensor], lr: float) -> Adam:
    """The optimizer of local training: Adam at learning rate ``lr``. Local
    training creates it only here, so tracing can observe every one made."""
    return Adam(params, lr=lr)
