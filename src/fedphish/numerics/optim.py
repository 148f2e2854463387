"""Gradient clipping and the Adam optimizer."""

from __future__ import annotations

import numpy as np

from .tensor import RowSparse, Tensor

__all__ = ["clip_global_norm", "Adam", "make_optimizer"]


def clip_global_norm(grads: list, tau: float) -> list:
    """Scale all gradients by tau/norm when the global L2 norm exceeds tau.

    A row-sparse gradient contributes and is scaled through its stored rows
    only. Scaling happens in place; applying the clip twice equals applying
    it once (the scaled norm is exactly tau, which no longer exceeds tau).
    """
    if tau <= 0:
        raise ValueError(f"clip threshold must be positive, got {tau}")
    arrays = [g.values if isinstance(g, RowSparse) else g for g in grads]
    total = 0.0
    for a in arrays:
        total += float(np.sum(a * a))
    norm = np.sqrt(total)
    if norm > tau:
        scale = tau / norm
        for a in arrays:
            a *= scale
    return grads


class Adam:
    """Bias-corrected adaptive moment estimation (Kingma & Ba, 2014).

    Moments and step counters are tracked per parameter name so heads
    trained in separate phases keep independent bias corrections. The
    update runs in place through two reused scratch buffers.

    The gradient's type picks the update. A table, whose gradients are all
    row-sparse, keeps its state on its touched rows only: ``rows[k]`` are
    the sorted rows any of its gradients reached so far, and ``m[k]`` and
    ``v[k]`` are compact arrays over those rows, where a newly reached row
    joins with zero moments. That is exact: a touched row keeps decaying as
    in the dense update, and a row never touched has m = v = 0, so its dense
    update is exactly 0. Every other parameter has dense moments, lazily
    mapped zeros until its first step writes them.
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
        self.m = {k: np.zeros(p.shape) for k, p in params.items()}
        self.v = {k: np.zeros(p.shape) for k, p in params.items()}
        self.t = {k: 0 for k in params}
        self.rows: dict[str, np.ndarray] = {}  # per row-sparse parameter: the rows m and v cover
        # lazily mapped, like m and v: an update maps only the prefix it uses
        self._scratch = np.empty((2, max((p.size for p in params.values()), default=0)))
        self._views: dict[tuple[int, ...], tuple[np.ndarray, ...]] = {}  # per shape: scratch views

    def step(self) -> None:
        """Update every parameter that has a gradient, in sorted name order."""
        for k in sorted(self.params):
            p = self.params[k]
            g = p.grad
            if g is None:
                continue
            self.t[k] += 1
            if isinstance(g, RowSparse):
                self._sparse_step(k, g)
            else:
                self._update(p.data, self.m[k], self.v[k], g, self.t[k])

    def _sparse_step(self, k: str, g: RowSparse) -> None:
        p = self.params[k].data
        old = self.rows.get(k)
        rows = g.rows if old is None else np.union1d(old, g.rows)
        if old is None or rows.size > old.size:
            m, v = np.zeros((2, rows.size) + p.shape[1:])
            if old is not None:
                at = np.searchsorted(rows, old)
                m[at], v[at] = self.m[k], self.v[k]
            self.rows[k], self.m[k], self.v[k] = rows, m, v
        rows_g = np.zeros((rows.size,) + p.shape[1:])
        rows_g[np.searchsorted(rows, g.rows)] = g.values
        rows_p = p[rows]
        self._update(rows_p, self.m[k], self.v[k], rows_g, self.t[k])
        p[rows] = rows_p

    def _update(self, p: np.ndarray, m: np.ndarray, v: np.ndarray, g: np.ndarray, t: int) -> None:
        """One Adam step on same-shape arrays, in place. The operations and
        their order are those of ``p -= lr * m_hat / (sqrt(v_hat) + eps)``."""
        views = self._views.get(g.shape)
        if views is None:
            views = self._views[g.shape] = tuple(s[: g.size].reshape(g.shape) for s in self._scratch)
        s1, s2 = views
        m *= self.beta1
        np.multiply(g, 1.0 - self.beta1, out=s1)
        m += s1
        v *= self.beta2
        np.multiply(g, g, out=s1)
        s1 *= 1.0 - self.beta2
        v += s1
        np.divide(m, 1.0 - self.beta1**t, out=s1)
        s1 *= self.lr
        np.divide(v, 1.0 - self.beta2**t, out=s2)
        np.sqrt(s2, out=s2)
        s2 += self.eps
        s1 /= s2
        p -= s1


def make_optimizer(params: dict[str, Tensor], lr: float) -> Adam:
    """The optimizer of local training: Adam at learning rate ``lr``. Local
    training creates it only here, so tracing can observe every one made."""
    return Adam(params, lr=lr)
