"""Gradient clipping and the Adam optimizer over one flat state per client.

``Adam`` holds the parameters it trains as three flat float64 vectors,
theta, m and v, in sorted-name order, and points each parameter's Tensor at
its slice of theta. A step updates runs of neighbouring parameters that
share a step count, ``CHUNK`` elements at a time: it gathers the gradient
pieces of a chunk into a scratch buffer, multiplies them by the clip factor
from ``clip_global_norm``, and runs the per-array update on the chunk.
Every element gets the same operations in the same order as an update of
its own array, so the bits do not depend on the chunking.

A table that a client trains is the compact table of the rows its data can
look up, so its gradient and Adam state are dense over those rows only. A
row no gradient has reached yet has m = v = 0, and its update is exactly 0.

Moments are written only when a later step can read them. A step marked
``last`` keeps the step-1 moments of a first-stepped run in the scratch
buffers, so a client that takes one step never touches a page of m or v.
"""

from __future__ import annotations

import itertools

import numpy as np

from .tensor import Tensor

__all__ = ["CHUNK", "clip_global_norm", "Adam", "make_optimizer"]

# elements per update chunk: the optimizer's two scratch buffers hold one
# chunk each, whatever the size of the parameters
CHUNK = 2**16

# Adam's moment decay rates and denominator offset, as in Kingma & Ba (2014)
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


def clip_global_norm(grads: list, tau: float) -> float:
    """The factor that brings the global L2 norm of ``grads`` down to tau:
    tau/norm when the norm exceeds tau, else 1.0. Nothing is scaled here;
    ``Adam.step(scale=...)`` multiplies each gradient by the factor as it
    reads it. The scaled gradients have norm tau up to rounding, so clipping
    them again gives 1.0 unless the rounding lands above tau.
    """
    total = 0.0
    for g in grads:
        # the reduction np.sum runs, without its Python wrapper
        total += float(np.add.reduce(g * g, axis=None))
    norm = np.sqrt(total)
    return float(tau / norm) if norm > tau else 1.0


class Adam:
    """Bias-corrected adaptive moment estimation (Kingma & Ba, 2014).

    Construction copies every parameter into the flat theta once and points
    its Tensor at its slice, so training never writes the arrays it was
    given. ``m[name]`` and ``v[name]`` are views of the flat moments, and
    step counters are tracked per name, so heads trained in separate phases
    keep independent bias corrections. Moments are uninitialised until a
    parameter's first step writes them, so no page of them is read before
    it is written. The ``last`` step writes no moment at step 1, since no
    later step reads it; after it, ``step`` raises.
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3):
        self.params = params
        self.lr = lr
        names = sorted(params)
        bounds = [0, *itertools.accumulate(params[k].size for k in names)]
        self._slots = list(zip(names, bounds[:-1], bounds[1:]))  # each name's range in the flat vectors
        self.theta, self._m, self._v = (np.empty(bounds[-1]) for _ in range(3))
        self.m, self.v = {}, {}
        for k, start, stop in self._slots:
            p = params[k]
            shape = p.shape
            np.copyto(self.theta[start:stop], p.data.reshape(-1))
            p.data = self.theta[start:stop].reshape(shape)
            self.m[k] = self._m[start:stop].reshape(shape)
            self.v[k] = self._v[start:stop].reshape(shape)
        self.t = dict.fromkeys(names, 0)
        self._scratch = np.empty((2, min(bounds[-1], CHUNK)))
        self._ended = False

    def step(self, *, scale: float = 1.0, last: bool = False) -> None:
        """Update every parameter that has a gradient, its gradient
        multiplied by ``scale``; the gradients themselves are not written.
        Neighbours in name order that both have a gradient and then share a
        step count form one run of the flat vectors. On the ``last`` step a
        run at step 1 writes its moments over the scratch buffers, not m
        and v; a run at a later step writes m and v, whose pages are already
        resident."""
        if self._ended:
            raise RuntimeError("Adam.step after the last step, which kept no step-1 moment")
        self._ended = last
        runs = []  # (t, [(flat gradient, start, stop), ...])
        for k, start, stop in self._slots:
            g = self.params[k].grad
            if g is None:
                continue
            g = g.reshape(-1)  # a numpy scalar has reshape too
            if g.size != stop - start:
                raise ValueError(f"gradient of {k!r} has {g.size} elements, the parameter {stop - start}")
            t = self.t[k] = self.t[k] + 1
            if runs and runs[-1][0] == t and runs[-1][1][-1][2] == start:
                runs[-1][1].append((g, start, stop))
            else:
                runs.append((t, [(g, start, stop)]))
        for t, spans in runs:
            self._update_run(t, spans, scale, last and t == 1)

    def _update_run(self, t: int, spans: list[tuple[np.ndarray, int, int]], scale: float,
                    scratch_moments: bool) -> None:
        """Update the flat range that ``spans`` tile, a chunk at a time.
        With ``scratch_moments`` the new moments go to the scratch buffers
        (``s`` holds m and ``g`` holds v, where ``_update`` writes them
        anyway), so the same operations run and m and v stay untouched."""
        start, stop = spans[0][1], spans[-1][2]
        for lo in range(start, stop, CHUNK):
            hi = min(lo + CHUNK, stop)
            g, s = self._scratch[0, : hi - lo], self._scratch[1, : hi - lo]
            np.concatenate([grad[max(lo - a, 0) : hi - a] for grad, a, b in spans if a < hi and lo < b], out=g)
            if scale != 1.0:
                g *= scale
            m, v = (s, g) if scratch_moments else (self._m[lo:hi], self._v[lo:hi])
            self._update(self.theta[lo:hi], m, v, g, s, t)

    def _update(self, p: np.ndarray, m: np.ndarray, v: np.ndarray, g: np.ndarray, s: np.ndarray,
                t: int) -> None:
        """One Adam step on same-shape arrays, in place; ``g`` is scratch
        holding the gradient and is overwritten, ``s`` is scratch. The
        operations and their order are those of
        ``p -= lr * m_hat / (sqrt(v_hat) + eps)``. At ``t == 1`` the moments
        are not read: ``0 * beta + s`` is written as ``s + 0.0``, the same
        bits (a -0.0 term gives +0.0)."""
        np.multiply(g, 1.0 - BETA1, out=s)
        _decay_add(m, BETA1, s, t)
        np.multiply(g, g, out=g)
        g *= 1.0 - BETA2
        _decay_add(v, BETA2, g, t)
        np.divide(m, 1.0 - BETA1**t, out=s)
        s *= self.lr
        np.divide(v, 1.0 - BETA2**t, out=g)
        np.sqrt(g, out=g)
        g += EPS
        s /= g
        p -= s


def _decay_add(moment: np.ndarray, beta: float, s: np.ndarray, t: int) -> None:
    """``moment = beta * moment + s`` in place; at step 1 the moment is
    written from ``s`` alone, never read."""
    if t == 1:
        np.add(s, 0.0, out=moment)
    else:
        moment *= beta
        moment += s


def make_optimizer(params: dict[str, Tensor], lr: float) -> Adam:
    """The optimizer of local training: Adam at learning rate ``lr``, which
    copies ``params`` into its flat state. Local training creates it only
    here, so tracing can observe every one made."""
    return Adam(params, lr=lr)
