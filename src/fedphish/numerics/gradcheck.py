"""Finite-difference verification of analytic gradients."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .tensor import Tensor, backward, zero_grads

__all__ = ["finite_difference_check"]

H = 1e-5  # the central-difference step


def finite_difference_check(
    loss_fn: Callable[[], Tensor],
    params: dict[str, Tensor],
    coord_limit: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``loss_fn`` must be a deterministic scalar function of the current
    parameter values (reseed any internal dropout per call). The relative
    error per coordinate is |analytic - central| / max(1e-8, |central|).

    ``coord_limit`` caps the number of coordinates swept per parameter.
    Without ``rng`` the largest-|analytic| coordinates are chosen, which
    keeps the comparison at numerically meaningful magnitudes (central
    differences of an O(1) loss carry ~1e-11 of float64 rounding noise, so
    correct-but-tiny gradients cannot satisfy the relative formula); pass
    ``rng`` for a random sample instead. By default every coordinate is
    checked.
    """
    zero_grads(params)
    loss = loss_fn()
    backward(loss)
    analytic = {
        k: (p.grad if p.grad is not None else np.zeros_like(p.data)) for k, p in params.items()
    }

    worst = 0.0
    for k in sorted(params):
        p = params[k]
        n = p.data.size
        if coord_limit is not None and n > coord_limit:
            if rng is not None:
                coords = rng.choice(n, size=coord_limit, replace=False)
            else:
                magnitude = np.abs(analytic[k]).reshape(-1)
                coords = np.argsort(-magnitude, kind="stable")[:coord_limit]
        else:
            coords = range(n)
        ana = analytic[k].reshape(-1)
        for i in coords:
            # mutate through an index, never a reshape (views are not
            # guaranteed for 0-d or non-contiguous arrays)
            idx = np.unravel_index(i, p.data.shape)
            orig = p.data[idx]
            p.data[idx] = orig + H
            up = float(loss_fn().data)
            p.data[idx] = orig - H
            down = float(loss_fn().data)
            p.data[idx] = orig
            central = (up - down) / (2.0 * H)
            err = abs(ana[i] - central) / max(1e-8, abs(central))
            if err > worst:
                worst = err
    return worst
