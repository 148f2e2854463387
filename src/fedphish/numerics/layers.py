"""Layer primitives used by the four model heads.

Everything here is a pure function from (inputs, parameter tensors) to an
output tensor; dropout is the only stochastic piece and is a no-op outside
training mode. Every input is batched: sequences are [B, L, d] tensors or
[B, L] id arrays, and a single page is a batch of one. ``affine``,
``softmax``, ``dropout``, ``mhsa_block`` and ``attention_pool`` are
compositions of ``Tensor`` operations, one graph node per operation. The
rest are single nodes with hand-written backwards:

- ``layer_norm``, ``gelu`` and ``log_softmax``, because every head runs
  them and as compositions they cost 11, 5 and 6 nodes each: in a small
  head such as the url expert, the per-node Python overhead, not the
  arithmetic, sets the step time. Each runs the numpy operations of its
  composition in the same order, forward and backward. An input that the
  composition reached along k paths is listed k times among the node's
  parents, with one gradient term per path, so ``backward`` adds the terms
  in the composition's order and every gradient in the graph stays bitwise
  the composition's. Layer norm and GELU are each written once, as an
  array part (``_layer_norm_part``, ``_gelu_part``) that returns its output
  and a closure giving those per-path terms; the public function is one
  node over its part;
- ``mlp_tail``, the tail the image, html and url experts end in: layer
  norm, an affine map, GELU, dropout and an output map. The url expert's
  affine weight is weight-normalised and its output map is cosine logits;
  those two exist only as array parts (``_weight_norm_part``,
  ``_cosine_part``) of this node. It runs the parts in order as one node,
  and its backward calls their closures in reverse, adding a multi-path
  input's terms left to right as ``backward`` would, so its output and
  gradients are bitwise a chain of one node per primitive;
- ``bilstm_sequence``, because an unrolled cell costs about twenty nodes
  per time step. It runs every direction of every sequence it is given,
  for the html head both directions of the word and the DOM stream, as one
  stacked scan: the four scans are independent, so each time step is one
  set of numpy calls for all of them;
- ``multiscale_conv_encode``, because after its global max-pool only a
  few windows get any gradient, which a per-offset composition would still
  spread over full-length buffers;
- ``embedding``, whose table gradient is one scatter-add.

A table gradient is dense over the table it is given. Training gives a
compact table, the rows a client's data can look up, so that costs the
rows the client reaches, not the vocabulary.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.special import erf

from .tensor import Tensor, _unbroadcast, stable_sigmoid

__all__ = [
    "affine",
    "layer_norm",
    "softmax",
    "log_softmax",
    "log_softmax_parts",
    "gelu",
    "dropout",
    "mlp_tail",
    "mhsa_block",
    "bilstm_sequence",
    "attention_pool",
    "embedding",
    "multiscale_conv_encode",
]

MASK_OFFSET = -1e30  # exp(MASK_OFFSET - max) underflows to exactly 0.0


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Row-wise x @ w + b."""
    if x.shape[-1] != w.shape[0] or w.shape[1] != b.shape[-1]:
        raise ValueError(
            f"affine shapes do not conform: x{x.shape} w{w.shape} b{b.shape}"
        )
    return x @ w + b


def _layer_norm_part(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float):
    """``layer_norm`` on arrays: the output, and the map from an output
    gradient and whether x, gamma and beta each want theirs to the terms of
    (x, x, gamma, beta)."""
    inv_n = 1.0 / x.shape[-1]
    centered = x - x.sum(axis=-1, keepdims=True) * inv_n
    std = np.sqrt((centered * centered).sum(axis=-1, keepdims=True) * inv_n + eps)
    xhat = centered / std

    def bw(g: np.ndarray, need_x: bool, need_gamma: bool, need_beta: bool):
        g_gamma = _unbroadcast(g * xhat, gamma.shape) if need_gamma else None
        g_beta = _unbroadcast(g, beta.shape) if need_beta else None
        if not need_x:
            return None, None, g_gamma, g_beta
        g_xhat = g * gamma
        g_std = (-g_xhat * centered / (std * std)).sum(axis=-1, keepdims=True)
        g_sq = g_std * 0.5 / std * inv_n * centered  # through the variance, once per factor
        g_centered = g_xhat / std + g_sq + g_sq
        g_mean = (-g_centered).sum(axis=-1, keepdims=True) * inv_n
        return g_centered, np.broadcast_to(g_mean, x.shape), g_gamma, g_beta

    return xhat * gamma + beta, bw


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit population variance."""
    out, bw = _layer_norm_part(x.data, gamma.data, beta.data, eps)
    # x twice: through the centering and through the mean
    return Tensor._node(
        out, (x, x, gamma, beta),
        lambda g: bw(g, x.requires_grad, gamma.requires_grad, beta.requires_grad),
    )


def softmax(z: Tensor, axis: int = -1) -> Tensor:
    return log_softmax(z, axis=axis).exp()


def log_softmax_parts(z: np.ndarray, axis: int = -1):
    """``(log_softmax(z), exp(z - max), their sum)`` along ``axis``; the
    last two give the softmax, ``exp / sum``, for a backward pass."""
    m = np.max(z, axis=axis, keepdims=True)
    exps = np.exp(z - m)
    total = exps.sum(axis=axis, keepdims=True)
    return z - (np.log(total) + m), exps, total


def log_softmax(z: Tensor, axis: int = -1) -> Tensor:
    """z - logsumexp(z), stable via max subtraction."""
    out, exps, total = log_softmax_parts(z.data, axis)
    # z twice: directly and through the log-sum-exp
    return Tensor._node(
        out, (z, z), lambda g: (g, (-g).sum(axis=axis, keepdims=True) / total * exps)
    )


def _unit(x: np.ndarray, axis: int, floor: float):
    """``x`` over its L2 norm along ``axis`` (``floor`` where the norm is
    below it), and the map from an output gradient to the three gradient
    terms of ``x``: as the dividend and as both factors of the squares."""
    norm = np.sqrt((x * x).sum(axis=axis, keepdims=True))
    above = norm >= floor
    denom = np.where(above, norm, floor)

    def bw(g: np.ndarray):
        g_denom = (-g * x / (denom * denom)).sum(axis=axis, keepdims=True)
        # through the norm where it is the divisor; ``denom`` is the norm
        # there, and dividing by it keeps a zero vector free of 0/0
        g_sq = g_denom * above * 0.5 / denom * x
        return g / denom, g_sq, g_sq

    return x / denom, bw


def _cosine_part(f: np.ndarray, w: np.ndarray, log_scale: np.ndarray, floor: float):
    """Cosine logits: the rows of ``f`` [B, d] and the columns of ``w``
    [d, C], each divided by its L2 norm (by ``floor`` where the norm is
    below it), multiplied, and scaled by ``exp(log_scale)``. Returns the
    output, and the map from an output gradient to the terms of
    (f, f, f, w, w, w, log_scale): ``f`` and ``w`` each as the dividend and
    as both factors of the squares."""
    f_hat, f_bw = _unit(f, 1, floor)
    w_hat, w_bw = _unit(w, 0, floor)
    cos = f_hat @ w_hat
    scale = np.exp(log_scale)

    def bw(g: np.ndarray):
        g_cos = g * scale
        g_log_scale = _unbroadcast(g * cos, log_scale.shape) * scale
        return (*f_bw(g_cos @ w_hat.T), *w_bw(f_hat.T @ g_cos), g_log_scale)

    return cos * scale, bw


def _weight_norm_part(v: np.ndarray, g: np.ndarray):
    """Weight normalisation (Salimans & Kingma, arXiv:1602.07868): column j
    of ``v`` [d, h] divided by its L2 norm and multiplied by ``g[j]``,
    ``v * (g / ||v||)``; a zero column gives NaN. Returns the output, and
    the map from an output gradient to the terms of (v, v, v, g): ``v`` as
    the factor and as both factors of the squares."""
    norm = np.sqrt((v * v).sum(axis=0, keepdims=True))
    gain = g.reshape(1, -1)
    scale = gain / norm

    def bw(grad: np.ndarray):
        g_scale = _unbroadcast(grad * v, scale.shape)
        g_norm = -g_scale * gain / (norm * norm)
        g_sq = g_norm * 0.5 / norm * v  # through the squares, once per factor
        return grad * scale, g_sq, g_sq, (g_scale / norm).reshape(g.shape)

    return v * scale, bw


_INV_SQRT_2 = 1.0 / np.sqrt(2.0)
_TWO_OVER_SQRT_PI = 2.0 / np.sqrt(np.pi)


def _gelu_part(x: np.ndarray):
    """``gelu`` on arrays: the output, and the map from an output gradient
    to the terms of (x, x)."""
    u = x * _INV_SQRT_2
    two_cdf = erf(u) + 1.0

    def bw(g: np.ndarray):
        half = g * 0.5
        return half * two_cdf, half * x * _TWO_OVER_SQRT_PI * np.exp(-u * u) * _INV_SQRT_2

    return x * two_cdf * 0.5, bw


def gelu(x: Tensor) -> Tensor:
    """x * Phi(x) with the exact Gaussian CDF (erf form)."""
    out, bw = _gelu_part(x.data)
    # x twice: as the factor and inside the CDF
    return Tensor._node(out, (x, x), bw)


def _keep_mask(shape: tuple[int, ...], p: float, rng: np.random.Generator | None,
               train: bool) -> np.ndarray | None:
    """The inverted-dropout factors for an output of ``shape``: 0 or
    1/(1-p) per entry, drawn from ``rng``; None where dropout is the
    identity."""
    if not train or p <= 0.0:
        return None
    if rng is None:
        raise ValueError("training-mode dropout needs an RNG")
    return (rng.random(shape) >= p).astype(np.float64) / (1.0 - p)


def dropout(x: Tensor, p: float, rng: np.random.Generator | None, train: bool) -> Tensor:
    """Inverted dropout: scales by 1/(1-p) at train time, identity otherwise."""
    keep = _keep_mask(x.shape, p, rng, train)
    return x if keep is None else x * Tensor(keep)


def mlp_tail(
    x: Tensor,
    ln: tuple[Tensor, Tensor],
    fc: tuple[Tensor, ...],
    out: tuple[Tensor, Tensor],
    p: float,
    rng: np.random.Generator | None,
    train: bool,
    cosine_floor: float | None = None,
) -> Tensor:
    """The tail the image, html and url experts end in, as one graph node:
    ``x`` [B, d] through ``layer_norm`` with ``ln`` = (gamma, beta), an
    affine map, ``gelu``, ``dropout`` with rate ``p`` and an output map.

    ``fc`` is the affine map's (w, b), or (v, g, b) for the weight
    normalised by ``_weight_norm_part``. ``out`` is (w, b) for an affine
    output, or (w, log_scale) for the cosine logits of ``_cosine_part``
    with ``cosine_floor``.

    Forward and backward run the array parts of those primitives in the
    composition's order, and the dropout mask is the same draw from
    ``rng``. A multi-path input of a part inside the node gets its terms
    added left to right, as ``backward`` adds a parent's; ``x`` is listed
    twice among the parents, for layer norm's two terms. So the output and
    every gradient are bitwise the composition's.

    A gradient that no parent needs is skipped, with two exceptions in the
    url tail: the weight norm computes the gradients of both ``v`` and
    ``g`` when either needs one, and the cosine logits always compute the
    terms of all their inputs, so ``w`` and ``log_scale`` always get one.
    """
    gamma, beta = ln
    h, ln_bw = _layer_norm_part(x.data, gamma.data, beta.data, 1e-5)
    b1 = fc[-1]
    if len(fc) == 3:
        w1, wn_bw = _weight_norm_part(fc[0].data, fc[1].data)
    else:
        w1 = fc[0].data
    z = h @ w1 + b1.data
    f, gelu_bw = _gelu_part(z)
    keep = _keep_mask(f.shape, p, rng, train)
    if keep is not None:
        f = f * keep
    w2, last = out
    if cosine_floor is None:
        y = f @ w2.data + last.data
    else:
        y, cos_bw = _cosine_part(f, w2.data, last.data, cosine_floor)

    def bw(g: np.ndarray):
        need_h = x.requires_grad or gamma.requires_grad or beta.requires_grad
        need_w1 = any(t.requires_grad for t in fc[:-1])
        need_f = need_h or need_w1 or b1.requires_grad
        if cosine_floor is None:
            g_f = g @ w2.data.T if need_f else None
            g_out = (f.T @ g if w2.requires_grad else None,
                     _unbroadcast(g, last.shape) if last.requires_grad else None)
        else:
            f1, f2, f3, w2_1, w2_2, w2_3, g_log_scale = cos_bw(g)
            g_f = f1 + f2 + f3 if need_f else None
            g_out = (w2_1 + w2_2 + w2_3, g_log_scale)
        if g_f is None:
            return (None,) * (4 + len(fc)) + g_out
        if keep is not None:
            g_f = g_f * keep
        cdf_term, pdf_term = gelu_bw(g_f)
        g_z = cdf_term + pdf_term
        g_w1 = h.T @ g_z if need_w1 else None
        if len(fc) == 2:
            g_fc = (g_w1,)
        elif g_w1 is None:
            g_fc = (None, None)
        else:
            v_1, v_2, v_3, g_gain = wn_bw(g_w1)
            g_fc = (v_1 + v_2 + v_3, g_gain)
        g_b1 = _unbroadcast(g_z, b1.shape) if b1.requires_grad else None
        g_ln = (ln_bw(g_z @ w1.T, x.requires_grad, gamma.requires_grad, beta.requires_grad)
                if need_h else (None,) * 4)
        return (*g_ln, *g_fc, g_b1, *g_out)

    return Tensor._node(y, (x, x, gamma, beta, *fc, w2, last), bw)


def mhsa_block(
    x: Tensor,
    p: dict[str, Tensor],
    n_heads: int,
    dropout_p: float = 0.0,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Pre-norm transformer encoder block over [B, L, d].

    Multi-head self-attention plus residual, then a GELU feed-forward plus
    residual. No positional encoding, so the block is permutation
    equivariant over L. Parameter keys: ln1/ln2 (gamma, beta), wq..wo with
    biases, ff w1/b1/w2/b2.
    """
    B, L, d = x.shape
    if d % n_heads != 0:
        raise ValueError(f"model dim {d} not divisible by {n_heads} heads")
    dh = d // n_heads

    h = layer_norm(x, p["ln1.gamma"], p["ln1.beta"])
    q = affine(h, p["attn.wq"], p["attn.bq"])
    # no key bias: it shifts each query's scores uniformly, which the row
    # softmax cancels, leaving a parameter with exactly zero gradient
    k = h @ p["attn.wk"]
    v = affine(h, p["attn.wv"], p["attn.bv"])

    def split_heads(t: Tensor) -> Tensor:
        return t.reshape(B, L, n_heads, dh).transpose(0, 2, 1, 3)  # [B, H, L, dh]

    q, k, v = split_heads(q), split_heads(k), split_heads(v)
    scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(dh))
    attn = softmax(scores, axis=-1)
    ctx = (attn @ v).transpose(0, 2, 1, 3).reshape(B, L, d)
    ctx = affine(ctx, p["attn.wo"], p["attn.bo"])
    x = x + dropout(ctx, dropout_p, rng, train)

    h = layer_norm(x, p["ln2.gamma"], p["ln2.beta"])
    h = gelu(affine(h, p["ff.w1"], p["ff.b1"]))
    h = affine(h, p["ff.w2"], p["ff.b2"])
    return x + dropout(h, dropout_p, rng, train)


def bilstm_sequence(xs: Sequence[Tensor], p: Sequence[dict[str, Tensor]]) -> Tensor:
    """Single-layer bidirectional LSTMs over sequences ``xs[k]`` [B, T_k, d_k].

    Returns the states [B, T_0 + T_1 + ..., 2h]: each sequence's positions
    in turn, the forward direction's state first on the last axis. ``p[k]``
    holds sequence k's ``fwd.wx``, ``fwd.wh``, ``fwd.b`` and the same
    ``bwd.`` keys, with one hidden size h for all. Gate order in the 4h axis
    is i, f, g, o; initial h and c are zero. The backward direction scans
    right to left, and its states are aligned with the input positions.

    Each direction of each sequence is a scan, and all the scans are one
    graph node that advances them together: one set of numpy calls per time
    step for all of them, not one per scan (Appleyard et al.,
    arXiv:1604.01946). The buffers are time-major, [T, scan, B, ...], with
    the longest sequences' scans first, so the scans still running at a step
    are a prefix of the scan axis. Each scan does the arithmetic of a lone
    scan, in the same order: its input projection is one [B*T_k, d_k] @ wx
    product before the recurrence, a stacked matmul makes the same BLAS call
    per scan, and after BPTT its dx, dwx, dwh and db are each one product or
    sum over its gate gradients in position order. A sequence is a parent
    once per direction, so ``backward`` adds its two input gradients.
    """
    B = xs[0].shape[0]
    hidden = p[0]["fwd.wh"].shape[0]
    lengths = [x.shape[1] for x in xs]
    seams = np.cumsum([0] + lengths)
    # per direction: its key prefix, its positions in scan order, its output columns
    directions = (("fwd.", slice(None), slice(None, hidden)),
                  ("bwd.", slice(None, None, -1), slice(hidden, None)))
    longest_first = sorted(range(len(xs)), key=lambda k: -lengths[k])
    scans = [(k, order, cols) for k in longest_first for _, order, cols in directions]
    weights = [[p[k][d + n] for n in ("wx", "wh", "b")]
               for k in longest_first for d, _, _ in directions]
    n_scans, steps = len(scans), lengths[longest_first[0]]
    active = [sum(lengths[k] > t for k, _, _ in scans) for t in range(steps)]
    flat = [x.data.reshape(B * T, x.shape[2]) for x, T in zip(xs, lengths)]

    # [T, scan, B, ...] in scan order; cells and states have a leading zero
    # step, the initial c and h, so [t] is the value before step t
    xw = np.zeros((steps, n_scans, B, 4 * hidden))
    for s, (k, order, _) in enumerate(scans):
        proj = (flat[k] @ weights[s][0].data).reshape(B, lengths[k], 4 * hidden)
        xw[: lengths[k], s] = proj[:, order].swapaxes(0, 1)
    wh = np.stack([w[1].data for w in weights])
    bias = np.stack([w[2].data for w in weights])[:, None, :]
    gates = np.zeros((steps, n_scans, B, 4, hidden))
    cells = np.zeros((steps + 1, n_scans, B, hidden))
    tanh_c = np.zeros((steps, n_scans, B, hidden))
    states = np.zeros((steps + 1, n_scans, B, hidden))
    for t, a in enumerate(active):
        z = xw[t, :a] + states[t, :a] @ wh[:a]
        z += bias[:a]
        z = z.reshape(a, B, 4, hidden)
        act = gates[t, :a]
        stable_sigmoid(z, out=act)
        np.tanh(z[:, :, 2], out=act[:, :, 2])
        c = np.multiply(act[:, :, 1], cells[t, :a], out=cells[t + 1, :a])
        c += act[:, :, 0] * act[:, :, 2]
        np.multiply(act[:, :, 3], np.tanh(c, out=tanh_c[t, :a]), out=states[t + 1, :a])

    out = np.empty((B, seams[-1], 2 * hidden))
    for s, (k, order, cols) in enumerate(scans):
        out[:, seams[k] : seams[k + 1], cols] = states[1 : lengths[k] + 1, s][order].swapaxes(0, 1)

    def bw(g: np.ndarray):
        i, f, gg, o = (gates[..., n, :] for n in range(4))
        # d(gate pre-activation) per unit of dc for i, f, g, and per unit of dh for o
        dz_dc = np.stack(
            [gg * i * (1.0 - i), cells[:-1] * f * (1.0 - f), i * (1.0 - gg * gg)], axis=3
        )
        dz_dh = tanh_c * o * (1.0 - o)
        dc_dh = o * (1.0 - tanh_c * tanh_c)
        g_scan = np.zeros((steps, n_scans, B, hidden))
        for s, (k, order, cols) in enumerate(scans):
            g_scan[: lengths[k], s] = g[:, seams[k] : seams[k + 1], cols][:, order].swapaxes(0, 1)
        dz = np.zeros((steps, n_scans, B, 4, hidden))
        whT = wh.swapaxes(1, 2)
        # written by prefix: a scan's entries stay zero until its last step
        dh_next = np.zeros((n_scans, B, hidden))
        dc_next = np.zeros((n_scans, B, hidden))
        for t in range(steps - 1, -1, -1):
            a = active[t]
            dh = g_scan[t, :a] + dh_next[:a]
            dc = dh * dc_dh[t, :a] + dc_next[:a]
            np.multiply(dc[:, :, None, :], dz_dc[t, :a], out=dz[t, :a, :, :3])
            np.multiply(dh, dz_dh[t, :a], out=dz[t, :a, :, 3])
            np.multiply(dc, f[t, :a], out=dc_next[:a])
            np.matmul(dz[t, :a].reshape(a, B, 4 * hidden), whT[:a], out=dh_next[:a])
        grads = []
        for s, (k, order, _) in enumerate(scans):
            T = lengths[k]
            # position order, contiguous: the products of a lone scan
            dz2 = np.ascontiguousarray(dz[:T, s][order].swapaxes(0, 1)).reshape(B * T, 4 * hidden)
            prev = np.ascontiguousarray(states[:T, s][order].swapaxes(0, 1)).reshape(B * T, hidden)
            grads += [(dz2 @ weights[s][0].data.T).reshape(xs[k].shape), flat[k].T @ dz2,
                      prev.T @ dz2, dz2.sum(axis=0)]
        return grads

    parents = [t for (k, _, _), w in zip(scans, weights) for t in (xs[k], *w)]
    return Tensor._node(out, parents, bw)


def attention_pool(states: Tensor, score_vec: Tensor, valid_mask: np.ndarray) -> Tensor:
    """Softmax-weighted sum of [B, L, d] states along L.

    ``valid_mask`` [B, L] drops padded positions from the softmax; a row
    with no valid position pools to the zero vector.
    """
    B, L, d = states.shape
    scores = (states @ score_vec.reshape(d, 1)).reshape(B, L)
    offset = np.where(valid_mask, 0.0, MASK_OFFSET)
    weights = softmax(scores + Tensor(offset), axis=-1)
    if not valid_mask.any(axis=1).all():
        # fully padded rows: zero output, no gradient into their states
        weights = weights * Tensor(valid_mask.astype(np.float64))
    return (weights.reshape(B, 1, L) @ states).reshape(B, d)


def _scatter_rows(ids: np.ndarray, g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The gradient of a table of ``shape``: each ``g[i]`` scatter-added
    into row ``ids[i]``, in position order."""
    # bincount adds in input order, as np.add.at would, and is faster
    width = int(np.prod(shape[1:]))
    flat = (ids.reshape(-1, 1) * width + np.arange(width)).reshape(-1)
    return np.bincount(flat, weights=g.reshape(-1), minlength=shape[0] * width).reshape(shape)


def _check_ids(table: Tensor, ids: np.ndarray) -> None:
    if ids.min(initial=0) < 0 or ids.max(initial=0) >= table.shape[0]:
        raise ValueError(
            f"ids out of range for embedding table with {table.shape[0]} rows"
        )


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup ``table[ids]``.

    The table's gradient has the table's shape: each looked-up position's
    gradient is scatter-added into its row, in position order, and a row no
    id names gets zero.
    """
    ids = np.asarray(ids)
    _check_ids(table, ids)
    return Tensor._node(
        table.data[ids], (table,), lambda g: (_scatter_rows(ids, g, table.shape),)
    )


def multiscale_conv_encode(
    ids: np.ndarray,
    embed_table: Tensor,
    conv_w: dict[int, Tensor],
    conv_b: dict[int, Tensor],
    pad_id: int,
) -> Tensor:
    """Embed ids, run one 1-D conv per kernel size, ReLU, global max-pool.

    ``conv_w[k]`` has shape [k, embed_dim, filters]; outputs of all sizes
    are concatenated to [B, n_sizes * filters]. Sequences shorter than the
    largest kernel are padded with ``pad_id`` first.

    The whole encoder is one graph node. The forward sums one product per
    kernel offset, each looped over the batch by numpy: for these tall,
    thin slices that beats one GEMM over a flattened copy. After the
    max-pool only the max windows carry gradient, so the backward routes
    each filter's gradient to its max windows alone, shared equally
    between tied ones as in ``Tensor.max``; a filter whose max is 0 after
    the ReLU gets none. ``dW``, ``db`` and the table gradient are built
    from those windows; the table gradient has the table's shape, as from
    ``embedding``, and is zero on every row outside a max window.
    """
    sizes = sorted(conv_w)
    max_k = sizes[-1]
    if ids.shape[1] < max_k:
        pad = np.full((ids.shape[0], max_k - ids.shape[1]), pad_id, dtype=ids.dtype)
        ids = np.concatenate([ids, pad], axis=1)
    _check_ids(embed_table, ids)
    L = ids.shape[1]
    emb = embed_table.data[ids]  # [B, L, e]
    e = emb.shape[2]
    maxes = []  # per size: (ReLU output [B, L - k + 1, F], its max over positions [B, F])
    for k in sizes:
        w = conv_w[k].data
        out_len = L - k + 1
        y = emb[:, 0:out_len] @ w[0]
        for j in range(1, k):
            y += emb[:, j : j + out_len] @ w[j]
        y += conv_b[k].data
        np.maximum(y, 0.0, out=y)
        maxes.append((y, y.max(axis=1)))
    n_filters = [conv_w[k].shape[2] for k in sizes]
    seams = np.cumsum([0] + n_filters)

    def bw(g: np.ndarray):
        dws, dbs, win_ids, win_grads = [], [], [], []
        for i, k in enumerate(sizes):
            y, m = maxes[i]
            gk = g[:, seams[i] : seams[i + 1]]
            hit = (y == m[:, None, :]) & (m > 0.0)[:, None, :]
            bi, ti, fi = np.nonzero(hit)
            share = 1.0 / hit.sum(axis=1)[bi, fi]
            # [windows, F]: each max window's gradient, in its filter's column
            dz = np.zeros((bi.size, n_filters[i]))
            dz[np.arange(bi.size), fi] = share * gk[bi, fi]
            pos = ti[:, None] + np.arange(k)  # [windows, k]
            windows = emb[bi[:, None], pos].reshape(bi.size, k * e)
            w2 = conv_w[k].data.reshape(k * e, n_filters[i])
            dws.append((windows.T @ dz).reshape(k, e, n_filters[i]))
            dbs.append(dz.sum(axis=0))
            win_ids.append(ids[bi[:, None], pos].ravel())
            win_grads.append((dz @ w2.T).reshape(bi.size * k, e))
        d_table = _scatter_rows(
            np.concatenate(win_ids), np.concatenate(win_grads), embed_table.shape
        )
        return (d_table, *dws, *dbs)

    parents = (embed_table, *(conv_w[k] for k in sizes), *(conv_b[k] for k in sizes))
    return Tensor._node(np.concatenate([m for _, m in maxes], axis=1), parents, bw)
