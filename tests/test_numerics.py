"""Layer primitives, autodiff and optimizer checks against independent oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes

from fedphish.numerics import (
    Adam,
    Tensor,
    affine,
    attention_pool,
    backward,
    bilstm_sequence,
    clip_global_norm,
    concat,
    dropout,
    embedding,
    finite_difference_check,
    gelu,
    layer_norm,
    log_softmax,
    mhsa_block,
    mlp_tail,
    multiscale_conv_encode,
    softmax,
    zero_grads,
)
from fedphish.numerics import layers, optim
from fedphish.numerics.tensor import GradientError


# ---------------------------------------------------------------------------
# oracles (independent of the implementations they check)
# ---------------------------------------------------------------------------

def power(x: Tensor, exponent: float) -> Tensor:
    """x**exponent as one graph node, for losses and compositions that only
    the tests build."""
    e = float(exponent)
    if e == 0.0:
        # x**0 == 1 with zero derivative; avoids 0 * x**-1 NaNs.
        return Tensor._node(np.ones_like(x.data), (x,), lambda g: (np.zeros_like(g),))
    return Tensor._node(x.data ** e, (x,), lambda g: (g * e * x.data ** (e - 1.0),))


def tanh(x: Tensor) -> Tensor:
    """Elementwise tanh as one graph node."""
    out = np.tanh(x.data)
    return Tensor._node(out, (x,), lambda g: (g * (1.0 - out * out),))


def sqrt(x: Tensor) -> Tensor:
    """Elementwise square root as one graph node."""
    out = np.sqrt(x.data)
    return Tensor._node(out, (x,), lambda g: (g * 0.5 / out,))


def log(x: Tensor) -> Tensor:
    """Elementwise natural log as one graph node."""
    return Tensor._node(np.log(x.data), (x,), lambda g: (g / x.data,))


def mean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Mean over ``axis`` (all axes for None) as a sum and a scaling."""
    n = x.data.size if axis is None else x.data.shape[axis]
    return x.sum(axis=axis, keepdims=keepdims) * (1.0 / n)


def l2_normalize(x: Tensor, axis: int, floor: float) -> Tensor:
    """``x`` divided by its L2 norm along ``axis``, or by ``floor`` where the
    norm is below it, as one node on ``layers._unit``, the normalisation
    that the url tail's cosine logits run on both their inputs; below the
    floor the gradient is the plain ``1 / floor`` scaling."""
    out, bw = layers._unit(x.data, axis, floor)
    # x three times: as the dividend and as both factors of the squares
    return Tensor._node(out, (x, x, x), bw)


def matmul_oracle(a, b):
    """Triple-loop matrix multiply."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            s = 0.0
            for t in range(k):
                s += a[i, t] * b[t, j]
            out[i, j] = s
    return out


def lstm_cell_oracle(x, h_prev, c_prev, wx, wh, b):
    """Scalar-loop LSTM cell, gate order i, f, g, o."""
    hidden = wh.shape[0]
    h = np.zeros(hidden)
    c = np.zeros(hidden)
    for j in range(hidden):
        acc = [0.0, 0.0, 0.0, 0.0]
        for gate in range(4):
            col = gate * hidden + j
            s = b[col]
            for t in range(len(x)):
                s += x[t] * wx[t, col]
            for t in range(hidden):
                s += h_prev[t] * wh[t, col]
            acc[gate] = s
        i = 1.0 / (1.0 + math.exp(-acc[0]))
        f = 1.0 / (1.0 + math.exp(-acc[1]))
        g = math.tanh(acc[2])
        o = 1.0 / (1.0 + math.exp(-acc[3]))
        c[j] = f * c_prev[j] + i * g
        h[j] = o * math.tanh(c[j])
    return h, c


def conv_pool_oracle(ids, table, w, b):
    """Sliding-window dot products for one kernel size, ReLU, global max."""
    k, e, filters = w.shape
    emb = table[ids]
    out = np.full(filters, -np.inf)
    for start in range(len(ids) - k + 1):
        for f in range(filters):
            s = b[f]
            for j in range(k):
                for d in range(e):
                    s += emb[start + j, d] * w[j, d, f]
            out[f] = max(out[f], max(s, 0.0))
    return out


# ---------------------------------------------------------------------------
# dtype
# ---------------------------------------------------------------------------

def test_a_tensor_keeps_float32_or_float64_and_holds_anything_else_as_float64():
    assert Tensor(np.ones(2, np.float32)).data.dtype == np.float32
    assert Tensor(np.float32(1.0)).data.dtype == np.float32
    for data in (np.ones(2), np.ones(2, np.float16), np.arange(2), [1, 2], 1.0, True):
        assert Tensor(data).data.dtype == np.float64, data
    a64 = np.ones(3)
    assert Tensor(a64).data is a64  # no copy
    node = Tensor._node(np.float32(2.0), (Tensor(1.0, requires_grad=True),), lambda g: (g,))
    assert node.data.dtype == np.float32 and node.data.shape == ()


def test_a_scalar_constant_takes_the_dtype_of_the_tensor_it_meets():
    # NumPy promotes float32 with a float64 0-d array to float64 (NEP 50);
    # a constant that is not a tensor is cast to the tensor's dtype first
    x = np.array([0.5, -2.0, 3.0], np.float32)
    t = Tensor(x, requires_grad=True)
    ops = {"t + 1.0": (t + 1.0, x + 1.0), "1.0 + t": (1.0 + t, 1.0 + x),
           "t - 1.0": (t - 1.0, x - 1.0), "1.0 - t": (1.0 - t, 1.0 - x),
           "t * 0.1": (t * 0.1, x * 0.1), "0.1 * t": (0.1 * t, 0.1 * x),
           "t / 3.0": (t / 3.0, x / 3.0), "1.0 / t": (1.0 / t, 1.0 / x),
           "t * np.float64": (t * np.float64(0.1), x * np.float32(0.1)),
           "t + 0-d float64": (t + np.array(0.1), x + np.float32(0.1))}
    for name, (out, want) in ops.items():
        assert out.data.dtype == np.float32, name
        assert out.data.tobytes() == want.tobytes(), name
    loss = sum(((out * out).sum() for out, _ in ops.values()), Tensor(np.float32(0.0)))
    backward(loss)
    assert loss.data.dtype == t.grad.dtype == np.float32


def test_a_float32_attention_pool_masks_in_float32():
    # MASK_OFFSET, -1e30, is a finite float32; exp of it minus the max is 0
    states = Tensor(np.random.default_rng(3).normal(size=(2, 3, 4)).astype(np.float32),
                    requires_grad=True)
    score = Tensor(np.ones(4, np.float32), requires_grad=True)
    valid = np.array([[True, False, True], [False, False, False]])
    out = attention_pool(states, score, valid)
    assert out.data.dtype == np.float32 and np.isfinite(out.data).all()
    assert np.array_equal(out.data[1], np.zeros(4, np.float32))
    backward((out * out).sum())
    assert states.grad.dtype == score.grad.dtype == np.float32
    assert not states.grad[0, 1].any() and not states.grad[1].any()


# ---------------------------------------------------------------------------
# affine
# ---------------------------------------------------------------------------

def test_affine_identity_weights():
    y = affine(Tensor([[1.0, 2.0]]), Tensor(np.eye(2)), Tensor([0.0, 0.0]))
    assert np.array_equal(y.data, [[1.0, 2.0]])


def test_affine_zero_weights_pass_bias():
    y = affine(Tensor([[3.0]]), Tensor([[0.0]]), Tensor([5.0]))
    assert np.array_equal(y.data, [[5.0]])


def test_affine_matches_matmul_oracle():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(3, 4))
    w = rng.normal(size=(4, 2))
    b = rng.normal(size=2)
    y = affine(Tensor(x), Tensor(w), Tensor(b))
    assert np.allclose(y.data, matmul_oracle(x, w) + b, atol=1e-12)


def test_affine_shape_mismatch_is_configuration_error():
    with pytest.raises(ValueError, match=r"affine shapes do not conform: x\(2, 3\) w\(4, 2\)"):
        affine(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))), Tensor(np.zeros(2)))


# ---------------------------------------------------------------------------
# layer_norm
# ---------------------------------------------------------------------------

def test_layer_norm_constant_row_is_zero():
    x = Tensor(np.full((2, 5), 3.7))
    y = layer_norm(x, Tensor(np.ones(5)), Tensor(np.zeros(5)))
    assert np.allclose(y.data, 0.0)


def test_layer_norm_plus_minus_one():
    y = layer_norm(Tensor([[1.0, -1.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=1e-12)
    assert np.allclose(y.data, [[1.0, -1.0]], atol=1e-6)


def test_layer_norm_zero_gain_passes_beta():
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(3, 4)))
    beta = rng.normal(size=4)
    y = layer_norm(x, Tensor(np.zeros(4)), Tensor(beta))
    assert np.allclose(y.data, np.broadcast_to(beta, (3, 4)))


# ---------------------------------------------------------------------------
# log_softmax / softmax
# ---------------------------------------------------------------------------

def test_log_softmax_uniform():
    y = log_softmax(Tensor([0.0, 0.0]))
    assert np.allclose(y.data, [-math.log(2.0)] * 2)


def test_log_softmax_shift_invariance():
    rng = np.random.default_rng(2)
    z = rng.normal(size=5)
    a = log_softmax(Tensor(z)).data
    b = log_softmax(Tensor(z + 123.456)).data
    assert np.allclose(a, b, atol=1e-12)


def test_log_softmax_extreme_logits_stable():
    y = log_softmax(Tensor([1000.0, 0.0])).data
    assert np.all(np.isfinite(y))
    assert abs(y[0]) < 1e-12
    assert abs(y[1] + 1000.0) < 1e-9


def test_log_softmax_normalization_invariant():
    rng = np.random.default_rng(3)
    for _ in range(50):
        z = rng.normal(scale=rng.uniform(0.1, 50.0), size=rng.integers(2, 9))
        out = log_softmax(Tensor(z)).data
        assert abs(math.log(np.exp(out).sum())) < 1e-9


# ---------------------------------------------------------------------------
# gelu
# ---------------------------------------------------------------------------

def test_gelu_zero():
    assert gelu(Tensor([0.0])).data[0] == 0.0


def test_gelu_asymptote():
    x = np.array([10.0, 50.0])
    y = gelu(Tensor(x)).data
    assert np.allclose(y / x, 1.0, atol=1e-12)


def test_gelu_at_one_matches_erf_oracle():
    # 1 * Phi(1), Phi via the error function
    expected = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
    assert abs(gelu(Tensor([1.0])).data[0] - expected) < 1e-12
    assert abs(expected - 0.841345) < 1e-6


# ---------------------------------------------------------------------------
# mhsa block
# ---------------------------------------------------------------------------

def make_mhsa_params(rng, d, ff):
    def t(*shape):
        return Tensor(rng.normal(scale=0.1, size=shape), requires_grad=True)

    return {
        "ln1.gamma": Tensor(np.ones(d), requires_grad=True),
        "ln1.beta": Tensor(np.zeros(d), requires_grad=True),
        "attn.wq": t(d, d), "attn.bq": t(d),
        "attn.wk": t(d, d),
        "attn.wv": t(d, d), "attn.bv": t(d),
        "attn.wo": t(d, d), "attn.bo": t(d),
        "ln2.gamma": Tensor(np.ones(d), requires_grad=True),
        "ln2.beta": Tensor(np.zeros(d), requires_grad=True),
        "ff.w1": t(d, ff), "ff.b1": t(ff),
        "ff.w2": t(ff, d), "ff.b2": t(d),
    }


def test_mhsa_single_token_attention_is_identity():
    # with L=1 the softmax weight is exactly 1, so the attention sublayer
    # reduces to Wo(v(LN(x))) + x; verify against a hand-built path
    rng = np.random.default_rng(4)
    d, ff = 8, 16
    p = make_mhsa_params(rng, d, ff)
    x = Tensor(rng.normal(size=(1, 1, d)))
    out = mhsa_block(x, p, n_heads=2)

    h = layer_norm(x, p["ln1.gamma"], p["ln1.beta"])
    v = affine(h, p["attn.wv"], p["attn.bv"])
    attn_out = affine(v, p["attn.wo"], p["attn.bo"])
    mid = x.data + attn_out.data
    h2 = layer_norm(Tensor(mid), p["ln2.gamma"], p["ln2.beta"])
    expected = mid + affine(gelu(affine(h2, p["ff.w1"], p["ff.b1"])), p["ff.w2"], p["ff.b2"]).data
    assert np.allclose(out.data, expected, atol=1e-12)


def test_mhsa_permutation_equivariance():
    rng = np.random.default_rng(5)
    d, ff, L = 8, 16, 6
    p = make_mhsa_params(rng, d, ff)
    x = rng.normal(size=(1, L, d))
    out = mhsa_block(Tensor(x), p, n_heads=4).data
    for _ in range(5):
        perm = rng.permutation(L)
        out_p = mhsa_block(Tensor(x[:, perm]), p, n_heads=4).data
        assert np.allclose(out_p, out[:, perm], atol=1e-10)


@pytest.mark.parametrize("L", [1, 4, 16])
def test_mhsa_shape_contract(L):
    rng = np.random.default_rng(6)
    d, ff = 768, 64
    p = make_mhsa_params(rng, d, ff)
    out = mhsa_block(Tensor(rng.normal(size=(2, L, d))), p, n_heads=8)
    assert out.shape == (2, L, d)


def test_mhsa_rejects_indivisible_heads():
    rng = np.random.default_rng(7)
    p = make_mhsa_params(rng, 6, 8)
    with pytest.raises(ValueError, match="model dim 6 not divisible by 4 heads"):
        mhsa_block(Tensor(rng.normal(size=(1, 2, 6))), p, n_heads=4)


# ---------------------------------------------------------------------------
# lstm
# ---------------------------------------------------------------------------

def lstm_sequence(xs, wx, wh, b, reverse=False):
    """Reference: one direction of an LSTM over [B, T, d_in] as its own graph
    node, the scan ``bilstm_sequence`` runs four of. Initial h and c are zero;
    ``reverse`` scans right to left and aligns states with the positions."""
    B, T, d_in = xs.shape
    hidden = wh.shape[0]
    x2 = xs.data.reshape(B * T, d_in)
    xw = (x2 @ wx.data).reshape(B, T, 4 * hidden)
    whd, bd = wh.data, b.data
    steps = range(T - 1, -1, -1) if reverse else range(T)
    gates = np.empty((B, T, 4, hidden))
    cells = np.empty((B, T, hidden))
    tanh_c = np.empty((B, T, hidden))
    states = np.empty((B, T, hidden))
    h = np.zeros((B, hidden))
    c = np.zeros((B, hidden))
    for t in steps:
        z = (xw[:, t] + h @ whd + bd).reshape(B, 4, hidden)
        e = np.exp(-np.abs(z))
        act = np.where(z >= 0, 1.0, e) / (1.0 + e)
        act[:, 2] = np.tanh(z[:, 2])
        c = act[:, 1] * c + act[:, 0] * act[:, 2]
        tc = np.tanh(c)
        h = act[:, 3] * tc
        gates[:, t] = act
        cells[:, t] = c
        tanh_c[:, t] = tc
        states[:, t] = h

    def previous(a):
        out = np.zeros_like(a)
        if reverse:
            out[:, :-1] = a[:, 1:]
        else:
            out[:, 1:] = a[:, :-1]
        return out

    def bw(g):
        i, f, gg, o = (gates[:, :, k] for k in range(4))
        dz_dc = np.stack(
            [gg * i * (1.0 - i), previous(cells) * f * (1.0 - f), i * (1.0 - gg * gg)], axis=2
        )
        dz_dh = tanh_c * o * (1.0 - o)
        dc_dh = o * (1.0 - tanh_c * tanh_c)
        dz = np.empty((B, T, 4, hidden))
        whT = whd.T
        dh_next = np.zeros((B, hidden))
        dc_next = np.zeros((B, hidden))
        for t in reversed(steps):
            dh = g[:, t] + dh_next
            dc = dh * dc_dh[:, t] + dc_next
            dz[:, t, :3] = dc[:, None, :] * dz_dc[:, t]
            dz[:, t, 3] = dh * dz_dh[:, t]
            dc_next = dc * f[:, t]
            dh_next = dz[:, t].reshape(B, 4 * hidden) @ whT
        dz2 = dz.reshape(B * T, 4 * hidden)
        dxs = (dz2 @ wx.data.T).reshape(B, T, d_in)
        dwx = x2.T @ dz2
        dwh = previous(states).reshape(B * T, hidden).T @ dz2
        return dxs, dwx, dwh, dz2.sum(axis=0)

    return Tensor._node(states, (xs, wx, wh, b), bw)


def reference_bilstm(xs, p):
    """Both directions of one sequence by ``lstm_sequence``, concatenated per step."""
    fwd = lstm_sequence(xs, p["fwd.wx"], p["fwd.wh"], p["fwd.b"])
    bwd = lstm_sequence(xs, p["bwd.wx"], p["bwd.wh"], p["bwd.b"], reverse=True)
    return concat([fwd, bwd], axis=2)


def lstm_params(rng, d_in, hidden, scale=1.0):
    shapes = {"wx": (d_in, 4 * hidden), "wh": (hidden, 4 * hidden), "b": (4 * hidden,)}
    return {f"{d}.{k}": Tensor(rng.normal(scale=scale, size=shape), requires_grad=True)
            for d in ("fwd", "bwd") for k, shape in shapes.items()}


def zero_lstm_params(d_in, hidden):
    return {f"{d}.{k}": Tensor(np.zeros(shape)) for d in ("fwd", "bwd") for k, shape in
            (("wx", (d_in, 4 * hidden)), ("wh", (hidden, 4 * hidden)), ("b", (4 * hidden,)))}


def lstm_sequence_oracle(xs, wx, wh, b, reverse):
    """``lstm_cell_oracle`` unrolled over [B, T, d] from zero state, one row at a time."""
    B, T, _ = xs.shape
    hidden = wh.shape[0]
    out = np.zeros((B, T, hidden))
    for row in range(B):
        h = np.zeros(hidden)
        c = np.zeros(hidden)
        for t in (range(T - 1, -1, -1) if reverse else range(T)):
            h, c = lstm_cell_oracle(xs[row, t], h, c, wx, wh, b)
            out[row, t] = h
    return out


def test_lstm_zero_fixed_point():
    states = bilstm_sequence(
        [Tensor(np.ones((2, 4, 3))), Tensor(np.ones((2, 2, 5)))],
        [zero_lstm_params(3, 2), zero_lstm_params(5, 2)],
    )
    assert np.array_equal(states.data, np.zeros((2, 6, 4)))


def test_lstm_zero_params_halve_cell():
    # zero weights: i = f = o = 1/2, so c_t = (c_{t-1} + g) / 2 and c_t = g (1 - 2^-t)
    # after t steps of either direction's scan
    p = zero_lstm_params(3, 2)
    g_pre = np.array([0.7, -1.3])
    for d in ("fwd", "bwd"):
        p[f"{d}.b"] = Tensor(np.concatenate([np.zeros(4), g_pre, np.zeros(2)]))
    states = bilstm_sequence([Tensor(np.ones((1, 5, 3)))], [p]).data[0]
    c = np.tanh(g_pre) * (1.0 - 0.5 ** np.arange(1, 6))[:, None]
    assert np.allclose(states[:, :2], 0.5 * np.tanh(c), atol=1e-12)
    assert np.allclose(states[:, 2:], 0.5 * np.tanh(c[::-1]), atol=1e-12)


def test_lstm_matches_scalar_oracle():
    rng = np.random.default_rng(8)
    B, hidden = 2, 4
    xs = [rng.normal(size=(B, 6, 5)), rng.normal(size=(B, 3, 2))]
    ps = [lstm_params(rng, x.shape[2], hidden) for x in xs]
    states = bilstm_sequence([Tensor(x) for x in xs], ps).data
    want = np.concatenate([
        np.concatenate([
            lstm_sequence_oracle(x, *(p[f"{d}.{k}"].data for k in ("wx", "wh", "b")), d == "bwd")
            for d in ("fwd", "bwd")
        ], axis=2)
        for x, p in zip(xs, ps)
    ], axis=1)
    assert np.allclose(states, want, atol=1e-12)


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("steps", [1, 5])
def test_lstm_sequence_gradients_include_inputs(reverse, steps):
    # both sequences' inputs, and one direction's weights: the reverse ones if ``reverse``
    d = "bwd" if reverse else "fwd"
    for seed in range(5):
        rng = np.random.default_rng(300 + seed)
        xs = [Tensor(rng.normal(size=(3, steps, 4)), requires_grad=True),
              Tensor(rng.normal(size=(3, 3, 2)), requires_grad=True)]
        ps = [lstm_params(rng, x.shape[2], 3, scale=0.5) for x in xs]
        weights = Tensor(rng.normal(size=(3, steps + 3, 6)))

        def loss_fn():
            return (bilstm_sequence(xs, ps) * weights).sum()

        checked = {"xs0": xs[0], "xs1": xs[1]}
        for k, p in enumerate(ps):
            checked.update({f"{k}.{n}": p[f"{d}.{n}"] for n in ("wx", "wh", "b")})
        err = finite_difference_check(loss_fn, checked)
        assert err < 1e-4, f"lstm seed {seed}: {err}"


def test_lstm_sequence_reverse_matches_flipped_forward():
    rng = np.random.default_rng(9)
    xs = rng.normal(size=(2, 5, 3))
    p = lstm_params(rng, 3, 2)
    for k in ("wx", "wh", "b"):
        p[f"bwd.{k}"] = p[f"fwd.{k}"]
    rev = bilstm_sequence([Tensor(xs)], [p]).data[:, :, 2:]
    fwd_on_flipped = bilstm_sequence([Tensor(xs[:, ::-1, :].copy())], [p]).data[:, :, :2]
    assert np.allclose(rev, fwd_on_flipped[:, ::-1, :], atol=1e-12)


@pytest.mark.parametrize("t_word, t_dom, batch, pad_row", [
    (5, 3, 4, False),
    (3, 7, 2, False),
    (1, 4, 1, False),
    (4, 1, 3, False),
    (1, 1, 1, False),
    (6, 6, 3, False),
    (5, 3, 4, True),
    (16, 16, 8, True),
])
def test_bilstm_sequence_is_bitwise_four_reference_scans(t_word, t_dom, batch, pad_row):
    """The stacked scan against four ``lstm_sequence`` nodes plus ``concat``,
    through the html head's attention pools: states and every gradient
    bitwise equal. ``pad_row`` makes the first row all PAD: one embedding row
    at every position, masked out of its pool."""
    rng = np.random.default_rng(t_word * 100 + t_dom * 10 + batch)
    hidden = 3
    data = [rng.normal(size=(batch, t_word, 5)), rng.normal(size=(batch, t_dom, 4))]
    valid = [np.ones((batch, t), dtype=bool) for t in (t_word, t_dom)]
    if pad_row:
        data[0][0] = rng.normal(size=5)
        valid[0][0] = False
    raw = [{k: v.data for k, v in lstm_params(rng, x.shape[2], hidden).items()} for x in data]
    scores = [rng.normal(size=2 * hidden) for _ in data]
    w_states = rng.normal(size=(batch, t_word + t_dom, 2 * hidden))

    def run(stacked):
        xs = [Tensor(x.copy(), requires_grad=True) for x in data]
        ps = [{k: Tensor(v.copy(), requires_grad=True) for k, v in p.items()} for p in raw]
        sv = [Tensor(s.copy(), requires_grad=True) for s in scores]
        if stacked:
            states = bilstm_sequence(xs, ps)
            parts = [states[:, :t_word], states[:, t_word:]]
        else:
            parts = [reference_bilstm(x, p) for x, p in zip(xs, ps)]
            states = concat(parts, axis=1)
        pooled = [attention_pool(s, v, m) for s, v, m in zip(parts, sv, valid)]
        loss = power(concat(pooled, axis=1), 2.0).sum() + (states * Tensor(w_states)).sum()
        backward(loss)
        grads = [x.grad for x in xs] + [p[k].grad for p in ps for k in sorted(p)]
        return states.data, grads + [s.grad for s in sv]

    got_states, got = run(stacked=True)
    want_states, want = run(stacked=False)
    assert np.array_equal(got_states, want_states)
    assert len(got) == len(want) == 16
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# attention pool
# ---------------------------------------------------------------------------

def test_attention_pool_single_state():
    rng = np.random.default_rng(10)
    s = rng.normal(size=(1, 1, 4))
    pooled = attention_pool(Tensor(s), Tensor(rng.normal(size=4)), np.ones((1, 1), dtype=bool))
    assert np.allclose(pooled.data, s[0], atol=1e-12)


def test_attention_pool_zero_scores_average():
    rng = np.random.default_rng(11)
    s = rng.normal(size=(1, 3, 4))
    pooled = attention_pool(Tensor(s), Tensor(np.zeros(4)), np.ones((1, 3), dtype=bool))
    assert np.allclose(pooled.data, s.mean(axis=1), atol=1e-12)


def test_attention_pool_identical_states():
    rng = np.random.default_rng(12)
    row = rng.normal(size=4)
    s = np.tile(row, (1, 5, 1))
    pooled = attention_pool(Tensor(s), Tensor(rng.normal(size=4)), np.ones((1, 5), dtype=bool))
    assert np.allclose(pooled.data, row[None], atol=1e-12)


def test_attention_pool_all_masked_row_pools_to_zero():
    rng = np.random.default_rng(13)
    s = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    mask = np.array([[True, False, True], [False, False, False]])
    pooled = attention_pool(s, Tensor(rng.normal(size=4)), mask)
    assert np.allclose(pooled.data[1], 0.0)
    assert np.abs(pooled.data[0]).max() > 0
    backward(pooled.sum())
    assert np.all(s.grad[1] == 0.0)


def test_attention_pool_masked_positions_get_no_gradient():
    rng = np.random.default_rng(14)
    s = Tensor(rng.normal(size=(1, 4, 3)), requires_grad=True)
    mask = np.array([[True, True, False, False]])
    pooled = attention_pool(s, Tensor(rng.normal(size=3)), mask)
    backward(pooled.sum())
    assert np.allclose(s.grad[0, 2:], 0.0)
    assert np.abs(s.grad[0, :2]).max() > 0


# ---------------------------------------------------------------------------
# multiscale conv
# ---------------------------------------------------------------------------

def test_conv_constant_sequence_translation_invariance():
    rng = np.random.default_rng(15)
    table = Tensor(rng.normal(size=(7, 4)))
    w = {3: Tensor(rng.normal(size=(3, 4, 2)))}
    b = {3: Tensor(rng.normal(size=2))}
    ids = np.full(10, 5)
    out = multiscale_conv_encode(ids[None], table, w, b, pad_id=6).data[0]
    ref = conv_pool_oracle(ids, table.data, w[3].data, b[3].data)
    # every window sees the same input, so max equals any single response
    assert np.allclose(out, ref, atol=1e-12)


def test_conv_output_length_is_sizes_times_filters():
    rng = np.random.default_rng(16)
    table = Tensor(rng.normal(size=(9, 3)))
    sizes = range(2, 10)
    w = {k: Tensor(rng.normal(size=(k, 3, 16))) for k in sizes}
    b = {k: Tensor(rng.normal(size=16)) for k in sizes}
    out = multiscale_conv_encode(np.arange(18).reshape(2, 9) % 8, table, w, b, pad_id=8)
    assert out.shape == (2, 8 * 16)


def test_conv_matches_sliding_window_oracle():
    rng = np.random.default_rng(17)
    table = Tensor(rng.normal(size=(11, 5)))
    w = {2: Tensor(rng.normal(size=(2, 5, 3))), 4: Tensor(rng.normal(size=(4, 5, 3)))}
    b = {2: Tensor(rng.normal(size=3)), 4: Tensor(rng.normal(size=3))}
    ids = rng.integers(0, 10, size=12)
    out = multiscale_conv_encode(ids[None], table, w, b, pad_id=10).data[0]
    ref = np.concatenate(
        [conv_pool_oracle(ids, table.data, w[k].data, b[k].data) for k in (2, 4)]
    )
    assert np.allclose(out, ref, atol=1e-12)


def test_conv_pads_short_sequence():
    rng = np.random.default_rng(18)
    table = Tensor(rng.normal(size=(5, 2)))
    w = {4: Tensor(rng.normal(size=(4, 2, 2)))}
    b = {4: Tensor(rng.normal(size=2))}
    out = multiscale_conv_encode(np.array([[1, 2]]), table, w, b, pad_id=4).data[0]
    ref = conv_pool_oracle(np.array([1, 2, 4, 4]), table.data, w[4].data, b[4].data)
    assert np.allclose(out, ref, atol=1e-12)


def conv_composition(ids, table, conv_w, conv_b, pad_id):
    """The multiscale conv as one graph node per operation: embedding lookup,
    per-offset slice and product, bias, ReLU, max-pool and concat. The
    single-node encoder must match it: forward bitwise, gradients to 1e-12."""
    ids = np.atleast_2d(ids)
    max_k = max(conv_w)
    if ids.shape[1] < max_k:
        ids = np.pad(ids, ((0, 0), (0, max_k - ids.shape[1])), constant_values=pad_id)
    emb = embedding(table, ids)
    out_len = {k: ids.shape[1] - k + 1 for k in conv_w}
    feats = []
    for k in sorted(conv_w):
        # a [1, e, F] weight keeps numpy's per-sample product, as in the encoder
        e, filters = conv_w[k].shape[1:]
        w = [conv_w[k][j].reshape(1, e, filters) for j in range(k)]
        y = emb[:, 0 : out_len[k], :] @ w[0]
        for j in range(1, k):
            y = y + emb[:, j : j + out_len[k], :] @ w[j]
        feats.append((y + conv_b[k]).relu().max(axis=1))
    return concat(feats, axis=1)


def conv_grads(encode, ids, table, conv_w, conv_b, pad_id, c):
    """Forward output and densified gradients of sum(encode(...) * c)."""
    params = {"table": table, **{f"w{k}": w for k, w in conv_w.items()},
              **{f"b{k}": b for k, b in conv_b.items()}}
    zero_grads(params)
    out = encode(ids, table, conv_w, conv_b, pad_id)
    backward((out * Tensor(c)).sum())
    return out.data, {k: np.array(p.grad) for k, p in params.items()}


def conv_params(rng, vocab, e, sizes, filters, bias=0.0):
    table = Tensor(rng.normal(size=(vocab, e)), requires_grad=True)
    w = {k: Tensor(rng.normal(size=(k, e, filters)), requires_grad=True) for k in sizes}
    b = {k: Tensor(bias + rng.normal(scale=0.1, size=filters), requires_grad=True)
         for k in sizes}
    return table, w, b


# pages: random ids; a repeated substring, so that max windows tie exactly;
# two ids shorter than the largest kernel, so that pads are convolved
CONV_PAGES = {
    "random": lambda rng: rng.integers(0, 10, size=(3, 40)),
    "tied": lambda rng: np.tile([1, 4, 2, 7, 3], (2, 8)),
    "padded": lambda rng: rng.integers(0, 10, size=(2, 2)),
}


@pytest.mark.parametrize("page", sorted(CONV_PAGES))
def test_conv_single_node_matches_per_offset_composition(page):
    rng = np.random.default_rng(40)
    ids = CONV_PAGES[page](rng)
    table, w, b = conv_params(rng, 11, 4, (2, 3, 5), 6)
    c = rng.normal(size=(ids.shape[0], 18))
    out, grads = conv_grads(multiscale_conv_encode, ids, table, w, b, 10, c)
    ref_out, ref_grads = conv_grads(conv_composition, ids, table, w, b, 10, c)
    assert np.array_equal(out, ref_out)
    assert table.grad.shape == table.shape
    for name, ref in ref_grads.items():
        assert np.max(np.abs(grads[name] - ref)) <= 1e-12 * np.max(np.abs(ref)), name


def test_conv_tied_page_finite_differences():
    rng = np.random.default_rng(41)
    table, w, b = conv_params(rng, 11, 3, (2, 4), 3, bias=0.5)
    ids = CONV_PAGES["tied"](rng)
    err = finite_difference_check(
        lambda: power(multiscale_conv_encode(ids, table, w, b, pad_id=10), 2.0).sum(),
        {"table": table, **{f"w{k}": v for k, v in w.items()},
         **{f"b{k}": v for k, v in b.items()}},
    )
    assert err < 1e-4


def test_conv_all_negative_preactivations_give_zero_gradients():
    rng = np.random.default_rng(42)
    table, w, b = conv_params(rng, 11, 4, (2, 3), 5, bias=-1e3)
    ids = rng.integers(0, 10, size=(2, 12))
    c = rng.normal(size=(2, 10))
    out, grads = conv_grads(multiscale_conv_encode, ids, table, w, b, 10, c)
    assert np.array_equal(out, np.zeros((2, 10)))
    for name, grad in grads.items():
        assert np.array_equal(grad, np.zeros_like(grad)), name


# ---------------------------------------------------------------------------
# backprop
# ---------------------------------------------------------------------------

def test_backprop_sum_gives_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    backward(x.sum())
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_backprop_chain_matches_finite_differences():
    rng = np.random.default_rng(19)
    w = Tensor(rng.normal(scale=0.1, size=(4, 3)), requires_grad=True)
    b = Tensor(rng.normal(scale=0.1, size=3), requires_grad=True)
    x = rng.normal(size=(2, 4))
    labels = np.array([0, 2])

    def loss_fn():
        logits = gelu(affine(Tensor(x), w, b))
        logp = log_softmax(logits, axis=-1)
        picked = logp[np.arange(2), labels]
        p = picked.exp()
        return -mean(power(1.0 - p, 2.0) * picked)

    err = finite_difference_check(loss_fn, {"w": w, "b": b})
    assert err < 1e-4


def test_backprop_quadratic_proximal_gradient_exact():
    theta = Tensor(np.array([3.0, -1.0, 2.0]), requires_grad=True)
    snapshot = np.array([1.0, 1.0, 1.0])
    mu = 0.02
    diff = theta - Tensor(snapshot)
    backward((diff * diff).sum() * (mu / 2.0))
    assert np.allclose(theta.grad, mu * (theta.data - snapshot), atol=1e-15)


# each operation with several parents: (function, parent shapes); the
# first parent of a fused node is its data input
MULTI_PARENT_OPS = {
    "add": (lambda a, b: a + b, [(3, 4), (4,)]),
    "sub": (lambda a, b: a - b, [(3, 4), (3, 1)]),
    "mul": (lambda a, b: a * b, [(3, 4), (4,)]),
    "truediv": (lambda a, b: a / b, [(3, 4), (1, 4)]),
    "matmul": (lambda a, b: a @ b, [(3, 4), (4, 2)]),
    "matmul_shared": (lambda a, b: a @ b, [(2, 3, 4), (4, 2)]),
    "layer_norm": (layer_norm, [(3, 5), (5,), (5,)]),
    "mlp_tail": (lambda x, g, b, w1, b1, w2, b2: mlp_tail(x, (g, b), (w1, b1), (w2, b2), 0.0, None),
                 [(3, 5), (5,), (5,), (5, 4), (4,), (4, 2), (2,)]),
}
FUSED_OPS = {"layer_norm", "mlp_tail"}


@pytest.mark.parametrize("op", sorted(MULTI_PARENT_OPS))
def test_closure_returns_none_for_a_constant_parent(op):
    # a Tensor operation skips any constant parent; a fused node skips only
    # a constant data input and computes its parameters' terms regardless,
    # since the program trains all of a head's parameters or none
    fn, shapes = MULTI_PARENT_OPS[op]
    rng = np.random.default_rng(53)
    arrays = [rng.uniform(0.5, 2.0, size=shape) for shape in shapes]

    def closure_terms(constant):
        leaves = [Tensor(a, requires_grad=i != constant) for i, a in enumerate(arrays)]
        out = fn(*leaves)
        upstream = np.random.default_rng(54).normal(size=out.shape)
        return [leaves.index(p) for p in out._parents], out._backward(upstream)

    which, full = closure_terms(None)
    for constant in range(len(arrays)):
        _, terms = closure_terms(constant)
        skipped = constant if op not in FUSED_OPS or constant == 0 else None
        for leaf, term, ref in zip(which, terms, full):
            if leaf == skipped:
                assert term is None
            else:
                assert np.array_equal(term, ref)


def test_backprop_rejects_nan_loss():
    x = Tensor(np.array([np.nan]), requires_grad=True)
    with pytest.raises(GradientError):
        backward(x.sum())


def test_backprop_rejects_a_non_scalar_loss():
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    with pytest.raises(ValueError, match=r"scalar loss, got shape \(2, 3\)"):
        backward(x * 2.0)
    assert x.grad is None


def test_backprop_reused_node_accumulates():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = x * x + x * 3.0
    backward(y.sum())
    assert np.allclose(x.grad, [2 * 2.0 + 3.0])


# ---------------------------------------------------------------------------
# clipping
# ---------------------------------------------------------------------------

def test_clip_halves_when_norm_is_twice_tau():
    tau = 1.0
    g = [np.array([0.0, 2.0]), np.array([0.0])]  # norm 2.0
    assert clip_global_norm(g, tau) == 0.5
    # the factor is returned, nothing is scaled in place
    assert np.array_equal(g[0], [0.0, 2.0])


def test_clip_leaves_small_gradients():
    g = [np.array([0.3, 0.4])]  # norm 0.5
    assert clip_global_norm(g, 1.0) == 1.0


def test_clip_zero_gradients_unchanged():
    g = [np.zeros(3)]
    assert clip_global_norm(g, 1.0) == 1.0


def test_clip_is_idempotent():
    # gradients scaled by the factor no longer exceed tau
    rng = np.random.default_rng(20)
    for _ in range(10):
        g = [rng.normal(size=5) * 10 for _ in range(3)]
        factor = clip_global_norm(g, 1.0)
        assert factor < 1.0
        assert clip_global_norm([a * factor for a in g], 1.0) == 1.0


def test_clip_counts_a_0d_gradient():
    for scalar in (np.array(3.0), np.float64(3.0)):
        assert math.isclose(clip_global_norm([scalar, np.array([4.0])], 1.0), 0.2)  # norm 5


# ---------------------------------------------------------------------------
# adam
# ---------------------------------------------------------------------------

def test_adam_zero_gradient_no_update():
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    p.grad = np.zeros(2)
    opt = Adam({"p": p}, lr=0.01)
    opt.step()
    assert np.array_equal(p.data, [1.0, 2.0])


def test_adam_first_step_magnitude_near_lr():
    rng = np.random.default_rng(21)
    p = Tensor(rng.normal(size=4), requires_grad=True)
    before = p.data.copy()
    g = rng.normal(size=4)
    p.grad = g.copy()
    opt = Adam({"p": p}, lr=0.001)
    opt.step()
    # first bias-corrected step is lr * g / (|g| + eps') per coordinate
    delta = before - p.data
    assert np.allclose(np.abs(delta), 0.001, rtol=1e-4)
    assert np.allclose(np.sign(delta), np.sign(g))


def test_adam_deterministic():
    rng = np.random.default_rng(22)
    init = rng.normal(size=3)
    grads = [rng.normal(size=3) for _ in range(5)]
    outs = []
    for _ in range(2):
        p = Tensor(init.copy(), requires_grad=True)
        opt = Adam({"p": p}, lr=0.01)
        for g in grads:
            p.grad = g.copy()
            opt.step()
        outs.append(p.data.copy())
    assert np.array_equal(outs[0], outs[1])


def assert_adam_is_the_textbook_formula(dtype):
    # Kingma & Ba (2014), Algorithm 1, written out with fresh arrays per step;
    # the constants are Python floats, which keep a float32 array float32
    rng = np.random.default_rng(29)
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.01
    assert (optim.BETA1, optim.BETA2, optim.EPS) == (b1, b2, eps)
    init = rng.normal(size=(3, 4)).astype(dtype)
    p = Tensor(init.copy(), requires_grad=True)
    opt = Adam({"p": p}, lr=lr)
    theta, m, v = init.copy(), np.zeros((3, 4), dtype), np.zeros((3, 4), dtype)
    for t in range(1, 6):
        g = rng.normal(size=(3, 4)).astype(dtype)
        p.grad = g.copy()
        opt.step()
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * (g * g)
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
        assert theta.dtype == dtype
        assert p.data.dtype == opt.m["p"].dtype == opt.v["p"].dtype == dtype
        assert np.array_equal(p.data, theta)
        assert np.array_equal(opt.m["p"], m) and np.array_equal(opt.v["p"], v)
        assert np.array_equal(p.grad, g)


def test_adam_matches_textbook_formula_bitwise():
    assert_adam_is_the_textbook_formula(np.float64)


def test_adam_over_float32_parameters_is_the_float32_textbook_formula_bitwise():
    assert_adam_is_the_textbook_formula(np.float32)


def test_adam_over_parameters_of_two_dtypes_raises():
    params = {"a": Tensor(np.ones(2, np.float32), requires_grad=True),
              "b": Tensor(np.ones(2), requires_grad=True)}
    with pytest.raises(ValueError, match=r"dtypes \['float32', 'float64'\]; they must share one"):
        Adam(params, lr=0.01)


def test_adam_first_step_gives_signed_zero_moments_as_the_textbook():
    # 0 * beta + (1 - beta) * (-0.0) is +0.0; the first step writes the
    # moments without reading them and must keep those bits
    b1, b2 = 0.9, 0.999
    g = np.array([-0.0, 0.0, -2.0, 3.0])
    p = Tensor(np.array([1.0, -1.0, 2.0, -2.0]), requires_grad=True)
    p.grad = g.copy()
    opt = Adam({"p": p}, lr=0.01)
    opt.step()
    m = b1 * np.zeros(4) + (1.0 - b1) * g
    v = b2 * np.zeros(4) + (1.0 - b2) * (g * g)
    assert not np.signbit(m[0]) and not np.signbit(v[0])
    assert np.array_equal(np.signbit(opt.m["p"]), np.signbit(m))
    assert np.array_equal(np.signbit(opt.v["p"]), np.signbit(v))
    assert opt.m["p"].tobytes() == m.tobytes() and opt.v["p"].tobytes() == v.tobytes()


def test_adam_leaves_a_parameter_without_gradient_untouched():
    idle = Tensor(np.array([1.0, -0.0, np.nan]), requires_grad=True)
    busy = Tensor(np.array([1.0]), requires_grad=True)
    before = idle.data.copy()
    opt = Adam({"idle": idle, "busy": busy}, lr=0.01)
    for _ in range(3):
        busy.grad = np.array([0.5])
        opt.step()
    assert opt.t == {"idle": 0, "busy": 3}
    assert idle.grad is None and idle.data.tobytes() == before.tobytes()


def test_adam_scales_a_0d_gradient_as_g_times_factor():
    # the clip factor reaches every gradient as Adam gathers it, a 0-d array
    # or a numpy scalar as much as any other
    for grad in (np.array(3.0), np.float64(3.0)):
        factor = clip_global_norm([grad, np.array([4.0])], 1.0)
        scaled = Tensor(np.array(0.5), requires_grad=True)
        scaled.grad = grad
        opt = Adam({"p": scaled}, lr=0.01)
        opt.step(scale=factor)
        oracle = PerArrayAdam({"p": np.array(0.5)}, lr=0.01)
        oracle.step({"p": grad * factor})
        assert scaled.data.tobytes() == oracle.params["p"].tobytes()
        assert opt.m["p"].tobytes() == oracle.m["p"].tobytes()
        assert opt.v["p"].tobytes() == oracle.v["p"].tobytes()
        assert opt.m["p"] != (1.0 - optim.BETA1) * grad + 0.0  # the factor was applied
        assert scaled.grad is grad and scaled.grad == 3.0


class PerArrayAdam:
    """Oracle: the Adam update one parameter array at a time, each gradient
    multiplied by the clip factor first, with the operations in the order of
    ``p -= lr * m_hat / (sqrt(v_hat) + eps)``."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = {k: np.array(v, dtype=np.float64) for k, v in params.items()}
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = {k: np.zeros_like(v) for k, v in self.params.items()}
        self.v = {k: np.zeros_like(v) for k, v in self.params.items()}
        self.t = {k: 0 for k in self.params}

    def step(self, grads, scale=1.0):
        b1, b2 = self.beta1, self.beta2
        for k in sorted(grads):
            g = np.array(grads[k], dtype=np.float64)
            if scale != 1.0:
                g *= scale
            self.t[k] += 1
            t, p, m, v = self.t[k], self.params[k], self.m[k], self.v[k]
            s1 = np.multiply(g, 1.0 - b1)
            if t == 1:
                m[...] = s1 + 0.0
            else:
                m *= b1
                m += s1
            s1 = np.multiply(g, g)
            s1 *= 1.0 - b2
            if t == 1:
                v[...] = s1 + 0.0
            else:
                v *= b2
                v += s1
            s1 = np.divide(m, 1.0 - b1**t)
            s1 *= self.lr
            s2 = np.divide(v, 1.0 - b2**t)
            s2 = np.sqrt(s2)
            s2 += self.eps
            s1 /= s2
            p -= s1


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_flat_adam_is_the_per_array_update_bitwise(data):
    # any shapes (0-d and empty included, and one parameter longer than a
    # chunk), any subset of parameters with a gradient at each step, so that
    # runs split on the step count, and any clip factor <= 1; the final step
    # may be the last, which writes no moment of a parameter at its step 1
    chunk = data.draw(st.sampled_from([optim.CHUNK, 3, 8]), label="chunk")
    shapes = data.draw(st.lists(array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
                                min_size=1, max_size=6), label="shapes")
    if data.draw(st.booleans(), label="long"):
        at = data.draw(st.integers(0, len(shapes)), label="at")
        shapes.insert(at, (chunk + data.draw(st.integers(1, 2 * chunk), label="extra"),))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    names = [f"p{i:02d}" for i in range(len(shapes))]
    init = {k: rng.normal(size=shape) for k, shape in zip(names, shapes)}
    oracle = PerArrayAdam(init, lr=0.01)
    original = optim.CHUNK
    optim.CHUNK = chunk
    try:
        # inserted in shuffled order: the flat state is laid out by name
        params = {names[i]: Tensor(init[names[i]].copy(), requires_grad=True)
                  for i in rng.permutation(len(names))}
        opt = Adam(params, lr=0.01)
        steps = data.draw(st.integers(1, 4), label="steps")
        ends_last = data.draw(st.booleans(), label="last")
        for step in range(steps):
            last = ends_last and step == steps - 1
            grads = {}
            for k in names:
                if data.draw(st.booleans()):
                    g = np.asarray(rng.normal(size=params[k].shape) * rng.choice([1e-3, 1.0, 1e3]))
                    g[rng.random(size=g.shape) < 0.2] = -0.0
                    # a 0-d gradient as an array or as a numpy scalar
                    grads[k] = g[()] if g.ndim == 0 and rng.random() < 0.5 else g
            scale = data.draw(st.one_of(st.just(1.0), st.floats(1e-6, 1.0)), label="scale")
            for k, p in params.items():
                p.grad = grads[k].copy() if k in grads else None
            opt.step(scale=scale, last=last)
            oracle.step(grads, scale)
            assert opt.t == oracle.t
            for k, p in params.items():
                assert p.data.shape == oracle.params[k].shape, k
                assert p.data.tobytes() == oracle.params[k].tobytes(), k
                if oracle.t[k] and not (last and k in grads and oracle.t[k] == 1):
                    assert opt.m[k].tobytes() == oracle.m[k].tobytes(), k
                    assert opt.v[k].tobytes() == oracle.v[k].tobytes(), k
                if k in grads:
                    assert p.grad.tobytes() == grads[k].tobytes(), k
    finally:
        optim.CHUNK = original


def test_adam_last_step_keeps_a_signed_zero_parameter():
    # -0.0 - (+0.0) is -0.0 but -0.0 - (-0.0) is +0.0: a step-1 moment kept
    # in scratch must still be written as s + 0.0, not as s
    results = []
    for last in (False, True):
        p = Tensor(np.array([-0.0, -0.0, 1.0]), requires_grad=True)
        p.grad = np.array([-0.0, 0.0, -0.0])
        Adam({"p": p}, lr=0.01).step(last=last)
        results.append(p.data.tobytes())
        assert np.signbit(p.data[:2]).all() and p.data[2] == 1.0
    assert results[0] == results[1]


def test_adam_last_step_at_step_one_writes_no_moment():
    # one step over runs longer than a chunk: theta is a plain step's, and
    # m and v keep what they held
    rng = np.random.default_rng(31)
    init = {"a": rng.normal(size=(3, 5)), "b": rng.normal(size=11), "c": np.array(0.5)}
    grads = {k: rng.normal(size=v.shape) for k, v in init.items()}
    original = optim.CHUNK
    optim.CHUNK = 4
    try:
        thetas = []
        for last in (False, True):
            params = {k: Tensor(v.copy(), requires_grad=True) for k, v in init.items()}
            for k, p in params.items():
                p.grad = grads[k].copy()
            opt = Adam(params, lr=0.01)
            for k in params:
                opt.m[k][...] = 7.25
                opt.v[k][...] = -3.5
            opt.step(scale=0.75, last=last)
            thetas.append(opt.theta.tobytes())
            for k in params:
                assert (opt.m[k] == 7.25).all() == last and (opt.v[k] == -3.5).all() == last, k
                assert params[k].grad.tobytes() == grads[k].tobytes(), k
        assert thetas[0] == thetas[1]
    finally:
        optim.CHUNK = original


def test_adam_step_after_the_last_raises():
    p = Tensor(np.zeros(3), requires_grad=True)
    opt = Adam({"p": p})
    p.grad = np.ones(3)
    opt.step()
    opt.step(last=True)
    with pytest.raises(RuntimeError, match="after the last step"):
        opt.step()
    assert opt.t == {"p": 2}


def test_adam_copies_its_parameters_into_one_flat_state():
    data = {"b": np.arange(6.0).reshape(2, 3), "a": np.array(7.0)}
    params = {k: Tensor(v, requires_grad=True) for k, v in data.items()}
    opt = Adam(params)
    # sorted-name order: a, then b
    assert np.array_equal(opt.theta, [7.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    for k, p in params.items():
        assert p.data is not data[k] and p.data.base is opt.theta
        assert p.data.shape == data[k].shape and opt.m[k].shape == data[k].shape
    params["b"].grad = np.ones((2, 3))
    opt.step()
    assert np.array_equal(data["b"], np.arange(6.0).reshape(2, 3))


def test_adam_rejects_a_gradient_of_the_wrong_size():
    p = Tensor(np.zeros(3), requires_grad=True)
    opt = Adam({"p": p})
    p.grad = np.ones(4)
    with pytest.raises(ValueError, match="gradient of 'p' has 4 elements, the parameter 3"):
        opt.step()


def test_adam_scratch_is_bounded_by_the_chunk():
    # construction plus one step allocate theta, m and v and two chunk-sized
    # scratch buffers, nothing parameter-sized besides
    p = Tensor(np.random.default_rng(3).normal(size=2**20), requires_grad=True)
    p.grad = np.ones(2**20)
    tracemalloc.start()
    try:
        opt = Adam({"p": p})
        opt.step(scale=0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    state = 3 * p.data.nbytes
    assert state <= peak <= state + 2 * 8 * optim.CHUNK + 64 * 1024
    assert opt.t == {"p": 1}


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def test_fd_check_on_square():
    x = Tensor(np.array([3.0]), requires_grad=True)
    err = finite_difference_check(lambda: (x * x).sum(), {"x": x})
    assert err < 1e-8


def test_fd_check_focal_loss_wrt_logits():
    rng = np.random.default_rng(23)
    z = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    labels = np.array([1, 0, 1])

    def loss_fn():
        logp = log_softmax(z, axis=-1)
        picked = logp[np.arange(3), labels]
        p = picked.exp()
        return -mean(power(1.0 - p, 2.0) * picked)

    assert finite_difference_check(loss_fn, {"z": z}) < 1e-4


def test_fd_check_layer_norm_wrt_gamma():
    rng = np.random.default_rng(24)
    gamma = Tensor(rng.normal(size=5), requires_grad=True)
    beta = Tensor(rng.normal(size=5), requires_grad=True)
    x = rng.normal(size=(2, 5))

    def loss_fn():
        return power(layer_norm(Tensor(x), gamma, beta), 2.0).sum()

    assert finite_difference_check(loss_fn, {"gamma": gamma, "beta": beta}) < 1e-4


# ---------------------------------------------------------------------------
# invariant sweeps
# ---------------------------------------------------------------------------

def test_primitive_gradients_over_twenty_seeds():
    # one shallow loss per layer primitive; dims <= 8, params from N(0, 0.1)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(3, 6))

        w = Tensor(rng.normal(scale=0.1, size=(6, 4)), requires_grad=True)
        b = Tensor(rng.normal(scale=0.1, size=4), requires_grad=True)
        err = finite_difference_check(
            lambda: power(gelu(affine(Tensor(x), w, b)), 2.0).sum(), {"w": w, "b": b}
        )
        assert err < 1e-4, f"affine/gelu seed {seed}: {err}"

        gamma = Tensor(1.0 + rng.normal(scale=0.1, size=6), requires_grad=True)
        beta = Tensor(rng.normal(scale=0.1, size=6), requires_grad=True)
        err = finite_difference_check(
            lambda: power(layer_norm(Tensor(x), gamma, beta), 2.0).sum(),
            {"gamma": gamma, "beta": beta},
        )
        assert err < 1e-4, f"layer_norm seed {seed}: {err}"

        z = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        err = finite_difference_check(
            lambda: power(log_softmax(z, axis=-1), 2.0).sum(), {"z": z}
        )
        assert err < 1e-4, f"log_softmax seed {seed}: {err}"

        seq = rng.normal(size=(1, 4, 3))
        lp = {k: Tensor(rng.normal(scale=0.1, size=shape), requires_grad=True)
              for k, shape in (("fwd.wx", (3, 8)), ("fwd.wh", (2, 8)), ("fwd.b", 8))}
        score = rng.normal(scale=0.1, size=2)
        # the backward direction from its own stream, so that the draws
        # after this check stay as they were
        brng = np.random.default_rng(1000 + seed)
        lp.update({k: Tensor(brng.normal(scale=0.1, size=shape), requires_grad=True)
                   for k, shape in (("bwd.wx", (3, 8)), ("bwd.wh", (2, 8)), ("bwd.b", 8))})
        score = Tensor(np.concatenate([score, brng.normal(scale=0.1, size=2)]),
                       requires_grad=True)

        def lstm_loss():
            states = bilstm_sequence([Tensor(seq)], [lp])
            pooled = attention_pool(states, score, np.ones((1, 4), dtype=bool))
            return power(pooled, 2.0).sum()

        err = finite_difference_check(lstm_loss, {**lp, "score": score})
        assert err < 1e-4, f"lstm/pool seed {seed}: {err}"

        table = Tensor(rng.normal(scale=0.1, size=(5, 3)), requires_grad=True)
        cw = {2: Tensor(rng.normal(scale=0.1, size=(2, 3, 2)), requires_grad=True)}
        cb = {2: Tensor(rng.normal(scale=0.1, size=2), requires_grad=True)}
        ids = rng.integers(0, 4, size=(1, 6))
        err = finite_difference_check(
            lambda: power(multiscale_conv_encode(ids, table, cw, cb, pad_id=4), 2.0).sum(),
            {"table": table, "cw": cw[2], "cb": cb[2]},
        )
        assert err < 1e-4, f"conv seed {seed}: {err}"

        # the url tail: weight-normalised hidden layer, cosine logits; its
        # input is data, as in the head
        names = ("gamma", "beta", "v", "g", "b", "w", "log_scale")
        tail = dict(zip(names, (Tensor(a, requires_grad=True)
                                for a in url_tail_arrays(rng, 3, 5, 4, 2)[1:])))
        err = finite_difference_check(
            lambda: power(url_tail(Tensor(x[:, :5]), *tail.values()), 2.0).sum(), tail
        )
        assert err < 1e-4, f"url tail seed {seed}: {err}"


def test_mhsa_gradients_over_twenty_seeds():
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        p = make_mhsa_params(rng, 4, 6)
        x = rng.normal(size=(1, 3, 4))
        err = finite_difference_check(
            lambda: power(mhsa_block(Tensor(x), p, n_heads=2), 2.0).sum(), p
        )
        assert err < 1e-4, f"mhsa seed {seed}: {err}"


def test_eval_forward_is_bitwise_deterministic():
    rng = np.random.default_rng(25)
    d, ff = 8, 16
    p = make_mhsa_params(rng, d, ff)
    x = rng.normal(size=(1, 5, d))
    a = mhsa_block(Tensor(x), p, n_heads=2, dropout_p=0.2).data
    b = mhsa_block(Tensor(x), p, n_heads=2, dropout_p=0.2, rng=None).data
    assert np.array_equal(a, b)


def test_dropout_eval_is_noop_and_train_scales():
    rng = np.random.default_rng(26)
    x = Tensor(np.ones((100, 10)))
    assert dropout(x, 0.2, None) is x
    y = dropout(x, 0.2, np.random.default_rng(0)).data
    kept = y[y > 0]
    assert np.allclose(kept, 1.0 / 0.8)
    assert abs(y.mean() - 1.0) < 0.05


@pytest.mark.parametrize("bad", [-1, 4])
def test_embedding_rejects_an_id_outside_the_table(bad):
    table = Tensor(np.zeros((4, 2)), requires_grad=True)
    with pytest.raises(ValueError, match="ids out of range for embedding table with 4 rows"):
        embedding(table, np.array([[0, bad]]))


def test_embedding_gradient_scatter_adds():
    table = Tensor(np.zeros((4, 2)), requires_grad=True)
    ids = np.array([1, 1, 3])
    out = embedding(table, ids)
    backward(out.sum())
    assert np.array_equal(table.grad, [[0, 0], [2, 2], [0, 0], [1, 1]])


def test_logsumexp_matches_numpy_reference():
    rng = np.random.default_rng(27)
    z = rng.normal(scale=10.0, size=(3, 5))
    # log_softmax(z) = z - logsumexp(z)
    out = (z - log_softmax(Tensor(z), axis=-1).data)[:, 0]
    ref = np.log(np.exp(z - z.max(axis=-1, keepdims=True)).sum(axis=-1)) + z.max(axis=-1)
    assert np.allclose(out, ref, atol=1e-12)


def test_concat_backward_splits():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    b = Tensor(np.ones((2, 3)), requires_grad=True)
    out = concat([a, b], axis=1)
    backward((out * Tensor(np.arange(10.0).reshape(2, 5))).sum())
    assert np.allclose(a.grad, [[0, 1], [5, 6]])
    assert np.allclose(b.grad, [[2, 3, 4], [7, 8, 9]])


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(28)
    z = rng.normal(scale=30, size=(4, 6))
    s = softmax(Tensor(z), axis=-1).data
    assert np.allclose(s.sum(axis=-1), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# table gradients
# ---------------------------------------------------------------------------

def test_table_looked_up_twice_accumulates_bitwise():
    rng = np.random.default_rng(32)
    init = rng.normal(size=(20, 4))
    a_ids, b_ids = rng.integers(0, 20, size=(3, 5)), rng.integers(0, 20, size=(2, 6))
    w = Tensor(rng.normal(size=4))
    grads = []
    for lookup in (embedding, lambda t, ids: t[ids]):  # bincount, then np.add.at scatter
        table = Tensor(init.copy(), requires_grad=True)
        a, b = lookup(table, a_ids), lookup(table, b_ids)
        backward((a * w).sum() + (b * b).sum())
        grads.append(table.grad)
    embedded, indexed = grads
    assert np.array_equal(embedded, indexed)


@pytest.mark.parametrize("a_shape", [(4, 5, 6), (2, 3, 5, 6)])
def test_shared_weight_gradient_matches_per_sample_sum(a_shape):
    rng = np.random.default_rng(35)
    x = Tensor(rng.normal(size=a_shape), requires_grad=True)
    w = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    c = rng.normal(size=a_shape[:-1] + (3,))
    backward(((x @ w) * Tensor(c)).sum())
    xs, cs = x.data.reshape(-1, a_shape[-2], 6), c.reshape(-1, a_shape[-2], 3)
    oracle = sum(xs[i].T @ cs[i] for i in range(len(xs)))
    assert w.grad.shape == (6, 3)
    assert np.allclose(w.grad, oracle, rtol=0.0, atol=1e-13 * np.abs(oracle).max())
    assert np.array_equal(x.grad, c @ w.data.T)


# the N-D activation a shared weight multiplies: laid out in memory as is,
# as a transposed view of its input, or as a strided slice of it. Each view
# is a (leaf shape, view) pair; the view works on a Tensor and on an ndarray.
SHARED_WEIGHT_LAYOUTS = {
    "contiguous": (lambda s: s, lambda t: t),
    "transposed": (lambda s: (s[1], s[0]) + s[2:], lambda t: t.swapaxes(0, 1)),
    "sliced": (lambda s: (s[0] + 2,) + s[1:-1] + (s[-1] + 1,),
               lambda t: t[1:-1, ..., 1:]),
}


@pytest.mark.parametrize("layout", sorted(SHARED_WEIGHT_LAYOUTS))
@pytest.mark.parametrize("shape", [(3, 5, 6), (2, 3, 5, 6)], ids=["3d", "4d"])
def test_shared_weight_matmul_matches_einsum(shape, layout):
    leaf_shape, view = SHARED_WEIGHT_LAYOUTS[layout]
    rng = np.random.default_rng(36)
    x = Tensor(rng.normal(size=leaf_shape(shape)), requires_grad=True)
    w = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    c = rng.normal(size=shape[:-1] + (4,))
    a = view(x)
    assert a.shape == shape
    out = a @ w
    tol = {"rtol": 0.0, "atol": 1e-12}
    assert out.shape == shape[:-1] + (4,)
    assert np.allclose(out.data, np.einsum("...d,dn->...n", a.data, w.data), **tol)

    backward((out * Tensor(c)).sum())
    x_oracle = np.zeros(x.shape)
    view(x_oracle)[...] += np.einsum("...n,dn->...d", c, w.data)
    assert np.allclose(x.grad, x_oracle, **tol)
    lead = "abc"[: len(shape) - 1]  # einsum sums only axes it names
    assert np.allclose(w.grad, np.einsum(f"{lead}d,{lead}n->dn", a.data, c), **tol)


@pytest.mark.parametrize("layout", sorted(SHARED_WEIGHT_LAYOUTS))
def test_shared_weight_matmul_finite_differences(layout):
    leaf_shape, view = SHARED_WEIGHT_LAYOUTS[layout]
    rng = np.random.default_rng(37)
    x = Tensor(rng.normal(size=leaf_shape((2, 3, 2, 4))), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    err = finite_difference_check(lambda: power(tanh(view(x) @ w), 2.0).sum(), {"x": x, "w": w})
    assert err < 1e-4


# ---------------------------------------------------------------------------
# single-node primitives against the compositions they replace
# ---------------------------------------------------------------------------
#
# Each oracle is the chain of Tensor operations the primitive used to be,
# one graph node per operation. The primitive runs the same numpy
# operations in the same order, forward and backward, so its output and
# its input gradients must be bitwise the oracle's.

def erf_node(x):
    """erf as its own node: the derivative is 2/sqrt(pi) * exp(-x^2)."""
    from scipy.special import erf

    return Tensor._node(
        erf(x.data), (x,), lambda g: (g * (2.0 / np.sqrt(np.pi)) * np.exp(-x.data * x.data),)
    )


def maximum_node(a, b):
    """Elementwise max; ties route the gradient to the first argument."""
    take_a = a.data >= b.data
    return Tensor._node(
        np.where(take_a, a.data, b.data), (a, b), lambda g: (g * take_a, g * ~take_a)
    )


def layer_norm_composition(x, gamma, beta, eps=1e-5):
    mu = mean(x, axis=-1, keepdims=True)
    centered = x - mu
    var = mean(centered * centered, axis=-1, keepdims=True)
    return centered / sqrt(var + eps) * gamma + beta


def log_softmax_composition(z, axis=-1):
    m = np.max(z.data, axis=axis, keepdims=True)
    lse = log((z - Tensor(m)).exp().sum(axis=axis, keepdims=True)) + Tensor(m)
    return z - lse


def gelu_composition(x):
    return x * (erf_node(x * (1.0 / np.sqrt(2.0))) + 1.0) * 0.5


def l2_normalize_composition(x, axis, floor):
    norm = sqrt((x * x).sum(axis=axis, keepdims=True))
    return x / maximum_node(norm, Tensor(floor))


def weight_norm_composition(v, g):
    """The url head's weight normalisation as it was built, six nodes."""
    col_norm = sqrt((v * v).sum(axis=0, keepdims=True))
    return v * (g.reshape(1, -1) / col_norm)


def cosine_logits_composition(f, w, log_scale, floor):
    """The url head's cosine classifier as it was built, five nodes."""
    return (l2_normalize(f, 1, floor) @ l2_normalize(w, 0, floor)) * log_scale.exp()


def mlp_tail_composition(x, ln, fc, out, p, rng, cosine_floor=None):
    """``mlp_tail`` as the chain of primitives it fuses, one node or
    composition each. Layer norm, affine, GELU and dropout are looked up in
    ``layers`` when called, so a test that swaps one there for its
    composition swaps it here too; the url tail's weight norm and cosine
    logits are their compositions."""
    h = layers.layer_norm(x, *ln)
    if len(fc) == 3:
        h = h @ weight_norm_composition(fc[0], fc[1]) + fc[2]
    else:
        h = layers.affine(h, *fc)
    f = layers.dropout(layers.gelu(h), p, rng)
    if cosine_floor is None:
        return layers.affine(f, *out)
    return cosine_logits_composition(f, *out, cosine_floor)


def url_tail(x, gamma, beta, v, g, b, w, log_scale, p=0.0, rng=None, tail=mlp_tail):
    """The url expert's tail on its eight inputs: layer norm, an affine map
    of weight ``v * (g / ||v||)``, GELU, dropout and cosine logits."""
    return tail(x, (gamma, beta), (v, g, b), (w, log_scale), p, rng, cosine_floor=1e-12)


def url_tail_composition(*inputs, **keywords):
    return url_tail(*inputs, **keywords, tail=mlp_tail_composition)


def url_tail_arrays(rng, batch, d, hidden, classes):
    """Inputs of ``url_tail``: x [batch, d], layer norm gain and bias, v
    [d, hidden], gain g and bias b, class weights [hidden, classes] and a
    0-d log scale."""
    return [rng.normal(scale=rng.uniform(0.1, 10.0), size=(batch, d)),
            1.0 + rng.normal(scale=0.3, size=d), rng.normal(scale=0.3, size=d),
            rng.normal(scale=rng.uniform(0.1, 10.0), size=(d, hidden)),
            1.0 + rng.normal(scale=0.3, size=hidden), rng.normal(scale=0.3, size=hidden),
            rng.normal(size=(hidden, classes)), np.array(rng.normal(scale=2.0))]


def forward_and_grads(fn, arrays, seed=0):
    """``fn``'s output on leaves holding ``arrays`` and the leaves' gradients
    under a random upstream gradient drawn from ``seed``."""
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = fn(*leaves)
    upstream = np.random.default_rng(seed).normal(size=out.shape)
    backward((out * Tensor(upstream)).sum())
    return out.data, [leaf.grad for leaf in leaves]


def assert_same_outputs(got, ref):
    (out, grads), (ref_out, ref_grads) = got, ref
    assert np.array_equal(out, ref_out), "forward is not bitwise the composition's"
    for i, (g, r) in enumerate(zip(grads, ref_grads)):
        assert np.all(np.isfinite(g)), f"input {i}: non-finite gradient"
        assert np.array_equal(g, r), f"input {i}: gradient is not bitwise the composition's"


def assert_matches_composition(fused, oracle, arrays, seed=0):
    assert_same_outputs(forward_and_grads(fused, arrays, seed), forward_and_grads(oracle, arrays, seed))


def ln_arrays(rng, shape):
    d = shape[-1]
    return [rng.normal(scale=3.0, size=shape), 1.0 + rng.normal(scale=0.3, size=d),
            rng.normal(scale=0.3, size=d)]


@pytest.mark.parametrize("shape", [(4, 7), (2, 3, 7)], ids=["2d", "3d"])
def test_layer_norm_node_matches_composition(shape):
    rng = np.random.default_rng(40)
    for seed in range(5):
        assert_matches_composition(layer_norm, layer_norm_composition, ln_arrays(rng, shape), seed)


def test_layer_norm_node_constant_row_matches_composition():
    # variance 0: the normalised row is 0 and the gradient is the centered
    # upstream gradient over sqrt(eps)
    rng = np.random.default_rng(41)
    arrays = ln_arrays(rng, (3, 6))
    arrays[0][1] = 2.5
    assert_matches_composition(layer_norm, layer_norm_composition, arrays)
    out, _ = forward_and_grads(layer_norm, arrays)
    assert np.array_equal(out[1], arrays[2])


@pytest.mark.parametrize("shape", [(5, 3), (2, 4, 6)], ids=["2d", "3d"])
@pytest.mark.parametrize("axis", [-1, 0])
def test_log_softmax_node_matches_composition(shape, axis):
    rng = np.random.default_rng(42)
    for seed in range(5):
        z = rng.normal(scale=rng.uniform(0.1, 30.0), size=shape)
        assert_matches_composition(
            lambda t: log_softmax(t, axis=axis),
            lambda t: log_softmax_composition(t, axis=axis), [z], seed,
        )


def test_log_softmax_node_masked_row_matches_composition():
    rng = np.random.default_rng(43)
    z = rng.normal(size=(3, 5))
    z[0, 1:4] += layers.MASK_OFFSET
    z[2] += layers.MASK_OFFSET  # every position masked
    assert_matches_composition(log_softmax, log_softmax_composition, [z])


def test_attention_pool_masked_rows_match_composition(monkeypatch):
    # attention_pool's softmax reaches log_softmax through the layers module
    rng = np.random.default_rng(44)
    states = rng.normal(size=(3, 5, 4))
    score = rng.normal(size=4)
    mask = np.array([[True, False, True, True, False], [False] * 5, [True] * 5])

    def pool(s, v):
        return attention_pool(s, v, mask)

    got = forward_and_grads(pool, [states, score])
    monkeypatch.setattr(layers, "log_softmax", log_softmax_composition)
    assert_same_outputs(got, forward_and_grads(pool, [states, score]))
    d_states = got[1][0]
    assert np.all(d_states[0, [1, 4]] == 0.0) and np.all(d_states[1] == 0.0)


@pytest.mark.parametrize("shape", [(4, 9), (2, 3, 5)], ids=["2d", "3d"])
def test_gelu_node_matches_composition(shape):
    rng = np.random.default_rng(45)
    for seed in range(5):
        x = rng.normal(scale=rng.uniform(0.5, 6.0), size=shape)
        assert_matches_composition(gelu, gelu_composition, [x], seed)


@pytest.mark.parametrize("shape,axis", [((4, 6), 1), ((6, 3), 0), ((2, 3, 5), -1)],
                         ids=["rows", "columns", "3d"])
def test_l2_normalize_node_matches_composition(shape, axis):
    rng = np.random.default_rng(46)
    for seed in range(5):
        x = rng.normal(scale=rng.uniform(0.1, 10.0), size=shape)
        assert_matches_composition(
            lambda t: l2_normalize(t, axis, 1e-12),
            lambda t: l2_normalize_composition(t, axis, 1e-12), [x], seed,
        )


def test_l2_normalize_below_floor_matches_composition():
    # row 1 has norm ~3e-14, below the floor: it is divided by the floor
    rng = np.random.default_rng(47)
    x = rng.normal(size=(3, 4))
    x[1] *= 1e-14
    assert_matches_composition(
        lambda t: l2_normalize(t, 1, 1e-12), lambda t: l2_normalize_composition(t, 1, 1e-12), [x]
    )
    out = l2_normalize(Tensor(x), 1, 1e-12).data
    assert np.array_equal(out[1], x[1] / 1e-12)


def test_l2_normalize_zero_vector_gradient_is_plain_scaling():
    # the composition's sqrt backward gives 0/0 here; the floor's
    # derivative is the 1/floor scaling alone
    x = Tensor(np.zeros((2, 3)), requires_grad=True)
    upstream = np.arange(6.0).reshape(2, 3)
    out = l2_normalize(x, 1, 1e-12)
    backward((out * Tensor(upstream)).sum())
    assert np.array_equal(out.data, np.zeros((2, 3)))
    assert np.array_equal(x.grad, upstream / 1e-12)


def random_shape(rng, ndim):
    return tuple(int(n) for n in rng.integers(1, 10, size=ndim))


def test_url_tail_matches_composition():
    # the weight norm and the cosine logits inside the url tail, over
    # random widths
    rng = np.random.default_rng(48)
    for seed in range(12):
        arrays = url_tail_arrays(rng, *random_shape(rng, 4))
        assert_matches_composition(url_tail, url_tail_composition, arrays, seed)


def test_weight_norm_node_matches_composition():
    # the weight-normalised hidden layer alone: an mlp_tail with (v, g, b)
    # and an affine output, over random widths
    def tail(fn):
        return lambda x, gamma, beta, v, g, b, w, c: fn(
            x, (gamma, beta), (v, g, b), (w, c), 0.0, None)

    rng = np.random.default_rng(30)
    for seed in range(12):
        batch, d, hidden, classes = random_shape(rng, 4)
        arrays = url_tail_arrays(rng, batch, d, hidden, classes)[:7] + [rng.normal(size=classes)]
        assert_matches_composition(tail(mlp_tail), tail(mlp_tail_composition), arrays, seed)


def test_cosine_logits_node_matches_composition():
    # the cosine logits alone: an mlp_tail with an affine hidden layer and
    # (w, log_scale) as its output map, over random widths
    def tail(fn):
        return lambda x, gamma, beta, w1, b1, w, log_scale: fn(
            x, (gamma, beta), (w1, b1), (w, log_scale), 0.0, None, cosine_floor=1e-12)

    rng = np.random.default_rng(50)
    for seed in range(12):
        x, gamma, beta, w1, _, b1, w, log_scale = url_tail_arrays(rng, *random_shape(rng, 4))
        arrays = [x, gamma, beta, w1, b1, w, log_scale]
        assert_matches_composition(tail(mlp_tail), tail(mlp_tail_composition), arrays, seed)


def seeded(out: Tensor, upstream: np.ndarray) -> Tensor:
    """A finite 0-d node that feeds ``upstream`` into ``out``, so that
    ``backward`` runs through an output holding NaN."""
    return Tensor._node(np.zeros(()), (out,), lambda g: (upstream,))


def test_weight_norm_zero_column_matches_composition():
    # column 1 of v has norm 0: g / 0 and 0 * inf give NaN in the url tail
    # and in its composition alike, forward and backward; through the
    # cosine's row norms the NaN hidden unit reaches every logit
    rng = np.random.default_rng(49)
    arrays = url_tail_arrays(rng, 5, 4, 3, 2)
    arrays[3][:, 1] = 0.0
    upstream = rng.normal(size=(5, 2))
    results = []
    for fn in (url_tail, url_tail_composition):
        leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        with np.errstate(divide="ignore", invalid="ignore"):
            out = fn(*leaves)
            backward(seeded(out, upstream))
        results.append([out.data] + [leaf.grad for leaf in leaves])
    for got, ref in zip(*results):
        assert np.array_equal(got, ref, equal_nan=True)
    out, d_v = results[0][0], results[0][4]
    assert np.isnan(out).all() and np.isnan(d_v[:, 1]).all()
    arrays[3][:, 1] = 1.0
    assert np.isfinite(url_tail(*map(Tensor, arrays)).data).all()


def test_cosine_logits_below_floor_matches_composition():
    # in the url tail, the feature rows that dropout zeroes (norm 0) and
    # class column 1 (norm ~1e-15) are below the floor and divided by it
    rng = np.random.default_rng(51)
    arrays = url_tail_arrays(rng, 8, 5, 2, 3)
    w = arrays[6].copy()
    arrays[6][:, 1] *= 1e-15

    def dropped(tail):
        return lambda *t: tail(*t, p=0.5, rng=np.random.default_rng(9))

    assert_matches_composition(dropped(url_tail), dropped(url_tail_composition), arrays)
    out = dropped(url_tail)(*map(Tensor, arrays)).data
    zero_rows = (out == 0.0).all(axis=1)
    assert zero_rows.any() and not zero_rows.all()
    # against the same tail with column 1 at full size, divided by its norm
    full = dropped(url_tail)(*map(Tensor, arrays[:6]), Tensor(w), Tensor(arrays[7])).data
    norm = np.sqrt((w[:, 1] * w[:, 1]).sum())
    assert np.allclose(out[:, 1], full[:, 1] * (norm * 1e-15 / 1e-12), rtol=1e-10, atol=0)
    assert np.allclose(out[:, [0, 2]], full[:, [0, 2]], rtol=1e-14, atol=0)


def test_cosine_logits_scale_gradient_is_a_0d_array():
    # clip_global_norm takes only ndarray gradients, 0-d included
    rng = np.random.default_rng(52)
    leaves = [Tensor(a, requires_grad=True) for a in url_tail_arrays(rng, 3, 4, 3, 2)]
    backward(url_tail(*leaves).sum())
    assert type(leaves[7].grad) is np.ndarray and leaves[7].grad.shape == ()


@pytest.mark.parametrize("op,constant", [("mlp_tail", {0, 1, 2, 3, 4}), ("url_tail", {0, 1, 2, 3, 4, 5}),
                                         ("url_tail", {3, 4})],
                         ids=["mlp_tail-only-output-map", "url_tail-only-output-map", "url_tail-v-and-g"])
def test_tail_closure_returns_none_for_constant_inputs(op, constant):
    # constant parameters change no term of the tail: with the input, layer
    # norm and hidden layer all constant, or a url tail's v and g, only a
    # constant input x gets None, and every other term is the one
    # all-trained inputs get
    fn, shapes = (MULTI_PARENT_OPS["mlp_tail"] if op == "mlp_tail" else
                  (url_tail, [(3, 5), (5,), (5,), (5, 4), (4,), (4,), (4, 2), ()]))
    rng = np.random.default_rng(55)
    arrays = [rng.uniform(0.5, 2.0, size=shape) for shape in shapes]

    def closure_terms(constant):
        leaves = [Tensor(a, requires_grad=i not in constant) for i, a in enumerate(arrays)]
        out = fn(*leaves)
        upstream = np.random.default_rng(56).normal(size=out.shape)
        return [leaves.index(p) for p in out._parents], out._backward(upstream)

    which, full = closure_terms(set())
    _, terms = closure_terms(constant)
    for leaf, term, ref in zip(which, terms, full):
        if leaf == 0 and leaf in constant:
            assert term is None
        else:
            assert np.array_equal(term, ref)


def test_single_node_primitives_finite_differences():
    for seed in range(5):
        rng = np.random.default_rng(60 + seed)
        x = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
        gamma = Tensor(1.0 + rng.normal(scale=0.3, size=5), requires_grad=True)
        beta = Tensor(rng.normal(scale=0.3, size=5), requires_grad=True)
        c = Tensor(rng.normal(size=(2, 3, 5)))
        losses = {
            "layer_norm": (lambda: (layer_norm(x, gamma, beta) * c).sum(),
                           {"x": x, "gamma": gamma, "beta": beta}),
            "gelu": (lambda: (gelu(x) * c).sum(), {"x": x}),
            "log_softmax": (lambda: (log_softmax(x, axis=1) * c).sum(), {"x": x}),
            "l2_normalize": (lambda: (l2_normalize(x, 2, 1e-12) * c).sum(), {"x": x}),
        }
        for name, (loss_fn, params) in losses.items():
            err = finite_difference_check(loss_fn, params)
            assert err < 1e-4, f"{name} seed {seed}: {err}"


# ---------------------------------------------------------------------------
# tooling
# ---------------------------------------------------------------------------

def test_every_numerics_export_is_used_in_the_program():
    # a primitive that only the tests call is a second implementation to
    # keep in step. A use is a name, an attribute or an import in the
    # syntax tree of a module other than numerics/__init__.py, so neither a
    # docstring mention, an ``__all__`` string nor the name's own def counts
    import ast
    from pathlib import Path

    import fedphish
    import fedphish.numerics

    root = Path(fedphish.__file__).parent
    used = set()
    for path in root.rglob("*.py"):
        if path == root / "numerics" / "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rpartition(".")[2])
    assert sorted(set(fedphish.numerics.__all__) - used) == []
