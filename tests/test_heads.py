"""The four expert heads, their parameter tables, their losses, and the
gated fusion."""

import hashlib
import math

import numpy as np
import pytest
from test_numerics import (
    gelu_composition,
    layer_norm_composition,
    log_softmax_composition,
    mean,
    mlp_tail_composition,
    power,
)

import fedphish.federation
import fedphish.heads
from fedphish.federation import batch_loss, proximal_term
from fedphish.heads import (
    DROPOUT,
    FUSION_PREFIX,
    HTML_PREFIX,
    IMAGE_PREFIX,
    URL_PREFIX,
    FusionHead,
    HtmlHead,
    ImageHead,
    ModelSpec,
    TABLE_OF_STREAM,
    UrlHead,
    _stats_columns,
    _take,
    draw_params,
    focal_loss,
)
from fedphish.numerics import (
    Tensor,
    backward,
    finite_difference_check,
    layers,
    mlp_tail,
    zero_grads,
)

LN2 = math.log(2.0)


def tensors(arrays):
    """Trainable tensors over the arrays of a parameter map."""
    return {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}


def head_params(head, rng):
    """One head's parameters alone, drawn from ``rng``, as tensors."""
    return tensors(draw_params(head.param_specs(), rng))


def desk_params(seed=0):
    spec = ModelSpec.desk()
    return spec, tensors(spec.init_params(seed))


# ---------------------------------------------------------------------------
# parameter tables
# ---------------------------------------------------------------------------

# sha256 over init_params(0), in sorted name order: each name and shape, then
# the little-endian float64 bytes. Taken from the per-head draw code that
# the parameter tables replaced, so every checkpoint keeps its bits.
DRAW_DIGESTS = {
    "paper": "30f9b9e18ad893822171a41123bc11160b3e056ce89de50471c1126049f6d4fe",
    "desk": "eea1ff78619344f69a313b187e04f9db298d01d677f9eefe9ce800f3a4c22d5b",
    "desk_pages": "6977511190f9f12c63f564568d5d6860bdc042abff293437a1b80a5993813e96",
}


@pytest.mark.parametrize("profile", sorted(DRAW_DIGESTS))
def test_init_params_draws_are_pinned_and_shaped_by_the_table(profile):
    spec = getattr(ModelSpec, profile)()
    params = spec.init_params(0)
    digest = hashlib.sha256()
    for name, arr in params.items():
        assert type(arr) is np.ndarray and arr.dtype == np.float64, name
        digest.update(f"{name}{arr.shape}".encode())
        digest.update(np.ascontiguousarray(arr, dtype="<f8"))
    assert digest.hexdigest() == DRAW_DIGESTS[profile]
    shapes = spec.param_shapes()
    assert list(shapes.items()) == [(name, arr.shape) for name, arr in params.items()]
    # a head is its settings: heads() builds nothing, it hands out the spec's
    # own heads and the one fusion head every model shares
    heads = spec.heads()
    assert list(heads) == ["image", "html", "url", "fusion"]
    assert heads["image"] is spec.image
    assert heads["html"] is spec.html
    assert heads["url"] is spec.url
    assert heads["fusion"] is ModelSpec.desk().heads()["fusion"]


# ---------------------------------------------------------------------------
# image head
# ---------------------------------------------------------------------------

def test_image_summary_tokens_single_token():
    head = ImageHead(d_model=4, n_heads=2, ff_dim=4, classifier_hidden=4)
    x = Tensor(np.array([[[1.0, -2.0, 3.0, 0.5]]]))
    out = head.summary_tokens(x).data
    assert out.shape == (1, 3, 4)
    assert np.array_equal(out[0, 0], x.data[0, 0])
    assert np.array_equal(out[0, 1], x.data[0, 0])


def test_image_head_permutation_invariant():
    spec, params = desk_params()
    head = spec.heads()["image"]
    rng = np.random.default_rng(1)
    x = rng.normal(size=(1, 6, 16))
    base = head.forward(params, {"x": x}).data
    for _ in range(4):
        perm = rng.permutation(6)
        assert np.allclose(head.forward(params, {"x": x[:, perm]}).data, base, atol=1e-10)


@pytest.mark.parametrize("L", [1, 16, 64])
def test_image_head_output_shape(L):
    spec, params = desk_params()
    head = spec.heads()["image"]
    x = np.random.default_rng(2).normal(size=(3, L, 16))
    assert head.forward(params, {"x": x}).shape == (3, 2)


def test_image_head_rejects_empty_sequence():
    spec, params = desk_params()
    with pytest.raises(ValueError):
        spec.heads()["image"].forward(params, {"x": np.zeros((1, 0, 16))})


def test_image_config_rejects_bad_head_count():
    with pytest.raises(ValueError, match="d_model 10 not divisible by 4 heads"):
        ImageHead(d_model=10, n_heads=4)


# ---------------------------------------------------------------------------
# html head, with an independent scalar reimplementation as oracle
# ---------------------------------------------------------------------------

def html_head_oracle(params, cfg, char_ids, word_ids, dom_ids):
    """Plain-numpy, non-batched recomputation of the html head in eval mode."""

    def p(name):
        return params[HTML_PREFIX + name].data

    def erf_gelu(x):
        from scipy.special import erf
        return x * 0.5 * (1.0 + erf(x / math.sqrt(2.0)))

    def layernorm(x, gamma, beta, eps=1e-5):
        mu = x.mean()
        var = ((x - mu) ** 2).mean()
        return (x - mu) / math.sqrt(var + eps) * gamma + beta

    # char branch
    emb = p("char.embed")[char_ids]
    feats = []
    for k in cfg.conv_sizes:
        w, b = p(f"char.conv{k}.w"), p(f"char.conv{k}.b")
        best = np.full(cfg.conv_filters, -np.inf)
        for s in range(len(char_ids) - k + 1):
            window = emb[s : s + k]
            for f in range(cfg.conv_filters):
                acc = b[f]
                for j in range(k):
                    acc += float(window[j] @ w[j, :, f])
                best[f] = max(best[f], max(acc, 0.0))
        feats.append(best)
    char_feat = np.concatenate(feats) @ p("char.fc.w") + p("char.fc.b")

    def lstm_dir(x_seq, wx, wh, b, reverse):
        hidden = wh.shape[0]
        h = np.zeros(hidden)
        c = np.zeros(hidden)
        order = range(len(x_seq) - 1, -1, -1) if reverse else range(len(x_seq))
        states = [None] * len(x_seq)
        for t in order:
            z = x_seq[t] @ wx + h @ wh + b
            i = 1.0 / (1.0 + np.exp(-z[0 * hidden : 1 * hidden]))
            f = 1.0 / (1.0 + np.exp(-z[1 * hidden : 2 * hidden]))
            g = np.tanh(z[2 * hidden : 3 * hidden])
            o = 1.0 / (1.0 + np.exp(-z[3 * hidden : 4 * hidden]))
            c = f * c + i * g
            h = o * np.tanh(c)
            states[t] = h
        return np.stack(states)

    def recurrent(branch, ids, pad):
        x_seq = p(f"{branch}.embed")[ids]
        fwd = lstm_dir(x_seq, p(f"{branch}.fwd.wx"), p(f"{branch}.fwd.wh"), p(f"{branch}.fwd.b"), False)
        bwd = lstm_dir(x_seq, p(f"{branch}.bwd.wx"), p(f"{branch}.bwd.wh"), p(f"{branch}.bwd.b"), True)
        states = np.concatenate([fwd, bwd], axis=1)
        scores = states @ p(f"{branch}.score")
        valid = ids != pad
        if not valid.any():
            return np.zeros(states.shape[1])
        masked = np.where(valid, scores, -np.inf)
        e = np.exp(masked - masked[valid].max())
        weights = e / e.sum()
        return weights @ states

    word_feat = recurrent("word", word_ids, cfg.word_vocab - 1)
    dom_feat = recurrent("dom", dom_ids, cfg.dom_vocab - 1)

    feat = np.concatenate([char_feat, word_feat, dom_feat])
    h = layernorm(feat, p("cls.ln.gamma"), p("cls.ln.beta"))
    h = erf_gelu(h @ p("cls.fc1.w") + p("cls.fc1.b"))
    return h @ p("cls.fc2.w") + p("cls.fc2.b")


def test_html_head_matches_scalar_oracle():
    spec, params = desk_params(seed=3)
    head = spec.heads()["html"]
    cfg = spec.html
    rng = np.random.default_rng(4)
    for _ in range(3):
        char = rng.integers(0, 33, size=32)
        word = rng.integers(0, 17, size=8)
        dom = rng.integers(0, 9, size=8)
        got = head.forward(params, {"char": char[None], "word": word[None], "dom": dom[None]}).data[0]
        ref = html_head_oracle(params, cfg, char, word, dom)
        assert np.allclose(got, ref, atol=1e-9)


def test_html_head_all_pad_streams_finite_and_deterministic():
    spec, params = desk_params(seed=5)
    head = spec.heads()["html"]
    cfg = spec.html
    char = np.full((1, 32), cfg.char_vocab - 1)
    word = np.full((1, 8), cfg.word_vocab - 1)
    dom = np.full((1, 8), cfg.dom_vocab - 1)
    batch = {"char": char, "word": word, "dom": dom}
    a = head.forward(params, batch).data
    b = head.forward(params, batch).data
    assert np.all(np.isfinite(a))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("char_len", [2, 32])
def test_html_head_compact_tables_give_the_full_logits(char_len):
    # each table cut to the rows the streams name plus PAD, the ids mapped
    # to positions in it; 2 chars are fewer than the largest conv kernel,
    # so the encoder pads them with the compact PAD id
    spec, params = desk_params(seed=7)
    head = spec.heads()["html"]
    rng = np.random.default_rng(8)
    streams = {}
    for stream, length in (("char", char_len), ("word", 8), ("dom", 8)):
        pad = params[TABLE_OF_STREAM[stream]].shape[0] - 1
        ids = 2 * rng.integers(0, pad // 2, size=(3, length))  # even ids: a strict subset
        ids[0, length // 2:] = pad  # a padded page
        ids[2] = pad  # a page that is all padding
        streams[stream] = ids
    compact, mapped = dict(params), {}
    for stream, ids in streams.items():
        name = TABLE_OF_STREAM[stream]
        rows = np.union1d(ids, [params[name].shape[0] - 1])
        assert rows.size < params[name].shape[0]
        compact[name] = Tensor(params[name].data[rows])
        mapped[stream] = np.searchsorted(rows, ids)
    full = head.forward(params, streams).data
    got = head.forward(compact, mapped).data
    assert np.array_equal(got, full)


def test_html_head_identical_streams_identical_logits():
    # pages that differ only beyond the char truncation point, with equal
    # word/dom streams, are indistinguishable to the head
    from fedphish.preproc import PreprocConfig, preprocess

    pcfg = PreprocConfig(char_len=64, word_len=16, dom_len=8, word_buckets=16, dom_buckets=8)
    head = HtmlHead(
        char_vocab=257, char_embed=4, conv_sizes=(2, 3), conv_filters=2, char_fc=8,
        word_vocab=17, word_embed=4, dom_vocab=9, dom_embed=4, lstm_hidden=3,
        classifier_hidden=8,
    )
    rng = np.random.default_rng(6)
    params = head_params(head, rng)
    base = "<p>pay now</p><script>" + "a" * 64
    s1 = preprocess(base + "AAA</script>", pcfg)
    s2 = preprocess(base + "BBB</script>", pcfg)
    assert np.array_equal(s1["char"], s2["char"])
    assert np.array_equal(s1["word"], s2["word"])
    l1, l2 = (head.forward(params, {key: ids[None] for key, ids in s.items()}).data
              for s in (s1, s2))
    assert np.array_equal(l1, l2)


def test_paper_tables_hold_the_default_preprocessed_ids_plus_pad():
    # a table's last row is its stream's PAD id, the largest id the
    # preprocessor emits; the paper's sizes stay what they were
    from fedphish.preproc import CHAR_PAD, PreprocConfig

    html, pcfg = ModelSpec.paper().html, PreprocConfig()
    assert (html.char_vocab, html.word_vocab, html.dom_vocab) == (
        CHAR_PAD + 1, pcfg.word_buckets + 1, pcfg.dom_buckets + 1) == (257, 131072, 8191)


# ---------------------------------------------------------------------------
# url head
# ---------------------------------------------------------------------------

def test_url_head_cosine_extremes():
    head = UrlHead(in_dim=6, hidden=4)
    params = head_params(head, np.random.default_rng(7))
    x = np.random.default_rng(8).normal(size=(1, 6))

    # recompute the feature f with the head's own pre-classifier pipeline,
    # then plant class weights parallel and orthogonal to it
    from fedphish.numerics import affine, gelu, layer_norm

    h = layer_norm(Tensor(x), params[URL_PREFIX + "ln.gamma"], params[URL_PREFIX + "ln.beta"])
    v = params[URL_PREFIX + "fc.v"]
    col_norm = np.sqrt((v.data**2).sum(axis=0))
    w = v.data * (params[URL_PREFIX + "fc.g"].data / col_norm)
    f = gelu(Tensor(h.data @ w) + params[URL_PREFIX + "fc.b"]).data[0]

    ortho = np.zeros_like(f)
    ortho[0], ortho[1] = f[1], -f[0]  # orthogonal in the first two coords
    params[URL_PREFIX + "cls.w"] = Tensor(np.stack([f, ortho], axis=1), requires_grad=True)
    logits = head.forward(params, {"x": x}).data
    assert np.allclose(logits, [[10.0, 0.0]], atol=1e-9)


def test_url_head_logits_bounded_by_scale():
    head = UrlHead(in_dim=16, hidden=8)
    params = head_params(head, np.random.default_rng(9))
    rng = np.random.default_rng(10)
    scale = float(np.exp(params[URL_PREFIX + "cls.log_scale"].data))
    for _ in range(20):
        logits = head.forward(params, {"x": rng.normal(scale=5.0, size=(1, 16))}).data
        assert np.abs(logits).max() <= scale + 1e-12


def test_url_head_input_scale_removed_by_layer_norm():
    head = UrlHead(in_dim=16, hidden=8)
    params = head_params(head, np.random.default_rng(11))  # gamma=1, beta=0 at init
    x = np.random.default_rng(12).normal(size=(1, 16))
    a = head.forward(params, {"x": x}).data
    b = head.forward(params, {"x": 5.0 * x}).data
    # the layer-norm eps is the only scale leak
    assert np.allclose(a, b, atol=1e-3)


def test_url_head_zero_feature_guard():
    head = UrlHead(in_dim=4, hidden=3)
    params = head_params(head, np.random.default_rng(13))
    params[URL_PREFIX + "fc.g"] = Tensor(np.zeros(3), requires_grad=True)
    params[URL_PREFIX + "fc.b"] = Tensor(np.zeros(3), requires_grad=True)
    logits = head.forward(params, {"x": np.ones((1, 4))}).data
    assert np.allclose(logits, 0.0)
    assert np.all(np.isfinite(logits))


# ---------------------------------------------------------------------------
# branch stats
# ---------------------------------------------------------------------------

def branch_stats(logits, temperature):
    """(margin, entropy) of one branch, as the fusion gate computes them."""
    margin, entropy = _stats_columns(Tensor(np.array([logits]) / temperature))
    return margin.data.item(), entropy.data.item()


def test_branch_stats_uniform():
    margin, entropy = branch_stats([0.0, 0.0], 1.0)
    assert margin == 0.0
    assert abs(entropy - LN2) < 1e-12


def test_branch_stats_margin():
    margin, _ = branch_stats([2.0, -1.0], 1.0)
    assert abs(margin - 3.0) < 1e-12


def test_branch_stats_temperature_softens():
    cold = branch_stats([2.0, -1.0], 1.0)
    warm = branch_stats([2.0, -1.0], 3.0)
    assert abs(warm[0] - 1.0) < 1e-12
    # hand oracle: entropy of sigmoid(+-margin) distribution
    def entropy_of_margin(m):
        p = 1.0 / (1.0 + math.exp(-m))
        return -(p * math.log(p) + (1 - p) * math.log(1 - p))

    assert abs(cold[1] - entropy_of_margin(3.0)) < 1e-12
    assert abs(warm[1] - entropy_of_margin(1.0)) < 1e-12
    assert warm[1] > cold[1]


# ---------------------------------------------------------------------------
# fusion
# ---------------------------------------------------------------------------

def test_fusion_identical_branches_passthrough():
    spec, params = desk_params(seed=14)
    head = spec.heads()["fusion"]
    rng = np.random.default_rng(15)
    logits = rng.normal(size=(4, 2))
    fused, _ = head.forward(params, Tensor(logits), Tensor(logits.copy()))
    expected = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    assert np.allclose(fused.data, expected, atol=1e-12)


def test_fusion_output_normalized():
    spec, params = desk_params(seed=19)
    head = spec.heads()["fusion"]
    rng = np.random.default_rng(20)
    for _ in range(20):
        fused, alpha = head.forward(
            params, Tensor(rng.normal(scale=3, size=(6, 2))), Tensor(rng.normal(scale=3, size=(6, 2)))
        )
        assert np.allclose(np.exp(fused.data).sum(axis=1), 1.0, atol=1e-12)
        assert np.all((alpha.data > 0.0) & (alpha.data < 1.0))


def test_fusion_temperatures_stay_positive_under_steps():
    from fedphish.numerics import Adam

    spec, params = desk_params(seed=21)
    head = spec.heads()["fusion"]
    rng = np.random.default_rng(22)
    fusion_params = {k: v for k, v in params.items() if k.startswith(FUSION_PREFIX)}
    opt = Adam(fusion_params, lr=0.5)  # deliberately aggressive
    for _ in range(10):
        zero_grads(params)
        fused, _ = head.forward(
            params, Tensor(rng.normal(size=(4, 2))), Tensor(rng.normal(size=(4, 2)))
        )
        backward(focal_loss(fused, rng.integers(0, 2, size=4)))
        opt.step()
        for key in ("log_t_image", "log_t_html"):
            assert np.exp(params[FUSION_PREFIX + key].data) > 0.0


# ---------------------------------------------------------------------------
# focal loss
# ---------------------------------------------------------------------------

def test_focal_gamma_two_uniform():
    loss = focal_loss(Tensor(np.array([[0.0, 0.0]])), np.array([1]))
    assert abs(float(loss.data) - 0.25 * LN2) < 1e-12


def test_focal_vanishes_monotonically_as_pt_to_one():
    losses = []
    for gap in (0.0, 1.0, 3.0, 10.0, 40.0):
        loss = focal_loss(Tensor(np.array([[0.0, gap]])), np.array([1]))
        losses.append(float(loss.data))
    assert all(a > b for a, b in zip(losses, losses[1:]))
    assert losses[-1] < 1e-15


def test_focal_batch_is_mean():
    z = np.array([[0.0, 0.0], [0.0, 0.0]])
    loss = focal_loss(Tensor(z), np.array([1, 0]))
    assert abs(float(loss.data) - 0.25 * LN2) < 1e-12


def focal_loss_composition(logits, labels):
    """The focal loss at gamma 2 as a chain of Tensor operations, one node
    each: the oracle for the single-node ``focal_loss``."""
    picked = log_softmax_composition(logits)[np.arange(labels.size), labels]
    p = picked.exp()
    return -mean(power(1.0 - p, 2.0) * picked)


def focal_value_and_grad(fn, z, labels):
    logits = Tensor(z.copy(), requires_grad=True)
    loss = fn(logits, labels)
    backward(loss)
    return loss.data, logits.grad


@pytest.mark.parametrize("shape", [(6, 2), (4, 3), (1, 2)], ids=["binary", "three-class", "one-row"])
def test_focal_node_matches_composition(shape):
    rng = np.random.default_rng(70)
    for _ in range(5):
        z = rng.normal(scale=rng.uniform(0.5, 8.0), size=shape)
        labels = rng.integers(0, shape[1], size=shape[0])
        loss, grad = focal_value_and_grad(focal_loss, z, labels)
        ref_loss, ref_grad = focal_value_and_grad(focal_loss_composition, z, labels)
        assert np.array_equal(loss, ref_loss)
        assert grad.shape == z.shape
        assert np.array_equal(grad, ref_grad)


def test_focal_saturated_sample_gradient_is_finite_limit():
    # row 0 is saturated: p_t rounds to exactly 1, so 1 - p_t == 0, where
    # the node's gradient is the limit 0
    z = np.array([[40.0, -40.0], [0.3, -0.2]])
    labels = np.array([0, 1])
    loss, grad = focal_value_and_grad(focal_loss, z, labels)
    ref_loss, ref_grad = focal_value_and_grad(focal_loss_composition, z, labels)
    assert np.array_equal(loss, ref_loss)
    assert np.array_equal(grad, ref_grad)
    assert np.array_equal(grad[0], [0.0, 0.0])


def test_focal_node_finite_differences():
    for seed in range(5):
        rng = np.random.default_rng(80 + seed)
        z = Tensor(rng.normal(scale=2.0, size=(4, 3)), requires_grad=True)
        labels = rng.integers(0, 3, size=4)
        err = finite_difference_check(lambda: focal_loss(z, labels), {"z": z})
        assert err < 1e-4, f"seed {seed}: {err}"


# the parameter prefix of each head's MLP tail: the image and html
# classifiers, and the whole url head
TAIL_PREFIX = {"image": IMAGE_PREFIX + "cls.", "html": HTML_PREFIX + "cls.", "url": URL_PREFIX}


def tail_arguments(kind, params):
    """``mlp_tail``'s parameter tuples and keywords for ``kind``'s tail."""
    prefix = TAIL_PREFIX[kind]
    if kind == "url":
        return (_take(params, prefix, "ln.gamma", "ln.beta"),
                _take(params, prefix, "fc.v", "fc.g", "fc.b"),
                _take(params, prefix, "cls.w", "cls.log_scale")), {"cosine_floor": 1e-12}
    return (_take(params, prefix, "ln.gamma", "ln.beta"), _take(params, prefix, "fc1.w", "fc1.b"),
            _take(params, prefix, "fc2.w", "fc2.b")), {}


def assert_bitwise(got, ref, what):
    got, ref = np.asarray(got), np.asarray(ref)
    assert (got.shape, got.tobytes()) == (ref.shape, ref.tobytes()), what


@pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("profile", ["desk", "desk_pages"])
@pytest.mark.parametrize("kind", ["image", "html", "url"])
def test_fused_tail_is_bitwise_its_composition(kind, profile, train):
    # the fused node against the chain of primitives it replaces, on the same
    # inputs and dropout generator: the output, every parameter's gradient
    # and the classifier input's gradient have the same bytes, and the
    # generator is left in the same state. The url embeddings are data, as
    # in the head. Parameters are moved off their initial values (gain 1,
    # bias 0), so that every gradient term is a generic float
    head = getattr(ModelSpec, profile)().heads()[kind]
    rng = np.random.default_rng(61)
    arrays = {k: v + rng.normal(scale=0.3, size=v.shape)
              for k, v in draw_params(head.param_specs(), rng).items()}
    (ln, _, _), _ = tail_arguments(kind, arrays)
    x_data = rng.normal(scale=2.0, size=(32, ln[0].shape[0]))
    upstream = rng.normal(size=(32, 2))

    def run(tail):
        params = tensors(arrays)
        x = Tensor(x_data, requires_grad=kind != "url")
        drops = np.random.default_rng(62)
        args, keywords = tail_arguments(kind, params)
        out = tail(x, *args, DROPOUT, drops, train, **keywords)
        backward((out * Tensor(upstream)).sum())
        grads = {k: p.grad for k, p in params.items() if p.grad is not None}
        return out.data, grads, x.grad, drops.bit_generator.state

    out, grads, x_grad, state = run(mlp_tail)
    ref_out, ref_grads, ref_x_grad, ref_state = run(mlp_tail_composition)
    assert_bitwise(out, ref_out, "output")
    assert grads.keys() == ref_grads.keys() == {k for k in arrays if k.startswith(TAIL_PREFIX[kind])}
    for name in grads:
        assert_bitwise(grads[name], ref_grads[name], name)
    if kind == "url":
        assert x_grad is None and ref_x_grad is None
    else:
        assert_bitwise(x_grad, ref_x_grad, "classifier input")
    assert state == ref_state


@pytest.mark.parametrize("kind", ["image", "html", "url"])
def test_a_training_tail_without_an_rng_raises_the_dropout_error(kind):
    spec, params = desk_params(seed=6)
    rng = np.random.default_rng(7)
    batch = {"x": rng.normal(size=(3, 4, 16)), "char": rng.integers(0, 33, size=(3, 32)),
             "word": rng.integers(0, 17, size=(3, 8)), "dom": rng.integers(0, 9, size=(3, 8))}
    if kind == "url":
        batch["x"] = rng.normal(size=(3, 16))
    head = spec.heads()[kind]
    assert head.forward(params, batch, train=False, rng=None).shape == (3, 2)
    with pytest.raises(ValueError, match="training-mode dropout needs an RNG"):
        head.forward(params, batch, train=True, rng=None)


@pytest.mark.parametrize("kind", ["image", "html", "url", "pair"])
def test_batch_loss_gradients_match_compositions(kind, monkeypatch):
    # every fused primitive swapped back for its old composition: the loss
    # and every parameter gradient stay bitwise equal, including where an
    # input has several consumers (the MHSA residual, the fused branches)
    spec, params = desk_params(seed=3)
    rng = np.random.default_rng(4)
    batch = {"x": rng.normal(size=(3, 4, 16)), "char": rng.integers(0, 33, size=(3, 32)),
             "word": rng.integers(0, 17, size=(3, 8)), "dom": rng.integers(0, 9, size=(3, 8)),
             "y": np.array([0, 1, 1])}
    if kind == "url":
        batch["x"] = rng.normal(size=(3, 16))

    def loss_and_grads():
        zero_grads(params)
        loss = batch_loss(spec.heads(), kind, params, batch, np.random.default_rng(5))
        backward(loss)
        return loss.data, {k: np.array(p.grad) for k, p in params.items() if p.grad is not None}

    loss, grads = loss_and_grads()
    # the heads' fused tails become chains of the primitives, and those
    # become their compositions
    monkeypatch.setattr(fedphish.heads, "mlp_tail", mlp_tail_composition)
    monkeypatch.setattr(layers, "layer_norm", layer_norm_composition)
    monkeypatch.setattr(layers, "gelu", gelu_composition)
    for module in (layers, fedphish.heads):
        monkeypatch.setattr(module, "log_softmax", log_softmax_composition)
    monkeypatch.setattr(fedphish.federation, "focal_loss", focal_loss_composition)
    ref_loss, ref_grads = loss_and_grads()
    assert np.array_equal(loss, ref_loss)
    assert grads.keys() == ref_grads.keys()
    for name in grads:
        assert np.array_equal(grads[name], ref_grads[name]), name


# ---------------------------------------------------------------------------
# proximal pull: mu (theta - theta_t) added to each parameter's gradient
# ---------------------------------------------------------------------------

def test_proximal_zero_at_snapshot():
    # at the anchor the pull is exactly zero, and it leaves an existing
    # gradient bitwise as it was
    _, params = desk_params(seed=28)
    snap = {k: p.data.copy() for k, p in params.items()}
    proximal_term(params, snap, 0.02)
    assert not any(p.grad.any() for p in params.values())
    for p in params.values():
        p.grad = np.ones(p.shape)
    proximal_term(params, snap, 0.02)
    assert all(np.array_equal(p.grad, np.ones(p.shape)) for p in params.values())


def test_proximal_zero_mu():
    _, params = desk_params(seed=29)
    snap = {k: p.data + 1.0 for k, p in params.items()}
    proximal_term(params, snap, 0.0)
    assert not any(p.grad.any() for p in params.values())


def test_proximal_hand_value():
    local = {"url_head.w": Tensor(np.array(3.0), requires_grad=True)}
    proximal_term(local, {"url_head.w": np.array(1.0)}, 0.02)
    # an array also at 0-d, so that clipping can scale it in place
    assert isinstance(local["url_head.w"].grad, np.ndarray)
    assert local["url_head.w"].grad == 0.02 * 2.0


def test_proximal_gradient_is_mu_times_diff():
    # added to the gradient the loss left, bitwise
    rng = np.random.default_rng(30)
    local = {"url_head.w": Tensor(rng.normal(size=(3, 2)), requires_grad=True)}
    snap = {"url_head.w": rng.normal(size=(3, 2))}
    data_grad = rng.normal(size=(3, 2))
    local["url_head.w"].grad = data_grad.copy()
    mu = 0.7
    proximal_term(local, snap, mu)
    expected = data_grad + mu * (local["url_head.w"].data - snap["url_head.w"])
    assert np.array_equal(local["url_head.w"].grad, expected)


def test_proximal_pull_stays_with_its_parameter_when_gradients_share_memory():
    # backward hands the upstream array of x + y to both addends, and a view
    # of it through a reshape; the pull is added into each parameter's own
    # array, so it cannot leak from one parameter into another
    x = Tensor(np.array(1.0), requires_grad=True)
    y = Tensor(np.array(2.0), requires_grad=True)
    backward((x + y).sum())
    assert x.grad is y.grad
    proximal_term({"x": x, "y": y}, {"x": np.array(0.0), "y": np.array(0.0)}, 0.5)
    assert x.grad == 1.5 and y.grad == 2.0

    rng = np.random.default_rng(32)
    a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=6), requires_grad=True)
    backward((a + b.reshape(2, 3)).sum())
    assert np.shares_memory(a.grad, b.grad)
    proximal_term({"a": a, "b": b}, {"a": np.zeros((2, 3)), "b": np.zeros(6)}, 0.5)
    assert np.array_equal(a.grad, 0.5 * a.data + 1.0)
    assert np.array_equal(b.grad, 0.5 * b.data + 1.0)


def test_proximal_table_compares_moved_rows_only():
    # a table is pulled whole, like any parameter; a row equal to its anchor
    # gets exactly zero pull, so only the rows that moved away count
    rng = np.random.default_rng(31)
    table = Tensor(rng.normal(size=(6, 2)), requires_grad=True)
    local = {"html_head.word.embed": table}
    snap = {"html_head.word.embed": table.data.copy()}
    rows = np.array([1, 4])
    snap["html_head.word.embed"][rows] += rng.normal(size=(2, 2))
    mu = 0.3
    proximal_term(local, snap, mu)
    want = np.zeros(table.shape)
    want[rows] = mu * (table.data[rows] - snap["html_head.word.embed"][rows])
    assert np.array_equal(table.grad, want)


def test_pull_is_the_gradient_of_the_proximal_term():
    # mu/2 ||theta - theta_t||^2 by central differences, a 0-d parameter and
    # a table included
    rng = np.random.default_rng(30)
    shapes = {"url_head.cls.log_scale": (), "url_head.fc.v": (3, 2), TABLE_OF_STREAM["word"]: (5, 4)}
    params = {k: Tensor(rng.normal(size=s), requires_grad=True) for k, s in shapes.items()}
    anchor = {k: rng.normal(size=s) for k, s in shapes.items()}
    mu, h = 0.7, 1e-6

    def value(k, theta):
        d = theta - anchor[k]
        return mu / 2.0 * float((d * d).sum())

    proximal_term(params, anchor, mu)
    for k, p in params.items():
        assert isinstance(p.grad, np.ndarray) and p.grad.shape == p.shape, k
        central = np.empty(p.shape)
        for i in np.ndindex(p.shape):
            up, down = p.data.copy(), p.data.copy()
            up[i] += h
            down[i] -= h
            central[i] = (value(k, up) - value(k, down)) / (2 * h)
        assert np.max(np.abs(p.grad - central) / np.maximum(1e-8, np.abs(central))) < 1e-6, k


# ---------------------------------------------------------------------------
# full-loss gradient fidelity (light version; acceptance runs 20 seeds)
# ---------------------------------------------------------------------------

def plus_pull(loss, params, anchor, mu, prefix):
    """``loss`` plus mu/2 ||theta - theta_t||^2 over the parameters named
    with ``prefix``, as Tensor ops: the objective whose gradient
    ``client_train`` follows at ``mu``."""
    for k in sorted(params):
        if k.startswith(prefix):
            d = params[k] - Tensor(anchor[k])
            loss = loss + (d * d).sum() * (mu / 2.0)
    return loss


def full_loss_closure(spec, params, seed):
    heads = spec.heads()
    rng = np.random.default_rng(seed)
    batch = {
        "x": rng.normal(size=(2, 4, 16)),
        "char": rng.integers(0, 33, size=(2, 32)),
        "word": rng.integers(0, 17, size=(2, 8)),
        "dom": rng.integers(0, 9, size=(2, 8)),
        "y": rng.integers(0, 2, size=2),
    }
    snap = {k: p.data + rng.normal(scale=0.05, size=p.data.shape) for k, p in params.items()}
    return lambda: plus_pull(
        batch_loss(heads, "pair", params, batch, np.random.default_rng(seed + 999)),
        params, snap, 0.02, FUSION_PREFIX,
    )


def test_fusion_full_loss_gradient_fidelity_sampled():
    spec, params = desk_params(seed=32)
    loss_fn = full_loss_closure(spec, params, seed=33)
    err = finite_difference_check(
        loss_fn, params, coord_limit=12, rng=np.random.default_rng(0)
    )
    assert err < 1e-4, err


def test_url_full_loss_gradient_fidelity():
    spec, params = desk_params(seed=34)
    heads = spec.heads()
    rng = np.random.default_rng(35)
    batch = {"x": rng.normal(size=(2, 16)), "y": np.array([0, 1])}
    snap = {k: p.data + rng.normal(scale=0.05, size=p.data.shape) for k, p in params.items()}
    url_params = {k: v for k, v in params.items() if k.startswith(URL_PREFIX)}

    def loss_fn():
        loss = batch_loss(heads, "url", params, batch, np.random.default_rng(36))
        return plus_pull(loss, params, snap, 0.02, URL_PREFIX)

    err = finite_difference_check(loss_fn, url_params)
    assert err < 1e-4, err
