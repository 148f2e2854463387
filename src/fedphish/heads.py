"""The four expert heads (image, HTML, URL, fusion) and the focal loss.

Each head owns a name-prefixed slice of the parameter map; the federation
layer aggregates by those prefixes. Widths and vocabulary sizes are
configuration, so the gradient checks and scenario runs can use small dims;
the defaults are the paper's values. What the paper fixes is a constant
here: two encoder blocks in the image head, dropout 0.2 in every head, the
url head's initial cosine scale 10, the fusion gate's 8 hidden units, the
focal gamma 2, and two classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import (
    Tensor,
    affine,
    attention_pool,
    bilstm_sequence,
    concat,
    cosine_logits,
    dropout,
    embedding,
    gelu,
    layer_norm,
    log_softmax,
    log_softmax_parts,
    mhsa_block,
    multiscale_conv_encode,
    weight_norm,
)
from .preproc import CHAR_PAD, PreprocConfig

__all__ = [
    "ImageHeadConfig",
    "HtmlHeadConfig",
    "UrlHeadConfig",
    "ModelSpec",
    "ImageHead",
    "HtmlHead",
    "UrlHead",
    "FusionHead",
    "focal_loss",
    "table_rows",
    "TABLE_OF_STREAM",
]

IMAGE_PREFIX = "image_head."
HTML_PREFIX = "html_head."
URL_PREFIX = "url_head."
FUSION_PREFIX = "fusion_head."

# the embedding table each html id stream looks up; its last row is the
# stream's PAD id
TABLE_OF_STREAM = {branch: f"{HTML_PREFIX}{branch}.embed" for branch in ("char", "word", "dom")}

IMAGE_BLOCKS = 2
DROPOUT = 0.2
URL_INIT_SCALE = 10.0
GATE_HIDDEN = 8  # the fusion gate MLP is 4 -> GATE_HIDDEN -> 1


def table_rows(pad_id: int) -> int:
    """Rows of an embedding table whose last row is the stream's PAD id."""
    return pad_id + 1


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ImageHeadConfig:
    d_model: int = 768
    n_heads: int = 8
    ff_dim: int = 1024
    classifier_hidden: int = 512

    def __post_init__(self):
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model {self.d_model} not divisible by {self.n_heads} heads"
            )


@dataclass(frozen=True)
class HtmlHeadConfig:
    char_vocab: int = table_rows(CHAR_PAD)
    char_embed: int = 64
    conv_sizes: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8, 9)
    conv_filters: int = 16
    char_fc: int = 128
    word_vocab: int = table_rows(PreprocConfig().word_pad)
    word_embed: int = 128
    dom_vocab: int = table_rows(PreprocConfig().dom_pad)
    dom_embed: int = 64
    lstm_hidden: int = 64
    classifier_hidden: int = 512

    @property
    def concat_dim(self) -> int:
        return self.char_fc + 4 * self.lstm_hidden


@dataclass(frozen=True)
class UrlHeadConfig:
    in_dim: int = 768
    hidden: int = 512


# ---------------------------------------------------------------------------
# initializers
# ---------------------------------------------------------------------------

def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int) -> Tensor:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-limit, limit, size=(fan_in, fan_out)), requires_grad=True)


def _zeros(*shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


def _ones(*shape) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=True)


def _embed_table(rng: np.random.Generator, rows: int, dim: int) -> Tensor:
    return Tensor(rng.normal(0.0, 0.02, size=(rows, dim)), requires_grad=True)


def _lstm_params(rng: np.random.Generator, d_in: int, hidden: int) -> dict[str, Tensor]:
    bound = 1.0 / np.sqrt(hidden)

    def rec(rows):
        return Tensor(rng.uniform(-bound, bound, size=(rows, 4 * hidden)), requires_grad=True)

    return {"wx": rec(d_in), "wh": rec(hidden), "b": _zeros(4 * hidden)}


def _classifier_params(rng: np.random.Generator, in_dim: int, hidden: int) -> dict[str, Tensor]:
    return {
        "ln.gamma": _ones(in_dim),
        "ln.beta": _zeros(in_dim),
        "fc1.w": _xavier(rng, in_dim, hidden),
        "fc1.b": _zeros(hidden),
        "fc2.w": _xavier(rng, hidden, 2),
        "fc2.b": _zeros(2),
    }


def _classifier_forward(params, prefix, x, train, rng):
    h = layer_norm(x, params[prefix + "ln.gamma"], params[prefix + "ln.beta"])
    h = gelu(affine(h, params[prefix + "fc1.w"], params[prefix + "fc1.b"]))
    h = dropout(h, DROPOUT, rng, train)
    return affine(h, params[prefix + "fc2.w"], params[prefix + "fc2.b"])


# ---------------------------------------------------------------------------
# image head
# ---------------------------------------------------------------------------

class ImageHead:
    """Two summary tokens, a stack of pre-norm encoder blocks, max pooling,
    then the shared classifier shape."""

    def __init__(self, cfg: ImageHeadConfig):
        self.cfg = cfg

    def init_params(self, rng: np.random.Generator) -> dict[str, Tensor]:
        d, ff = self.cfg.d_model, self.cfg.ff_dim
        params: dict[str, Tensor] = {}
        for blk in range(IMAGE_BLOCKS):
            base = f"{IMAGE_PREFIX}block{blk}."
            params[base + "ln1.gamma"] = _ones(d)
            params[base + "ln1.beta"] = _zeros(d)
            for name in ("wq", "wk", "wv", "wo"):
                params[base + f"attn.{name}"] = _xavier(rng, d, d)
                if name != "wk":
                    params[base + f"attn.b{name[1]}"] = _zeros(d)
            params[base + "ln2.gamma"] = _ones(d)
            params[base + "ln2.beta"] = _zeros(d)
            params[base + "ff.w1"] = _xavier(rng, d, ff)
            params[base + "ff.b1"] = _zeros(ff)
            params[base + "ff.w2"] = _xavier(rng, ff, d)
            params[base + "ff.b2"] = _zeros(d)
        for k, v in _classifier_params(rng, d, self.cfg.classifier_hidden).items():
            params[IMAGE_PREFIX + "cls." + k] = v
        return params

    def summary_tokens(self, tokens: Tensor) -> Tensor:
        """Two non-learnable global tokens, both the token-wise max, prepended
        to the sequence."""
        first = tokens.max(axis=-2, keepdims=True)
        return concat([first, first, tokens], axis=-2)

    def forward(self, params, tokens, train: bool = False, rng=None) -> Tensor:
        tokens = tokens if isinstance(tokens, Tensor) else Tensor(tokens)
        if tokens.shape[1] < 1:
            raise ValueError("image head needs at least one token")
        x = self.summary_tokens(tokens)
        for blk in range(IMAGE_BLOCKS):
            base = f"{IMAGE_PREFIX}block{blk}."
            block = {k[len(base):]: v for k, v in params.items() if k.startswith(base)}
            x = mhsa_block(x, block, self.cfg.n_heads, DROPOUT, train, rng)
        pooled = x.max(axis=1)
        return _classifier_forward(params, IMAGE_PREFIX + "cls.", pooled, train, rng)


# ---------------------------------------------------------------------------
# html head
# ---------------------------------------------------------------------------

class HtmlHead:
    """Char conv branch plus word and DOM BiLSTM branches with attention
    pooling, concatenated into the shared classifier shape.

    Both BiLSTMs are one ``bilstm_sequence`` call, a single stacked scan
    over the word and DOM embeddings; each branch pools its own slice of
    the states.

    Each stream's PAD id is the last row of its table. So the head gives the
    same logits on a full table with the preprocessed ids as on a compact
    table, some rows of the full one ending with PAD, with each id mapped to
    its row's position there.
    """

    def __init__(self, cfg: HtmlHeadConfig):
        self.cfg = cfg

    def init_params(self, rng: np.random.Generator) -> dict[str, Tensor]:
        cfg = self.cfg
        params: dict[str, Tensor] = {}
        params[TABLE_OF_STREAM["char"]] = _embed_table(rng, cfg.char_vocab, cfg.char_embed)
        for k in cfg.conv_sizes:
            params[HTML_PREFIX + f"char.conv{k}.w"] = Tensor(
                rng.uniform(
                    -np.sqrt(6.0 / (k * cfg.char_embed + cfg.conv_filters)),
                    np.sqrt(6.0 / (k * cfg.char_embed + cfg.conv_filters)),
                    size=(k, cfg.char_embed, cfg.conv_filters),
                ),
                requires_grad=True,
            )
            params[HTML_PREFIX + f"char.conv{k}.b"] = _zeros(cfg.conv_filters)
        conv_out = len(cfg.conv_sizes) * cfg.conv_filters
        params[HTML_PREFIX + "char.fc.w"] = _xavier(rng, conv_out, cfg.char_fc)
        params[HTML_PREFIX + "char.fc.b"] = _zeros(cfg.char_fc)

        for branch, vocab, emb in (
            ("word", cfg.word_vocab, cfg.word_embed),
            ("dom", cfg.dom_vocab, cfg.dom_embed),
        ):
            params[TABLE_OF_STREAM[branch]] = _embed_table(rng, vocab, emb)
            for direction in ("fwd", "bwd"):
                for k, v in _lstm_params(rng, emb, cfg.lstm_hidden).items():
                    params[HTML_PREFIX + f"{branch}.{direction}.{k}"] = v
            params[HTML_PREFIX + f"{branch}.score"] = Tensor(
                rng.normal(0.0, 0.02, size=2 * cfg.lstm_hidden), requires_grad=True
            )
        for k, v in _classifier_params(rng, cfg.concat_dim, cfg.classifier_hidden).items():
            params[HTML_PREFIX + "cls." + k] = v
        return params

    def forward(self, params, char_ids, word_ids, dom_ids, train: bool = False, rng=None) -> Tensor:
        cfg = self.cfg
        conv_w = {k: params[HTML_PREFIX + f"char.conv{k}.w"] for k in cfg.conv_sizes}
        conv_b = {k: params[HTML_PREFIX + f"char.conv{k}.b"] for k in cfg.conv_sizes}
        char_table = params[TABLE_OF_STREAM["char"]]
        char_feat = multiscale_conv_encode(
            char_ids, char_table, conv_w, conv_b, char_table.shape[0] - 1
        )
        char_feat = affine(
            char_feat, params[HTML_PREFIX + "char.fc.w"], params[HTML_PREFIX + "char.fc.b"]
        )
        ids = {"word": word_ids, "dom": dom_ids}
        tables = {b: params[TABLE_OF_STREAM[b]] for b in ids}
        states = bilstm_sequence(
            [embedding(tables[b], ids[b]) for b in ids],
            [{f"{d}.{k}": params[HTML_PREFIX + f"{b}.{d}.{k}"]
              for d in ("fwd", "bwd") for k in ("wx", "wh", "b")} for b in ids],
        )
        feats, start = [char_feat], 0
        for b in ids:
            stop = start + ids[b].shape[1]
            valid = ids[b] != tables[b].shape[0] - 1
            feats.append(
                attention_pool(states[:, start:stop], params[HTML_PREFIX + f"{b}.score"], valid)
            )
            start = stop
        features = concat(feats, axis=1)
        return _classifier_forward(params, HTML_PREFIX + "cls.", features, train, rng)


# ---------------------------------------------------------------------------
# url head
# ---------------------------------------------------------------------------

class UrlHead:
    """LayerNorm, weight-normalized affine, GELU, dropout, cosine classifier
    with a learnable positive scale.

    The paper's url expert is a small head over fixed GraphCodeBERT
    embeddings, so per-node overhead, not arithmetic, sets its step time.
    Layer norm, the weight normalisation, the product and its bias, GELU,
    dropout and the cosine classifier are one graph node each: seven in
    training, six in evaluation, where dropout is the identity. The input
    embeddings are data, so no gradient is computed for them.
    """

    def __init__(self, cfg: UrlHeadConfig):
        self.cfg = cfg

    def init_params(self, rng: np.random.Generator) -> dict[str, Tensor]:
        cfg = self.cfg
        v = _xavier(rng, cfg.in_dim, cfg.hidden)
        # gain starts at the column norm so the initial map equals v
        norms = np.sqrt((v.data * v.data).sum(axis=0))
        return {
            URL_PREFIX + "ln.gamma": _ones(cfg.in_dim),
            URL_PREFIX + "ln.beta": _zeros(cfg.in_dim),
            URL_PREFIX + "fc.v": v,
            URL_PREFIX + "fc.g": Tensor(norms, requires_grad=True),
            URL_PREFIX + "fc.b": _zeros(cfg.hidden),
            URL_PREFIX + "cls.w": _xavier(rng, cfg.hidden, 2),
            # exp parameterization keeps the scale strictly positive
            URL_PREFIX + "cls.log_scale": Tensor(
                np.array(np.log(URL_INIT_SCALE)), requires_grad=True
            ),
        }

    def forward(self, params, emb, train: bool = False, rng=None) -> Tensor:
        emb = emb if isinstance(emb, Tensor) else Tensor(emb)
        h = layer_norm(emb, params[URL_PREFIX + "ln.gamma"], params[URL_PREFIX + "ln.beta"])
        w = weight_norm(params[URL_PREFIX + "fc.v"], params[URL_PREFIX + "fc.g"])
        f = gelu(h @ w + params[URL_PREFIX + "fc.b"])
        f = dropout(f, DROPOUT, rng, train)
        return cosine_logits(
            f, params[URL_PREFIX + "cls.w"], params[URL_PREFIX + "cls.log_scale"], 1e-12
        )


# ---------------------------------------------------------------------------
# fusion head
# ---------------------------------------------------------------------------

def _stats_columns(scaled: Tensor) -> tuple[Tensor, Tensor]:
    """Margin and entropy of temperature-scaled logits, as [B, 1] tensors."""
    margin = (scaled[:, 0:1] - scaled[:, 1:2]).abs()
    logp = log_softmax(scaled, axis=-1)
    entropy = -(logp.exp() * logp).sum(axis=-1, keepdims=True)
    return margin, entropy


class FusionHead:
    """Gated product-of-experts fusion of the image and HTML branches.

    Both branches are always present. Each is calibrated by a learnable
    temperature (exp parameterization, init 1.0), a 4-8-1 gate MLP maps
    [margin_i, entropy_i, margin_h, entropy_h] to the mixing weight alpha,
    and the combined log-probabilities are renormalized.
    """

    def init_params(self, rng: np.random.Generator) -> dict[str, Tensor]:
        return {
            FUSION_PREFIX + "gate.w1": _xavier(rng, 4, GATE_HIDDEN),
            FUSION_PREFIX + "gate.b1": _zeros(GATE_HIDDEN),
            FUSION_PREFIX + "gate.w2": _xavier(rng, GATE_HIDDEN, 1),
            FUSION_PREFIX + "gate.b2": _zeros(1),
            FUSION_PREFIX + "log_t_image": Tensor(np.array(0.0), requires_grad=True),
            FUSION_PREFIX + "log_t_html": Tensor(np.array(0.0), requires_grad=True),
        }

    def forward(self, params, l_image: Tensor, l_html: Tensor) -> tuple[Tensor, Tensor]:
        """Returns (fused log-probs [B, 2], alpha [B, 1])."""

        def calibrated(logits, key):
            return logits * (1.0 / params[key].exp())

        scaled_i = calibrated(l_image, FUSION_PREFIX + "log_t_image")
        scaled_h = calibrated(l_html, FUSION_PREFIX + "log_t_html")
        margin_i, entropy_i = _stats_columns(scaled_i)
        margin_h, entropy_h = _stats_columns(scaled_h)
        gate_in = concat([margin_i, entropy_i, margin_h, entropy_h], axis=1)
        hidden = affine(gate_in, params[FUSION_PREFIX + "gate.w1"], params[FUSION_PREFIX + "gate.b1"]).relu()
        alpha = affine(hidden, params[FUSION_PREFIX + "gate.w2"], params[FUSION_PREFIX + "gate.b2"]).sigmoid()

        combined = alpha * log_softmax(scaled_i, axis=-1) + (1.0 - alpha) * log_softmax(scaled_h, axis=-1)
        return log_softmax(combined, axis=-1), alpha


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

FOCAL_GAMMA = 2.0


def focal_loss(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean of -(1 - p_t)^gamma * log(p_t), gamma = ``FOCAL_GAMMA``.

    One graph node from the logits to the loss. It runs the numpy
    operations of the log-softmax, pick, power and mean composition in that
    composition's order, with one gradient term per path to the logits, as
    ``log_softmax`` does. Where a sample is saturated (``1 - p_t`` is
    exactly 0 in float64), its gradient is the limit 0.
    """
    z = logits.data
    rows = np.arange(labels.size)
    logp, exps, total = log_softmax_parts(z)
    picked = logp[rows, labels]
    inv_n = 1.0 / picked.size
    p = np.exp(picked)
    q = 1.0 - p
    weight = q ** FOCAL_GAMMA
    out = -((weight * picked).sum() * inv_n)

    def bw(g: np.ndarray):
        # d loss / d picked per sample; then through the log-softmax
        live = q > 0.0
        g_mean = -inv_n * g
        slope = np.where(live, q, 1.0) ** (FOCAL_GAMMA - 1.0)
        d_picked = np.where(live, g_mean * weight - g_mean * picked * FOCAL_GAMMA * slope * p, 0.0)
        direct = np.zeros(z.shape)
        direct[rows, labels] = d_picked
        return direct, -d_picked[:, None] / total * exps

    # the logits twice: directly and through the log-sum-exp, as in log_softmax
    return Tensor._node(out, (logits, logits), bw)


# ---------------------------------------------------------------------------
# full model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelSpec:
    """The configurations of the image, html and url heads of one federated
    model; the fusion head has no setting."""

    image: ImageHeadConfig = field(default_factory=ImageHeadConfig)
    html: HtmlHeadConfig = field(default_factory=HtmlHeadConfig)
    url: UrlHeadConfig = field(default_factory=UrlHeadConfig)

    @staticmethod
    def paper() -> "ModelSpec":
        return ModelSpec()

    @staticmethod
    def desk() -> "ModelSpec":
        """Small shapes for gradient checks and unit tests; its html tables
        are too small for preprocessed pages, so no config can select it."""
        return ModelSpec(
            image=ImageHeadConfig(d_model=16, n_heads=4, ff_dim=16, classifier_hidden=8),
            html=HtmlHeadConfig(
                char_vocab=33, char_embed=4, conv_sizes=(2, 3), conv_filters=2,
                char_fc=8, word_vocab=17, word_embed=4, dom_vocab=9, dom_embed=4,
                lstm_hidden=3, classifier_hidden=8,
            ),
            url=UrlHeadConfig(in_dim=16, hidden=16),
        )

    @staticmethod
    def desk_pages(word_buckets: int = 257, dom_buckets: int = 61) -> "ModelSpec":
        """Desk dims with an html head sized for real preprocessed pages
        (full byte vocabulary; a bucket count is its stream's PAD id)."""
        desk = ModelSpec.desk()
        return ModelSpec(
            image=desk.image,
            html=HtmlHeadConfig(
                char_vocab=table_rows(CHAR_PAD), char_embed=8, conv_sizes=(2, 3, 4),
                conv_filters=4, char_fc=16, word_vocab=table_rows(word_buckets), word_embed=16,
                dom_vocab=table_rows(dom_buckets), dom_embed=8, lstm_hidden=8,
                classifier_hidden=16,
            ),
            url=desk.url,
        )

    def heads(self) -> dict[str, object]:
        return {
            "image": ImageHead(self.image),
            "html": HtmlHead(self.html),
            "url": UrlHead(self.url),
            "fusion": FusionHead(),
        }

    def init_params(self, seed: int) -> dict[str, Tensor]:
        """All four heads' parameters, keyed by prefixed name, sorted."""
        rng = np.random.default_rng(seed)
        params: dict[str, Tensor] = {}
        params.update(ImageHead(self.image).init_params(rng))
        params.update(HtmlHead(self.html).init_params(rng))
        params.update(UrlHead(self.url).init_params(rng))
        params.update(FusionHead().init_params(rng))
        return dict(sorted(params.items()))
