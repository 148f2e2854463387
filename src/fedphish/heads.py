"""The four expert heads (image, HTML, URL, fusion) and the focal loss.

Each head owns a name-prefixed slice of the parameter map; the federation
layer aggregates by those prefixes. A head's ``param_specs`` is its one
table of parameters: each name once, with its shape and its initializer, in
draw order. ``ModelSpec.init_params`` draws the four tables in ``heads()``
order from one generator, and ``ModelSpec.param_shapes`` reads the same
tables without drawing, so the model can be sized before any array exists.

The image, html and url experts end in the same MLP tail: layer norm, an
affine map, GELU, dropout and an output map. Each tail is one graph node,
``mlp_tail`` over the array parts of those primitives. The image and html
heads share it as ``_classifier_forward``, with an affine output; the url
head is its tail alone, with a weight-normed affine and cosine logits.

A head is its own settings: the fields of a frozen ``ImageHead``,
``HtmlHead`` or ``UrlHead`` are its widths and vocabulary sizes, so the
gradient checks and scenario runs can use small dims; the defaults are the
paper's values. ``ModelSpec`` holds the three heads it runs. What the paper
fixes is a constant here: two encoder blocks in the image head, dropout 0.2
in every head, the url head's initial cosine scale 10, the fusion gate's 8
hidden units, the focal gamma 2, and two classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import (
    Tensor,
    affine,
    attention_pool,
    bilstm_sequence,
    concat,
    embedding,
    layer_norm,  # no head calls it; perfbench's numerics.layer_norm span wraps this name
    log_softmax,
    log_softmax_parts,
    mhsa_block,
    mlp_tail,
    multiscale_conv_encode,
)
from .preproc import CHAR_PAD, PreprocConfig

__all__ = [
    "ModelSpec",
    "ImageHead",
    "HtmlHead",
    "UrlHead",
    "FusionHead",
    "focal_loss",
    "focal_terms",
    "focal_mean",
    "table_rows",
    "draw_params",
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
# parameter tables
# ---------------------------------------------------------------------------

def _xavier(rng: np.random.Generator, shape, drawn) -> np.ndarray:
    """Glorot uniform; a conv kernel [k, d_in, filters] has fan-in k * d_in."""
    limit = np.sqrt(6.0 / (math.prod(shape[:-1]) + shape[-1]))
    return rng.uniform(-limit, limit, size=shape)


def _recurrent(rng: np.random.Generator, shape, drawn) -> np.ndarray:
    """Uniform within 1/sqrt(hidden), for an LSTM weight [rows, 4 * hidden]."""
    bound = 1.0 / np.sqrt(shape[-1] // 4)
    return rng.uniform(-bound, bound, size=shape)


def _small_normal(rng: np.random.Generator, shape, drawn) -> np.ndarray:
    return rng.normal(0.0, 0.02, size=shape)


def draw_params(specs: dict, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """The float64 arrays of a table of name -> (shape, initializer), in the
    table's order. An initializer is a constant to fill, or a draw
    ``init(rng, shape, the arrays drawn before it)``."""
    drawn: dict[str, np.ndarray] = {}
    for name, (shape, init) in specs.items():
        drawn[name] = np.full(shape, init) if isinstance(init, float) else init(rng, shape, drawn)
    return drawn


def _classifier_specs(prefix: str, in_dim: int, hidden: int) -> dict:
    return {
        prefix + "ln.gamma": ((in_dim,), 1.0),
        prefix + "ln.beta": ((in_dim,), 0.0),
        prefix + "fc1.w": ((in_dim, hidden), _xavier),
        prefix + "fc1.b": ((hidden,), 0.0),
        prefix + "fc2.w": ((hidden, 2), _xavier),
        prefix + "fc2.b": ((2,), 0.0),
    }


def _take(params, prefix: str, *names: str) -> tuple[Tensor, ...]:
    return tuple(params[prefix + name] for name in names)


def _classifier_forward(params, prefix, x, train, rng):
    return mlp_tail(x, _take(params, prefix, "ln.gamma", "ln.beta"),
                    _take(params, prefix, "fc1.w", "fc1.b"),
                    _take(params, prefix, "fc2.w", "fc2.b"), DROPOUT, rng, train)


# ---------------------------------------------------------------------------
# image head
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ImageHead:
    """Two summary tokens, a stack of pre-norm encoder blocks, max pooling,
    then the shared classifier shape."""

    d_model: int = 768
    n_heads: int = 8
    ff_dim: int = 1024
    classifier_hidden: int = 512

    def __post_init__(self):
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model {self.d_model} not divisible by {self.n_heads} heads"
            )

    def param_specs(self) -> dict:
        d, ff = self.d_model, self.ff_dim
        specs = {}
        for blk in range(IMAGE_BLOCKS):
            base = f"{IMAGE_PREFIX}block{blk}."
            specs[base + "ln1.gamma"] = ((d,), 1.0)
            specs[base + "ln1.beta"] = ((d,), 0.0)
            for name in ("wq", "wk", "wv", "wo"):
                specs[base + f"attn.{name}"] = ((d, d), _xavier)
                if name != "wk":
                    specs[base + f"attn.b{name[1]}"] = ((d,), 0.0)
            specs[base + "ln2.gamma"] = ((d,), 1.0)
            specs[base + "ln2.beta"] = ((d,), 0.0)
            specs[base + "ff.w1"] = ((d, ff), _xavier)
            specs[base + "ff.b1"] = ((ff,), 0.0)
            specs[base + "ff.w2"] = ((ff, d), _xavier)
            specs[base + "ff.b2"] = ((d,), 0.0)
        return specs | _classifier_specs(IMAGE_PREFIX + "cls.", d, self.classifier_hidden)

    def summary_tokens(self, tokens: Tensor) -> Tensor:
        """Two non-learnable global tokens, both the token-wise max, prepended
        to the sequence."""
        first = tokens.max(axis=-2, keepdims=True)
        return concat([first, first, tokens], axis=-2)

    def forward(self, params, batch, train: bool = False, rng=None) -> Tensor:
        """Logits of the image tokens ``batch["x"]``, [B, L, d_model]."""
        tokens = Tensor(batch["x"])
        if tokens.shape[1] < 1:
            raise ValueError("image head needs at least one token")
        x = self.summary_tokens(tokens)
        for blk in range(IMAGE_BLOCKS):
            base = f"{IMAGE_PREFIX}block{blk}."
            block = {k[len(base):]: v for k, v in params.items() if k.startswith(base)}
            x = mhsa_block(x, block, self.n_heads, DROPOUT, train, rng)
        pooled = x.max(axis=1)
        return _classifier_forward(params, IMAGE_PREFIX + "cls.", pooled, train, rng)


# ---------------------------------------------------------------------------
# html head
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
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

    char_vocab: int = table_rows(CHAR_PAD)
    char_embed: int = 64
    conv_sizes: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8, 9)
    conv_filters: int = 16
    char_fc: int = 128
    word_vocab: int = table_rows(PreprocConfig.word_buckets)
    word_embed: int = 128
    dom_vocab: int = table_rows(PreprocConfig.dom_buckets)
    dom_embed: int = 64
    lstm_hidden: int = 64
    classifier_hidden: int = 512

    def param_specs(self) -> dict:
        h4, state = 4 * self.lstm_hidden, 2 * self.lstm_hidden  # gates; a [fwd, bwd] state
        specs = {TABLE_OF_STREAM["char"]: ((self.char_vocab, self.char_embed), _small_normal)}
        for k in self.conv_sizes:
            specs[HTML_PREFIX + f"char.conv{k}.w"] = ((k, self.char_embed, self.conv_filters), _xavier)
            specs[HTML_PREFIX + f"char.conv{k}.b"] = ((self.conv_filters,), 0.0)
        conv_out = len(self.conv_sizes) * self.conv_filters
        specs[HTML_PREFIX + "char.fc.w"] = ((conv_out, self.char_fc), _xavier)
        specs[HTML_PREFIX + "char.fc.b"] = ((self.char_fc,), 0.0)

        for branch, vocab, emb in (("word", self.word_vocab, self.word_embed),
                                   ("dom", self.dom_vocab, self.dom_embed)):
            specs[TABLE_OF_STREAM[branch]] = ((vocab, emb), _small_normal)
            for direction in ("fwd", "bwd"):
                base = HTML_PREFIX + f"{branch}.{direction}."
                specs[base + "wx"] = ((emb, h4), _recurrent)
                specs[base + "wh"] = ((self.lstm_hidden, h4), _recurrent)
                specs[base + "b"] = ((h4,), 0.0)
            specs[HTML_PREFIX + f"{branch}.score"] = ((state,), _small_normal)
        # the classifier reads the char features and each branch's pooled state
        return specs | _classifier_specs(HTML_PREFIX + "cls.", self.char_fc + 2 * state, self.classifier_hidden)

    def forward(self, params, batch, train: bool = False, rng=None) -> Tensor:
        """Logits of the id streams ``batch["char"]``, ``batch["word"]`` and
        ``batch["dom"]``, each [B, T]."""
        conv_w = {k: params[HTML_PREFIX + f"char.conv{k}.w"] for k in self.conv_sizes}
        conv_b = {k: params[HTML_PREFIX + f"char.conv{k}.b"] for k in self.conv_sizes}
        char_table = params[TABLE_OF_STREAM["char"]]
        char_feat = multiscale_conv_encode(
            batch["char"], char_table, conv_w, conv_b, char_table.shape[0] - 1
        )
        char_feat = affine(
            char_feat, params[HTML_PREFIX + "char.fc.w"], params[HTML_PREFIX + "char.fc.b"]
        )
        ids = {b: batch[b] for b in ("word", "dom")}
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

@dataclass(frozen=True)
class UrlHead:
    """LayerNorm, weight-normalized affine, GELU, dropout, cosine classifier
    with a learnable positive scale.

    The paper's url expert is a small head over fixed GraphCodeBERT
    embeddings, so per-node overhead, not arithmetic, sets its step time.
    The whole head is one ``mlp_tail`` graph node, in training and in
    evaluation alike. The input embeddings are data, so no gradient is
    computed for them.
    """

    in_dim: int = 768
    hidden: int = 512

    def param_specs(self) -> dict:
        def column_norms(rng, shape, drawn):
            # the gain starts at the column norm, so the initial map equals v
            v = drawn[URL_PREFIX + "fc.v"]
            return np.sqrt((v * v).sum(axis=0))

        return {
            URL_PREFIX + "ln.gamma": ((self.in_dim,), 1.0),
            URL_PREFIX + "ln.beta": ((self.in_dim,), 0.0),
            URL_PREFIX + "fc.v": ((self.in_dim, self.hidden), _xavier),
            URL_PREFIX + "fc.g": ((self.hidden,), column_norms),
            URL_PREFIX + "fc.b": ((self.hidden,), 0.0),
            URL_PREFIX + "cls.w": ((self.hidden, 2), _xavier),
            # exp parameterization keeps the scale strictly positive
            URL_PREFIX + "cls.log_scale": ((), np.log(URL_INIT_SCALE)),
        }

    def forward(self, params, batch, train: bool = False, rng=None) -> Tensor:
        """Logits of the url embeddings ``batch["x"]``, [B, in_dim]."""
        return mlp_tail(Tensor(batch["x"]), _take(params, URL_PREFIX, "ln.gamma", "ln.beta"),
                        _take(params, URL_PREFIX, "fc.v", "fc.g", "fc.b"),
                        _take(params, URL_PREFIX, "cls.w", "cls.log_scale"), DROPOUT, rng, train,
                        cosine_floor=1e-12)


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

    def param_specs(self) -> dict:
        return {
            FUSION_PREFIX + "gate.w1": ((4, GATE_HIDDEN), _xavier),
            FUSION_PREFIX + "gate.b1": ((GATE_HIDDEN,), 0.0),
            FUSION_PREFIX + "gate.w2": ((GATE_HIDDEN, 1), _xavier),
            FUSION_PREFIX + "gate.b2": ((1,), 0.0),
            FUSION_PREFIX + "log_t_image": ((), 0.0),
            FUSION_PREFIX + "log_t_html": ((), 0.0),
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


FUSION = FusionHead()


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

FOCAL_GAMMA = 2.0


def _focal_rows(z: np.ndarray, labels: np.ndarray):
    """Row by row, from that row's logits and label alone: the log-softmax's
    ``exps`` and ``total``, log p_t, p_t, 1 - p_t and (1 - p_t)^gamma."""
    logp, exps, total = log_softmax_parts(z)
    picked = logp[np.arange(labels.size), labels]
    p = np.exp(picked)
    q = 1.0 - p
    return exps, total, picked, p, q, q ** FOCAL_GAMMA


def focal_terms(z: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """The per-row focal terms (1 - p_t)^gamma log(p_t) of logits ``z``
    [B, 2]. Each row's term reads only that row, so it has the same bits
    however many rows ``z`` holds; ``focal_mean`` of a batch's terms is
    that batch's ``focal_loss``."""
    *_, picked, _, _, weight = _focal_rows(z, labels)
    return weight * picked


def focal_mean(terms: np.ndarray) -> np.float64:
    """The focal loss of the rows whose ``focal_terms`` these are."""
    return -(terms.sum() * (1.0 / terms.size))


def focal_loss(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean of -(1 - p_t)^gamma * log(p_t), gamma = ``FOCAL_GAMMA``.

    One graph node from the logits to the loss. It runs the numpy
    operations of the log-softmax, pick, power and mean composition in that
    composition's order, with one gradient term per path to the logits, as
    ``log_softmax`` does. Where a sample is saturated (``1 - p_t`` is
    exactly 0 in float64), its gradient is the limit 0. Its value is
    ``focal_mean`` of the batch's ``focal_terms``.
    """
    z = logits.data
    exps, total, picked, p, q, weight = _focal_rows(z, labels)
    inv_n = 1.0 / picked.size
    out = focal_mean(weight * picked)

    def bw(g: np.ndarray):
        # d loss / d picked per sample; then through the log-softmax
        live = q > 0.0
        g_mean = -inv_n * g
        slope = np.where(live, q, 1.0) ** (FOCAL_GAMMA - 1.0)
        d_picked = np.where(live, g_mean * weight - g_mean * picked * FOCAL_GAMMA * slope * p, 0.0)
        direct = np.zeros(z.shape)
        direct[np.arange(labels.size), labels] = d_picked
        return direct, -d_picked[:, None] / total * exps

    # the logits twice: directly and through the log-sum-exp, as in log_softmax
    return Tensor._node(out, (logits, logits), bw)


# ---------------------------------------------------------------------------
# full model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelSpec:
    """The image, html and url heads of one federated model; the fusion head
    has no setting, so every model shares ``FUSION``."""

    image: ImageHead = field(default_factory=ImageHead)
    html: HtmlHead = field(default_factory=HtmlHead)
    url: UrlHead = field(default_factory=UrlHead)

    @staticmethod
    def paper(word_buckets: int = PreprocConfig.word_buckets,
              dom_buckets: int = PreprocConfig.dom_buckets) -> "ModelSpec":
        """The paper's dims, with word and DOM tables sized for these bucket
        counts (a bucket count is its stream's PAD id)."""
        return ModelSpec(html=HtmlHead(word_vocab=table_rows(word_buckets),
                                       dom_vocab=table_rows(dom_buckets)))

    @staticmethod
    def desk() -> "ModelSpec":
        """Small shapes for gradient checks and unit tests; its html tables
        are too small for preprocessed pages, so no config can select it."""
        return ModelSpec(
            image=ImageHead(d_model=16, n_heads=4, ff_dim=16, classifier_hidden=8),
            html=HtmlHead(
                char_vocab=33, char_embed=4, conv_sizes=(2, 3), conv_filters=2,
                char_fc=8, word_vocab=17, word_embed=4, dom_vocab=9, dom_embed=4,
                lstm_hidden=3, classifier_hidden=8,
            ),
            url=UrlHead(in_dim=16, hidden=16),
        )

    @staticmethod
    def desk_pages(word_buckets: int = 257, dom_buckets: int = 61) -> "ModelSpec":
        """Desk dims with an html head sized for real preprocessed pages
        (full byte vocabulary; a bucket count is its stream's PAD id)."""
        desk = ModelSpec.desk()
        return ModelSpec(
            image=desk.image,
            html=HtmlHead(
                char_vocab=table_rows(CHAR_PAD), char_embed=8, conv_sizes=(2, 3, 4),
                conv_filters=4, char_fc=16, word_vocab=table_rows(word_buckets), word_embed=16,
                dom_vocab=table_rows(dom_buckets), dom_embed=8, lstm_hidden=8,
                classifier_hidden=16,
            ),
            url=desk.url,
        )

    def heads(self) -> dict[str, object]:
        """The four heads by role, in draw order; no head is built."""
        return {"image": self.image, "html": self.html, "url": self.url, "fusion": FUSION}

    def param_specs(self) -> dict:
        """The four heads' tables in ``heads()`` order, the draw order."""
        return {k: v for head in self.heads().values() for k, v in head.param_specs().items()}

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        """Every parameter's shape, keyed by prefixed name, sorted; nothing
        is allocated."""
        return {name: shape for name, (shape, _) in sorted(self.param_specs().items())}

    def init_params(self, seed: int) -> dict[str, np.ndarray]:
        """All four heads' parameters as float64 arrays, keyed by prefixed
        name, sorted."""
        return dict(sorted(draw_params(self.param_specs(), np.random.default_rng(seed)).items()))
