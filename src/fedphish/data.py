"""Dataset ingestion and synthetic generators for desk-scale verification.

A dataset is a ``Dataset``: a dict of arrays stacked along a leading sample
axis, with int64 labels 0 or 1 under "y". Indexing it with a slice or an
index array selects those samples of every array. The other keys depend on
the modality:

- url: "x" [N, dim] embeddings;
- image: "x" [N, L, dim] token sequences;
- html: "char", "word" and "dom" [N, stream length], each page's streams
  under the keys ``preprocess`` returns them by;
- pair: an image and an html payload of the same page, so "x", "char",
  "word" and "dom".

Real embeddings (frozen image and URL encoders) arrive as JSON Lines; HTML
arrives as raw text and runs through the preprocessing pipeline. The
synthetic generators stand in for those feeds with controllable difficulty:
url embeddings and image tokens are two Gaussian clusters around +-u
(``_clusters``, one draw for all samples), html pages are template pages
that plant a phishing vocabulary, and a paired page carries its label in
exactly one of its image and its html.
"""

from __future__ import annotations

import json

import numpy as np

from .preproc import PreprocConfig, preprocess

__all__ = [
    "Dataset",
    "load_jsonl",
    "stack_url",
    "synth_embeddings",
    "synth_image_tokens",
    "synth_pages",
    "synth_html",
    "synth_paired",
]

EMBED_DIM = 768


class Dataset(dict):
    """Arrays stacked along a leading sample axis, keyed by name. A string
    key reads one array; any other key (a slice, an index array) selects
    those samples of every array, as a new Dataset."""

    def __getitem__(self, key):
        if isinstance(key, str):
            return super().__getitem__(key)
        return Dataset({name: arr[key] for name, arr in self.items()})


def stack_url(data: Dataset) -> dict[str, np.ndarray]:
    """The url arrays "x" and "y" of ``data`` as a new plain dict, for
    callers that build a url shard, such as the benchmark's self-tests."""
    return {"x": data["x"], "y": data["y"]}


def _html_rows(n: int, cfg: PreprocConfig) -> dict[str, np.ndarray]:
    """Empty "char", "word" and "dom" arrays for ``n`` preprocessed pages."""
    return {key: np.empty((n, length), dtype=np.int64) for key, length in cfg.lengths().items()}


def _put_page(rows: dict[str, np.ndarray], i: int, html: str, cfg: PreprocConfig) -> None:
    for key, ids in preprocess(html, cfg).items():
        rows[key][i] = ids


_NUMBER_TYPES = {int, float}  # not bool: json reads true as a bool, which numpy takes as 1.0


def _float_payload(value, key: str, shape: tuple, where: str, what: str) -> np.ndarray:
    """``value`` as a finite float array of ``shape``; a None in ``shape``
    matches any length. Every entry must be a JSON number: numpy would also
    convert a numeric string or a boolean."""
    arr = None
    rows = value if len(shape) == 2 else [value]
    if isinstance(value, list) and all(
            isinstance(r, list) and set(map(type, r)) <= _NUMBER_TYPES for r in rows):
        try:
            arr = np.asarray(value, dtype=np.float64)
        except (ValueError, OverflowError):  # ragged, huge ints
            pass
    if arr is None or arr.ndim != len(shape) or any(
            want not in (None, got) for got, want in zip(arr.shape, shape)):
        raise ValueError(f"{where}: {key!r} must be {what}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{where}: {key!r} holds a NaN or infinite value")
    return arr


def load_jsonl(path, modality: str, *, preproc_cfg: PreprocConfig | None = None,
               embed_dim: int = EMBED_DIM) -> Dataset:
    """Read one labelled page per line into a url, image or html dataset;
    html text is preprocessed on the way in. The file is read as UTF-8
    whatever the locale; a rejected line, one that is not UTF-8 included,
    is named as ``path: line N``."""
    if modality not in ("url", "image", "html"):
        raise ValueError(f"unknown modality {modality!r}")
    cfg = preproc_cfg or PreprocConfig()
    labels: list[int] = []
    payloads: list = []  # per line: an embedding, a token matrix or the html text
    # a byte that is not UTF-8 is kept as a surrogate so that its line can be
    # named below; text mode keeps the line ends \n, \r\n and \r
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            where = f"{path}: line {lineno}"
            try:
                line = line.encode("utf-8", "surrogateescape").decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise ValueError(f"{where}: not UTF-8 ({exc})") from exc
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{where}: invalid JSON ({exc})") from exc
            if not isinstance(obj, dict) or "label" not in obj:
                raise ValueError(f"{where}: missing 'label'")
            label = obj["label"]
            # json reads true as a bool and 1.0 as a float; neither is a label
            if type(label) is not int or label not in (0, 1):
                raise ValueError(f"{where}: label must be 0 or 1 as an integer, got {label!r}")
            if modality == "url":
                emb = obj.get("embedding")
                got = (type(emb).__name__ if not isinstance(emb, list) else
                       len(emb) if len(emb) != embed_dim else "a non-float value")
                payload = _float_payload(emb, "embedding", (embed_dim,), where,
                                         f"{embed_dim} floats, got {got}")
            elif modality == "image":
                # the first line sets the token count of every later one
                length = payloads[0].shape[0] if payloads else None
                what = (f"a {length} x {embed_dim} float matrix, as on the lines before it"
                        if length else f"an L x {embed_dim} float matrix")
                payload = _float_payload(obj.get("tokens"), "tokens", (length, embed_dim), where, what)
            else:
                payload = obj.get("html")
                if not isinstance(payload, str):
                    raise ValueError(f"{where}: 'html' must be a string")
            labels.append(label)
            payloads.append(payload)
    n = len(labels)
    out = Dataset(y=np.array(labels, dtype=np.int64))
    if modality == "html":
        out.update(_html_rows(n, cfg))
        for i, html in enumerate(payloads):
            _put_page(out, i, html, cfg)
        return out
    empty = (0, embed_dim) if modality == "image" else (embed_dim,)
    out["x"] = np.stack(payloads) if payloads else np.empty((0, *empty))
    return out


# ---------------------------------------------------------------------------
# synthetic generators
# ---------------------------------------------------------------------------

def _unit_direction(dim: int) -> np.ndarray:
    # zero-mean so the class signal survives layer normalization (an
    # all-ones direction would be removed with the row mean)
    u = np.where(np.arange(dim) % 2 == 0, 1.0, -1.0)
    u -= u.mean()
    return u / np.linalg.norm(u)


def _balanced_labels(n: int, rng: np.random.Generator) -> np.ndarray:
    if n < 2:
        raise ValueError("need at least two samples")
    labels = np.zeros(n, dtype=np.int64)
    labels[n // 2 :] = 1
    return rng.permutation(labels)


def _class_means(labels: np.ndarray, dim: int, separation: float) -> np.ndarray:
    """[len(labels), dim]: each label's cluster mean, (separation/2) u for
    label 1 and its negative for label 0."""
    if separation < 0:
        raise ValueError("separation must be non-negative")
    return ((separation / 2.0) * _unit_direction(dim)) * np.where(labels == 1, 1.0, -1.0)[:, None]


def _clusters(n: int, shape: tuple[int, ...], separation: float, seed: int) -> Dataset:
    """``n`` balanced labels, then unit-normal samples of ``shape`` whose
    last axis is shifted by the label's class mean."""
    rng = np.random.default_rng(seed)
    labels = _balanced_labels(n, rng)
    means = _class_means(labels, shape[-1], separation)
    x = rng.standard_normal((n, *shape))
    x += means.reshape(n, *(1,) * (len(shape) - 1), shape[-1])
    return Dataset(x=x, y=labels)


def synth_embeddings(n: int, dim: int = EMBED_DIM, separation: float = 4.0,
                     seed: int = 0) -> Dataset:
    """Two unit-covariance Gaussian clusters with means +-(separation/2) u.

    separation 0 makes the classes indistinguishable; separation 8 puts the
    Bayes error around Phi(-4) ~ 3e-5.
    """
    return _clusters(n, (dim,), separation, seed)


def synth_image_tokens(n: int, length: int = 16, dim: int = EMBED_DIM,
                       separation: float = 4.0, seed: int = 0) -> Dataset:
    """Token sequences drawn from the same cluster scheme as the
    embeddings: every token of a sample shares its class mean."""
    return _clusters(n, (length, dim), separation, seed)


# disjoint vocabularies: planted tokens mark phishing pages, clean tokens
# mark benign ones, neutral filler appears everywhere
PLANTED_VOCAB = (
    "verify", "suspended", "urgent", "confirm", "password", "unlock",
    "billing", "invoice", "reactivate", "signin",
)
CLEAN_VOCAB = (
    "weather", "recipe", "library", "garden", "concert", "museum",
    "holiday", "festival", "lecture", "journal",
)
NEUTRAL_VOCAB = (
    "the", "page", "home", "about", "contact", "news", "info", "site",
)
PLANTED_TAGS = ("form", "input", "iframe")
CLEAN_TAGS = ("article", "section", "aside")


def _render_page(rng: np.random.Generator, vocab: tuple[str, ...],
                 tags: tuple[str, ...]) -> str:
    # index draws: the same RNG stream as rng.choice and rng.permutation of
    # the words themselves, without building a numpy array of strings
    words = [vocab[rng.integers(len(vocab))] for _ in range(int(rng.integers(3, 7)))]
    words += [NEUTRAL_VOCAB[rng.integers(len(NEUTRAL_VOCAB))] for _ in range(int(rng.integers(2, 5)))]
    body = " ".join(words[i] for i in rng.permutation(len(words)))
    motif = "".join(f"<{tags[i]}></{tags[i]}>" for i in rng.integers(len(tags), size=int(rng.integers(1, 4))))
    title = NEUTRAL_VOCAB[rng.integers(len(NEUTRAL_VOCAB))]
    return f"<html><head><title>{title}</title></head><body><div>{body}</div>{motif}</body></html>"


def _labelled_page(rng: np.random.Generator, label: int) -> str:
    if label == 1:
        return _render_page(rng, PLANTED_VOCAB, PLANTED_TAGS)
    return _render_page(rng, CLEAN_VOCAB, CLEAN_TAGS)


def synth_pages(n: int, seed: int = 0) -> tuple[np.ndarray, list[str]]:
    """Labels and page texts of template pages; label 1 plants a token
    vocabulary and tag motif that label 0 never uses."""
    rng = np.random.default_rng(seed)
    labels = _balanced_labels(n, rng)
    return labels, [_labelled_page(rng, label) for label in labels]


def synth_html(n: int, seed: int = 0, *, preproc_cfg: PreprocConfig | None = None) -> Dataset:
    """The pages of ``synth_pages``, preprocessed."""
    cfg = preproc_cfg or PreprocConfig()
    labels, pages = synth_pages(n, seed)
    out = Dataset(_html_rows(n, cfg), y=labels)
    for i, html in enumerate(pages):
        _put_page(out, i, html, cfg)
    return out


def synth_paired(n: int, seed: int = 0, *, image_length: int = 4,
                 image_dim: int = 16, separation: float = 8.0,
                 preproc_cfg: PreprocConfig | None = None) -> Dataset:
    """Complementary paired task: for each page exactly one of the two
    modalities carries the label, the other is noise, so either branch
    alone tops out near 75% while the pair decides every sample."""
    cfg = preproc_cfg or PreprocConfig()
    rng = np.random.default_rng(seed)
    labels = _balanced_labels(n, rng)
    means = _class_means(labels, image_dim, separation)
    image_informative = rng.random(n) < 0.5
    out = Dataset(x=np.empty((n, image_length, image_dim)), **_html_rows(n, cfg), y=labels)
    # one sample at a time: the image noise and the page draws interleave
    for i, (label, img_inf) in enumerate(zip(labels, image_informative)):
        if img_inf:
            out["x"][i] = means[i][None, :] + rng.standard_normal((image_length, image_dim))
            html = _render_page(rng, NEUTRAL_VOCAB, CLEAN_TAGS)
        else:
            out["x"][i] = rng.standard_normal((image_length, image_dim))
            html = _labelled_page(rng, label)
        _put_page(out, i, html, cfg)
    return out
