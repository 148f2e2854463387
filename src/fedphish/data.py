"""Dataset ingestion and synthetic generators for desk-scale verification.

Real embeddings (frozen image and URL encoders) arrive as JSON Lines; HTML
arrives as raw text and runs through the preprocessing pipeline. The
synthetic generators stand in for those feeds with controllable difficulty.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .preproc import HtmlStreams, PreprocConfig, preprocess

__all__ = [
    "Sample",
    "PairedSample",
    "load_jsonl",
    "synth_embeddings",
    "synth_image_tokens",
    "synth_html",
    "synth_paired",
    "stack_url",
    "stack_image",
    "stack_html",
    "stack_pairs",
]

EMBED_DIM = 768


@dataclass(frozen=True)
class Sample:
    """One labelled page with exactly one payload kind."""

    label: int
    url_embedding: np.ndarray | None = None
    image_tokens: np.ndarray | None = None
    html_streams: HtmlStreams | None = None

    def __post_init__(self):
        kinds = sum(
            x is not None
            for x in (self.url_embedding, self.image_tokens, self.html_streams)
        )
        if kinds != 1:
            raise ValueError(f"sample must carry exactly one payload, got {kinds}")
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label}")


@dataclass(frozen=True)
class PairedSample:
    """An image payload and an html payload for the same page, one label."""

    label: int
    image_tokens: np.ndarray
    html_streams: HtmlStreams


def load_jsonl(path, modality: str, *, preproc_cfg: PreprocConfig | None = None,
               embed_dim: int = EMBED_DIM) -> list[Sample]:
    """Read one sample per line; html text is preprocessed on the way in."""
    if modality not in ("url", "image", "html"):
        raise ValueError(f"unknown modality {modality!r}")
    cfg = preproc_cfg or PreprocConfig()
    samples: list[Sample] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: line {lineno}: invalid JSON ({exc})") from exc
            if not isinstance(obj, dict) or "label" not in obj:
                raise ValueError(f"{path}: line {lineno}: missing 'label'")
            label = obj["label"]
            if label not in (0, 1):
                raise ValueError(f"{path}: line {lineno}: label must be 0 or 1")
            if modality == "url":
                emb = obj.get("embedding")
                if not isinstance(emb, list) or len(emb) != embed_dim:
                    got = len(emb) if isinstance(emb, list) else type(emb).__name__
                    raise ValueError(
                        f"{path}: line {lineno}: 'embedding' must be {embed_dim} floats, got {got}"
                    )
                samples.append(Sample(label=label, url_embedding=np.asarray(emb, dtype=np.float64)))
            elif modality == "image":
                toks = obj.get("tokens")
                arr = np.asarray(toks, dtype=np.float64) if isinstance(toks, list) else None
                if arr is None or arr.ndim != 2 or arr.shape[1] != embed_dim:
                    raise ValueError(
                        f"{path}: line {lineno}: 'tokens' must be an L x {embed_dim} float matrix"
                    )
                samples.append(Sample(label=label, image_tokens=arr))
            else:
                html = obj.get("html")
                if not isinstance(html, str):
                    raise ValueError(f"{path}: line {lineno}: 'html' must be a string")
                samples.append(Sample(label=label, html_streams=preprocess(html, cfg)))
    return samples


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
    labels = np.zeros(n, dtype=np.int64)
    labels[n // 2 :] = 1
    return rng.permutation(labels)


def synth_embeddings(n: int, dim: int = EMBED_DIM, separation: float = 4.0,
                     seed: int = 0) -> list[Sample]:
    """Two unit-covariance Gaussian clusters with means +-(separation/2) u.

    separation 0 makes the classes indistinguishable; separation 8 puts the
    Bayes error around Phi(-4) ~ 3e-5.
    """
    if n < 2:
        raise ValueError("need at least two samples")
    if separation < 0:
        raise ValueError("separation must be non-negative")
    rng = np.random.default_rng(seed)
    u = _unit_direction(dim)
    labels = _balanced_labels(n, rng)
    out = []
    for label in labels:
        mean = (separation / 2.0) * u * (1.0 if label == 1 else -1.0)
        out.append(Sample(label=int(label), url_embedding=mean + rng.standard_normal(dim)))
    return out


def synth_image_tokens(n: int, length: int = 16, dim: int = EMBED_DIM,
                       separation: float = 4.0, seed: int = 0) -> list[Sample]:
    """Token sequences tiled from the same cluster scheme as the embeddings."""
    if n < 2:
        raise ValueError("need at least two samples")
    rng = np.random.default_rng(seed)
    u = _unit_direction(dim)
    labels = _balanced_labels(n, rng)
    out = []
    for label in labels:
        mean = (separation / 2.0) * u * (1.0 if label == 1 else -1.0)
        toks = mean[None, :] + rng.standard_normal((length, dim))
        out.append(Sample(label=int(label), image_tokens=toks))
    return out


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
    words = [str(rng.choice(vocab)) for _ in range(int(rng.integers(3, 7)))]
    words += [str(rng.choice(NEUTRAL_VOCAB)) for _ in range(int(rng.integers(2, 5)))]
    body = " ".join(str(w) for w in rng.permutation(words))
    motif = "".join(f"<{t}></{t}>" for t in rng.choice(tags, size=int(rng.integers(1, 4))))
    title = str(rng.choice(NEUTRAL_VOCAB))
    return f"<html><head><title>{title}</title></head><body><div>{body}</div>{motif}</body></html>"


def synth_html(n: int, seed: int = 0, *, informative: bool = True,
               preproc_cfg: PreprocConfig | None = None,
               return_html: bool = False):
    """Template pages; label 1 plants a token vocabulary and tag motif that
    label 0 never uses. With informative=False every page draws from a
    neutral template and carries no label signal."""
    if n < 2:
        raise ValueError("need at least two samples")
    cfg = preproc_cfg or PreprocConfig()
    rng = np.random.default_rng(seed)
    labels = _balanced_labels(n, rng)
    samples = []
    pages = []
    for label in labels:
        if not informative:
            html = _render_page(rng, NEUTRAL_VOCAB, CLEAN_TAGS)
        elif label == 1:
            html = _render_page(rng, PLANTED_VOCAB, PLANTED_TAGS)
        else:
            html = _render_page(rng, CLEAN_VOCAB, CLEAN_TAGS)
        pages.append((int(label), html))
        samples.append(Sample(label=int(label), html_streams=preprocess(html, cfg)))
    if return_html:
        return samples, pages
    return samples


def synth_paired(n: int, seed: int = 0, *, image_length: int = 4,
                 image_dim: int = 16, separation: float = 8.0,
                 preproc_cfg: PreprocConfig | None = None) -> list[PairedSample]:
    """Complementary paired task: for each page exactly one of the two
    modalities carries the label, the other is noise, so either branch
    alone tops out near 75% while the pair decides every sample."""
    if n < 2:
        raise ValueError("need at least two samples")
    cfg = preproc_cfg or PreprocConfig()
    rng = np.random.default_rng(seed)
    labels = _balanced_labels(n, rng)
    image_informative = rng.random(n) < 0.5
    u = _unit_direction(image_dim)
    out = []
    for label, img_inf in zip(labels, image_informative):
        if img_inf:
            mean = (separation / 2.0) * u * (1.0 if label == 1 else -1.0)
            toks = mean[None, :] + rng.standard_normal((image_length, image_dim))
            html = _render_page(rng, NEUTRAL_VOCAB, CLEAN_TAGS)
        else:
            toks = rng.standard_normal((image_length, image_dim))
            vocab = PLANTED_VOCAB if label == 1 else CLEAN_VOCAB
            tags = PLANTED_TAGS if label == 1 else CLEAN_TAGS
            html = _render_page(rng, vocab, tags)
        out.append(
            PairedSample(
                label=int(label),
                image_tokens=toks,
                html_streams=preprocess(html, cfg),
            )
        )
    return out


# ---------------------------------------------------------------------------
# array stacking for the training loops
# ---------------------------------------------------------------------------

def stack_url(samples: list[Sample]) -> dict[str, np.ndarray]:
    return {
        "x": np.stack([s.url_embedding for s in samples]),
        "y": np.array([s.label for s in samples], dtype=np.int64),
    }


def stack_image(samples: list[Sample]) -> dict[str, np.ndarray]:
    return {
        "x": np.stack([s.image_tokens for s in samples]),
        "y": np.array([s.label for s in samples], dtype=np.int64),
    }


def stack_html(samples: list[Sample]) -> dict[str, np.ndarray]:
    return {
        "char": np.stack([s.html_streams.char_ids for s in samples]),
        "word": np.stack([s.html_streams.word_ids for s in samples]),
        "dom": np.stack([s.html_streams.dom_ids for s in samples]),
        "y": np.array([s.label for s in samples], dtype=np.int64),
    }


def stack_pairs(pairs: list[PairedSample]) -> dict[str, np.ndarray]:
    return {
        "x": np.stack([p.image_tokens for p in pairs]),
        "char": np.stack([p.html_streams.char_ids for p in pairs]),
        "word": np.stack([p.html_streams.word_ids for p in pairs]),
        "dom": np.stack([p.html_streams.dom_ids for p in pairs]),
        "y": np.array([p.label for p in pairs], dtype=np.int64),
    }
