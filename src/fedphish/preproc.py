"""Deterministic transformation of raw HTML into three fixed-length index
streams, keyed as a batch keys them: "char", the UTF-8 bytes; "word", the
hashed visible words; and "dom", the hashed DOM tag names.

The whole pipeline is a pure function of its input: same page in, same
streams out, byte for byte. Scanning is single-pass and tolerant; malformed
markup degrades to text, never to an exception, and a lone surrogate (which
``json.loads`` makes of a ``"\\ud800"`` escape) is dropped with the controls.

The per-character definitions stay in Python and the hot paths reach them
through C: the scanner jumps between '<' with ``str.find`` and skips a tag's
attributes with one regex; an all-ASCII text segment is tokenized by the
regex ``[A-Za-z0-9_]+``, which on ASCII is exactly the token-character rule;
and bucket ids are cached per (token, bucket count), since a page repeats a
few dozen distinct tag names and words.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .rules import BUCKETS, check_fields, setting

__all__ = [
    "PreprocConfig",
    "fnv1a64",
    "normalize_html",
    "char_stream",
    "tokenize_words",
    "preprocess",
]

FNV_OFFSET_BASIS = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_U64_MASK = 0xFFFFFFFFFFFFFFFF

CHAR_PAD = 256

_ZWNJ = "‌"
_ZWJ = "‍"

# C0/C1 controls minus tab/newline/carriage-return (those become spaces),
# and lone surrogates, which no UTF-8 encoding holds
_CONTROL_RE = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\x7f\x80-\x9f\ud800-\udfff]")
_JOINER_RE = re.compile(f"[{_ZWNJ}{_ZWJ}]")
_WS_RE = re.compile(r"[ \t\n\r]+")

# a tag's name, then its attributes up to the '>' that closes it: a quoted
# value may hold '>', and an unclosed quote stops the match short of any '>'
_TAG_RE = re.compile(r"""([a-zA-Z][a-zA-Z0-9:_-]*)(?:[^'">]+|"[^"]*"|'[^']*')*""")
# the closing tag of each raw-text element, found ASCII case-insensitively in
# the page's own coordinates
_RAW_TEXT_CLOSE = {name: re.compile(f"</{name}", re.I | re.A)
                   for name in ("script", "style", "template")}
_ASCII_TOKEN_RE = re.compile(r"[A-Za-z0-9_]+")


@dataclass(frozen=True)
class PreprocConfig:
    """Stream lengths and hash bucket counts; a bucket count is also its
    stream's PAD id."""

    char_len: int = setting(4096, "an integer >= 1")
    word_len: int = setting(1024, "an integer >= 1")
    dom_len: int = setting(1024, "an integer >= 1")
    word_buckets: int = setting(131071, BUCKETS)
    dom_buckets: int = setting(8190, BUCKETS)

    def __post_init__(self):
        check_fields(self)

    def lengths(self) -> dict[str, int]:
        """The length of each id stream of a page, by stream name."""
        return {"char": self.char_len, "word": self.word_len, "dom": self.dom_len}


def fnv1a64(data: bytes) -> int:
    """Standard FNV-1a 64-bit hash (XOR byte, multiply by prime, wrap)."""
    h = FNV_OFFSET_BASIS
    for byte in data:
        h ^= byte
        h = (h * FNV_PRIME) & _U64_MASK
    return h


@lru_cache(maxsize=4096)
def _is_token_char(ch: str) -> bool:
    if ch == "_" or ch == _ZWJ or ch == _ZWNJ:
        return True
    cat = unicodedata.category(ch)
    return cat[0] in ("L", "N", "M")


def _strip_loose_joiners(text: str) -> str:
    """Remove ZWJ/ZWNJ unless flanked by token characters on both sides."""

    def repl(m: re.Match) -> str:
        i, j = m.start(), m.end()
        before = text[i - 1] if i > 0 else ""
        after = text[j] if j < len(text) else ""
        keep = (
            before and after
            and before not in (_ZWJ, _ZWNJ) and after not in (_ZWJ, _ZWNJ)
            and _is_token_char(before) and _is_token_char(after)
        )
        return m.group(0) if keep else ""

    return _JOINER_RE.sub(repl, text)


def normalize_html(raw: str) -> str:
    """Minimal text normalization; tags and attributes are left untouched.

    Zero-width characters, C0/C1 controls and lone surrogates are removed,
    then line breaks, tabs and space runs collapse to single spaces. The
    removals run first so the composition is idempotent.
    """
    text = raw.replace("​", "").replace("﻿", "")
    text = _CONTROL_RE.sub("", text)
    text = _strip_loose_joiners(text)
    return _WS_RE.sub(" ", text)


def char_stream(html: str, cfg: PreprocConfig) -> np.ndarray:
    """UTF-8 byte values 0..255, truncated or PAD(256)-padded to char_len."""
    data = html.encode("utf-8")[: cfg.char_len]
    out = np.full(cfg.char_len, CHAR_PAD, dtype=np.int64)
    out[: len(data)] = np.frombuffer(data, dtype=np.uint8)
    return out


def _scan(html: str) -> Iterator[tuple[str, str]]:
    """Tolerant single-pass markup scanner.

    Yields ("text", segment) for character data and ("tag", name) for each
    opening or self-closing tag, in document order. Comments, declarations,
    closing tags and the contents of raw-text elements (script, style,
    template) are consumed silently. A '<' that does not start markup is
    treated as text.

    Text runs are skipped with ``str.find`` for the next '<', and a tag's
    name and attributes with one match of ``_TAG_RE``: '>' inside a quoted
    value does not close the tag, and an unclosed quote or tag swallows the
    rest of the page. A raw-text element ends at its ``</name`` matched ASCII
    case-insensitively.
    """
    n = len(html)
    i = 0
    text_start = 0
    while (i := html.find("<", i)) >= 0:
        tag = _TAG_RE.match(html, i + 1)
        if tag is None and not html.startswith(("/", "!", "?"), i + 1):
            i += 1  # literal '<' in text
            continue
        if text_start < i:
            yield ("text", html[text_start:i])
        if tag:
            name = tag.group(1).lower()
            yield ("tag", name)
            j = tag.end()
            if j == n or html[j] != ">":
                return  # an unterminated tag or quote swallows the rest
            raw_close = _RAW_TEXT_CLOSE.get(name)
            if raw_close and html[j - 1] != "/":
                close = raw_close.search(html, j + 1)
                if close is None:
                    return
                j = html.find(">", close.start())
            i = n if j < 0 else j + 1
        elif html.startswith("<!--", i):
            end = html.find("-->", i + 4)
            i = n if end < 0 else end + 3
        else:  # a closing tag, declaration or processing instruction
            end = html.find(">", i)
            i = n if end < 0 else end + 1
        text_start = i
    if text_start < n:
        yield ("text", html[text_start:n])


def tokenize_words(text: str) -> list[str]:
    """Maximal runs of letters, digits, marks, underscore, ZWJ and ZWNJ,
    lowercased; everything else separates. On all-ASCII text that class is
    ``[A-Za-z0-9_]``, so such text is tokenized by one regex."""
    if text.isascii():
        return _ASCII_TOKEN_RE.findall(text.lower())
    tokens: list[str] = []
    start = -1
    for i, ch in enumerate(text):
        if _is_token_char(ch):
            if start < 0:
                start = i
        elif start >= 0:
            tokens.append(text[start:i].lower())
            start = -1
    if start >= 0:
        tokens.append(text[start:].lower())
    return tokens


@lru_cache(maxsize=4096)
def _bucket(token: str, buckets: int) -> int:
    return fnv1a64(token.encode("utf-8")) % buckets


def _padded(ids: list[int], length: int, pad: int) -> np.ndarray:
    out = np.full(length, pad, dtype=np.int64)
    out[: len(ids)] = ids
    return out


def preprocess(html: str, cfg: PreprocConfig | None = None) -> dict[str, np.ndarray]:
    """Normalize, then derive all three streams in one pass over the markup.

    Returns the streams by the keys of ``cfg.lengths()``: "char", "word"
    and "dom", each an int64 array of that length. A stream's PAD id
    (256, word_buckets or dom_buckets) occurs only as a contiguous suffix;
    everything before it is real content in document order.
    """
    cfg = cfg or PreprocConfig()
    norm = normalize_html(html)

    words: list[int] = []
    doms: list[int] = []
    for kind, value in _scan(norm):
        if kind == "tag":
            if len(doms) < cfg.dom_len:
                doms.append(_bucket(value, cfg.dom_buckets))
        elif len(words) < cfg.word_len:
            tokens = tokenize_words(value)[: cfg.word_len - len(words)]
            words += [_bucket(tok, cfg.word_buckets) for tok in tokens]
    return {
        "char": char_stream(norm, cfg),
        "word": _padded(words, cfg.word_len, cfg.word_buckets),
        "dom": _padded(doms, cfg.dom_len, cfg.dom_buckets),
    }
