"""HTML preprocessing: normalization, scanning, hashing and the streams."""

import re
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedphish.preproc import (
    _ASCII_TOKEN_RE,
    CHAR_PAD,
    PreprocConfig,
    _bucket,
    _is_token_char,
    _scan,
    char_stream,
    fnv1a64,
    normalize_html,
    preprocess,
    tokenize_words,
)

CFG = PreprocConfig()
STREAMS = ("char", "word", "dom")


def assert_valid_streams(streams, cfg: PreprocConfig) -> None:
    """Each of the "char", "word" and "dom" streams of ``streams`` has its
    length in ``cfg``, ids in [0, PAD], and PAD only as a contiguous suffix.
    Other keys, such as a dataset row's label, are ignored."""
    pads = {"char": CHAR_PAD, "word": cfg.word_buckets, "dom": cfg.dom_buckets}
    for name, length in cfg.lengths().items():
        ids, pad = streams[name], pads[name]
        assert len(ids) == length, f"{name} stream has length {len(ids)}, expected {length}"
        assert ids.min(initial=0) >= 0 and ids.max(initial=0) <= pad, (
            f"{name} stream has ids outside [0, {pad}]")
        is_pad = ids == pad
        assert not is_pad.any() or is_pad[int(np.argmax(is_pad)):].all(), (
            f"{name} stream PAD is not a contiguous suffix")


# ---------------------------------------------------------------------------
# per-stream oracles: each stream derived on its own from the scanner, the
# reference that the one-pass ``preprocess`` is compared against
# ---------------------------------------------------------------------------

def extract_visible_text(html: str) -> str:
    """Visible character data in document order; tags act as separators."""
    return " ".join(seg for kind, seg in _scan(html) if kind == "text")


def word_stream(tokens: list[str], cfg: PreprocConfig) -> np.ndarray:
    """Token bucket ids, truncated or PAD-padded to word_len."""
    out = np.full(cfg.word_len, cfg.word_buckets, dtype=np.int64)
    for i, tok in enumerate(tokens[: cfg.word_len]):
        out[i] = _bucket(tok, cfg.word_buckets)
    return out


def dom_stream(html: str, cfg: PreprocConfig) -> np.ndarray:
    """Opening/self-closing tag-name bucket ids in document order."""
    names = [name for kind, name in _scan(html) if kind == "tag"][: cfg.dom_len]
    out = np.full(cfg.dom_len, cfg.dom_buckets, dtype=np.int64)
    out[: len(names)] = [_bucket(name, cfg.dom_buckets) for name in names]
    return out


# ---------------------------------------------------------------------------
# reference FNV-1a, written against the published algorithm, used as oracle
# ---------------------------------------------------------------------------

def fnv1a64_reference(data: bytes) -> int:
    h = 14695981039346656037
    for byte in data:
        h = ((h ^ byte) * 1099511628211) % (1 << 64)
    return h


def test_fnv_empty_vector():
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64_reference(b"") == 0xCBF29CE484222325


def test_fnv_single_a_vector():
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64_reference(b"a") == 0xAF63DC4C8601EC8C


def test_fnv_matches_reference_on_random_bytes():
    rng = np.random.default_rng(0)
    for _ in range(200):
        data = bytes(rng.integers(0, 256, size=rng.integers(0, 40)).tolist())
        assert fnv1a64(data) == fnv1a64_reference(data)


def test_fnv_deterministic():
    assert fnv1a64(b"login") == fnv1a64(b"login")


# ---------------------------------------------------------------------------
# normalize
# ---------------------------------------------------------------------------

def test_normalize_newline_tab_to_single_space():
    assert normalize_html("a\n\tb") == "a b"


def test_normalize_collapses_space_runs():
    assert normalize_html("a    b") == "a b"


def test_normalize_idempotent_on_normalized_text():
    text = normalize_html("<p>\thello ​world</p>\r\n<div>x</div>")
    assert normalize_html(text) == text


def test_normalize_removes_zero_width_and_controls():
    assert normalize_html("a​﻿b") == "ab"
    assert normalize_html("a\x00\x07\x9fb") == "ab"


def test_normalize_keeps_tags_and_attributes():
    html = '<div class="x y">t</div>'
    assert normalize_html(html) == html


def test_normalize_joiners_kept_only_inside_tokens():
    assert normalize_html("ab‍cd") == "ab‍cd"
    assert normalize_html("ab‍ cd") == "ab cd"
    assert normalize_html("‌ab") == "ab"


def test_normalize_idempotent_random_fuzz():
    rng = np.random.default_rng(1)
    alphabet = list("ab <>/='\"\t\n\r​‌‍﻿\x00\x07é漢")
    for _ in range(300):
        s = "".join(rng.choice(alphabet) for _ in range(rng.integers(0, 60)))
        once = normalize_html(s)
        assert normalize_html(once) == once


# ---------------------------------------------------------------------------
# char stream
# ---------------------------------------------------------------------------

def test_char_stream_ascii_pad_suffix():
    out = char_stream("AB", CFG)
    assert len(out) == 4096
    assert out[0] == 65 and out[1] == 66
    assert (out[2:] == CHAR_PAD).all()


def test_char_stream_truncates_long_input():
    out = char_stream("x" * 5000, CFG)
    assert len(out) == 4096
    assert (out != CHAR_PAD).all()


def test_char_stream_utf8_multibyte():
    out = char_stream("é", CFG)
    assert list(out[:2]) == list("é".encode("utf-8"))
    assert out[0] == 195 and out[1] == 169
    assert (out[2:] == CHAR_PAD).all()


# ---------------------------------------------------------------------------
# visible text
# ---------------------------------------------------------------------------

def test_visible_text_simple():
    assert extract_visible_text("<p>hi</p>").strip() == "hi"


def test_visible_text_script_invisible():
    assert extract_visible_text("<script>var x=1</script>ok").strip() == "ok"


def test_visible_text_attribute_values_invisible():
    assert extract_visible_text("<div a='<b>'>t</div>").strip() == "t"


def test_visible_text_style_template_comment_invisible():
    html = "<style>p{color:red}</style><template><b>no</b></template><!-- gone -->yes"
    assert extract_visible_text(html).strip() == "yes"


def test_visible_text_tolerates_unclosed_tags():
    assert extract_visible_text("<div><p>text").strip() == "text"


def test_visible_text_literal_less_than():
    assert extract_visible_text("1 < 2 and 3 > 2").strip() == "1 < 2 and 3 > 2"


# ---------------------------------------------------------------------------
# tokenization
# ---------------------------------------------------------------------------

def test_tokenize_basic():
    assert tokenize_words("Log-in now!") == ["log", "in", "now"]


def test_tokenize_digits_underscore():
    assert tokenize_words("user_name2") == ["user_name2"]


def test_tokenize_empty():
    assert tokenize_words("") == []


def test_tokenize_combining_marks_and_joiners():
    assert tokenize_words("café") == ["café"]
    assert tokenize_words("ab‍cd ef") == ["ab‍cd", "ef"]


# ---------------------------------------------------------------------------
# word stream
# ---------------------------------------------------------------------------

def test_word_stream_empty_is_all_pad():
    out = word_stream([], CFG)
    assert (out == CFG.word_buckets).all()


def test_word_stream_truncates():
    out = word_stream(["tok"] * 2000, CFG)
    assert len(out) == 1024
    assert (out != CFG.word_buckets).all()


def test_word_stream_bucket_is_fnv_mod():
    out = word_stream(["login"], CFG)
    assert out[0] == fnv1a64_reference(b"login") % 131071
    assert (out[1:] == CFG.word_buckets).all()


# ---------------------------------------------------------------------------
# dom stream
# ---------------------------------------------------------------------------

def test_dom_stream_opening_tags():
    out = dom_stream("<html><body><a>", CFG)
    expected = [fnv1a64_reference(t.encode()) % 8190 for t in ("html", "body", "a")]
    assert list(out[:3]) == expected
    assert (out[3:] == CFG.dom_buckets).all()


def test_dom_stream_excludes_closing_tags():
    out = dom_stream("</div>", CFG)
    assert (out == CFG.dom_buckets).all()


def test_dom_stream_lowercases_and_self_closing():
    a = dom_stream("<IMG/>", CFG)
    b = dom_stream("<img>", CFG)
    assert np.array_equal(a, b)


def test_dom_stream_table1_tag_order():
    html = "<html><head><meta><script>x</script><button><div><a><img><span><iframe>"
    names = "html head meta script button div a img span iframe".split()
    out = dom_stream(html, CFG)
    expected = [fnv1a64_reference(t.encode()) % 8190 for t in names]
    assert list(out[: len(names)]) == expected


# ---------------------------------------------------------------------------
# preprocess
# ---------------------------------------------------------------------------

def test_preprocess_empty_input_all_pad():
    s = preprocess("", CFG)
    assert list(s) == list(CFG.lengths())
    assert (s["char"] == CHAR_PAD).all()
    assert (s["word"] == CFG.word_buckets).all()
    assert (s["dom"] == CFG.dom_buckets).all()


def test_preprocess_deterministic():
    html = "<html><body onload='x<y'>Sign in <b>now</b><script>s</script></body>"
    a = preprocess(html, CFG)
    b = preprocess(html, CFG)
    for name in STREAMS:
        assert np.array_equal(a[name], b[name])


def test_preprocess_long_page_has_no_char_pad():
    html = "<html>" + "word " * 2000
    s = preprocess(html, CFG)
    assert (s["char"] != CHAR_PAD).all()


def test_preprocess_matches_individual_ops():
    html = "<html><body>Hello <i>there</i> user_1</body></html>"
    s = preprocess(html, CFG)
    norm = normalize_html(html)
    assert np.array_equal(s["char"], char_stream(norm, CFG))
    assert np.array_equal(s["word"], word_stream(tokenize_words(extract_visible_text(norm)), CFG))
    assert np.array_equal(s["dom"], dom_stream(norm, CFG))


def random_html(rng) -> str:
    tags = ["div", "a", "script", "style", "p", "IMG", "iframe", "template", "form"]
    words = ["login", "secure", "véry", "check", "用户", "now", "a_b2"]
    parts = []
    for _ in range(rng.integers(1, 30)):
        roll = rng.integers(0, 7)
        tag = str(rng.choice(tags))
        if roll == 0:
            parts.append(f"<{tag} a='<x>' b=\"q>z\">")
        elif roll == 1:
            parts.append(f"</{tag}>")
        elif roll == 2:
            parts.append("<!-- c -->")
        elif roll == 3:
            parts.append(str(rng.choice(words)) + " ")
        elif roll == 4:
            parts.append(f"<{tag}>" + str(rng.choice(words)))
        elif roll == 5:
            parts.append("<")
        else:
            parts.append("".join(chr(rng.integers(1, 1200)) for _ in range(rng.integers(0, 12))))
    return "".join(parts)


def test_preprocess_fuzz_invariants_hold():
    rng = np.random.default_rng(2)
    cfg = PreprocConfig(char_len=128, word_len=32, dom_len=32)
    for _ in range(500):
        assert_valid_streams(preprocess(random_html(rng), cfg), cfg)


def test_preprocess_never_raises_on_arbitrary_bytes():
    rng = np.random.default_rng(3)
    for _ in range(200):
        blob = bytes(rng.integers(0, 256, size=rng.integers(0, 300)).tolist())
        text = blob.decode("utf-8", errors="replace")
        assert_valid_streams(preprocess(text, CFG), CFG)


def test_streams_validate_rejects_bad_pad_suffix():
    s = preprocess("", CFG)
    s["word"][0] = CFG.word_buckets
    s["word"][1] = 5
    with pytest.raises(AssertionError, match="word stream PAD"):
        assert_valid_streams(s, CFG)



def test_normalize_drops_lone_surrogates():
    # json.loads makes a lone surrogate of a "\\ud800" escape; UTF-8 holds none
    for raw in ("a\ud800b", "a\udfffb", "\udc80a\ud800\udbffb"):
        assert normalize_html(raw) == "ab"
        s, t = preprocess(raw, CFG), preprocess("ab", CFG)
        for name in STREAMS:
            assert np.array_equal(s[name], t[name])


def test_raw_text_close_is_found_in_the_page_own_offsets():
    # "İ".lower() is two characters; a close tag searched in a lowered copy
    # would land one character late per "İ" and swallow what follows
    tail = "<script>x</script><b>shown</b><i>also</i>"
    assert list(_scan("İ" * 12 + tail)) == [
        ("text", "İ" * 12), ("tag", "script"), ("tag", "b"), ("text", "shown"),
        ("tag", "i"), ("text", "also")]
    dotted, plain = preprocess("İ" * 12 + tail, CFG), preprocess("I" * 12 + tail, CFG)
    assert np.array_equal(dotted["dom"], plain["dom"])
    assert np.array_equal(dotted["word"][1:], plain["word"][1:])


def test_raw_text_close_matches_ascii_case_only():
    # the Kelvin sign and the long s fold to k and s only outside ASCII rules
    assert list(_scan("<STYLE>a</sTyLe>b")) == [("tag", "style"), ("text", "b")]
    assert list(_scan("<script>a</ſcript>b")) == [("tag", "script")]


# ---------------------------------------------------------------------------
# the per-character scanner and tokenizer: the reference that the
# find-and-regex scanner and the ASCII token regex are compared against
# ---------------------------------------------------------------------------

_RAW_TEXT_TAGS = frozenset({"script", "style", "template"})
_TAG_NAME_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9:_-]*")
_ASCII_LOWER = str.maketrans(string.ascii_uppercase, string.ascii_lowercase)


def scan_reference(html: str):
    """The scanner one character at a time. A raw-text element's close tag
    is searched in a copy lowered in ASCII only, which keeps every offset."""
    n = len(html)
    lower = html.translate(_ASCII_LOWER)
    i = 0
    text_start = 0
    while i < n:
        if html[i] != "<":
            i += 1
            continue
        nxt = html[i + 1] if i + 1 < n else ""
        if nxt.isascii() and nxt.isalpha():
            if text_start < i:
                yield ("text", html[text_start:i])
            m = _TAG_NAME_RE.match(html, i + 1)
            name = m.group(0).lower()
            j = m.end()
            # skip attributes; '>' inside quoted values does not close the tag
            quote = ""
            self_closing = False
            while j < n:
                ch = html[j]
                if quote:
                    if ch == quote:
                        quote = ""
                elif ch in ("'", '"'):
                    quote = ch
                elif ch == ">":
                    self_closing = html[j - 1] == "/"
                    j += 1
                    break
                j += 1
            else:
                # unterminated tag swallows the rest of the document
                yield ("tag", name)
                return
            yield ("tag", name)
            if name in _RAW_TEXT_TAGS and not self_closing:
                close = lower.find(f"</{name}", j)
                if close < 0:
                    return
                end = html.find(">", close)
                j = n if end < 0 else end + 1
            i = j
            text_start = i
        elif nxt == "/":
            if text_start < i:
                yield ("text", html[text_start:i])
            end = html.find(">", i)
            i = n if end < 0 else end + 1
            text_start = i
        elif nxt == "!" or nxt == "?":
            if text_start < i:
                yield ("text", html[text_start:i])
            if html.startswith("<!--", i):
                end = html.find("-->", i + 4)
                i = n if end < 0 else end + 3
            else:
                end = html.find(">", i)
                i = n if end < 0 else end + 1
            text_start = i
        else:
            i += 1  # literal '<' in text
    if text_start < n:
        yield ("text", html[text_start:n])


def tokenize_reference(text: str) -> list[str]:
    """Maximal runs of token characters, one character at a time."""
    tokens, run = [], ""
    for ch in text + " ":
        if _is_token_char(ch):
            run += ch
        elif run:
            tokens.append(run.lower())
            run = ""
    return tokens


def preprocess_reference(html: str, cfg: PreprocConfig) -> dict[str, np.ndarray]:
    norm = normalize_html(html)
    events = list(scan_reference(norm))
    words = [t for kind, seg in events if kind == "text" for t in tokenize_reference(seg)]
    names = [name for kind, name in events if kind == "tag"][: cfg.dom_len]
    doms = np.full(cfg.dom_len, cfg.dom_buckets, dtype=np.int64)
    doms[: len(names)] = [fnv1a64_reference(name.encode()) % cfg.dom_buckets for name in names]
    return {"char": char_stream(norm, cfg), "word": word_stream(words, cfg), "dom": doms}


def test_ascii_token_regex_is_the_token_char_rule_on_ascii():
    for code in range(128):
        ch = chr(code)
        assert bool(_ASCII_TOKEN_RE.fullmatch(ch)) == _is_token_char(ch), repr(ch)


def test_cached_bucket_is_fnv_mod():
    for buckets in (2, 61, 257, 8190, 131071):
        for tok in ("", "a", "login", "i̇stanbul", "用户", "a_b2", "login"):
            assert _bucket(tok, buckets) == fnv1a64_reference(tok.encode("utf-8")) % buckets


# markup pieces that steer the scanner into each of its branches and edges
FRAGMENTS = [
    "<", ">", "/", "=", " ", '"', "'", "<a", "<DIV", '<b x="1>2">', "<i y='>' z=\"'\">",
    '<p a="', "<p a='", "<br/>", "<img src=a/>", "</", "</div>", "</p ", "</>",
    "<!--", "-->", "<!doctype html>", "<!x", "<?xml ?>", "<?",
    "<script>", "<SCRIPT>", "<ScRiPt/>", "<script a='</script>'>", "</script>", "</SCRIPT >",
    "</scrİpt>", "<style>", "</Style>", "<template>", "</TEMPLATE>",
    "word", "Log-in", "x_y2", "İ", "K", "ſ", "e\u0301", "\u200d", "\u200c", "\u200b", "\ufeff",
    "é", "Ω", "漢字", "١٢", "½", "\ud800", "\udfff", "\t", "\n", "\r", "\x00", "\x85",
]
PAGES = st.lists(st.one_of(st.sampled_from(FRAGMENTS), st.text(max_size=4)), max_size=40).map("".join)
CONFIGS = {
    "paper": CFG,
    "desk": PreprocConfig(char_len=64, word_len=16, dom_len=16, word_buckets=257, dom_buckets=61),
    "tiny": PreprocConfig(char_len=4, word_len=2, dom_len=2, word_buckets=3, dom_buckets=2),
}


@settings(max_examples=400, deadline=None, derandomize=True)
@given(PAGES)
def test_scan_and_streams_match_the_per_character_reference(page):
    assert list(_scan(page)) == list(scan_reference(page))
    norm = normalize_html(page)
    assert normalize_html(norm) == norm
    assert list(_scan(norm)) == list(scan_reference(norm))
    for cfg in CONFIGS.values():
        got, want = preprocess(page, cfg), preprocess_reference(page, cfg)
        for name in STREAMS:
            assert np.array_equal(got[name], want[name]), name
