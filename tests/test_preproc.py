"""HTML preprocessing: normalization, scanning, hashing and the streams."""

import numpy as np
import pytest

from fedphish.preproc import (
    CHAR_PAD,
    HtmlStreams,
    PreprocConfig,
    _bucket,
    _scan,
    char_stream,
    fnv1a64,
    normalize_html,
    preprocess,
    tokenize_words,
)

CFG = PreprocConfig()


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
    assert (s.char_ids == CHAR_PAD).all()
    assert (s.word_ids == CFG.word_buckets).all()
    assert (s.dom_ids == CFG.dom_buckets).all()


def test_preprocess_deterministic():
    html = "<html><body onload='x<y'>Sign in <b>now</b><script>s</script></body>"
    a = preprocess(html, CFG)
    b = preprocess(html, CFG)
    assert np.array_equal(a.char_ids, b.char_ids)
    assert np.array_equal(a.word_ids, b.word_ids)
    assert np.array_equal(a.dom_ids, b.dom_ids)


def test_preprocess_long_page_has_no_char_pad():
    html = "<html>" + "word " * 2000
    s = preprocess(html, CFG)
    assert (s.char_ids != CHAR_PAD).all()


def test_preprocess_matches_individual_ops():
    html = "<html><body>Hello <i>there</i> user_1</body></html>"
    s = preprocess(html, CFG)
    norm = normalize_html(html)
    assert np.array_equal(s.char_ids, char_stream(norm, CFG))
    assert np.array_equal(s.word_ids, word_stream(tokenize_words(extract_visible_text(norm)), CFG))
    assert np.array_equal(s.dom_ids, dom_stream(norm, CFG))


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
        s = preprocess(random_html(rng), cfg)
        s.validate(cfg)


def test_preprocess_never_raises_on_arbitrary_bytes():
    rng = np.random.default_rng(3)
    for _ in range(200):
        blob = bytes(rng.integers(0, 256, size=rng.integers(0, 300)).tolist())
        text = blob.decode("utf-8", errors="replace")
        preprocess(text, CFG).validate(CFG)


def test_streams_validate_rejects_bad_pad_suffix():
    s = preprocess("", CFG)
    bad = s.word_ids.copy()
    bad[0] = CFG.word_buckets
    bad[1] = 5
    with pytest.raises(ValueError):
        HtmlStreams(s.char_ids, bad, s.dom_ids).validate(CFG)

