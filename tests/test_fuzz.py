"""Fuzz tests: a bundled config with one value replaced, deleted or retyped
either parses and builds its clients, or is rejected the way ``fedphish
run`` exits 1 (a ``ValueError`` or ``OSError``, before any output); a JSONL
file with one line mutated, or holding bytes that are not UTF-8, either
loads, or is rejected naming ``path: line N``. Nothing here trains.

The replacement pool holds no size between about 10**4 and 2**62: such a
size is valid and only asks for a lot of memory or time, which is a
resource limit, not a config error."""

import copy
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedphish.config import build_clients, bundled_config_names, bundled_config_path, parse_config
from fedphish.data import load_jsonl, synth_embeddings, synth_image_tokens, synth_pages
from fedphish.preproc import PreprocConfig

FUZZ = settings(max_examples=200, deadline=None, derandomize=True)

POOL = [None, True, False, -1, 0, 1, 2, 2.5, -0.5, "x", "", [], {}, [1], {"x": 1}, 2**63]


def retyped(value) -> list:
    """Values of another JSON type that read like ``value``."""
    if isinstance(value, (dict, list)):
        return [json.dumps(value), list(value.values()) if isinstance(value, dict) else {}]
    out = [str(value), [value]]
    if isinstance(value, int) and not isinstance(value, bool):
        out.append(float(value))
    if isinstance(value, float):
        out.append(int(value))
    return out


def value_paths(obj, prefix=()) -> list[tuple]:
    """The key path of every value below ``obj``, containers included."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    paths = []
    for key, value in items:
        paths.append(prefix + (key,))
        paths.extend(value_paths(value, prefix + (key,)))
    return paths


@st.composite
def mutated(draw, obj):
    """``obj`` with one value replaced from the pool, deleted or retyped."""
    obj = copy.deepcopy(obj)
    *head, key = draw(st.sampled_from(value_paths(obj)))
    parent = obj
    for k in head:
        parent = parent[k]
    op = draw(st.sampled_from(["replace", "delete", "retype"]))
    if op == "delete":
        del parent[key]
    else:
        pool = POOL if op == "replace" else retyped(parent[key])
        parent[key] = draw(st.sampled_from(pool))
    return obj


BUNDLED = {name: json.loads(bundled_config_path(name).read_text()) for name in bundled_config_names()}


@st.composite
def mutated_configs(draw):
    return draw(mutated(BUNDLED[draw(st.sampled_from(sorted(BUNDLED)))]))


@FUZZ
@given(mutated_configs())
def test_mutated_config_builds_or_is_a_config_error(tmp_path_factory, raw):
    path = tmp_path_factory.getbasetemp() / "fuzz_config.json"
    path.write_text(json.dumps(raw))
    try:
        build_clients(parse_config(path))
    except (ValueError, OSError):
        pass  # what `fedphish run` reports with exit 1


PCFG = PreprocConfig(char_len=32, word_len=8, dom_len=8, word_buckets=257, dom_buckets=61)
DIM = 4


def jsonl_lines(modality: str) -> list[dict]:
    if modality == "url":
        data = synth_embeddings(3, dim=DIM, seed=1)
        return [{"label": int(y), "embedding": x.tolist()} for x, y in zip(data["x"], data["y"])]
    if modality == "image":
        data = synth_image_tokens(3, length=2, dim=DIM, seed=1)
        return [{"label": int(y), "tokens": x.tolist()} for x, y in zip(data["x"], data["y"])]
    labels, pages = synth_pages(3, seed=1)
    return [{"label": int(y), "html": html} for y, html in zip(labels, pages)]


LINES = {m: jsonl_lines(m) for m in ("url", "image", "html")}


@st.composite
def mutated_jsonl(draw):
    """(modality, file lines) with one line's JSON mutated, or its text cut
    short or swapped for another JSON value."""
    modality = draw(st.sampled_from(sorted(LINES)))
    lines = [json.dumps(obj) for obj in LINES[modality]]
    i = draw(st.integers(0, len(lines) - 1))
    how = draw(st.sampled_from(["value", "cut", "swap"]))
    if how == "value":
        lines[i] = json.dumps(draw(mutated(LINES[modality][i])))
    elif how == "cut":
        lines[i] = lines[i][: draw(st.integers(0, len(lines[i]) - 1))]
    else:
        lines[i] = json.dumps(draw(st.sampled_from(POOL)))
    return modality, lines


@FUZZ
@given(mutated_jsonl())
def test_mutated_jsonl_loads_or_names_its_line(tmp_path_factory, case):
    modality, lines = case
    path = tmp_path_factory.getbasetemp() / "fuzz.jsonl"
    path.write_text("\n".join(lines) + "\n")
    try:
        data = load_jsonl(path, modality, preproc_cfg=PCFG, embed_dim=DIM)
    except ValueError as exc:
        assert re.match(rf"{re.escape(str(path))}: line [1-{len(lines)}]: ", str(exc)), exc
    else:
        assert len(data["y"]) <= len(lines)
        assert all(np.isfinite(v).all() for k, v in data.items() if v.dtype.kind == "f")


@pytest.mark.parametrize("modality", sorted(LINES))
@pytest.mark.parametrize("bad", [b"\xff", b"\xc3", b"\xed\xa0\x80"], ids=["ff", "cut", "surrogate"])
@pytest.mark.parametrize("i", [0, 2])
def test_jsonl_line_that_is_not_utf8_is_named(tmp_path, modality, bad, i):
    lines = [json.dumps(obj).encode() for obj in LINES[modality]]
    lines[i] = lines[i][:-1] + bad + lines[i][-1:]
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line {i + 1}: not UTF-8 "):
        load_jsonl(path, modality, preproc_cfg=PCFG, embed_dim=DIM)


def test_jsonl_html_with_a_lone_surrogate_escape_loads(tmp_path):
    # json.dumps writes the lone surrogate as a "\\ud800" escape, which
    # json.loads turns back into one
    path = tmp_path / "pages.jsonl"
    path.write_text("".join(json.dumps({"label": y, "html": html}) + "\n"
                            for y, html in ((1, "<p>a\ud800b</p>"), (0, "<p>ab</p>"))))
    data = load_jsonl(path, "html", preproc_cfg=PCFG)
    for stream in ("char", "word", "dom"):
        assert np.array_equal(data[stream][0], data[stream][1])


@pytest.mark.parametrize("modality", sorted(LINES))
def test_unmutated_jsonl_loads(tmp_path, modality):
    path = tmp_path / "ok.jsonl"
    path.write_text("".join(json.dumps(obj) + "\n" for obj in LINES[modality]))
    assert len(load_jsonl(path, modality, preproc_cfg=PCFG, embed_dim=DIM)["y"]) == 3
