"""Ingestion and the synthetic generators."""

import json
import re

import numpy as np
import pytest
from test_preproc import assert_valid_streams

from fedphish.data import (
    Dataset,
    load_jsonl,
    stack_url,
    synth_embeddings,
    synth_html,
    synth_image_tokens,
    synth_paired,
)
from fedphish.preproc import PreprocConfig, fnv1a64


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

def write_lines(path, rows):
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def test_load_url_jsonl(tmp_path):
    path = tmp_path / "u.jsonl"
    write_lines(path, [{"label": 1, "embedding": [0.5] * 768}])
    data = load_jsonl(path, "url")
    assert data["y"].tolist() == [1]
    assert data["y"].dtype == np.int64
    assert data["x"].shape == (1, 768)


def test_load_rejects_wrong_embedding_length(tmp_path):
    path = tmp_path / "u.jsonl"
    write_lines(path, [{"label": 0, "embedding": [0.5] * 767}])
    with pytest.raises(ValueError, match="line 1: 'embedding' must be 768 floats, got 767"):
        load_jsonl(path, "url")


def test_load_rejects_unknown_modality(tmp_path):
    path = tmp_path / "p.jsonl"
    write_lines(path, [{"label": 1, "html": "<p>verify</p>"}])
    with pytest.raises(ValueError, match="unknown modality 'pair'"):
        load_jsonl(path, "pair")


def test_load_rejects_bad_json_with_line_number(tmp_path):
    path = tmp_path / "u.jsonl"
    path.write_text('{"label": 1, "embedding": [0.1]}\nnot json\n')
    with pytest.raises(ValueError, match="line 2: invalid JSON"):
        load_jsonl(path, "url", embed_dim=1)


def test_load_order_preserved(tmp_path):
    path = tmp_path / "u.jsonl"
    write_lines(path, [{"label": i % 2, "embedding": [float(i)] * 4} for i in range(100)])
    data = load_jsonl(path, "url", embed_dim=4)
    assert data["x"][:, 0].tolist() == [float(i) for i in range(100)]
    assert data["y"].tolist() == [i % 2 for i in range(100)]


def test_load_html_runs_preprocessing(tmp_path):
    path = tmp_path / "h.jsonl"
    write_lines(path, [{"label": 1, "html": "<p>verify account</p>"}])
    cfg = PreprocConfig(char_len=64, word_len=8, dom_len=8)
    data = load_jsonl(path, "html", preproc_cfg=cfg)
    assert data["char"].shape == (1, 64) and data["word"].shape == data["dom"].shape == (1, 8)
    assert_valid_streams(data[0], cfg)
    assert data["word"][0, 0] == fnv1a64(b"verify") % cfg.word_buckets


def test_load_image_tokens(tmp_path):
    path = tmp_path / "i.jsonl"
    write_lines(path, [{"label": 0, "tokens": [[0.1] * 8, [0.2] * 8]}])
    data = load_jsonl(path, "image", embed_dim=8)
    assert data["x"].shape == (1, 2, 8)


@pytest.mark.parametrize("modality, shape", [("url", (0, 4)), ("image", (0, 0, 4))])
def test_load_empty_file_gives_empty_arrays(tmp_path, modality, shape):
    path = tmp_path / "empty.jsonl"
    path.write_text("\n")
    data = load_jsonl(path, modality, embed_dim=4)
    assert data["x"].shape == shape and data["y"].shape == (0,)


# the label, NaN and ragged cases run through the command line in test_cli
@pytest.mark.parametrize("modality, line, match", [
    pytest.param("url", {"label": 1, "embedding": [0.5, "x", 0.5, 0.5]},
                 "'embedding' must be 4 floats, got a non-float value", id="embedding-str"),
    pytest.param("url", {"label": 1, "embedding": [10**400, 0.5, 0.5, 0.5]},
                 "'embedding' must be 4 floats, got a non-float value", id="embedding-overflow"),
    pytest.param("url", {"label": 1, "embedding": ["0.5", True, "1e3", 2]},
                 "'embedding' must be 4 floats, got a non-float value", id="embedding-numeric-str"),
    pytest.param("url", {"label": 1, "embedding": [0.5, 0.5, False, 2]},
                 "'embedding' must be 4 floats, got a non-float value", id="embedding-bool"),
    pytest.param("image", {"label": 1, "tokens": [[0.5, "2", 0.5, 0.5], [0.5] * 4]},
                 "'tokens' must be a 2 x 4 float matrix", id="tokens-numeric-str"),
    pytest.param("image", {"label": 1, "tokens": [[0.5] * 4, [0.5, 0.5, 0.5, True]]},
                 "'tokens' must be a 2 x 4 float matrix", id="tokens-bool"),
    pytest.param("url", {"label": 1, "embedding": [0.5] * 3},
                 "'embedding' must be 4 floats, got 3", id="embedding-short"),
    pytest.param("image", {"label": 1, "tokens": [[10**400] * 4] * 2},
                 "'tokens' must be a 2 x 4 float matrix", id="tokens-overflow"),
    pytest.param("image", {"label": 1, "tokens": [[float("inf")] * 4] * 2},
                 "'tokens' holds a NaN or infinite value", id="tokens-inf"),
    pytest.param("image", {"label": 1, "tokens": [[0.5] * 4] * 3},
                 "'tokens' must be a 2 x 4 float matrix, as on the lines before it",
                 id="tokens-other-length"),
])
def test_load_rejects_bad_line_by_number(tmp_path, modality, line, match):
    path = tmp_path / "bad.jsonl"
    good = {"label": 0, "embedding": [0.5] * 4} if modality == "url" else {
        "label": 0, "tokens": [[0.5] * 4] * 2}
    write_lines(path, [good, line])
    with pytest.raises(ValueError, match=re.escape(f"{path}: line 2: ") + match):
        load_jsonl(path, modality, embed_dim=4)


def test_dataset_selects_rows_of_every_array():
    data = synth_paired(10, seed=1, preproc_cfg=PreprocConfig(char_len=8, word_len=4, dom_len=4))
    idx = np.array([7, 2, 3])
    for rows, sel in ((data[2:5], slice(2, 5)), (data[idx], idx)):
        assert isinstance(rows, Dataset) and list(rows) == list(data)
        for key in data:
            assert np.array_equal(rows[key], data[key][sel])


def test_stack_url_gives_the_url_arrays():
    data = synth_embeddings(16, dim=4, seed=2)
    shard = stack_url(data[:8])
    assert type(shard) is dict and list(shard) == ["x", "y"]
    assert np.array_equal(shard["x"], data["x"][:8]) and np.array_equal(shard["y"], data["y"][:8])


# ---------------------------------------------------------------------------
# synthetic embeddings
# ---------------------------------------------------------------------------

def test_synth_embeddings_deterministic():
    a = synth_embeddings(20, dim=8, separation=2.0, seed=5)
    b = synth_embeddings(20, dim=8, separation=2.0, seed=5)
    assert a["x"].shape == (20, 8) and a["y"].dtype == np.int64
    assert np.array_equal(a["x"], b["x"]) and np.array_equal(a["y"], b["y"])


def test_synth_embeddings_balanced_labels():
    assert synth_embeddings(100, dim=4, seed=1)["y"].sum() == 50


def test_synth_separation_zero_uninformative():
    # any fixed direction scores ~coin-flip accuracy
    data = synth_embeddings(4000, dim=16, separation=0.0, seed=2)
    x, y = data["x"], data["y"]
    proj = x @ (np.ones(16) / 4.0)
    acc = ((proj > 0).astype(int) == y).mean()
    assert abs(acc - 0.5) <= 0.05


def test_synth_separation_eight_linear_oracle():
    data = synth_embeddings(2000, dim=768, separation=8.0, seed=3)
    x, y = data["x"], data["y"]
    u = np.where(np.arange(768) % 2 == 0, 1.0, -1.0)
    u -= u.mean()
    u /= np.linalg.norm(u)
    acc = (((x @ u) > 0).astype(int) == y).mean()
    assert acc >= 0.99


def loop_clusters(n, shape, separation, seed):
    """The reference: labels first, then one sample at a time, its class
    mean plus unit noise."""
    rng = np.random.default_rng(seed)
    labels = np.zeros(n, dtype=np.int64)
    labels[n // 2 :] = 1
    labels = rng.permutation(labels)
    u = np.where(np.arange(shape[-1]) % 2 == 0, 1.0, -1.0)
    u -= u.mean()
    u = u / np.linalg.norm(u)
    x = np.empty((n, *shape))
    for i, label in enumerate(labels):
        mean = (separation / 2.0) * u * (1.0 if label == 1 else -1.0)
        x[i] = mean + rng.standard_normal(shape)
    return x, labels


@pytest.mark.parametrize("n, shape, separation", [
    (512, (16,), 4.0), (81, (768,), 8.0), (3, (2,), 0.0),
    (80, (4, 768), 6.0), (7, (1, 16), 3.3), (3, (2, 4), 4.0), (65, (4, 16), 8.0),
])
def test_synth_clusters_match_the_per_sample_loop_bitwise(n, shape, separation):
    if len(shape) == 1:
        data = synth_embeddings(n, dim=shape[0], separation=separation, seed=n)
    else:
        data = synth_image_tokens(n, length=shape[0], dim=shape[1], separation=separation, seed=n)
    x, labels = loop_clusters(n, shape, separation, seed=n)
    assert data["x"].shape == x.shape and data["x"].dtype == x.dtype
    assert data["x"].tobytes() == x.tobytes()
    assert data["y"].dtype == labels.dtype and data["y"].tobytes() == labels.tobytes()


@pytest.mark.parametrize("make", [
    lambda: synth_embeddings(4, dim=4, separation=-1.0),
    lambda: synth_image_tokens(4, length=2, dim=4, separation=-1.0),
    lambda: synth_paired(4, separation=-1.0, preproc_cfg=PreprocConfig(char_len=8, word_len=4, dom_len=4)),
], ids=["embeddings", "image_tokens", "paired"])
def test_synth_rejects_negative_separation(make):
    with pytest.raises(ValueError, match="separation must be non-negative"):
        make()


@pytest.mark.parametrize("make", [
    lambda: synth_embeddings(1, dim=4), lambda: synth_image_tokens(1, length=2, dim=4),
    lambda: synth_html(1), lambda: synth_paired(1),
], ids=["embeddings", "image_tokens", "html", "paired"])
def test_synth_needs_two_samples(make):
    with pytest.raises(ValueError, match="need at least two samples"):
        make()


def test_synth_image_tokens_shape_and_determinism():
    a = synth_image_tokens(10, length=5, dim=8, seed=4)
    b = synth_image_tokens(10, length=5, dim=8, seed=4)
    assert a["x"].shape == (10, 5, 8)
    assert np.array_equal(a["x"], b["x"]) and np.array_equal(a["y"], b["y"])


# ---------------------------------------------------------------------------
# synthetic html
# ---------------------------------------------------------------------------

def test_synth_html_streams_valid_and_deterministic():
    cfg = PreprocConfig(char_len=256, word_len=32, dom_len=16)
    a = synth_html(30, seed=6, preproc_cfg=cfg)
    b = synth_html(30, seed=6, preproc_cfg=cfg)
    for i in range(30):
        assert_valid_streams(a[i], cfg)
    assert all(np.array_equal(a[key], b[key]) for key in ("char", "word", "dom", "y"))


def test_synth_html_bucket_count_oracle():
    from fedphish.data import CLEAN_VOCAB, PLANTED_VOCAB

    cfg = PreprocConfig()
    data = synth_html(200, seed=7, preproc_cfg=cfg)
    planted = {fnv1a64(w.encode()) % cfg.word_buckets for w in PLANTED_VOCAB}
    clean = {fnv1a64(w.encode()) % cfg.word_buckets for w in CLEAN_VOCAB}
    correct = 0
    for ids, label in zip(data["word"], data["y"]):
        ids = ids[ids != cfg.word_buckets]
        n_planted = sum(1 for i in ids if int(i) in planted)
        n_clean = sum(1 for i in ids if int(i) in clean)
        pred = 1 if n_planted > n_clean else 0
        correct += pred == label
    assert correct / len(data["y"]) >= 0.95


def choice_render_page(rng, vocab, tags):
    """The page renderer drawing with ``rng.choice`` and ``rng.permutation``
    of the strings themselves: the oracle for ``_render_page``'s index
    draws."""
    from fedphish.data import NEUTRAL_VOCAB

    words = [str(rng.choice(vocab)) for _ in range(int(rng.integers(3, 7)))]
    words += [str(rng.choice(NEUTRAL_VOCAB)) for _ in range(int(rng.integers(2, 5)))]
    body = " ".join(str(w) for w in rng.permutation(words))
    motif = "".join(f"<{t}></{t}>" for t in rng.choice(tags, size=int(rng.integers(1, 4))))
    title = str(rng.choice(NEUTRAL_VOCAB))
    return f"<html><head><title>{title}</title></head><body><div>{body}</div>{motif}</body></html>"


def test_synth_pages_match_the_choice_renderer_byte_for_byte(monkeypatch):
    import fedphish.data
    from fedphish.data import synth_pages

    cfg = PreprocConfig(char_len=64, word_len=16, dom_len=16, word_buckets=257, dom_buckets=61)
    seeds = range(40)
    pages = [synth_pages(24, seed=s) for s in seeds]
    paired = [synth_paired(24, seed=s, image_length=2, image_dim=4, preproc_cfg=cfg) for s in seeds]
    monkeypatch.setattr(fedphish.data, "_render_page", choice_render_page)
    for s, (labels, texts), data in zip(seeds, pages, paired):
        ref_labels, ref_texts = synth_pages(24, seed=s)
        assert labels.tobytes() == ref_labels.tobytes() and texts == ref_texts, s
        ref = synth_paired(24, seed=s, image_length=2, image_dim=4, preproc_cfg=cfg)
        assert data.keys() == ref.keys()
        for key in data:
            assert data[key].dtype == ref[key].dtype and data[key].tobytes() == ref[key].tobytes(), (s, key)


# ---------------------------------------------------------------------------
# pairing
# ---------------------------------------------------------------------------

def test_synth_paired_complementary_structure():
    cfg = PreprocConfig(char_len=64, word_len=16, dom_len=16, word_buckets=257, dom_buckets=61)
    pairs = synth_paired(400, seed=13, image_length=4, image_dim=16, separation=8.0,
                         preproc_cfg=cfg)
    y = pairs["y"]
    x = pairs["x"].mean(axis=1)
    u = np.where(np.arange(16) % 2 == 0, 1.0, -1.0)
    u -= u.mean()
    u /= np.linalg.norm(u)
    img_acc = (((x @ u) > 0).astype(int) == y).mean()
    # image alone decides only its informative half
    assert 0.65 <= img_acc <= 0.85
    from fedphish.data import PLANTED_VOCAB

    planted = {fnv1a64(w.encode()) % cfg.word_buckets for w in PLANTED_VOCAB}
    html_pred = []
    for ids in pairs["word"]:
        ids = ids[ids != cfg.word_buckets]
        html_pred.append(1 if any(int(i) in planted for i in ids) else 0)
    html_acc = (np.array(html_pred) == y).mean()
    assert 0.65 <= html_acc <= 0.85
    # jointly the task is (almost) fully decidable
    img_conf = np.abs(x @ u)
    joint_pred = np.where(img_conf > 1.0, ((x @ u) > 0).astype(int), html_pred)
    assert (joint_pred == y).mean() >= 0.95
