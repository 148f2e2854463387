"""Ingestion and the synthetic generators."""

import json

import numpy as np
import pytest

from fedphish.data import (
    Sample,
    load_jsonl,
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
    samples = load_jsonl(path, "url")
    assert len(samples) == 1
    assert samples[0].label == 1
    assert samples[0].url_embedding.shape == (768,)


def test_load_rejects_wrong_embedding_length(tmp_path):
    path = tmp_path / "u.jsonl"
    write_lines(path, [{"label": 0, "embedding": [0.5] * 767}])
    with pytest.raises(ValueError, match="line 1: 'embedding' must be 768 floats, got 767"):
        load_jsonl(path, "url")


def test_load_rejects_bad_json_with_line_number(tmp_path):
    path = tmp_path / "u.jsonl"
    path.write_text('{"label": 1, "embedding": [0.1]}\nnot json\n')
    with pytest.raises(ValueError, match="line 2: invalid JSON"):
        load_jsonl(path, "url", embed_dim=1)


def test_load_order_preserved(tmp_path):
    path = tmp_path / "u.jsonl"
    write_lines(path, [{"label": i % 2, "embedding": [float(i)] * 4} for i in range(100)])
    samples = load_jsonl(path, "url", embed_dim=4)
    assert len(samples) == 100
    assert [s.url_embedding[0] for s in samples] == [float(i) for i in range(100)]


def test_load_html_runs_preprocessing(tmp_path):
    path = tmp_path / "h.jsonl"
    write_lines(path, [{"label": 1, "html": "<p>verify account</p>"}])
    cfg = PreprocConfig(char_len=64, word_len=8, dom_len=8)
    samples = load_jsonl(path, "html", preproc_cfg=cfg)
    s = samples[0].html_streams
    s.validate(cfg)
    assert s.word_ids[0] == fnv1a64(b"verify") % cfg.word_buckets


def test_load_image_tokens(tmp_path):
    path = tmp_path / "i.jsonl"
    write_lines(path, [{"label": 0, "tokens": [[0.1] * 8, [0.2] * 8]}])
    samples = load_jsonl(path, "image", embed_dim=8)
    assert samples[0].image_tokens.shape == (2, 8)


def test_sample_requires_exactly_one_payload():
    with pytest.raises(ValueError, match="exactly one payload, got 0"):
        Sample(label=1)
    with pytest.raises(ValueError, match="exactly one payload, got 2"):
        Sample(label=1, url_embedding=np.zeros(4), image_tokens=np.zeros((2, 4)))


# ---------------------------------------------------------------------------
# synthetic embeddings
# ---------------------------------------------------------------------------

def test_synth_embeddings_deterministic():
    a = synth_embeddings(20, dim=8, separation=2.0, seed=5)
    b = synth_embeddings(20, dim=8, separation=2.0, seed=5)
    for x, y in zip(a, b):
        assert x.label == y.label
        assert np.array_equal(x.url_embedding, y.url_embedding)


def test_synth_embeddings_balanced_labels():
    samples = synth_embeddings(100, dim=4, seed=1)
    assert sum(s.label for s in samples) == 50


def test_synth_separation_zero_uninformative():
    # any fixed direction scores ~coin-flip accuracy
    samples = synth_embeddings(4000, dim=16, separation=0.0, seed=2)
    x = np.stack([s.url_embedding for s in samples])
    y = np.array([s.label for s in samples])
    proj = x @ (np.ones(16) / 4.0)
    acc = ((proj > 0).astype(int) == y).mean()
    assert abs(acc - 0.5) <= 0.05


def test_synth_separation_eight_linear_oracle():
    samples = synth_embeddings(2000, dim=768, separation=8.0, seed=3)
    x = np.stack([s.url_embedding for s in samples])
    y = np.array([s.label for s in samples])
    u = np.where(np.arange(768) % 2 == 0, 1.0, -1.0)
    u -= u.mean()
    u /= np.linalg.norm(u)
    acc = (((x @ u) > 0).astype(int) == y).mean()
    assert acc >= 0.99


def test_synth_image_tokens_shape_and_determinism():
    a = synth_image_tokens(10, length=5, dim=8, seed=4)
    b = synth_image_tokens(10, length=5, dim=8, seed=4)
    assert a[0].image_tokens.shape == (5, 8)
    assert all(np.array_equal(x.image_tokens, y.image_tokens) for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# synthetic html
# ---------------------------------------------------------------------------

def test_synth_html_streams_valid_and_deterministic():
    cfg = PreprocConfig(char_len=256, word_len=32, dom_len=16)
    a = synth_html(30, seed=6, preproc_cfg=cfg)
    b = synth_html(30, seed=6, preproc_cfg=cfg)
    for x, y in zip(a, b):
        x.html_streams.validate(cfg)
        assert np.array_equal(x.html_streams.word_ids, y.html_streams.word_ids)


def test_synth_html_bucket_count_oracle():
    from fedphish.data import CLEAN_VOCAB, PLANTED_VOCAB

    cfg = PreprocConfig()
    samples = synth_html(200, seed=7, preproc_cfg=cfg)
    planted = {fnv1a64(w.encode()) % cfg.word_buckets for w in PLANTED_VOCAB}
    clean = {fnv1a64(w.encode()) % cfg.word_buckets for w in CLEAN_VOCAB}
    correct = 0
    for s in samples:
        ids = s.html_streams.word_ids
        ids = ids[ids != cfg.word_pad]
        n_planted = sum(1 for i in ids if int(i) in planted)
        n_clean = sum(1 for i in ids if int(i) in clean)
        pred = 1 if n_planted > n_clean else 0
        correct += pred == s.label
    assert correct / len(samples) >= 0.95


def test_synth_html_uninformative_mode():
    samples = synth_html(40, seed=8, informative=False,
                         preproc_cfg=PreprocConfig(char_len=128, word_len=16, dom_len=8))
    from fedphish.data import PLANTED_VOCAB

    cfg = PreprocConfig(char_len=128, word_len=16, dom_len=8)
    planted = {fnv1a64(w.encode()) % cfg.word_buckets for w in PLANTED_VOCAB}
    for s in samples:
        ids = s.html_streams.word_ids
        assert not any(int(i) in planted for i in ids[ids != cfg.word_pad])


# ---------------------------------------------------------------------------
# pairing
# ---------------------------------------------------------------------------

def test_synth_paired_complementary_structure():
    cfg = PreprocConfig(char_len=64, word_len=16, dom_len=16, word_buckets=257, dom_buckets=61)
    pairs = synth_paired(400, seed=13, image_length=4, image_dim=16, separation=8.0,
                         preproc_cfg=cfg)
    y = np.array([p.label for p in pairs])
    x = np.stack([p.image_tokens.mean(axis=0) for p in pairs])
    u = np.where(np.arange(16) % 2 == 0, 1.0, -1.0)
    u -= u.mean()
    u /= np.linalg.norm(u)
    img_acc = (((x @ u) > 0).astype(int) == y).mean()
    # image alone decides only its informative half
    assert 0.65 <= img_acc <= 0.85
    from fedphish.data import PLANTED_VOCAB

    planted = {fnv1a64(w.encode()) % cfg.word_buckets for w in PLANTED_VOCAB}
    html_pred = []
    for p in pairs:
        ids = p.html_streams.word_ids
        ids = ids[ids != cfg.word_pad]
        html_pred.append(1 if any(int(i) in planted for i in ids) else 0)
    html_acc = (np.array(html_pred) == y).mean()
    assert 0.65 <= html_acc <= 0.85
    # jointly the task is (almost) fully decidable
    img_conf = np.abs(x @ u)
    joint_pred = np.where(img_conf > 1.0, ((x @ u) > 0).astype(int), html_pred)
    assert (joint_pred == y).mean() >= 0.95
