"""Config parsing, bundled scenarios and the command line surface."""

import contextlib
import dataclasses
import errno
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from test_preproc import assert_valid_streams

from fedphish.cli import EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, main
from fedphish.config import (
    _SYNTH,
    _SYNTH_COMMON,
    ConfigError,
    build_clients,
    bundled_config_names,
    bundled_config_path,
    config_hash,
    parse_config,
)
from fedphish.federation import TrainConfig
from fedphish.heads import ModelSpec
from fedphish.preproc import PreprocConfig


def write_config(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


def minimal_config(**over):
    cfg = {
        "name": "mini",
        "rounds": 1,
        "epochs": 1,
        "batch_size": 8,
        "model_profile": "desk_pages",
        "preproc": {"char_len": 64, "word_len": 16, "dom_len": 16,
                    "word_buckets": 16, "dom_buckets": 8},
        "clients": [
            {"id": "u0", "datasets": [{"modality": "url", "synth": {
                "kind": "embeddings", "train_n": 8, "test_n": 8, "seed": 1}}]},
        ],
    }
    cfg.update(over)
    return cfg


# ---------------------------------------------------------------------------
# parse_config
# ---------------------------------------------------------------------------

def test_parse_minimal_config_applies_defaults(tmp_path):
    cfg = parse_config(write_config(tmp_path, minimal_config()))
    assert cfg.train.lr == 0.001
    assert cfg.train.epochs == 1
    assert cfg.train.batch_size == 8
    assert cfg.train.seed == 42


def test_parse_config_without_training_keys_is_train_config_defaults(tmp_path):
    cfg = minimal_config()
    for key in ("rounds", "epochs", "batch_size"):
        del cfg[key]
    assert parse_config(write_config(tmp_path, cfg)).train == TrainConfig()


def test_parse_rejects_unknown_key(tmp_path):
    with pytest.raises(ConfigError, match="learning_rate"):
        parse_config(write_config(tmp_path, minimal_config(learning_rate=0.1)))


def test_parse_rejects_duplicate_client_id(tmp_path):
    cfg = minimal_config()
    cfg["clients"].append(json.loads(json.dumps(cfg["clients"][0])))
    with pytest.raises(ConfigError, match="duplicate client id"):
        parse_config(write_config(tmp_path, cfg))


def test_parse_rejects_negative_mu(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(write_config(tmp_path, minimal_config(mu=-0.1)))


@pytest.mark.parametrize("over", [
    {"lr": -1}, {"batch_size": 0}, {"clip": 0}, {"epochs": 1.5}, {"rounds": "3"},
    {"seed": "x"}, {"workers": 2}, {"detach_branches": True}, {"optimizer": "adam"},
    pytest.param({"seed": -1}, id="seed-negative"),
    pytest.param({"mu": float("inf")}, id="mu-inf"),
    {"html_weight_by_count": True},
    # the pair objective is fixed: its former settings are unknown keys
    pytest.param({"lambda_aux": float("nan")}, id="lambda_aux-nan"),
    pytest.param({"focal_gamma": float("nan")}, id="focal_gamma-nan"),
    pytest.param({"focal_gamma": float("inf")}, id="focal_gamma-inf"),
    pytest.param({"lambda_aux": True}, id="lambda_aux-bool"),
    {"focal_gamma": 2.0}, {"lambda_aux": 0.3}, {"lambda_js": 0.1}, {"modal_dropout_p": 0.2},
    # the name becomes the checkpoint's run_id, which must be a string
    pytest.param({"name": 5}, id="name-int"),
    pytest.param({"name": None}, id="name-null"),
], ids=lambda over: next(iter(over)))
def test_cli_run_bad_train_setting_exit_one(tmp_path, over):
    cfg_path = write_config(tmp_path, minimal_config(**over))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    assert not (tmp_path / "out").exists()


def with_synth(**synth):
    cfg = minimal_config()
    cfg["clients"][0]["datasets"][0]["synth"].update(synth)
    return cfg


URL_SYNTH = minimal_config()["clients"][0]["datasets"][0]


PAIR_FROM_PATH = {"modality": "pair", "path": "x.jsonl", "train_range": [0, 1], "test_range": [1, 2]}


def with_dataset(modality, kind, synth=None, **dataset):
    """A config whose one client has one synth dataset of ``modality``."""
    return minimal_config(clients=[{"id": "d", "datasets": [{"modality": modality, "synth": {
        "kind": kind, "train_n": 4, "test_n": 4, "seed": 1, **(synth or {})}, **dataset}]}])


def with_path(**dataset):
    return minimal_config(clients=[{"id": "p", "datasets": [
        {"modality": "url", "path": "x.jsonl", "train_range": [0, 1], "test_range": [1, 2], **dataset}]}])


@pytest.mark.parametrize("cfg, match", [
    pytest.param(minimal_config(preproc=5), "preproc must be an object", id="preproc-not-object"),
    pytest.param(minimal_config(preproc={"shuffle_seed": 1}), "shuffle_seed", id="preproc-shuffle_seed"),
    pytest.param(minimal_config(preproc={"char_len": 2.5}), "char_len", id="char_len-float"),
    pytest.param(minimal_config(preproc={"word_buckets": "9"}), "word_buckets", id="word_buckets-str"),
    pytest.param(minimal_config(clients=5), "list of at least one client", id="clients-not-list"),
    pytest.param(minimal_config(clients=[{"id": "p", "datasets": 5}]), "list of at least one dataset",
                 id="datasets-not-list"),
    pytest.param(minimal_config(clients=[{"id": "p", "datasets": [PAIR_FROM_PATH]}]),
                 "paired data from paths", id="pair-from-path"),
    pytest.param(with_path(path=5), "path must be a string", id="path-not-str"),
    pytest.param(with_path(train_range=5), "train_range", id="train_range-int"),
    pytest.param(with_path(test_range=[1, "2"]), "test_range", id="test_range-str"),
    pytest.param(with_path(train_range=[3, 1]), "0 <= start <= stop", id="train_range-reversed"),
    pytest.param(with_path(train_range=[0, 12], test_range=[4, 16]),
                 "train_range and test_range share rows \\[4, 12\\)", id="ranges-overlap"),
    pytest.param(with_path(train_range=[4, 8], test_range=[0, 16]),
                 "train_range and test_range share rows \\[4, 8\\)", id="ranges-nested"),
    pytest.param(with_path(shuffle_seed="x"), "shuffle_seed", id="shuffle_seed-str"),
    pytest.param(with_path(preshuffled="yes"), "preshuffled", id="preshuffled-str"),
    pytest.param(with_synth(train_n="x"), "train_n", id="train_n-str"),
    pytest.param(with_synth(train_n=-3), "train_n", id="train_n-negative"),
    pytest.param(with_synth(test_n=True), "test_n", id="test_n-bool"),
    pytest.param(with_synth(train_n=1, test_n=0), "at least 2", id="one-sample"),
    # a client with validation data only evaluates, but some client must train
    pytest.param(with_synth(train_n=0), "cfg.json: no client has training data", id="train_n-zero"),
    pytest.param(with_path(train_range=[2, 2]), "cfg.json: no client has training data",
                 id="train_range-empty"),
    pytest.param(with_path(train_range=[0, 0], test_range=[0, 0]), "client p has no data",
                 id="no-data"),
    pytest.param(minimal_config(clients=[{"id": "u1", "datasets": [URL_SYNTH, URL_SYNTH]}]),
                 "client u1: duplicate url dataset", id="duplicate-modality"),
    pytest.param(with_synth(seed=1.5), "seed", id="seed-float"),
    pytest.param(with_synth(seed=-1),
                 "clients\\[0\\]\\.datasets\\[0\\]\\.synth: seed must be an integer >= 0",
                 id="seed-negative"),
    pytest.param(with_path(shuffle_seed=-1),
                 "clients\\[0\\]\\.datasets\\[0\\]: shuffle_seed must be an integer >= 0",
                 id="shuffle_seed-negative"),
    pytest.param(with_synth(separation="x"), "separation", id="separation-str"),
    pytest.param(with_synth(separation=-1.0), "separation", id="separation-negative"),
    pytest.param(with_dataset("image", "image_tokens", {"length": 0}), "length must be an integer",
                 id="length-zero"),
    # a key that the dataset's source or synth kind does not read is unknown
    pytest.param(with_dataset("html", "html", {"informative": 1}),
                 "synth: unknown key 'informative'", id="informative-int"),
    pytest.param(with_dataset("html", "html", {"separation": 3.0}),
                 "synth: unknown key 'separation'", id="html-separation"),
    pytest.param(with_dataset("html", "html", {"length": 9}),
                 "synth: unknown key 'length'", id="html-length"),
    pytest.param(with_synth(length=4), "synth: unknown key 'length'", id="url-length"),
    pytest.param(with_dataset("html", "html", train_range=[5, 1]),
                 "datasets\\[0\\]: unknown key 'train_range'", id="synth-train_range"),
    pytest.param(with_dataset("html", "html", test_range=[0, 4]),
                 "datasets\\[0\\]: unknown key 'test_range'", id="synth-test_range"),
    pytest.param(with_dataset("html", "html", shuffle_seed=3),
                 "datasets\\[0\\]: unknown key 'shuffle_seed'", id="synth-shuffle_seed"),
    pytest.param(with_dataset("html", "html", preshuffled=True),
                 "datasets\\[0\\]: unknown key 'preshuffled'", id="synth-preshuffled"),
    pytest.param(with_synth(kind="image_tokens"), "kind must be 'embeddings'", id="kind-mismatch"),
    pytest.param(with_synth(kind="pixels"), "kind must be 'embeddings'", id="kind-unknown"),
    pytest.param(minimal_config(model_profile="desk"),
                 "model_profile must be paper or desk_pages, got 'desk'", id="desk-profile"),
    pytest.param(minimal_config(out_dir=5), "out_dir must be a string", id="out_dir-int"),
    pytest.param(minimal_config(clients=[{"id": "m", "datasets": [{**URL_SYNTH, "modality": {}}]}]),
                 "modality must be one of", id="modality-object"),
    pytest.param(minimal_config(clients=[{"id": "m", "datasets": [{**URL_SYNTH, "modality": []}]}]),
                 "modality must be one of", id="modality-list"),
    pytest.param(minimal_config(preproc={"word_buckets": 2**70}),
                 "word_buckets must be an integer >= 2 and below 2\\*\\*63 - 1", id="word_buckets-2**70"),
    pytest.param(minimal_config(preproc={"dom_buckets": 2**70}),
                 "dom_buckets must be an integer >= 2 and below 2\\*\\*63 - 1", id="dom_buckets-2**70"),
    # tables and data arrays no machine holds, rejected from their shapes alone
    pytest.param(minimal_config(preproc={"word_buckets": 2**40}),
                 "the model's parameters take 131072.0 GiB and the data arrays 0.0 GiB, more than "
                 "the .* GiB of physical memory \\(not counting training state or activations; "
                 "a path image dataset counts one token per row",
                 id="word_buckets-2**40"),
    pytest.param(minimal_config(preproc={"dom_buckets": 2**40}),
                 "the model's parameters take 65536.0 GiB and the data arrays 0.0 GiB",
                 id="dom_buckets-2**40"),
    # 8 pages of 2**40 + 32 ids each, as 8-byte ids
    pytest.param({**with_dataset("html", "html"), "preproc": {"char_len": 2**40}},
                 "the model's parameters take 0.0 GiB and the data arrays 65536.0 GiB",
                 id="char_len-2**40"),
    pytest.param({**with_dataset("html", "html"), "preproc": {"word_len": 2**40}},
                 "and the data arrays 65536.0 GiB", id="word_len-2**40"),
    # 2**40 + 8 rows of 16 values and a label
    pytest.param(with_synth(train_n=2**40), "and the data arrays 139264.0 GiB", id="url-train_n-2**40"),
    pytest.param(with_dataset("image", "image_tokens", {"length": 2**40}),
                 "and the data arrays 1048576.0 GiB", id="image-length-2**40"),
    # a path image row counts one 16-value token, since the file sets the token count
    pytest.param(with_path(modality="image", train_range=[0, 2**40], test_range=[2**40, 2**40 + 1]),
                 "and the data arrays 139264.0 GiB", id="image-path-2**40"),
])
def test_cli_run_bad_data_setting_exit_one(tmp_path, cfg, match):
    cfg_path = write_config(tmp_path, cfg)
    with pytest.raises(ConfigError, match=match):
        parse_config(cfg_path)
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    assert not (tmp_path / "out").exists()


def with_setting(where, key, value):
    """A config with one declared setting replaced: a training setting, a
    preproc setting, or a synth setting of the ``where`` modality's kind."""
    if where == "train":
        return minimal_config(**{key: value})
    if where == "preproc":
        return minimal_config(preproc={key: value})
    return with_dataset(where, _SYNTH[where][0], {key: value})


# every declared setting, read from the declarations, so a new one is covered
DECLARED = ([("train", field.name) for field in dataclasses.fields(TrainConfig)]
            + [("preproc", field.name) for field in dataclasses.fields(PreprocConfig)]
            + [(modality, key) for modality, (_, reads, _) in _SYNTH.items()
               for key in {**_SYNTH_COMMON, **reads}])


@pytest.mark.parametrize("bad", [True, float("nan"), "1"], ids=["bool", "nan", "str"])
@pytest.mark.parametrize("where, key", DECLARED, ids=[f"{w}.{k}" for w, k in DECLARED])
def test_every_setting_rejects_a_bool_a_nan_and_a_string(tmp_path, where, key, bad):
    with pytest.raises(ConfigError, match=f"{key} must be "):
        parse_config(write_config(tmp_path, with_setting(where, key, bad)))


def test_paper_profile_sizes_html_tables_from_preproc(tmp_path, monkeypatch):
    def no_init(*args, **kwargs):
        raise AssertionError("parsing a config initialises no parameters")

    monkeypatch.setattr(ModelSpec, "init_params", no_init)
    cfg = parse_config(write_config(tmp_path, {
        **with_dataset("html", "html"), "model_profile": "paper", "preproc": {"word_buckets": 1000}}))
    # the bucket count is the stream's PAD id, the table's last row
    assert cfg.model.html.word_vocab == 1001
    assert cfg.model.html.dom_vocab == PreprocConfig().dom_buckets + 1


def test_config_hash_covers_every_setting(tmp_path):
    def hashed(**over):
        return config_hash(parse_config(write_config(tmp_path, minimal_config(**over))))

    assert hashed(lr=0.01) == hashed(lr=0.01)
    assert hashed(lr=0.01) != hashed(lr=0.02)
    assert hashed(out_dir="a") == hashed(out_dir="b")


def test_parse_mu_propagates(tmp_path):
    cfg = parse_config(write_config(tmp_path, minimal_config(mu=0.02)))
    assert cfg.train.mu == 0.02


def test_parse_rejects_missing_path(tmp_path):
    cfg = minimal_config()
    cfg["clients"][0]["datasets"][0] = {
        "modality": "url", "path": "does/not/exist.jsonl",
        "train_range": [0, 4], "test_range": [4, 8],
    }
    with pytest.raises(ConfigError, match="does not exist"):
        parse_config(write_config(tmp_path, cfg))


def test_parse_rejects_synth_and_path_together(tmp_path):
    cfg = minimal_config()
    cfg["clients"][0]["datasets"][0]["path"] = "x.jsonl"
    cfg["clients"][0]["datasets"][0]["train_range"] = [0, 1]
    cfg["clients"][0]["datasets"][0]["test_range"] = [1, 2]
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config(write_config(tmp_path, cfg))


def test_build_clients_from_path_dataset(tmp_path):
    data_path = tmp_path / "urls.jsonl"
    with open(data_path, "w") as fh:
        for i in range(20):
            fh.write(json.dumps({"label": i % 2, "embedding": [float(i)] * 16}) + "\n")
    cfg = minimal_config()
    cfg["clients"][0]["datasets"][0] = {
        "modality": "url", "path": str(data_path),
        "train_range": [0, 12], "test_range": [12, 20],
    }
    parsed = parse_config(write_config(tmp_path, cfg))
    clients = build_clients(parsed)
    assert len(clients[0].train["url"]["y"]) == 12
    assert len(clients[0].val["url"]["y"]) == 8


# ---------------------------------------------------------------------------
# bundled scenarios
# ---------------------------------------------------------------------------

def test_twelve_scenarios_bundled():
    names = bundled_config_names()
    assert len(names) == 12
    assert "six_clients" in names
    assert "ablation_url_2clients" in names


def test_bundled_config_path_of_an_unknown_name_raises():
    with pytest.raises(ConfigError, match="no bundled config named 'no_such_scenario'"):
        bundled_config_path("no_such_scenario")


@pytest.mark.parametrize("name", bundled_config_names())
def test_bundled_configs_parse_and_build(name):
    cfg = parse_config(bundled_config_path(name))
    clients = build_clients(cfg)
    assert len(clients) == len(cfg.clients)
    # a client without training data only evaluates
    assert all(client.train or client.val for client in clients)
    assert any(client.train for client in clients)


def test_bundled_fast_scenarios_run(tmp_path):
    # the slower six_clients and ablation_url scenarios run in acceptance
    from fedphish.federation import run_experiment

    for name in bundled_config_names():
        cfg = parse_config(bundled_config_path(name))
        if cfg.train.rounds > 12:
            continue
        from dataclasses import replace

        fast = replace(cfg.train, rounds=2)
        clients = build_clients(cfg)
        result = run_experiment(cfg.model, fast, clients)
        assert len(result.rounds) == 2
        assert result.rounds[-1].entries


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

def test_cli_run_writes_csv_and_checkpoint(tmp_path):
    cfg = minimal_config(rounds=2)
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
    csv_path = out / "rounds.csv"
    assert csv_path.exists()
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("round,client_id,head")
    assert len(lines) == 3  # 2 rounds x 1 client x 1 head
    from fedphish.runfiles import load_checkpoint

    manifest, params = load_checkpoint(out / "final.ckpt")
    assert manifest["run_id"] == "mini"
    assert params


def test_cli_run_seed_override_changes_logs(tmp_path):
    cfg_path = write_config(tmp_path, minimal_config(rounds=2))
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["run", "--config", str(cfg_path), "--out", str(out_a), "--seed", "1"]) == EXIT_OK
    assert main(["run", "--config", str(cfg_path), "--out", str(out_b), "--seed", "2"]) == EXIT_OK
    assert (out_a / "rounds.csv").read_bytes() != (out_b / "rounds.csv").read_bytes()


def test_cli_run_negative_seed_override_exit_one(tmp_path, capsys):
    # rejected with the config, before the output directory is made
    cfg_path = write_config(tmp_path, minimal_config())
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out), "--seed", "-5"]) == EXIT_VALIDATION
    assert "seed must be an integer >= 0, got -5" in capsys.readouterr().err
    assert not out.exists()


def test_cli_run_invalid_config_exit_one(tmp_path):
    cfg_path = write_config(tmp_path, minimal_config(bogus_key=1))
    assert main(["run", "--config", str(cfg_path)]) == EXIT_VALIDATION


@pytest.mark.parametrize("text, message", [(None, "config file not found"), ("{\"seed\": 1", "invalid JSON")],
                         ids=["missing", "not-json"])
def test_cli_run_unreadable_config_exit_one(tmp_path, capsys, text, message):
    cfg_path = tmp_path / "cfg.json"
    if text is not None:
        cfg_path.write_text(text)
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_run_fault_after_build_exit_two(tmp_path, monkeypatch, capsys):
    # a ValueError inside the experiment is a program fault, not a rejected config
    def broken_aggregate(*args, **kwargs):
        raise ValueError("report is missing")

    monkeypatch.setattr("fedphish.federation.aggregate", broken_aggregate)
    cfg_path = write_config(tmp_path, minimal_config(rounds=1))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == EXIT_RUNTIME
    assert "report is missing" in capsys.readouterr().err
    assert not (tmp_path / "out" / "rounds.csv").exists()


def test_cli_run_every_client_failing_exit_two(tmp_path, monkeypatch, capsys):
    # every trainer's data is NaN, so round 0 has no report to aggregate
    def nan_clients(cfg):
        clients = build_clients(cfg)
        for client in clients:
            for data in client.train.values():
                data["x"][:] = np.nan
        return clients

    monkeypatch.setattr("fedphish.config.build_clients", nan_clients)
    cfg_path = write_config(tmp_path, minimal_config(rounds=2))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == EXIT_RUNTIME
    assert "runtime failure: round 0: every training client failed" in capsys.readouterr().err
    assert not (tmp_path / "out" / "rounds.csv").exists()


def test_cli_run_path_range_past_the_file_exit_one(tmp_path, capsys):
    data_path = tmp_path / "urls.jsonl"
    data_path.write_text("".join(
        json.dumps({"label": i % 2, "embedding": [float(i)] * 16}) + "\n" for i in range(10)))
    cfg = minimal_config()
    cfg["clients"][0]["datasets"][0] = {
        "modality": "url", "path": str(data_path), "train_range": [0, 6], "test_range": [6, 12],
    }
    cfg_path = write_config(tmp_path, cfg)
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    assert f"error: {data_path}: test range [6, 12) does not fit 10 samples" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_relative_out_dir_is_under_the_working_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg_path = write_config(tmp_path, minimal_config(rounds=1, out_dir="nested/run"))
    assert main(["run", "--config", str(cfg_path)]) == EXIT_OK
    assert (tmp_path / "nested" / "run" / "rounds.csv").exists()


STREAM_DIGEST = """\
import hashlib, sys
from fedphish.data import load_jsonl
from fedphish.preproc import PreprocConfig
data = load_jsonl(sys.argv[1], "html", preproc_cfg=PreprocConfig(char_len=64, word_len=16, dom_len=16))
print(hashlib.sha256(b"".join(data[k].tobytes() for k in ("char", "word", "dom"))).hexdigest())
"""


def test_cli_run_reads_and_writes_utf8_under_the_c_locale(tmp_path):
    # a non-ASCII config name and page text: the C locale with UTF-8 mode
    # off must give the streams and files of a UTF-8-mode run
    pages = tmp_path / "pages.jsonl"
    pages.write_text("".join(
        json.dumps({"label": i % 2, "html": f"<p>Giriş yapın İstanbul café {i}</p><b>güvenli</b>"},
                   ensure_ascii=False) + "\n" for i in range(4)), encoding="utf-8")
    cfg = minimal_config(name="sécurité", clients=[{"id": "h", "datasets": [
        {"modality": "html", "path": str(pages), "train_range": [0, 2], "test_range": [2, 4]}]}])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg, ensure_ascii=False), encoding="utf-8")
    base = {k: v for k, v in os.environ.items()
            if not k.startswith("LC_") and k not in ("LANG", "PYTHONUTF8", "PYTHONIOENCODING")}
    base["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    runs = {}
    for mode, env in (("c", {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}),
                      ("utf8", {"PYTHONUTF8": "1"})):
        env = {**base, **env}
        out = tmp_path / mode
        run = subprocess.run([sys.executable, "-m", "fedphish.cli", "run", "--config", str(cfg_path),
                              "--out", str(out)], env=env, capture_output=True, timeout=300)
        assert run.returncode == EXIT_OK, run.stderr.decode(errors="replace")
        digest = subprocess.run([sys.executable, "-c", STREAM_DIGEST, str(pages)], env=env,
                                capture_output=True, timeout=300)
        assert digest.returncode == 0, digest.stderr.decode(errors="replace")
        runs[mode] = (digest.stdout, (out / "rounds.csv").read_bytes(), (out / "final.ckpt").read_bytes())
    assert runs["c"] == runs["utf8"]


def test_cli_run_bad_html_line_exit_one(tmp_path, capsys):
    pages = tmp_path / "pages.jsonl"
    pages.write_text('{"label": 1, "html": "<p>x</p>"}\n{"label": 3, "html": "y"}\n')
    cfg = minimal_config(clients=[{"id": "h", "datasets": [
        {"modality": "html", "path": str(pages), "train_range": [0, 1], "test_range": [1, 2]}]}])
    cfg_path = write_config(tmp_path, cfg)
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    assert "line 2: label must be 0 or 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


ROW = ", ".join(["0.5"] * 15)  # with one more value, a desk url embedding or image token


@pytest.mark.parametrize("modality, bad, message", [
    pytest.param("url", f'{{"label": true, "embedding": [0.5, {ROW}]}}',
                 "line 2: label must be 0 or 1 as an integer, got True", id="label-bool"),
    pytest.param("url", f'{{"label": 0.0, "embedding": [0.5, {ROW}]}}',
                 "line 2: label must be 0 or 1 as an integer, got 0.0", id="label-float"),
    pytest.param("url", f'{{"label": 1, "embedding": [NaN, {ROW}]}}',
                 "line 2: 'embedding' holds a NaN or infinite value", id="embedding-nan"),
    pytest.param("url", f'{{"label": 1, "embedding": [Infinity, {ROW}]}}',
                 "line 2: 'embedding' holds a NaN or infinite value", id="embedding-inf"),
    pytest.param("url", f'{{"label": 1, "embedding": [1{"0" * 400}, {ROW}]}}',
                 "line 2: 'embedding' must be 16 floats, got a non-float value", id="embedding-overflow"),
    pytest.param("url", '{"label": 1, "embedding": ["0.5", true, "1e3", ' + ", ".join(["2"] * 13) + "]}",
                 "line 2: 'embedding' must be 16 floats, got a non-float value",
                 id="embedding-numeric-str"),
    pytest.param("image", f'{{"label": 1, "tokens": [[0.5, {ROW}], [{ROW}]]}}',
                 "line 2: 'tokens' must be a 2 x 16 float matrix", id="tokens-ragged"),
])
def test_cli_run_bad_jsonl_line_exit_one(tmp_path, capsys, modality, bad, message):
    good = (f'{{"label": 0, "embedding": [0.5, {ROW}]}}' if modality == "url"
            else f'{{"label": 0, "tokens": [[0.5, {ROW}], [0.5, {ROW}]]}}')
    rows = tmp_path / "rows.jsonl"
    rows.write_text(f"{good}\n{bad}\n")
    cfg = minimal_config(clients=[{"id": "p", "datasets": [
        {"modality": modality, "path": str(rows), "train_range": [0, 1], "test_range": [1, 2]}]}])
    cfg_path = write_config(tmp_path, cfg)
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    assert f"{rows}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_synth_embeddings_deterministic(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    for path in (a, b):
        rc = main(["synth", "embeddings", "--n", "100", "--seed", "7",
                   "--dim", "16", "--out", str(path)])
        assert rc == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_text().splitlines()) == 100


def test_cli_synth_html_output_is_pinned(tmp_path):
    # rendering pages without preprocessing them must not change a byte of the file
    out = tmp_path / "pages.jsonl"
    assert main(["synth", "html", "--n", "50", "--seed", "3", "--out", str(out)]) == EXIT_OK
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "516f8e7cb349d712f93762a9de8304e8071868afa2aaa61d2b63ce8aacf40e1a"


def test_cli_synth_html_roundtrips_through_loader(tmp_path):
    out = tmp_path / "pages.jsonl"
    assert main(["synth", "html", "--n", "50", "--seed", "3", "--out", str(out)]) == EXIT_OK
    from fedphish.data import load_jsonl

    cfg = PreprocConfig(char_len=256, word_len=32, dom_len=16)
    data = load_jsonl(out, "html", preproc_cfg=cfg)
    assert len(data["y"]) == 50
    for i in range(50):
        assert_valid_streams(data[i], cfg)


def test_cli_synth_failed_write_leaves_the_old_file(tmp_path, monkeypatch, capsys):
    # a disk that fills on the third row must not leave a shorter dataset
    # that load_jsonl would read without complaint
    out = tmp_path / "rows.jsonl"
    assert main(["synth", "embeddings", "--n", "2", "--dim", "4", "--out", str(out)]) == EXIT_OK
    out.write_text(out.read_text().splitlines()[0] + "\n")
    old = out.read_bytes()
    dumps, calls = json.dumps, []

    def filling_dumps(obj):
        calls.append(obj)
        if len(calls) == 3:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return dumps(obj)

    monkeypatch.setattr(json, "dumps", filling_dumps)
    assert main(["synth", "embeddings", "--n", "5", "--dim", "4", "--out", str(out)]) == EXIT_RUNTIME
    monkeypatch.undo()
    assert out.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rows.jsonl"]
    assert f"cannot write {out}" in capsys.readouterr().err

    missing = tmp_path / "missing_dir" / "rows.jsonl"
    assert main(["synth", "html", "--n", "2", "--out", str(missing)]) == EXIT_RUNTIME
    assert f"cannot write {missing}" in capsys.readouterr().err
    assert not missing.parent.exists()


@pytest.mark.parametrize("kind, flag, value, message", [
    ("embeddings", "--n", "1", "must be an integer >= 2, got 1"),
    ("html", "--n", "0", "must be an integer >= 2, got 0"),
    ("embeddings", "--dim", "0", "must be an integer >= 1, got 0"),
    ("embeddings", "--separation", "nan", "must be a finite number >= 0, got nan"),
    ("embeddings", "--separation", "inf", "must be a finite number >= 0, got inf"),
    ("embeddings", "--separation", "-1", "must be a finite number >= 0, got -1"),
    ("html", "--seed", "-1", "must be an integer >= 0, got -1"),
    # a value that is not a number of the flag's type is a usage error naming the type
    ("embeddings", "--n", "8.0", "must be an integer >= 2, got 8.0"),
    ("embeddings", "--separation", "far", "must be a finite number >= 0, got far"),
], ids=["n-1", "html-n-0", "dim-0", "separation-nan", "separation-inf", "separation-negative",
        "seed-negative", "n-float", "separation-str"])
def test_cli_synth_bad_setting_is_a_usage_error(tmp_path, capsys, kind, flag, value, message):
    # rejected by argparse before anything is drawn or written
    out = tmp_path / "rows.jsonl"
    settings = {"--n": "8", "--dim": "4", flag: value}
    with pytest.raises(SystemExit) as exc:
        main(["synth", kind, "--out", str(out), *(x for item in settings.items() for x in item)])
    assert exc.value.code == 2
    assert f"{flag}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_gradcheck_corrupted_exit_nonzero(monkeypatch, capsys):
    monkeypatch.setattr("fedphish.numerics.finite_difference_check", lambda *a, **k: 1.0)
    assert main(["gradcheck", "--seeds", "1"]) == EXIT_RUNTIME
    assert capsys.readouterr().out.count("[FAIL]") == 4


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_cli_gradcheck_rejects_fewer_than_one_seed(seeds, monkeypatch, capsys):
    # zero seeds would check nothing and exit 0; argparse rejects it as a
    # usage error before any check runs
    def never(*_):
        raise AssertionError("gradcheck ran")

    monkeypatch.setattr("fedphish.cli.gradcheck_suite", never)
    with pytest.raises(SystemExit) as exc:
        main(["gradcheck", "--seeds", seeds])
    assert exc.value.code == 2
    assert f"--seeds: must be an integer >= 1, got {seeds}" in capsys.readouterr().err


@pytest.fixture(scope="module")
def gradcheck_twice():
    """Two runs of `gradcheck --seeds 1` as (exit code, stdout) pairs, shared by the tests below."""
    runs = []
    for _ in range(2):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["gradcheck", "--seeds", "1"])
        runs.append((code, out.getvalue()))
    return runs


def test_cli_gradcheck_ok_exit_zero(gradcheck_twice):
    for code, out in gradcheck_twice:
        assert code == EXIT_OK
        assert out.count("[ok]") == 4


def test_cli_gradcheck_repeat_identical(gradcheck_twice):
    (_, first), (_, second) = gradcheck_twice
    assert first == second


# the four worst relative errors of `gradcheck --seeds 1`; a change to any
# gradient the sweep reaches moves one of them, while [ok] alone would pass
GRADCHECK_SEED1_STDOUT = (
    "fusion: max relative error 1.410e-06 [ok]\n"
    "html: max relative error 3.909e-07 [ok]\n"
    "image: max relative error 1.571e-07 [ok]\n"
    "url: max relative error 5.502e-08 [ok]\n"
)


def test_cli_gradcheck_output_is_pinned(gradcheck_twice):
    for _, out in gradcheck_twice:
        assert out == GRADCHECK_SEED1_STDOUT
