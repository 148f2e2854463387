"""Every bundled config trains to pinned bytes.

Each config runs two rounds of one epoch through ``parse_config``,
``build_clients`` and ``run_experiment``. The test pins the sha256 of the
``rounds.csv`` it writes and of the final parameters' float64 bytes in
sorted name order. A change that claims bitwise-identical training output
keeps these digests; one that moves them has to say why.

A variant is a bundled config with some values replaced:
``four_clients_html_cross_dom7`` gives the word and DOM streams unequal
lengths, ``ablation_url_2clients_fedprox`` pulls url clients toward the
broadcast over several steps per round, and in
``four_clients_fusion_html_one_step`` every client takes one step per round,
so that its only step is also its last; no bundled config does any of these.
"""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from fedphish.config import (
    build_clients,
    bundled_config_names,
    bundled_config_path,
    config_hash,
    parse_config,
)
from fedphish.federation import run_experiment
from fedphish.runfiles import write_round_csv

# config name -> (rounds.csv sha256, final parameters sha256)
PINS = {
    "ablation_fusion_2clients": (
        "2c629bd2b9b680c23aebef6a6e9bb70a74d8ed5d589d8fb63542568ace942936",
        "ae2df6bca58f5ea8008b0e8e35fbf15a56ec6c13494a80ed0c874bf027c4b509",
    ),
    "ablation_html_2clients": (
        "86e76ee58ae047852d2bf6765ca226dcf1dea73dfe3d1170a1825fa520fb5ba3",
        "b95ecef090481b92122cd3079768085e5b983212ecd53597d889577064be574b",
    ),
    "ablation_image_2clients": (
        "5da86ebf27a1dbd6d0f1baca00e7d3c6cbbbfeeb9e3712285c15efafc4c27441",
        "1680af40969475b60b0e5a8e190f1b5beeb1c22b5d509d3fed9953e90a801d35",
    ),
    "ablation_url_2clients": (
        "bfd951bdb3d411a669054ded32be81cf08595db420263c19dc0a3ecf1a40f92e",
        "0dba61ab670c36ca9cbafc5438b6a3401f02f8d122212499a4131eb762167d9a",
    ),
    "four_clients_fusion_html": (
        "e5469c2bf0d637e898dc99d927e452b190a5cb8b81eab525aa7f6cb71d37231a",
        "3214f5ce6ad8e6bbd4ae687108fa0b6918e3ab65c36bd4f8835299d821dd630e",
    ),
    "four_clients_html_cross": (
        "21be176814a5eb63b53c6a3c4cf484b363ee958499699afd35478b4acaac1e81",
        "c8ea865230268a579c1b7cd2e89aac9239f9d7a6630e40284ae0b3940faf9908",
    ),
    "four_clients_html_cross_fedprox": (
        "a79e0f2408a1236b5c5987369bf0ba3836fb5dc3765d400d754df73d90a0b036",
        "456bceeadaa9e7c41bde748ae9922e4beaff12cc385d9c77ef787613be2a89ab",
    ),
    "four_clients_html_cross_noniid": (
        "4937134690481b533da194592f12d7162d24298ba4c237bed14ebf271e66ee96",
        "9d6b3bc881a74a9c5dd1292063070bdb6e8095ebec95fca75906a2c10b2abd31",
    ),
    "four_clients_html_url": (
        "3400a848e1d979f9e6c3664122e2e265673badd1627e39116c3169d07123a93e",
        "5c9a218b6ba270961ca6176eb853d6ecb72b8dda71285a87f28d1a3168023f76",
    ),
    "four_clients_image_html": (
        "38858cdd6b40828415a212d19fcdf7b07f6e61814b2a77451ba8db7a148792d0",
        "c236c3c3891ee98376f0eeb7d2e822a927823f4f19c3041528304cbbdd4c71db",
    ),
    # its viewer client only evaluates, on url, image, html and pair sets
    "four_clients_viewer": (
        "3750c91331590ac3e3a3f60f249917965c005c7d91e4d21fafa7df267e3852de",
        "e02b79a84490cef5094d8cb8e71be79eecb49c409ece6c5969e68c6ac0a10831",
    ),
    "six_clients": (
        "92e931739f87c1c9ad71185cd907021c1138c1b150c27fb234b8a87e837d2955",
        "427572ab35dd845c0fa50568991e1c47ea4cee50a01ce56a054ea4aef64f5c22",
    ),
    "four_clients_html_cross_dom7": (
        "f2a18dfcc2952503a449a1031a3c706293374f41cd7dda10d2a701f9a4c1d72f",
        "b4966bf402c9ace1f5a20d08fe0e6d5fd63813b7997fbbb1b5922d6a6109f64e",
    ),
    "ablation_url_2clients_fedprox": (
        "e9d1720dae190673066f4cfdb658be9a52b0be7d7d6746af0f689df0c0ebe152",
        "7e6ae78fba604ed457ea2f0bbf671f120c8df6b5369bd13406c333aac1a65178",
    ),
    "four_clients_fusion_html_one_step": (
        "8cc06c2533d39a5f2f3d1785425f5785cc132beee5449e194dbccbc20f387e70",
        "75c190da98b8e9dde75446f96b88f50cf14355fc668550c0f03bbb22ff17ccdc",
    ),
}

# variant name -> (bundled config, values it replaces; a dict value
# replaces keys inside that section)
VARIANTS = {
    "four_clients_html_cross_dom7": ("four_clients_html_cross", {"preproc": {"dom_len": 7}}),
    # four steps per client and round, so that the pull is nonzero after the first
    "ablation_url_2clients_fedprox": ("ablation_url_2clients", {"mu": 0.02, "batch_size": 8}),
    # one batch holds every client's training set: at one epoch each client's
    # only step is its last
    "four_clients_fusion_html_one_step": ("four_clients_fusion_html", {"batch_size": 64}),
}


def params_digest(params: dict[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(np.ascontiguousarray(params[name], dtype="<f8").tobytes())
    return h.hexdigest()


def test_every_bundled_config_is_pinned():
    assert sorted(set(PINS) - set(VARIANTS)) == bundled_config_names()


def config_path(name, tmp_path):
    if name not in VARIANTS:
        return bundled_config_path(name)
    base, patch = VARIANTS[name]
    raw = json.loads(bundled_config_path(base).read_text())
    for key, value in patch.items():
        if isinstance(value, dict):
            raw[key].update(value)
        else:
            raw[key] = value
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(raw))
    return path


# config name -> (rounds.csv sha256, final parameters sha256) of the config
# with its model at float32, the paper profile's dtype, run as the configs
# in PINS are. No bundled config computes in float32; this pin keeps float32
# outputs from drifting silently. The viewer evaluates every head, fusion
# included, and its url and image payloads are cast when the clients are built.
FLOAT32_PINS = {
    "four_clients_viewer": (
        "1a42466fbd32fb9c5df66dcb54feaf35ddf8893975cad685f91efca1781b0044",
        "ff53e8b63f847cd3d3ed098376e3602ffc31f0b902d1374776aa1bd7f2ac3bdb",
    ),
}


@pytest.mark.parametrize("name", sorted(FLOAT32_PINS))
def test_a_float32_run_of_a_bundled_config_is_pinned(name, tmp_path):
    cfg = parse_config(bundled_config_path(name))
    cfg = replace(cfg, model=replace(cfg.model, dtype="float32"))
    clients = build_clients(cfg)
    for arrays in (a for c in clients for a in (*c.train.values(), *c.val.values())):
        for key, value in arrays.items():
            assert value.dtype == (np.float32 if key == "x" else np.int64), key
    result = run_experiment(cfg.model, replace(cfg.train, rounds=2, epochs=1), clients)
    assert {v.dtype for v in result.params.values()} == {np.dtype(np.float32)}
    csv_path = tmp_path / "rounds.csv"
    write_round_csv(result.rounds, csv_path)
    got = (hashlib.sha256(csv_path.read_bytes()).hexdigest(), params_digest(result.params))
    assert got == FLOAT32_PINS[name]


# config name -> config_hash of its resolved config, the digest that
# final.ckpt's manifest carries; a checkpoint is tied to it, so a change that
# renames, reorders or regroups a setting moves it
CONFIG_HASHES = {
    "ablation_fusion_2clients": "c137ea7bdfe38b22",
    "ablation_html_2clients": "1c6fd92ef70555e0",
    "ablation_image_2clients": "2a02d1bf849d7248",
    "ablation_url_2clients": "1279af1b5d4165da",
    "four_clients_fusion_html": "70cc53dc4a1590e8",
    "four_clients_html_cross": "f0f7bc914a53d3c6",
    "four_clients_html_cross_fedprox": "53664545b3296bf0",
    "four_clients_html_cross_noniid": "3d3d591ffb3dcbb5",
    "four_clients_html_url": "dc09cff7ad216d96",
    "four_clients_image_html": "1ac1dfa84d456a26",
    "four_clients_viewer": "4ae25859cfd41e01",
    "six_clients": "6b12172106518fe9",
}


def test_every_bundled_config_hash_is_pinned():
    got = {name: config_hash(parse_config(bundled_config_path(name))) for name in bundled_config_names()}
    assert got == CONFIG_HASHES


def test_an_evaluation_only_clients_id_does_not_move_training(tmp_path):
    # four_clients_viewer's viewer sorts last; renamed to sort first, it
    # must leave every trainer's RNG stream, and so every bit, where it was
    raw = json.loads(bundled_config_path("four_clients_viewer").read_text())
    (viewer,) = [c for c in raw["clients"] if c["id"] == "viewer"]
    viewer["id"] = "aaa_viewer"
    path = tmp_path / "renamed.json"
    path.write_text(json.dumps(raw))
    runs = []
    for cfg in (parse_config(bundled_config_path("four_clients_viewer")), parse_config(path)):
        result = run_experiment(cfg.model, replace(cfg.train, rounds=1, epochs=1), build_clients(cfg))
        rows = sorted((e.client_id.removeprefix("aaa_"), e.head, e.loss, e.metrics)
                      for log in result.rounds for e in log.entries)
        runs.append((result.params, rows))
    (base, base_rows), (renamed, renamed_rows) = runs
    assert base.keys() == renamed.keys()
    assert all(np.array_equal(base[k], renamed[k]) for k in base)
    assert renamed_rows == base_rows


@pytest.mark.parametrize("name", sorted(PINS))
def test_bundled_config_training_output_is_pinned(name, tmp_path):
    cfg = parse_config(config_path(name, tmp_path))
    train = replace(cfg.train, rounds=2, epochs=1)
    result = run_experiment(cfg.model, train, build_clients(cfg))
    csv_path = tmp_path / "rounds.csv"
    write_round_csv(result.rounds, csv_path)
    got = (hashlib.sha256(csv_path.read_bytes()).hexdigest(), params_digest(result.params))
    assert got == PINS[name]
