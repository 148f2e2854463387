"""Experiment configuration files: parsing, validation and client building.

Configs are JSON with a strict schema: any key that nothing reads is
rejected by name as an unknown key. Each client lists datasets that are
either synthetic recipes or JSONL paths with explicit train/test index
ranges on the shuffled order, so several clients can share one corpus
without coordination. A dataset accepts only the keys of its source: a
synth block accepts kind, train_n, test_n, seed and the settings its
modality's kind reads (``_SYNTH``); the ranges, shuffle_seed and
preshuffled belong to path datasets. Either model profile sizes its html
word and DOM tables from the preproc bucket counts, and a model whose
parameters alone exceed physical memory is rejected from its shapes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import load_jsonl, synth_embeddings, synth_html, synth_image_tokens, synth_paired
from .federation import ClientData, TrainConfig, _is_finite_nonneg, _is_int
from .heads import ModelSpec
from .preproc import PreprocConfig

__all__ = ["ConfigError", "DatasetSpec", "ClientSpec", "ExperimentConfig",
           "parse_config", "config_hash", "build_clients", "bundled_config_path",
           "bundled_config_names"]


class ConfigError(ValueError):
    """Invalid experiment configuration."""


_TRAIN_KEYS = {field.name for field in dataclasses.fields(TrainConfig)}
_TOP_KEYS = {"name", "model_profile", "preproc", "clients", "out_dir", *_TRAIN_KEYS}
_CLIENT_KEYS = {"id", "datasets"}
_PATH_KEYS = {"path", "train_range", "test_range", "shuffle_seed", "preshuffled"}
_PREPROC_KEYS = {"char_len", "word_len", "dom_len", "word_buckets", "dom_buckets"}
# the settings every synth kind reads besides kind, with their defaults
_SYNTH_COMMON = {"train_n": 32, "test_n": 32, "seed": 0}
# modality -> (its synth kind, the other settings that kind reads with their
# defaults, the call that makes n samples). Each call names its generator
# when it runs, so a wrapper set on this module's name is the one called.
_SYNTH = {
    "image": ("image_tokens", {"separation": 4.0, "length": 4},
              lambda n, s, cfg: synth_image_tokens(
                  n, length=s["length"], dim=cfg.model.image.d_model,
                  separation=s["separation"], seed=s["seed"])),
    "html": ("html", {},
             lambda n, s, cfg: synth_html(n, seed=s["seed"], preproc_cfg=cfg.preproc)),
    "url": ("embeddings", {"separation": 4.0},
            lambda n, s, cfg: synth_embeddings(
                n, dim=cfg.model.url.in_dim, separation=s["separation"], seed=s["seed"])),
    "pair": ("paired", {"separation": 8.0, "length": 4},
             lambda n, s, cfg: synth_paired(
                 n, seed=s["seed"], image_length=s["length"], image_dim=cfg.model.image.d_model,
                 separation=s["separation"], preproc_cfg=cfg.preproc)),
}
_SYNTH_CHECKS = {  # key -> (what it must be, test)
    "train_n": ("an integer >= 0", lambda v: _is_int(v) and v >= 0),
    "test_n": ("an integer >= 0", lambda v: _is_int(v) and v >= 0),
    "seed": ("an integer >= 0", lambda v: _is_int(v) and v >= 0),
    "separation": ("a finite number >= 0", _is_finite_nonneg),
    "length": ("an integer >= 1", lambda v: _is_int(v) and v >= 1),
}


@dataclass(frozen=True)
class DatasetSpec:
    modality: str
    synth: dict | None = None
    path: str | None = None
    train_range: tuple[int, int] | None = None
    test_range: tuple[int, int] | None = None
    shuffle_seed: int | None = None  # set for path datasets only
    preshuffled: bool | None = None


@dataclass(frozen=True)
class ClientSpec:
    client_id: str
    datasets: tuple[DatasetSpec, ...]


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    train: TrainConfig
    model: ModelSpec
    preproc: PreprocConfig
    clients: tuple[ClientSpec, ...]
    out_dir: str = "runs"


def _reject_unknown(obj: dict, allowed: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown key {sorted(unknown)[0]!r}")


def _parse_dataset(obj: dict, where: str) -> DatasetSpec:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: dataset must be an object")
    modality = obj.get("modality")
    if not isinstance(modality, str) or modality not in _SYNTH:
        raise ConfigError(f"{where}: modality must be one of {tuple(_SYNTH)}, got {modality!r}")
    synth = obj.get("synth")
    path = obj.get("path")
    if (synth is None) == (path is None):
        raise ConfigError(f"{where}: exactly one of 'synth' or 'path' is required")
    # each source reads its own keys: a synth dataset's settings are in its block
    allowed = {"modality", *_PATH_KEYS} if synth is None else {"modality", "synth"}
    _reject_unknown(obj, allowed, where)
    if synth is not None:
        if not isinstance(synth, dict):
            raise ConfigError(f"{where}.synth: must be an object")
        kind, reads, _ = _SYNTH[modality]
        defaults = {**_SYNTH_COMMON, **reads}
        _reject_unknown(synth, {"kind", *defaults}, f"{where}.synth")
        if synth.get("kind") != kind:
            raise ConfigError(f"{where}.synth: kind must be {kind!r} for "
                              f"{modality} data, got {synth.get('kind')!r}")
        for key, (what, ok) in _SYNTH_CHECKS.items():
            if key in synth and not ok(synth[key]):
                raise ConfigError(f"{where}.synth: {key} must be {what}, got {synth[key]!r}")
        synth = {**defaults, **synth}
        if synth["train_n"] + synth["test_n"] < 2:
            raise ConfigError(f"{where}.synth: train_n + test_n must be at least 2")
        return DatasetSpec(modality=modality, synth=synth)
    if modality == "pair":
        raise ConfigError(f"{where}: paired data from paths is not supported; "
                          "pair image and html files upstream or use synth")
    if not isinstance(path, str):
        raise ConfigError(f"{where}: path must be a string, got {path!r}")
    shuffle_seed = obj.get("shuffle_seed", 42)
    preshuffled = obj.get("preshuffled", False)
    if not (_is_int(shuffle_seed) and shuffle_seed >= 0):
        raise ConfigError(f"{where}: shuffle_seed must be an integer >= 0, got {shuffle_seed!r}")
    if not isinstance(preshuffled, bool):
        raise ConfigError(f"{where}: preshuffled must be true or false, got {preshuffled!r}")
    train_range = obj.get("train_range")
    test_range = obj.get("test_range")
    for name, value in (("train_range", train_range), ("test_range", test_range)):
        if not (isinstance(value, list) and len(value) == 2 and all(map(_is_int, value))
                and 0 <= value[0] <= value[1]):
            raise ConfigError(f"{where}: path datasets need {name} as [start, stop] integers "
                              "with 0 <= start <= stop")
    return DatasetSpec(modality=modality, path=path, train_range=tuple(train_range),
                       test_range=tuple(test_range), shuffle_seed=shuffle_seed,
                       preshuffled=preshuffled)


def _train_size(spec: DatasetSpec) -> int:
    if spec.synth is not None:
        return spec.synth["train_n"]
    start, stop = spec.train_range
    return stop - start


def parse_config(path) -> ExperimentConfig:
    """Load and validate a config file, filling defaults for absent fields."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})")
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    _reject_unknown(raw, _TOP_KEYS, str(path))

    preproc_raw = raw.get("preproc", {})
    if not isinstance(preproc_raw, dict):
        raise ConfigError(f"{path}: preproc must be an object")
    _reject_unknown(preproc_raw, _PREPROC_KEYS, "preproc")
    # the dataclasses hold the defaults and check ranges and types; report
    # their errors as config errors
    try:
        train = TrainConfig(**{key: raw[key] for key in _TRAIN_KEYS if key in raw})
        preproc = PreprocConfig(**preproc_raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    profile = raw.get("model_profile", "paper")
    if profile not in ("paper", "desk_pages"):
        raise ConfigError(f"model_profile must be paper or desk_pages, got {profile!r}")
    # each html embedding table holds one row per id its stream can carry
    model = getattr(ModelSpec, profile)(
        word_buckets=preproc.word_buckets, dom_buckets=preproc.dom_buckets
    )
    # sized from the shapes alone, before any array exists
    model_bytes = 8 * sum(math.prod(shape) for shape in model.param_shapes().values())
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if model_bytes > memory:
        raise ConfigError(f"{path}: the model's parameters take {model_bytes / 2**30:.1f} GiB, more than "
                          f"the {memory / 2**30:.1f} GiB of physical memory (this counts the "
                          "parameters only, not training state, data or activations)")

    clients_raw = raw.get("clients")
    if not clients_raw or not isinstance(clients_raw, list):
        raise ConfigError("config needs a list of at least one client")
    clients = []
    seen = set()
    for i, cobj in enumerate(clients_raw):
        where = f"clients[{i}]"
        if not isinstance(cobj, dict):
            raise ConfigError(f"{where}: client must be an object")
        _reject_unknown(cobj, _CLIENT_KEYS, where)
        cid = cobj.get("id")
        if not cid or not isinstance(cid, str):
            raise ConfigError(f"{where}: missing string 'id'")
        if cid in seen:
            raise ConfigError(f"duplicate client id {cid!r}")
        seen.add(cid)
        datasets = cobj.get("datasets")
        if not datasets or not isinstance(datasets, list):
            raise ConfigError(f"{where}: needs a list of at least one dataset")
        specs = tuple(_parse_dataset(d, f"{where}.datasets[{j}]") for j, d in enumerate(datasets))
        modalities = [spec.modality for spec in specs]
        for modality in modalities:
            if modalities.count(modality) > 1:
                raise ConfigError(f"client {cid}: duplicate {modality} dataset")
        if not any(_train_size(spec) for spec in specs):
            raise ConfigError(f"client {cid} has no training data")
        clients.append(ClientSpec(client_id=cid, datasets=specs))
        for spec in specs:
            if spec.path is not None and not Path(spec.path).exists():
                raise ConfigError(f"{where}: referenced path does not exist: {spec.path}")

    out_dir = raw.get("out_dir", ExperimentConfig.out_dir)
    name = raw.get("name", path.stem)
    for key, value in (("out_dir", out_dir), ("name", name)):
        if not isinstance(value, str):
            raise ConfigError(f"{key} must be a string, got {value!r}")

    return ExperimentConfig(
        name=name,
        train=train,
        model=model,
        preproc=preproc,
        clients=tuple(clients),
        out_dir=out_dir,
    )


def config_hash(cfg: ExperimentConfig) -> str:
    """Digest of the whole resolved config except where its outputs go."""
    fields = dataclasses.asdict(cfg)
    del fields["out_dir"]
    return hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# turning specs into client shards
# ---------------------------------------------------------------------------

def _synth_split(spec: DatasetSpec, cfg: ExperimentConfig):
    s = spec.synth
    data = _SYNTH[spec.modality][2](s["train_n"] + s["test_n"], s, cfg)
    return data[: s["train_n"]], data[s["train_n"] :]


def _path_split(spec: DatasetSpec, cfg: ExperimentConfig):
    data = load_jsonl(
        spec.path, spec.modality, preproc_cfg=cfg.preproc,
        embed_dim=cfg.model.url.in_dim if spec.modality == "url" else cfg.model.image.d_model,
    )
    n = len(data["y"])
    order = np.arange(n) if spec.preshuffled else np.random.default_rng(spec.shuffle_seed).permutation(n)

    def take(bounds, what):
        start, stop = bounds
        if stop > n:
            raise ValueError(f"{spec.path}: {what} range [{start}, {stop}) does not fit {n} samples")
        # index arrays copy only the rows in range; the file's arrays are dropped
        return data[order[start:stop]]

    return take(spec.train_range, "train"), take(spec.test_range, "test")


def build_clients(cfg: ExperimentConfig) -> list[ClientData]:
    """Materialize every client's train and validation arrays."""
    clients = []
    for cspec in cfg.clients:
        train: dict = {}
        val: dict = {}
        for dspec in cspec.datasets:
            tr, te = (_synth_split if dspec.synth is not None else _path_split)(dspec, cfg)
            if len(tr["y"]):
                train[dspec.modality] = tr
            if len(te["y"]):
                val[dspec.modality] = te
        clients.append(ClientData(client_id=cspec.client_id, train=train, val=val))
    return clients


# ---------------------------------------------------------------------------
# bundled scenario configs
# ---------------------------------------------------------------------------

def bundled_config_path(name: str) -> Path:
    path = Path(__file__).parent / "configs" / f"{name}.json"
    if not path.exists():
        raise ConfigError(f"no bundled config named {name!r}")
    return path


def bundled_config_names() -> list[str]:
    return sorted(p.stem for p in (Path(__file__).parent / "configs").glob("*.json"))
