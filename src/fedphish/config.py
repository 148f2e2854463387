"""Experiment configuration files: parsing, validation and client building.

Configs are JSON with a strict schema: a key that nothing reads is rejected
by name, and every value is checked against its rule (``fedphish.rules``).
Each setting is declared once with its default and its rule: in
``TrainConfig``, ``PreprocConfig``, ``_PATH`` and the synth tables. Each
client lists datasets that are either synthetic recipes or JSONL paths with
explicit, disjoint train/test index ranges on the shuffled order, so several
clients can share one corpus without coordination. A dataset accepts only
the keys of its source: a synth block accepts kind and the settings its
modality's kind reads; the ranges, shuffle_seed and preshuffled belong to
path datasets. A client with validation data only evaluates, and some client
must train. Either model profile sizes its html word and DOM tables from
the preproc bucket counts. A config whose parameters and data arrays exceed
physical memory is rejected from their shapes, before any array exists.
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
from .federation import ClientData, TrainConfig
from .heads import ModelSpec
from .preproc import PreprocConfig
from .rules import RULES, ConfigError, check

__all__ = ["ConfigError", "DatasetSpec", "ClientSpec", "ExperimentConfig",
           "parse_config", "config_hash", "build_clients", "bundled_config_path",
           "bundled_config_names"]


_TRAIN_KEYS = {field.name for field in dataclasses.fields(TrainConfig)}
_PREPROC_KEYS = {field.name for field in dataclasses.fields(PreprocConfig)}
_TOP_KEYS = {"name", "model_profile", "preproc", "clients", "out_dir", *_TRAIN_KEYS}
_CLIENT_KEYS = {"id", "datasets"}
# a path dataset's settings besides its path and ranges: (default, rule)
_PATH = {"shuffle_seed": (42, "an integer >= 0"), "preshuffled": (False, "true or false")}
_PATH_KEYS = {"path", "train_range", "test_range", *_PATH}
# the settings every synth kind reads besides kind: (default, rule)
_SYNTH_COMMON = {"train_n": (32, "an integer >= 0"), "test_n": (32, "an integer >= 0"),
                 "seed": (0, "an integer >= 0")}
# modality -> (its synth kind, its other settings as (default, rule), the call
# that makes n samples). Each call names its generator when it runs, so a
# wrapper set on this module's name is the one called.
_SYNTH = {
    "image": ("image_tokens", {"separation": (4.0, "a finite number >= 0"), "length": (4, "an integer >= 1")},
              lambda n, s, cfg: synth_image_tokens(
                  n, length=s["length"], dim=cfg.model.image.d_model,
                  separation=s["separation"], seed=s["seed"])),
    "html": ("html", {},
             lambda n, s, cfg: synth_html(n, seed=s["seed"], preproc_cfg=cfg.preproc)),
    "url": ("embeddings", {"separation": (4.0, "a finite number >= 0")},
            lambda n, s, cfg: synth_embeddings(
                n, dim=cfg.model.url.in_dim, separation=s["separation"], seed=s["seed"])),
    "pair": ("paired", {"separation": (8.0, "a finite number >= 0"), "length": (4, "an integer >= 1")},
             lambda n, s, cfg: synth_paired(
                 n, seed=s["seed"], image_length=s["length"], image_dim=cfg.model.image.d_model,
                 separation=s["separation"], preproc_cfg=cfg.preproc)),
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

    def sizes(self) -> tuple[int, int]:
        """Its train and validation row counts."""
        if self.synth is not None:
            return self.synth["train_n"], self.synth["test_n"]
        return self.train_range[1] - self.train_range[0], self.test_range[1] - self.test_range[0]


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
    check(where, obj, "an object")
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
        check(f"{where}.synth", synth, "an object")
        kind, reads, _ = _SYNTH[modality]
        settings = {**_SYNTH_COMMON, **reads}
        _reject_unknown(synth, {"kind", *settings}, f"{where}.synth")
        if synth.get("kind") != kind:
            raise ConfigError(f"{where}.synth: kind must be {kind!r} for "
                              f"{modality} data, got {synth.get('kind')!r}")
        synth = {"kind": kind, **{key: check(f"{where}.synth: {key}", synth.get(key, default), rule)
                                  for key, (default, rule) in settings.items()}}
        if synth["train_n"] + synth["test_n"] < 2:
            raise ConfigError(f"{where}.synth: train_n + test_n must be at least 2")
        return DatasetSpec(modality=modality, synth=synth)
    if modality == "pair":
        raise ConfigError(f"{where}: paired data from paths is not supported; "
                          "pair image and html files upstream or use synth")
    check(f"{where}: path", path, "a string")
    shuffle_seed, preshuffled = (check(f"{where}: {key}", obj.get(key, default), rule)
                                 for key, (default, rule) in _PATH.items())
    train_range = obj.get("train_range")
    test_range = obj.get("test_range")
    for name, value in (("train_range", train_range), ("test_range", test_range)):
        if not (isinstance(value, list) and len(value) == 2
                and all(map(RULES["an integer >= 0"], value)) and value[0] <= value[1]):
            raise ConfigError(f"{where}: path datasets need {name} as [start, stop] integers "
                              "with 0 <= start <= stop")
    shared = max(train_range[0], test_range[0]), min(train_range[1], test_range[1])
    if shared[0] < shared[1]:
        raise ConfigError(f"{where}: train_range and test_range share rows [{shared[0]}, {shared[1]}); "
                          "a row cannot both train and validate")
    return DatasetSpec(modality=modality, path=path, train_range=tuple(train_range),
                       test_range=tuple(test_range), shuffle_seed=shuffle_seed,
                       preshuffled=preshuffled)


def _row_values(spec: DatasetSpec, model: ModelSpec, preproc: PreprocConfig) -> int:
    """The values one row of ``spec``'s arrays holds, its label included. A
    path image dataset counts one token, since its file sets the count."""
    image = (spec.synth or {}).get("length", 1) * model.image.d_model
    html = sum(preproc.lengths().values())
    return 1 + {"url": model.url.in_dim, "image": image, "html": html, "pair": image + html}[spec.modality]


def parse_config(path) -> ExperimentConfig:
    """Load and validate a config file, filling defaults for absent fields."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})")
    check(f"{path}: top level", raw, "an object")
    _reject_unknown(raw, _TOP_KEYS, str(path))

    preproc_raw = check("preproc", raw.get("preproc", {}), "an object")
    _reject_unknown(preproc_raw, _PREPROC_KEYS, "preproc")
    train = TrainConfig(**{key: raw[key] for key in _TRAIN_KEYS if key in raw})
    preproc = PreprocConfig(**preproc_raw)

    profile = raw.get("model_profile", "paper")
    if profile not in ("paper", "desk_pages"):
        raise ConfigError(f"model_profile must be paper or desk_pages, got {profile!r}")
    # each html embedding table holds one row per id its stream can carry
    model = getattr(ModelSpec, profile)(
        word_buckets=preproc.word_buckets, dom_buckets=preproc.dom_buckets
    )

    clients_raw = raw.get("clients")
    if not clients_raw or not isinstance(clients_raw, list):
        raise ConfigError("config needs a list of at least one client")
    clients = []
    seen = set()
    for i, cobj in enumerate(clients_raw):
        where = f"clients[{i}]"
        check(where, cobj, "an object")
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
        if not any(sum(spec.sizes()) for spec in specs):
            raise ConfigError(f"client {cid} has no data")
        clients.append(ClientSpec(client_id=cid, datasets=specs))
    all_specs = [spec for client in clients for spec in client.datasets]
    if not any(spec.sizes()[0] for spec in all_specs):
        raise ConfigError(f"{path}: no client has training data")

    # sized from the shapes alone, before any array exists; every value takes 8 bytes
    param_bytes = 8 * sum(math.prod(shape) for shape in model.param_shapes().values())
    data_bytes = 8 * sum(sum(spec.sizes()) * _row_values(spec, model, preproc) for spec in all_specs)
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if param_bytes + data_bytes > memory:
        raise ConfigError(
            f"{path}: the model's parameters take {param_bytes / 2**30:.1f} GiB and the data arrays "
            f"{data_bytes / 2**30:.1f} GiB, more than the {memory / 2**30:.1f} GiB of physical memory "
            "(not counting training state or activations; a path image dataset counts one token "
            "per row, since its file sets the token count)")
    for i, client in enumerate(clients):
        for spec in client.datasets:
            if spec.path is not None and not Path(spec.path).exists():
                raise ConfigError(f"clients[{i}]: referenced path does not exist: {spec.path}")

    out_dir = check("out_dir", raw.get("out_dir", ExperimentConfig.out_dir), "a string")
    name = check("name", raw.get("name", path.stem), "a string")

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
