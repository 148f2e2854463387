"""Role-aware FedProx orchestration.

Every parameter belongs to one of four roles (image, html, url, fusion) by
name prefix. A client owns the roles its training data reaches, with one
weight per role (sample counts, or equal weight for html); it trains only
the parameters of those roles. Of an embedding table it takes only the rows
its training streams can look up, PAD included, and trains that compact
table with the ids mapped into it. The optimizer copies all of them once
into one flat state, and the report's arrays are views of it: a dense
parameter whole, a table as those rows, since no other row can move
(Konečný et al., 2016, structured updates). The server averages each role
only over its owners and writes a table's new rows into the global table in
place; a role nobody owns keeps its old values.

Each epoch a client trains its image, html and url batches, in that order,
then its pair batches. ``batch_loss`` is the one data loss: a focal loss,
and for pairs the focal loss of the fused branches plus auxiliary focal
losses of both branches. With ``mu > 0`` the FedProx pull toward
the broadcast, mu (theta - theta_t), is added to the gradient of every
parameter the client trains after each backward pass (Li et al., 2018); it
is not part of the loss. Only the parameters that have a gradient are
clipped and stepped.

Everything is deterministic: clients train one after another in sorted
client-id order, client RNG streams are seeded by (global seed, client
index, round), and weighted sums run in sorted client order.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import numbers
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .heads import (
    FUSION_PREFIX,
    HTML_PREFIX,
    IMAGE_PREFIX,
    TABLE_OF_STREAM,
    URL_PREFIX,
    ModelSpec,
    focal_loss,
)
from .metrics import Metrics, RoundEntry, RoundLog, compute_metrics, confusion
from .numerics import (
    GradientError,
    Tensor,
    TouchedRows,
    backward,
    clip_global_norm,
    make_optimizer,
    zero_grads,
)

__all__ = [
    "ClientReport",
    "ClientData",
    "TrainConfig",
    "ExperimentResult",
    "group_of",
    "select_clients",
    "aggregate",
    "head_logits",
    "batch_loss",
    "proximal_term",
    "client_train",
    "client_evaluate",
    "run_experiment",
    "save_checkpoint",
    "load_checkpoint",
]

log = logging.getLogger(__name__)

_ROLE_PREFIX = {"image": IMAGE_PREFIX, "html": HTML_PREFIX, "url": URL_PREFIX, "fusion": FUSION_PREFIX}

CHECKPOINT_MAGIC = b"FPCK"

# the weight of each branch's own loss in a pair batch's loss
AUX_WEIGHT = 0.3


def group_of(param_name: str) -> str:
    """The role whose head prefix starts the name."""
    for role, prefix in _ROLE_PREFIX.items():
        if param_name.startswith(prefix):
            return role
    raise ValueError(f"parameter {param_name!r} has no head prefix")


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_finite_nonneg(value) -> bool:
    return _is_real(value) and math.isfinite(value) and value >= 0


@dataclass
class ClientReport:
    """One client's trained parameters of the roles it owns and its
    aggregation weight per owned role. A dense parameter is an array; a
    table is the ``TouchedRows`` it trained."""

    client_id: str
    params: dict[str, np.ndarray | TouchedRows]
    weights: dict[str, float]


@dataclass
class ClientData:
    """One simulated client's local shards: a dataset per modality, in the
    stacked form that ``fedphish.data`` returns.

    train/val keys: "image" {x, y}, "html" {char, word, dom, y},
    "url" {x, y}, "pair" {x, char, word, dom, y}. A pair stores its image
    tokens under "x" and its html streams under the html keys, so one pair
    batch feeds both the image and the html head.
    """

    client_id: str
    train: dict[str, dict[str, np.ndarray]] = field(default_factory=dict)
    val: dict[str, dict[str, np.ndarray]] = field(default_factory=dict)

    def role_weights(self) -> dict[str, float]:
        """Aggregation weight of each role the training data reaches: its
        sample count, where a pair counts for image, html and fusion; html
        weighs 1."""
        n = {kind: len(arrays["y"]) for kind, arrays in self.train.items()}
        pair = n.get("pair", 0)
        counts = {
            "image": n.get("image", 0) + pair,
            "html": min(n.get("html", 0) + pair, 1),
            "url": n.get("url", 0),
            "fusion": pair,
        }
        return {role: float(c) for role, c in counts.items() if c > 0}


@dataclass(frozen=True)
class TrainConfig:
    rounds: int = 100
    epochs: int = 5
    lr: float = 0.001
    batch_size: int = 64
    # FedProx coefficient: each step adds mu (theta - theta_t) to the
    # gradient of every parameter the client trains; 0 turns the pull off
    mu: float = 0.0
    clip: float = 1.0
    seed: int = 42

    def __post_init__(self):
        for name in ("rounds", "epochs", "batch_size"):
            value = getattr(self, name)
            if not (_is_int(value) and value >= 1):
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        for name in ("lr", "clip"):
            value = getattr(self, name)
            if not (_is_real(value) and math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a finite number > 0, got {value!r}")
        if not _is_finite_nonneg(self.mu):
            raise ValueError(f"mu must be a finite number >= 0, got {self.mu!r}")
        if not (_is_int(self.seed) and self.seed >= 0):
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")


# ---------------------------------------------------------------------------
# server side
# ---------------------------------------------------------------------------

def select_clients(role: str, reports: list[ClientReport]) -> list[tuple[float, ClientReport]]:
    """The owners of one role as (weight, report) pairs in sorted client-id
    order. A client owns a role iff its weight for that role is positive."""
    ordered = sorted(reports, key=lambda r: r.client_id)
    weighted = [(r.weights.get(role, 0.0), r) for r in ordered]
    return [(w, r) for w, r in weighted if w > 0]


def _finite_reports(reports: list[ClientReport]) -> list[ClientReport]:
    ok = []
    for r in reports:
        values = (v.values if isinstance(v, TouchedRows) else v for v in r.params.values())
        if all(np.isfinite(v).all() for v in values):
            ok.append(r)
        else:
            log.warning("excluding client %s: non-finite parameters in report", r.client_id)
    return ok


def aggregate(global_params: dict[str, np.ndarray], reports: list[ClientReport]) -> dict[str, np.ndarray]:
    """Role-wise weighted average; a role with no owners keeps the old value,
    and a role with one owner takes that owner's reported value.

    A table's new rows are written into its array in ``global_params`` in
    place; the returned dict holds that same array, whose other rows keep
    their bits. A dense parameter of an owned role is returned as the sole
    owner's array or a new mean, and every other parameter as the same array
    object, so role isolation is bitwise by construction. Every mean is
    computed before the first write, so a call that raises leaves
    ``global_params`` untouched. Weighted sums run in sorted client-id order
    for reproducibility.
    """
    reports = _finite_reports(reports)
    role_pool = {role: select_clients(role, reports) for role in _ROLE_PREFIX}

    updates = {}
    for name in sorted(global_params):
        pool = role_pool[group_of(name)]
        for _, r in pool:
            if name not in r.params:
                raise ValueError(f"client {r.client_id} report is missing {name!r}")
        if pool:
            updates[name] = _average(global_params[name], [(w, r.params[name]) for w, r in pool])
    new_params = dict(global_params)
    for name, value in updates.items():
        if isinstance(value, TouchedRows):
            global_params[name][value.rows] = value.values
        else:
            new_params[name] = value
    return new_params


def _average(old: np.ndarray, pool: list[tuple[float, np.ndarray | TouchedRows]]) -> np.ndarray | TouchedRows:
    """Weighted mean of the owners' values of one parameter, summed in pool
    order. For a table it is the ``TouchedRows`` of the union of the owners'
    rows, where each owner's value counts as ``old`` outside its own rows, so
    a row some owner touched is bitwise the mean of whole tables. One owner's
    whole rows are built at a time and added into the sum."""
    if len(pool) == 1:
        # a sole owner's weight share is exactly 1.0
        return pool[0][1]
    total = sum(w for w, _ in pool)
    if not isinstance(pool[0][1], TouchedRows):
        (w0, v0), rest = pool[0], pool[1:]
        acc = (w0 / total) * v0
        for w, v in rest:
            acc += (w / total) * v
        return acc
    rows = functools.reduce(np.union1d, [v.rows for _, v in pool])
    base = old[rows]
    acc, term = None, np.empty_like(base)
    for w, v in pool:
        np.copyto(term, base)
        term[np.searchsorted(rows, v.rows)] = v.values
        term *= w / total
        if acc is None:
            acc, term = term, np.empty_like(base)
        else:
            acc += term
    return TouchedRows(rows, acc)


# ---------------------------------------------------------------------------
# client side
# ---------------------------------------------------------------------------

def _batches(n: int, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


def head_logits(heads, kind: str, params, batch, train: bool = False, rng=None) -> Tensor:
    """Logits of the image, html or url head on a stacked batch. A pair
    batch holds both an image and an html payload, so it feeds either head."""
    if kind == "html":
        return heads["html"].forward(
            params, batch["char"], batch["word"], batch["dom"], train=train, rng=rng
        )
    return heads[kind].forward(params, batch["x"], train=train, rng=rng)


def batch_loss(heads, kind: str, params, batch, rng) -> Tensor:
    """The data loss of one batch of ``kind`` (image, html, url or pair).

    A single-modality batch gives the focal loss of its head. A pair batch
    runs both branches and fuses them; its loss is the focal loss of the
    fused output plus ``AUX_WEIGHT`` times the sum of both branches' own
    focal losses, so that each branch head also learns to stand alone. The
    FedProx pull is not part of it; ``client_train`` adds it to the
    gradients (``proximal_term``).
    """
    labels = batch["y"]
    if kind != "pair":
        logits = head_logits(heads, kind, params, batch, train=True, rng=rng)
        return focal_loss(logits, labels)
    l_i = head_logits(heads, "image", params, batch, train=True, rng=rng)
    l_h = head_logits(heads, "html", params, batch, train=True, rng=rng)
    fused, _ = heads["fusion"].forward(params, l_i, l_h)
    return focal_loss(fused, labels) + AUX_WEIGHT * (
        focal_loss(l_i, labels) + focal_loss(l_h, labels)
    )


def _compact_tables(train: dict[str, dict[str, np.ndarray]], broadcast: dict[str, np.ndarray],
                    weights: dict[str, float]):
    """For each table of an owned role: the sorted rows the client's training
    streams can look up, plus PAD (the table's last row, which the head pads
    short pages with). And for each such stream: a table-sized map from a
    row to its position among those rows."""
    rows, position = {}, {}
    for stream, name in TABLE_OF_STREAM.items():
        if group_of(name) not in weights:
            continue
        # a mask and a position map are cheaper than np.unique's sort
        reached = np.zeros(broadcast[name].shape[0], dtype=bool)
        reached[-1] = True
        for arrays in train.values():
            if stream in arrays:
                reached[arrays[stream]] = True
        rows[name] = np.flatnonzero(reached)
        position[stream] = np.empty(reached.size, dtype=np.intp)
        position[stream][rows[name]] = np.arange(rows[name].size)
    return rows, position


def proximal_term(params: dict[str, Tensor], anchor: dict[str, np.ndarray], mu: float) -> None:
    """Add the FedProx pull mu (theta - theta_t), the gradient of
    mu/2 ||theta - theta_t||^2, into the ``.grad`` of every parameter, one
    parameter at a time. A parameter the loss left without a gradient takes
    the pull as its gradient. ``anchor`` holds each parameter's broadcast
    value in the parameter's shape: for a compact table, the same rows of
    the broadcast table."""
    for name, p in params.items():
        # an array also at 0-d, as every gradient from backward is
        pull = np.asarray(p.data - anchor[name])
        pull *= mu
        # added into the new array, not into .grad: backward may hand one
        # array, or views of it, to several parameters
        if p.grad is not None:
            pull += p.grad
        p.grad = pull


def client_train(
    data: ClientData,
    broadcast: dict[str, np.ndarray],
    model: ModelSpec,
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> ClientReport:
    """Local training from the broadcast, which is also the FedProx anchor.
    Only the parameters of the roles the client owns are optimised and
    returned, copied once into the optimizer's flat state; no other
    parameter gets a gradient, and no broadcast array is written. A table
    is trained and returned as the compact table of the rows the client's
    streams can look up, with each batch's ids mapped to positions in it.
    Each step backpropagates the data loss, adds the pull toward the anchor
    to every owned parameter when ``mu > 0``, and steps with the gradients
    scaled by the clip factor."""
    weights = data.role_weights()
    if not weights:
        raise ValueError(f"client {data.client_id} has no training data")
    heads = model.heads()
    rows, position = _compact_tables(data.train, broadcast, weights)
    anchor = {k: broadcast[k][rows[k]] if k in rows else v
              for k, v in broadcast.items() if group_of(k) in weights}
    params = {k: Tensor(v, requires_grad=True) for k, v in anchor.items()}
    # copies each array into the optimizer's flat state and points its
    # Tensor there, so training never writes the broadcast
    optimizer = make_optimizer(params, cfg.lr)

    for _ in range(cfg.epochs):
        for kind in ("image", "html", "url", "pair"):
            if kind not in data.train:
                continue
            arrays = data.train[kind]
            for idx in _batches(len(arrays["y"]), cfg.batch_size, rng):
                zero_grads(params)
                batch = {k: position[k][v[idx]] if k in position else v[idx] for k, v in arrays.items()}
                backward(batch_loss(heads, kind, params, batch, rng))
                if cfg.mu > 0:
                    proximal_term(params, anchor, cfg.mu)
                grads = [params[k].grad for k in sorted(params) if params[k].grad is not None]
                optimizer.step(scale=clip_global_norm(grads, cfg.clip))

    return ClientReport(
        data.client_id,
        {k: TouchedRows(rows[k], p.data) if k in rows else p.data for k, p in params.items()},
        weights,
    )


def client_evaluate(
    params: dict[str, np.ndarray],
    data: ClientData,
    model: ModelSpec,
    cfg: TrainConfig,
) -> dict[str, tuple[float, Metrics]]:
    """Evaluation-mode metrics per head. A paired validation set routes the
    fusion path; otherwise every present single-modality head is scored.
    Only the parameters of the heads being scored are wrapped as tensors,
    and each batch is a slice (a view) of the validation arrays."""
    heads = model.heads()
    if "pair" in data.val and len(data.val["pair"]["y"]):
        kinds = ["pair"]
        roles = ("image", "html", "fusion")
    else:
        kinds = [k for k in ("image", "html", "url") if k in data.val and len(data.val[k]["y"])]
        roles = kinds
    prefixes = tuple(_ROLE_PREFIX[role] for role in roles)
    tensors = {k: Tensor(v) for k, v in params.items() if k.startswith(prefixes)}
    results: dict[str, tuple[float, Metrics]] = {}
    for kind in kinds:
        arrays = data.val[kind]
        labels = arrays["y"]
        losses = []
        preds = []
        for start in range(0, len(labels), cfg.batch_size):
            batch = {k: v[start : start + cfg.batch_size] for k, v in arrays.items()}
            if kind == "pair":
                logits, _ = heads["fusion"].forward(
                    tensors,
                    head_logits(heads, "image", tensors, batch),
                    head_logits(heads, "html", tensors, batch),
                )
            else:
                logits = head_logits(heads, kind, tensors, batch)
            losses.append(float(focal_loss(logits, batch["y"]).data) * len(batch["y"]))
            preds.append(np.argmax(logits.data, axis=-1))
        results["fusion" if kind == "pair" else kind] = (
            sum(losses) / len(labels),
            compute_metrics(confusion(np.concatenate(preds), labels)),
        )
    return results


# ---------------------------------------------------------------------------
# experiment loop
# ---------------------------------------------------------------------------

@dataclass
class ExperimentResult:
    params: dict[str, np.ndarray]
    rounds: list[RoundLog]


def _client_rng(seed: int, client_index: int, round_index: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(client_index, round_index))
    )


def run_experiment(
    model: ModelSpec,
    cfg: TrainConfig,
    clients: list[ClientData],
    round_hook=None,
) -> ExperimentResult:
    """Full-participation rounds of broadcast, local training, role-wise
    aggregation and evaluation.

    A client whose training hits a non-finite loss is dropped from that
    round; any other exception ends the run. ``round_hook(round_index,
    params, log)`` sees each round's parameters before the next round's
    aggregation writes over their tables.
    """
    if not clients:
        raise ValueError("need at least one client")
    ids = [c.client_id for c in clients]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate client ids")
    clients = sorted(clients, key=lambda c: c.client_id)
    params = {k: p.data for k, p in model.init_params(cfg.seed).items()}
    logs: list[RoundLog] = []

    for round_index in range(cfg.rounds):
        reports: list[ClientReport] = []
        for index, client in enumerate(clients):
            rng = _client_rng(cfg.seed, index, round_index)
            try:
                reports.append(client_train(client, params, model, cfg, rng))
            except GradientError:
                log.exception("client %s failed in round %d", client.client_id, round_index)
        if not reports:
            raise RuntimeError(f"round {round_index}: every client failed")

        params = aggregate(params, reports)

        entries = []
        for client in clients:
            for head, (loss, m) in sorted(client_evaluate(params, client, model, cfg).items()):
                entries.append(RoundEntry(client_id=client.client_id, head=head, loss=loss, metrics=m))
        log_entry = RoundLog(round_index=round_index, entries=entries)
        logs.append(log_entry)
        if round_hook is not None:
            round_hook(round_index, params, log_entry)

    return ExperimentResult(params=params, rounds=logs)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(path, params: dict[str, np.ndarray], run_id: str,
                    round_index: int, cfg_hash: str) -> None:
    """Manifest header plus (name, shape, little-endian float64) records.

    The file is written under a temporary name in the same directory and
    then renamed over ``path``, so ``path`` never holds a partial file.
    """
    manifest = json.dumps(
        {"run_id": run_id, "round": round_index, "config_hash": cfg_hash,
         "n_params": len(params)},
        sort_keys=True,
    ).encode()
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<I", len(manifest)))
            fh.write(manifest)
            for name in sorted(params):
                # asarray, not ascontiguousarray: the latter promotes 0-d to 1-d
                arr = np.asarray(params[name], dtype="<f8")
                encoded = name.encode()
                fh.write(struct.pack("<H", len(encoded)))
                fh.write(encoded)
                fh.write(struct.pack("<B", arr.ndim))
                fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b"")
                fh.write(_raw_bytes(arr))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _raw_bytes(arr: np.ndarray) -> memoryview:
    """The bytes of ``arr`` in C order; no copy when it is C-contiguous."""
    return memoryview(arr.reshape(-1).view(np.uint8))


def _truncated(fh, path) -> ValueError:
    return ValueError(f"{path}: checkpoint truncated at byte {fh.tell()}")


def _read_exact(fh, n: int, path) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise _truncated(fh, path)
    return data


def _read_array(fh, shape: tuple[int, ...], path) -> np.ndarray:
    """The next ``shape`` little-endian float64 values, read straight into
    a new array. A record longer than the rest of the file is truncated
    before anything is allocated for it."""
    if 8 * math.prod(shape) > os.fstat(fh.fileno()).st_size - fh.tell():
        fh.seek(0, os.SEEK_END)
        raise _truncated(fh, path)
    arr = np.empty(shape, dtype="<f8")
    if fh.readinto(_raw_bytes(arr)) != arr.nbytes:
        raise _truncated(fh, path)
    return arr.astype(np.float64, copy=False)


def _decode(raw: bytes, path, what: str) -> str:
    try:
        return raw.decode()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: checkpoint {what} is not UTF-8 ({exc})") from exc


_MANIFEST_FIELDS = {  # key -> (what it must be, test)
    "run_id": ("a string", lambda v: isinstance(v, str)),
    "round": ("an integer >= 0", lambda v: _is_int(v) and v >= 0),
    "config_hash": ("a string", lambda v: isinstance(v, str)),
    "n_params": ("an integer >= 0", lambda v: _is_int(v) and v >= 0),
}


def _read_manifest(fh, path) -> dict:
    """The manifest: a JSON object with a string ``run_id`` and
    ``config_hash`` and integers ``round`` and ``n_params``, both >= 0."""
    (mlen,) = struct.unpack("<I", _read_exact(fh, 4, path))
    try:
        manifest = json.loads(_decode(_read_exact(fh, mlen, path), path, "manifest"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: checkpoint manifest is not JSON ({exc})") from exc
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: checkpoint manifest must be a JSON object, "
                         f"got a {type(manifest).__name__}")
    for key, (what, ok) in _MANIFEST_FIELDS.items():
        if not ok(manifest.get(key)):
            raise ValueError(f"{path}: checkpoint manifest {key} must be {what}, "
                             f"got {manifest.get(key)!r}")
    return manifest


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """The manifest and the parameters of a checkpoint file. A file that is
    not a well-formed checkpoint, one with two records of one name included,
    raises ``ValueError`` naming ``path``."""
    with open(path, "rb") as fh:
        if _read_exact(fh, 4, path) != CHECKPOINT_MAGIC:
            raise ValueError(f"{path} is not a checkpoint file")
        manifest = _read_manifest(fh, path)
        params: dict[str, np.ndarray] = {}
        for _ in range(manifest["n_params"]):
            (nlen,) = struct.unpack("<H", _read_exact(fh, 2, path))
            name = _decode(_read_exact(fh, nlen, path), path, "parameter name")
            if name in params:
                raise ValueError(f"{path}: checkpoint holds two records named {name!r}")
            (ndim,) = struct.unpack("<B", _read_exact(fh, 1, path))
            shape = struct.unpack(f"<{ndim}I", _read_exact(fh, 4 * ndim, path)) if ndim else ()
            params[name] = _read_array(fh, shape, path)
        trailing = len(fh.read())
    if trailing:
        raise ValueError(f"{path}: {trailing} trailing bytes after the last record")
    return manifest, params
