"""Role-aware FedProx orchestration.

Every parameter belongs to one of four roles (image, html, url, fusion) by
name prefix. A client owns the roles its training data reaches, with one
weight per role (sample counts, or equal weight for html); it copies and
trains only the parameters of those roles. Of an embedding table it copies
only the rows its training streams can look up, PAD included, and trains
that compact table with the ids mapped into it. It reports a dense
parameter whole and a table as those rows: no other row can move
(Konečný et al., 2016, structured updates). The server averages each role
only over its owners, and a role nobody owns keeps its old values.

Each epoch a client trains its image, html and url batches, in that order,
then its pair batches. ``batch_loss`` is the one data loss: a focal loss,
and for pairs the fused loss with batch-level modality dropout, auxiliary
branch losses and JS consistency. With ``mu > 0`` the FedProx pull toward
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
    LossConfig,
    ModelSpec,
    _is_finite_nonneg,
    _is_int,
    _is_real,
    focal_loss,
    js_consistency,
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


def group_of(param_name: str) -> str:
    """The role whose head prefix starts the name."""
    for role, prefix in _ROLE_PREFIX.items():
        if param_name.startswith(prefix):
            return role
    raise ValueError(f"parameter {param_name!r} has no head prefix")


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
    loss: LossConfig = field(default_factory=LossConfig)
    seed: int = 0

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

    Parameters kept unchanged are returned as the same array objects, so
    role isolation is bitwise by construction. Weighted sums run in sorted
    client-id order for reproducibility.
    """
    reports = _finite_reports(reports)
    role_pool = {role: select_clients(role, reports) for role in _ROLE_PREFIX}

    new_params: dict[str, np.ndarray] = {}
    for name in sorted(global_params):
        pool = role_pool[group_of(name)]
        if not pool:
            new_params[name] = global_params[name]
            continue
        for _, r in pool:
            if name not in r.params:
                raise ValueError(f"client {r.client_id} report is missing {name!r}")
        new_params[name] = _average(global_params[name], [(w, r.params[name]) for w, r in pool])
    return new_params


def _average(old: np.ndarray, pool: list[tuple[float, np.ndarray | TouchedRows]]) -> np.ndarray:
    """Weighted mean of the owners' values of one parameter, summed in pool
    order. A table's ``TouchedRows`` count as ``old`` outside their rows, so
    a row some owner touched is bitwise the mean of whole tables, and a row
    that no owner touched stays bitwise ``old``."""
    if len(pool) == 1:
        # a sole owner's weight share is exactly 1.0
        value = pool[0][1]
        return value.onto(old) if isinstance(value, TouchedRows) else value
    rows = None
    if isinstance(pool[0][1], TouchedRows):
        rows = functools.reduce(np.union1d, [v.rows for _, v in pool])
        base = old[rows]
        pool = [(w, TouchedRows(np.searchsorted(rows, v.rows), v.values).onto(base)) for w, v in pool]
    total = sum(w for w, _ in pool)
    (w0, v0), rest = pool[0], pool[1:]
    acc = (w0 / total) * v0
    for w, v in rest:
        acc += (w / total) * v
    return acc if rows is None else TouchedRows(rows, acc).onto(old)


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


def batch_loss(heads, kind: str, params, batch, cfg: TrainConfig, rng) -> Tensor:
    """The data loss of one batch of ``kind`` (image, html, url or pair).

    A single-modality batch gives the focal loss of its head. A pair batch
    runs both branches, drops one of them with probability p/2 each
    (batch-level modality dropout, one ``rng.random()`` per batch), fuses
    what is left, and adds the auxiliary branch losses and the JS
    consistency term. The FedProx pull is not part of it; ``client_train``
    adds it to the gradients (``proximal_term``).
    """
    loss_cfg = cfg.loss
    labels = batch["y"]
    if kind != "pair":
        logits = head_logits(heads, kind, params, batch, train=True, rng=rng)
        return focal_loss(logits, labels, loss_cfg.focal_gamma)
    l_i = head_logits(heads, "image", params, batch, train=True, rng=rng)
    l_h = head_logits(heads, "html", params, batch, train=True, rng=rng)
    l_i_star, l_h_star = l_i, l_h
    r = rng.random()
    if r < loss_cfg.modal_dropout_p / 2.0:
        l_i_star = None
    elif r < loss_cfg.modal_dropout_p:
        l_h_star = None
    fused, _ = heads["fusion"].forward(params, l_i_star, l_h_star)
    loss = focal_loss(fused, labels, loss_cfg.focal_gamma)
    if loss_cfg.lambda_aux > 0:
        loss = loss + loss_cfg.lambda_aux * (
            focal_loss(l_i, labels, loss_cfg.focal_gamma)
            + focal_loss(l_h, labels, loss_cfg.focal_gamma)
        )
    if loss_cfg.lambda_js > 0:
        loss = loss + loss_cfg.lambda_js * js_consistency(l_i, l_h)
    return loss


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
        # an array also at 0-d, so that clipping can scale it in place
        pull = np.asarray(p.data - anchor[name])
        pull *= mu
        if p.grad is None:
            p.grad = pull
        else:
            p.grad += pull


def client_train(
    data: ClientData,
    broadcast: dict[str, np.ndarray],
    model: ModelSpec,
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> ClientReport:
    """Local training from the broadcast, which is also the FedProx anchor.
    Only the parameters of the roles the client owns are copied, optimised
    and returned; no other parameter gets a gradient. A table is copied,
    trained and returned as the compact table of the rows the client's
    streams can look up, with each batch's ids mapped to positions in it.
    Each step backpropagates the data loss, adds the pull toward the anchor
    to every owned parameter when ``mu > 0``, then clips and steps."""
    weights = data.role_weights()
    if not weights:
        raise ValueError(f"client {data.client_id} has no training data")
    heads = model.heads()
    rows, position = _compact_tables(data.train, broadcast, weights)
    anchor = {k: broadcast[k][rows[k]] if k in rows else v
              for k, v in broadcast.items() if group_of(k) in weights}
    params = {k: Tensor(v.copy(), requires_grad=True) for k, v in anchor.items()}
    optimizer = make_optimizer(params, cfg.lr)

    for _ in range(cfg.epochs):
        for kind in ("image", "html", "url", "pair"):
            if kind not in data.train:
                continue
            arrays = data.train[kind]
            for idx in _batches(len(arrays["y"]), cfg.batch_size, rng):
                zero_grads(params)
                batch = {k: position[k][v[idx]] if k in position else v[idx] for k, v in arrays.items()}
                backward(batch_loss(heads, kind, params, batch, cfg, rng))
                if cfg.mu > 0:
                    proximal_term(params, anchor, cfg.mu)
                grads = [params[k].grad for k in sorted(params) if params[k].grad is not None]
                clip_global_norm(grads, cfg.clip)
                optimizer.step()

    return ClientReport(
        data.client_id,
        {k: TouchedRows(rows[k], p.data) if k in rows else p.data for k, p in params.items()},
        weights,
    )


def _eval_batches(n: int, batch_size: int):
    for start in range(0, n, batch_size):
        yield np.arange(start, min(start + batch_size, n))


def client_evaluate(
    params: dict[str, np.ndarray],
    data: ClientData,
    model: ModelSpec,
    cfg: TrainConfig,
) -> dict[str, tuple[float, Metrics]]:
    """Evaluation-mode metrics per head. A paired validation set routes the
    fusion path; otherwise every present single-modality head is scored."""
    heads = model.heads()
    tensors = {k: Tensor(v) for k, v in params.items()}
    if "pair" in data.val and len(data.val["pair"]["y"]):
        kinds = ["pair"]
    else:
        kinds = [k for k in ("image", "html", "url") if k in data.val and len(data.val[k]["y"])]
    results: dict[str, tuple[float, Metrics]] = {}
    for kind in kinds:
        arrays = data.val[kind]
        labels = arrays["y"]
        losses = []
        preds = []
        for idx in _eval_batches(len(labels), cfg.batch_size):
            batch = {k: v[idx] for k, v in arrays.items()}
            if kind == "pair":
                logits, _ = heads["fusion"].forward(
                    tensors,
                    head_logits(heads, "image", tensors, batch),
                    head_logits(heads, "html", tensors, batch),
                )
            else:
                logits = head_logits(heads, kind, tensors, batch)
            losses.append(float(focal_loss(logits, batch["y"], cfg.loss.focal_gamma).data) * len(idx))
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
    round; any other exception ends the run.
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


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        if _read_exact(fh, 4, path) != CHECKPOINT_MAGIC:
            raise ValueError(f"{path} is not a checkpoint file")
        (mlen,) = struct.unpack("<I", _read_exact(fh, 4, path))
        manifest = json.loads(_read_exact(fh, mlen, path).decode())
        params: dict[str, np.ndarray] = {}
        for _ in range(manifest["n_params"]):
            (nlen,) = struct.unpack("<H", _read_exact(fh, 2, path))
            name = _read_exact(fh, nlen, path).decode()
            (ndim,) = struct.unpack("<B", _read_exact(fh, 1, path))
            shape = struct.unpack(f"<{ndim}I", _read_exact(fh, 4 * ndim, path)) if ndim else ()
            params[name] = _read_array(fh, shape, path)
        trailing = len(fh.read())
    if trailing:
        raise ValueError(f"{path}: {trailing} trailing bytes after the last record")
    return manifest, params
