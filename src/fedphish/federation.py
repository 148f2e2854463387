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

The gate is hard: ``EXPERTS`` lists the experts each batch kind runs, and
each epoch a client trains its kinds in that order. ``expert_logits`` is the
one forward, for training and evaluation alike. ``batch_loss`` is the one
data loss: a focal loss, and for pairs the focal loss of the fused branches
plus auxiliary focal losses of both branches. With ``mu > 0`` the FedProx
pull toward the broadcast, mu (theta - theta_t), is added to the gradient of
every parameter the client trains after each backward pass (Li et al.,
2018); it is not part of the loss. Only the parameters that have a gradient are
clipped and stepped.

Evaluation scores each validation set in forwards of several whole batches
when its rows are narrow (``EVAL_VALUES``), and reduces the loss batch by
batch from per-row focal terms, so its numbers have the bits of one forward
per batch.

Everything is deterministic: clients train one after another in sorted
client-id order, client RNG streams are seeded by (global seed, the
client's index among the training clients, round), and weighted sums run in
sorted client order.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, field

import numpy as np

from . import runfiles
from .heads import (
    FUSION_PREFIX,
    HTML_PREFIX,
    IMAGE_PREFIX,
    TABLE_OF_STREAM,
    URL_PREFIX,
    ModelSpec,
    focal_loss,
    focal_mean,
    focal_terms,
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
from .rules import check_fields, setting

__all__ = [
    "ClientReport",
    "ClientData",
    "TrainConfig",
    "ExperimentResult",
    "group_of",
    "select_clients",
    "aggregate",
    "EXPERTS",
    "expert_logits",
    "batch_loss",
    "proximal_term",
    "client_train",
    "client_evaluate",
    "run_experiment",
]

log = logging.getLogger(__name__)

_ROLE_PREFIX = {"image": IMAGE_PREFIX, "html": HTML_PREFIX, "url": URL_PREFIX, "fusion": FUSION_PREFIX}

# the experts a batch of each kind runs, the one that scores it last; a
# client trains its kinds in this order
EXPERTS = {"image": ("image",), "html": ("html",), "url": ("url",), "pair": ("image", "html", "fusion")}

# the weight of each branch's own loss in a pair batch's loss
AUX_WEIGHT = 0.3

# the bound on a step's global gradient norm
CLIP = 1.0

# the most input values an evaluation forward holds, unless one batch holds
# more; at paper dims every forward is one batch
EVAL_VALUES = 2**13

# A BLAS product computes its rows in tiles, and a row of the last, partial
# tile may round differently from the same row in a whole tile. Batches are
# merged only when their size is a multiple of 16, which OpenBLAS's Haswell
# (4 x 8) and AVX-512 (16 x 2) double tiles divide, so that every row keeps
# the bits of its own batch's forward. The float32 evaluation tests check
# the same for the single-precision tiles.
ROW_TILE = 16


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
    """One simulated client's local shards: a dataset per batch kind of
    ``EXPERTS``, in the stacked form that ``fedphish.data`` returns. Each
    holds labels "y" and the keys its experts' heads read; a pair holds
    both the image and the html keys."""

    client_id: str
    train: dict[str, dict[str, np.ndarray]] = field(default_factory=dict)
    val: dict[str, dict[str, np.ndarray]] = field(default_factory=dict)

    def role_weights(self) -> dict[str, float]:
        """Aggregation weight of each role the training data reaches: its
        sample count over the kinds whose ``EXPERTS`` run it; html weighs 1."""
        n = {kind: len(arrays["y"]) for kind, arrays in self.train.items()}
        counts: dict[str, int] = {}
        for kind, experts in EXPERTS.items():
            for role in experts:
                counts[role] = counts.get(role, 0) + n.get(kind, 0)
        counts["html"] = min(counts["html"], 1)
        return {role: float(c) for role, c in counts.items() if c > 0}


@dataclass(frozen=True)
class TrainConfig:
    rounds: int = setting(100, "an integer >= 1")
    epochs: int = setting(5, "an integer >= 1")
    lr: float = setting(0.001, "a finite number > 0")
    batch_size: int = setting(64, "an integer >= 1")
    # FedProx coefficient: each step adds mu (theta - theta_t) to the
    # gradient of every parameter the client trains; 0 turns the pull off
    mu: float = setting(0.0, "a finite number >= 0")
    seed: int = setting(42, "an integer >= 0")

    def __post_init__(self):
        check_fields(self)


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


def expert_logits(heads, kind: str, params, batch, rng=None) -> dict[str, Tensor]:
    """The logits of every expert in ``EXPERTS[kind]`` on one stacked batch,
    run in that order; the fusion head fuses the image and html logits. The
    heads train, with dropout from ``rng``, when one is given."""
    logits = {}
    for role in EXPERTS[kind]:
        if role == "fusion":
            logits[role], _ = heads[role].forward(params, logits["image"], logits["html"])
        else:
            logits[role] = heads[role].forward(params, batch, rng=rng)
    return logits


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
    logits = expert_logits(heads, kind, params, batch, rng=rng)
    loss = focal_loss(logits[EXPERTS[kind][-1]], labels)
    if kind != "pair":
        return loss
    return loss + AUX_WEIGHT * (
        focal_loss(logits["image"], labels) + focal_loss(logits["html"], labels)
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
    scaled by the clip factor. The step count is known up front, and the
    final step is marked ``last``: the optimizer is rebuilt every round, so
    no later step reads the moments it would write."""
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
    steps_left = cfg.epochs * sum(-(-len(data.train[kind]["y"]) // cfg.batch_size)
                                  for kind in EXPERTS if kind in data.train)

    for _ in range(cfg.epochs):
        for kind in EXPERTS:
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
                steps_left -= 1
                optimizer.step(scale=clip_global_norm(grads, CLIP), last=steps_left == 0)

    return ClientReport(
        data.client_id,
        {k: TouchedRows(rows[k], p.data) if k in rows else p.data for k, p in params.items()},
        weights,
    )


def _eval_rows(arrays: dict[str, np.ndarray], batch_size: int) -> int:
    """Rows per evaluation forward: as many whole batches as keep the input
    arrays within ``EVAL_VALUES`` values, and at least one batch; one batch
    unless ``batch_size`` is a multiple of ``ROW_TILE``."""
    if batch_size % ROW_TILE:
        return batch_size
    width = sum(v[0].size for k, v in arrays.items() if k != "y")
    return batch_size * max(1, EVAL_VALUES // (width * batch_size))


def client_evaluate(
    params: dict[str, np.ndarray],
    data: ClientData,
    model: ModelSpec,
    cfg: TrainConfig,
) -> dict[str, tuple[float, Metrics]]:
    """Evaluation-mode metrics of the head that scores each validation set,
    the last of its kind's ``EXPERTS``; every non-empty set is scored. Only
    the parameters of the experts that run are wrapped as tensors.

    A set's whole batches are scored in forwards of ``_eval_rows`` rows and
    a last partial batch in a forward of its own, each a slice (a view) of
    the validation arrays. A row then gets the logits of its own batch's
    forward, bit for bit (``ROW_TILE``), and the loss is reduced as if each
    ``batch_size`` slice were its own forward: the mean of the slices'
    focal losses, each weighted by its row count. The metrics come from one
    argmax over all rows.
    """
    heads = model.heads()
    kinds = [k for k in EXPERTS if k in data.val and len(data.val[k]["y"])]
    prefixes = tuple(_ROLE_PREFIX[role] for kind in kinds for role in EXPERTS[kind])
    tensors = {k: Tensor(v) for k, v in params.items() if k.startswith(prefixes)}
    results: dict[str, tuple[float, Metrics]] = {}
    for kind in kinds:
        scored = EXPERTS[kind][-1]
        arrays = data.val[kind]
        labels = arrays["y"]
        n, size = len(labels), cfg.batch_size
        # the whole batches in forwards of _eval_rows rows, a last partial
        # batch in a forward of its own
        whole = n - n % size
        edges = sorted({*range(0, whole, _eval_rows(arrays, size)), whole, n})
        logits = np.concatenate([
            expert_logits(heads, kind, tensors, {k: v[a:b] for k, v in arrays.items()})[scored].data
            for a, b in zip(edges, edges[1:])
        ])
        terms = focal_terms(logits, labels)
        batches = [terms[start : start + size] for start in range(0, n, size)]
        results[scored] = (
            sum(float(focal_mean(t)) * t.size for t in batches) / n,
            compute_metrics(confusion(np.argmax(logits, axis=-1), labels)),
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

    A client without training data only evaluates. A client whose training
    hits a non-finite loss is dropped from that round; any other exception
    ends the run. ``round_hook(round_index, params, log)`` sees each round's
    parameters before the next round's aggregation writes over their tables.
    """
    if not any(c.train for c in clients):
        raise ValueError("need at least one client with training data")
    ids = [c.client_id for c in clients]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate client ids")
    clients = sorted(clients, key=lambda c: c.client_id)
    # a client's RNG index counts training clients only, so an evaluation-only
    # client cannot move the others' batch order or dropout
    trainers = [c for c in clients if c.train]
    params = model.init_params(cfg.seed)
    logs: list[RoundLog] = []

    for round_index in range(cfg.rounds):
        reports: list[ClientReport] = []
        for index, client in enumerate(trainers):
            rng = _client_rng(cfg.seed, index, round_index)
            try:
                reports.append(client_train(client, params, model, cfg, rng))
            except GradientError:
                log.exception("client %s failed in round %d", client.client_id, round_index)
        if not reports:
            raise RuntimeError(f"round {round_index}: every training client failed")

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


# perfbench calls and wraps these by this module's attribute; each is the runfiles function
save_checkpoint = runfiles.save_checkpoint
load_checkpoint = runfiles.load_checkpoint
