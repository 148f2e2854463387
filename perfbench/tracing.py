"""Spans recorded around the public functions of each fedphish layer.

Every wrapped call records a span (name, start, end, parent). Spans stay in
memory until the run ends. A span's self time is its duration minus the part
of it that its child spans cover; time in a window that no top-level span
covers is reported on its own line, so self times plus that line add up to
the window's wall time.

Only public names are wrapped, from outside the package. A name that a later
refactor removes is reported as missing rather than failing the run.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np

PROBE = "tracing.probe"


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None at top level


class Tracer:
    """Single-threaded span recorder; clients train serially in the benchmark."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.missing: set[str] = set()

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), 0.0, parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def close(self, index: int) -> None:
        if self._open.pop() != index:
            raise RuntimeError("spans closed out of order")
        name, start, _, parent = self.spans[index]
        self.spans[index] = Span(name, start, self.clock(), parent)

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)


def _union(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - _union(children[i]) for i, s in enumerate(spans)]


def window_breakdown(spans: list[Span], windows: list[tuple[float, float]]) -> dict[str, float]:
    """Self time per span name summed over the spans that start inside one of
    the sorted, disjoint ``windows``, plus ``"(uncovered)"``: window time no
    top-level span covers. The values add up to the total window length."""
    selfs = self_times(spans)
    starts = [lo for lo, _ in windows]
    out: dict[str, float] = defaultdict(float)
    top: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for i, s in enumerate(spans):
        w = bisect.bisect_right(starts, s.start) - 1
        if w < 0 or s.start >= windows[w][1]:
            continue
        out[s.name] += selfs[i]
        if s.parent is None:
            top[w].append((s.start, min(s.end, windows[w][1])))
    out["(uncovered)"] = sum(hi - lo - _union(top[w]) for w, (lo, hi) in enumerate(windows))
    return dict(out)


# ---------------------------------------------------------------------------
# what gets wrapped
# ---------------------------------------------------------------------------

# (span name, module, attribute); several targets may share one span name
TARGETS = (
    ("config.parse_config", "fedphish.config", "parse_config"),
    ("config.build_clients", "fedphish.config", "build_clients"),
    ("data.synth", "fedphish.config", "synth_embeddings"),
    ("data.synth", "fedphish.config", "synth_image_tokens"),
    ("data.synth", "fedphish.config", "synth_html"),
    ("data.synth", "fedphish.config", "synth_paired"),
    ("preproc.preprocess", "fedphish.data", "preprocess"),
    ("heads.model_init", "fedphish.heads", "ModelSpec.init_params"),
    ("heads.image.forward", "fedphish.heads", "ImageHead.forward"),
    ("heads.html.forward", "fedphish.heads", "HtmlHead.forward"),
    ("heads.url.forward", "fedphish.heads", "UrlHead.forward"),
    ("heads.fusion.forward", "fedphish.heads", "FusionHead.forward"),
    ("numerics.bilstm", "fedphish.heads", "bilstm_sequence"),
    ("numerics.mhsa", "fedphish.heads", "mhsa_block"),
    ("numerics.conv", "fedphish.heads", "multiscale_conv_encode"),
    ("numerics.attention_pool", "fedphish.heads", "attention_pool"),
    ("numerics.embedding", "fedphish.heads", "embedding"),
    ("numerics.layer_norm", "fedphish.heads", "layer_norm"),
    ("federation.client_train", "fedphish.federation", "client_train"),
    ("federation.aggregate", "fedphish.federation", "aggregate"),
    ("federation.client_evaluate", "fedphish.federation", "client_evaluate"),
    ("numerics.backward", "fedphish.federation", "backward"),
    ("numerics.optimizer_init", "fedphish.federation", "make_optimizer"),
    ("numerics.clip", "fedphish.federation", "clip_global_norm"),
    ("heads.loss", "fedphish.federation", "focal_loss"),
    ("heads.loss", "fedphish.federation", "js_consistency"),
    ("heads.loss", "fedphish.federation", "proximal_term"),
    ("numerics.optimizer_step", "fedphish.numerics", "Adam.step"),
    ("numerics.optimizer_step", "fedphish.numerics", "Sgd.step"),
    ("federation.save_checkpoint", "fedphish.federation", "save_checkpoint"),
    ("metrics.write_round_csv", "fedphish.metrics", "write_round_csv"),
)


def _resolve(module: str, attr: str):
    """(owner, leaf name, current value), or None when the name is gone."""
    owner = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, leaf, None)
    return None if fn is None else (owner, leaf, fn)


@contextmanager
def patched(owner, leaf: str, make_wrapper):
    """Replace ``owner.leaf`` with ``make_wrapper(original)`` for the block."""
    original = getattr(owner, leaf)
    setattr(owner, leaf, make_wrapper(original))
    try:
        yield
    finally:
        setattr(owner, leaf, original)


def _spanned(tracer: Tracer, name: str, fn, before=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            with tracer.span(PROBE):
                before(args)
        index = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if after is not None:
            with tracer.span(PROBE):
                after(args, out)
        return out

    return wrapper


# ---------------------------------------------------------------------------
# counting probes: each fills one or more tracer.samples lists
# ---------------------------------------------------------------------------

def count_graph_nodes(loss) -> int:
    """Nodes that ``backward`` visits: everything reachable from the loss
    through parents that require a gradient, the loss included."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for p in stack.pop()._parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def role_of(param_name: str) -> str:
    """``"url_head.fc.v"`` -> ``"url"``."""
    return param_name.split(".", 1)[0].removesuffix("_head")


class Probes:
    """Counters measured where the work happens. ``roles`` maps client id to
    the roles the benchmark built data for."""

    def __init__(self, tracer: Tracer, roles: dict[str, set[str]]):
        self.tracer = tracer
        self.roles = roles
        self._optimizers: list = []      # created during the current client_train
        self._stepped: dict[int, set[str]] = defaultdict(set)

    def _guard(self, metrics: tuple[str, ...], fn):
        def probe(*a):
            try:
                fn(*a)
            except (AttributeError, KeyError, TypeError):
                self.tracer.missing.update(metrics)
        return probe

    def hooks(self) -> dict[str, tuple]:
        """span name -> (before, after) probe callables."""
        s = self.tracer.samples

        def graph(args):
            s["numerics.graph_nodes"].append(count_graph_nodes(args[0]))

        def rows(args):
            table, ids = args[0], args[1]
            s["numerics.embedding_rows_touched_share"].append(
                len(np.unique(ids)) / table.shape[0])

        def optimizer_made(args, opt):
            self._optimizers.append(opt)

        def stepped(args):
            opt, names = args[0], args[1] if len(args) > 1 else None
            keys = opt.params.keys() if names is None else names
            self._stepped[id(opt)].update(k for k in keys if opt.params[k].grad is not None)

        def trained(args, report):
            nbytes = {k: v.nbytes for k, v in report.params.items()}
            owned = self.roles[report.client_id]
            s["federation.report_bytes"].append(sum(nbytes.values()))
            s["federation.report_owned_bytes"].append(
                sum(b for k, b in nbytes.items() if role_of(k) in owned))
            for opt in self._optimizers:
                state = {k: opt.m[k].nbytes + opt.v[k].nbytes for k in opt.m}
                stepped_names = self._stepped.pop(id(opt), set())
                s["numerics.optimizer_state_bytes"].append(sum(state.values()))
                s["numerics.optimizer_useful_bytes"].append(
                    sum(b for k, b in state.items() if k in stepped_names))
            self._optimizers.clear()

        def saved(args, out):
            s["federation.checkpoint_bytes"].append(os.path.getsize(args[0]))

        state_metrics = ("numerics.optimizer_state_mb", "numerics.optimizer_state_useful_share")
        report_metrics = ("federation.report_mb", "federation.report_useful_share")
        return {
            "numerics.backward": (self._guard(("numerics.graph_nodes",), graph), None),
            "numerics.embedding": (
                self._guard(("numerics.embedding_rows_touched_share",), rows), None),
            "numerics.optimizer_init": (None, self._guard(state_metrics, optimizer_made)),
            "numerics.optimizer_step": (self._guard(state_metrics, stepped), None),
            "federation.client_train": (
                None, self._guard(report_metrics + state_metrics, trained)),
            "federation.save_checkpoint": (
                None, self._guard(("federation.checkpoint_mb",), saved)),
        }


@contextmanager
def instrument(tracer: Tracer, probes: Probes):
    """Wrap every target for the block. Yields the set of span names none of
    whose targets exist any more."""
    hooks = probes.hooks()
    found: dict[str, int] = defaultdict(int)
    undo = []
    try:
        for name, module, attr in TARGETS:
            resolved = _resolve(module, attr)
            found[name] += resolved is not None
            if resolved is None:
                continue
            owner, leaf, fn = resolved
            before, after = hooks.get(name, (None, None))
            setattr(owner, leaf, _spanned(tracer, name, fn, before, after))
            undo.append((owner, leaf, fn))
        yield {name for name, n in found.items() if n == 0}
    finally:
        for owner, leaf, fn in reversed(undo):
            setattr(owner, leaf, fn)
