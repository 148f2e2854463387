"""Measure one workload in this process and write the result as JSON.

``run.py`` starts this file in a fresh interpreter per workload, with the
BLAS thread count already set, so ``ru_maxrss`` is the workload's own peak.

Each experiment goes through the public path ``parse_config ->
build_clients -> run_experiment(round_hook=...) -> write_round_csv ->
save_checkpoint`` and is then checked by ``gate``. Untraced runs cycle
through the workload's data variants until ``--seconds`` have passed;
traced runs alternate untraced and traced experiments on variant 0.

Untraced runs sample the machine's speed throughout (``speed.py``) and report
each time metric as the median over its windows (set-ups, rounds or whole
experiments) of wall time times the speed factor inside the window; the raw
wall-time medians and the median factors are printed next to them.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import logging
import os
import resource
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from fedphish import config, federation, heads, metrics  # noqa: E402

import catalog  # noqa: E402
import gate  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MB = 1e6


class FailureCounter(logging.Handler):
    """Counts the federation logger's client-failure and exclusion records."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.failed = 0
        self.excluded = 0

    def emit(self, record):
        msg = record.getMessage()
        if msg.startswith("client ") and " failed" in msg:
            self.failed += 1
        elif msg.startswith("excluding client "):
            self.excluded += 1


@contextmanager
def counting_failures():
    logger = logging.getLogger("fedphish.federation")
    counter = FailureCounter()
    logger.addHandler(counter)
    try:
        yield counter
    finally:
        logger.removeHandler(counter)


def ok_share(counter: FailureCounter, attempted: int) -> float:
    """Share of attempted client-rounds that neither failed nor were excluded."""
    return 1.0 - (counter.failed + counter.excluded) / attempted


def _marking_init_end(stamps: list[float]):
    """Patch ``ModelSpec.init_params`` to note when it returns: rounds are
    timed from the end of model init."""
    if not hasattr(heads.ModelSpec, "init_params"):
        return nullcontext()

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            stamps.append(time.perf_counter())
            return out
        return wrapper

    return tracing.patched(heads.ModelSpec, "init_params", make)


def run_pipeline(config_path: Path, out_dir: Path) -> dict:
    """One experiment through the public path, timed from the outside."""
    init_end: list[float] = []
    ticks: list[float] = []
    csv_path = out_dir / "rounds.csv"
    ckpt_path = out_dir / "final.ckpt"
    cfg_hash = hashlib.sha256(config_path.read_bytes()).hexdigest()[:16]
    with _marking_init_end(init_end):
        t0 = time.perf_counter()
        cfg = config.parse_config(config_path)
        clients = config.build_clients(cfg)
        t_run = time.perf_counter()
        result = federation.run_experiment(
            cfg.model, cfg.train, clients,
            round_hook=lambda i, params, log: ticks.append(time.perf_counter()),
        )
        metrics.write_round_csv(result.rounds, csv_path)
        federation.save_checkpoint(
            ckpt_path, result.params, run_id=cfg.name,
            round_index=cfg.train.rounds - 1, cfg_hash=cfg_hash,
        )
        t_end = time.perf_counter()
    bounds = [init_end[0] if init_end else t_run] + ticks
    return {
        "setup_s": bounds[0] - t0,
        "setup_window": (t0, bounds[0]),
        "run_s": t_end - t0,
        "run_window": (t0, t_end),
        "windows": list(zip(bounds, bounds[1:])),
        "result": result,
        "n_rounds": cfg.train.rounds,
        "csv": csv_path,
        "ckpt": ckpt_path,
    }


def setup_once(config_path: Path) -> tuple[float, float]:
    """Set-up alone: parse, build clients, init the model; its time window."""
    t0 = time.perf_counter()
    cfg = config.parse_config(config_path)
    config.build_clients(cfg)
    cfg.model.init_params(cfg.train.seed)
    return t0, time.perf_counter()


def check(exp: dict, heads_expected, acc_floor) -> list[str]:
    result, n = exp["result"], exp["n_rounds"]
    fails = gate.check_rounds(result.rounds, n, heads_expected)
    if fails:
        return fails
    acc, _ = gate.final_quality(result.rounds)
    if acc_floor is not None and not acc > acc_floor:
        fails.append(f"final_acc {acc:.4f} not above the floor {acc_floor}")
    fails += gate.check_checkpoint(exp["ckpt"], result.params, n - 1, federation.load_checkpoint)
    fails += gate.check_csv(exp["csv"], result.rounds, metrics.read_round_csv)
    return fails


# ---------------------------------------------------------------------------
# per-layer numbers from the traced experiments
# ---------------------------------------------------------------------------

# sample-based metrics and the span whose probe feeds them
_SAMPLE_SPANS = {
    "numerics.graph_nodes": "numerics.backward",
    "numerics.embedding_rows_touched_share": "numerics.embedding",
    "numerics.optimizer_state_mb": "numerics.optimizer_init",
    "numerics.optimizer_state_useful_share": "numerics.optimizer_step",
    "federation.report_mb": "federation.client_train",
    "federation.report_useful_share": "federation.client_train",
    "federation.checkpoint_mb": "federation.save_checkpoint",
}


def _span_of(metric: str) -> str:
    """``numerics.bilstm_s`` -> ``numerics.bilstm``; ``*_calls`` likewise."""
    return metric.removesuffix("_s").removesuffix("_calls")


def _mean(xs) -> float:
    return float(np.mean(xs)) if len(xs) else 0.0


def _share(num, den) -> float:
    return float(sum(num) / sum(den)) if sum(den) else 0.0


def layer_metrics(traced: list[dict], missing: set[str], overhead: float,
                  counter: FailureCounter) -> tuple[dict, dict]:
    """Per-layer metric values (None when missing) and the per-round
    breakdown of round wall time into self times plus uncovered time."""
    n_exp = len(traced)
    n_rounds = sum(len(e["windows"]) for e in traced)
    self_tot: dict[str, float] = {}
    calls: dict[str, int] = {}
    train_selfs: list[float] = []
    breakdown: dict[str, float] = {}
    samples: dict[str, list] = {}
    for e in traced:
        spans = e["tracer"].spans
        for s, st in zip(spans, tracing.self_times(spans)):
            self_tot[s.name] = self_tot.get(s.name, 0.0) + st
            calls[s.name] = calls.get(s.name, 0) + 1
            if s.name == "federation.client_train":
                train_selfs.append(st)
        for name, v in tracing.window_breakdown(spans, e["windows"]).items():
            breakdown[name] = breakdown.get(name, 0.0) + v / n_rounds
        for name, xs in e["tracer"].samples.items():
            samples.setdefault(name, []).extend(xs)
        missing = missing | e["tracer"].missing
    breakdown["(round wall)"] = sum(hi - lo for e in traced for lo, hi in e["windows"]) / n_rounds

    s = samples.get
    special = {
        "numerics.graph_nodes": _mean(s("numerics.graph_nodes", [])),
        "numerics.embedding_rows_touched_share": _mean(
            s("numerics.embedding_rows_touched_share", [])),
        "numerics.optimizer_state_mb": _mean(s("numerics.optimizer_state_bytes", [])) / MB,
        "numerics.optimizer_state_useful_share": _share(
            s("numerics.optimizer_useful_bytes", []), s("numerics.optimizer_state_bytes", [])),
        "federation.report_mb": _mean(s("federation.report_bytes", [])) / MB,
        "federation.report_useful_share": _share(
            s("federation.report_owned_bytes", []), s("federation.report_bytes", [])),
        "federation.checkpoint_mb": _mean(s("federation.checkpoint_bytes", [])) / MB,
        "federation.client_train_s": float(np.median(train_selfs)) if train_selfs else 0.0,
        "federation.client_failures": counter.failed,
        "federation.excluded_reports": counter.excluded,
        "tracing.overhead_share": overhead,
        "tracing.uncovered_s": breakdown["(uncovered)"],
    }
    out = {}
    for m in catalog.PER_LAYER:
        span = _SAMPLE_SPANS.get(m.name, _span_of(m.name))
        if span in missing or m.name in missing:
            out[m.name] = None
        elif m.name in special:
            out[m.name] = special[m.name]
        else:
            total = calls.get(span, 0) if m.name.endswith("_calls") else self_tot.get(span, 0.0)
            out[m.name] = total / (n_rounds if m.per == "round" else n_exp)
    return out, breakdown


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "timing": "warm-cache medians of wall time scaled to the machine's fast state; "
                  "no cache dropping, no CPU pinning",
    }


def write_spans(path: Path, traced: list[dict]) -> None:
    """Every traced experiment's round windows and spans, as JSON."""
    path.write_text(json.dumps([
        {"windows": e["windows"], "spans": [list(s) for s in e["tracer"].spans]}
        for e in traced
    ]))


def measure(name: str, seed: int, seconds: float, trace: bool, out_dir: Path,
            spans_path: Path | None = None) -> dict:
    wl = workloads.WORKLOADS[name]
    variants = []
    for k in range(wl.variants):
        cfg = workloads.make_config(name, seed, k)
        path = out_dir / f"config-{k}.json"
        path.write_text(json.dumps(cfg, indent=1))
        variants.append((path, cfg))
    roles = workloads.client_roles(variants[0][1])

    checks: list[str] = []
    digests: dict[int, set[str]] = {}
    quality: dict[int, tuple[float, float]] = {}
    untraced: list[dict] = []
    traced: list[dict] = []
    missing: set[str] = set()
    setup_windows: list[tuple[float, float]] = []
    attempted = 0
    # traced runs report raw self times, so only untraced runs sample the speed
    sampler = None if trace else speed.Sampler()
    start = time.perf_counter()
    with counting_failures() as counter, sampler or nullcontext():
        if not trace:
            # set-up alone, repeated for a steady median; capped at a tenth of the run
            while len(setup_windows) < 15 and time.perf_counter() - start < seconds / 10:
                setup_windows.append(setup_once(variants[len(setup_windows) % len(variants)][0]))
        i = 0
        while i < (2 if trace else len(variants)) or time.perf_counter() - start < seconds:
            k = 0 if trace else i % len(variants)
            path, cfg = variants[k]
            exp_dir = out_dir / f"exp-{i}"
            exp_dir.mkdir()
            if trace and i % 2:
                tracer = tracing.Tracer()
                with tracing.instrument(tracer, tracing.Probes(tracer, roles)) as gone:
                    exp = run_pipeline(path, exp_dir)
                missing |= gone
                exp["tracer"] = tracer
                traced.append(exp)
            else:
                exp = run_pipeline(path, exp_dir)
                untraced.append(exp)
            attempted += len(cfg["clients"]) * exp["n_rounds"]
            checks += [f"variant {k}: {f}" for f in check(exp, workloads.expected_heads(cfg), wl.acc_floor)]
            digests.setdefault(k, set()).add(gate.sha256_file(exp["csv"]))
            quality.setdefault(k, gate.final_quality(exp["result"].rounds))
            exp["ckpt"].unlink()
            del exp["result"]
            i += 1

    round_windows = [w for e in untraced for w in e["windows"]]
    setup_windows += [e["setup_window"] for e in untraced]
    rounds = [hi - lo for lo, hi in round_windows]
    for k, ds in digests.items():
        if len(ds) != 1:
            checks.append(f"variant {k}: rounds.csv differs between repeats of one seed")
    if trace:
        overhead = (statistics.median(e["run_s"] for e in traced)
                    / statistics.median(e["run_s"] for e in untraced) - 1.0)
        values, breakdown = layer_metrics(traced, missing, overhead, counter)
        parts = sum(v for k, v in breakdown.items() if k != "(round wall)")
        if abs(parts - breakdown["(round wall)"]) > 1e-6 * breakdown["(round wall)"]:
            checks.append(f"self times plus uncovered ({parts}) != round wall time")
        if spans_path is not None:
            write_spans(spans_path, traced)
    else:
        breakdown = {}
        timed = {"setup_s": setup_windows, "round_s": round_windows,
                 "run_s": [e["run_window"] for e in untraced]}
        wall = {name: statistics.median(hi - lo for lo, hi in ws) for name, ws in timed.items()}
        factor = {name: statistics.median(sampler.factor(lo, hi) for lo, hi in ws)
                  for name, ws in timed.items()}
        values = {
            # median over windows of wall time at the machine's fast speed (speed.py)
            **{name: statistics.median(sampler.adjusted(ws)) for name, ws in timed.items()},
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB,
            "final_acc": statistics.fmean(q[0] for q in quality.values()),
            "final_loss": statistics.fmean(q[1] for q in quality.values()),
            "client_ok_share": ok_share(counter, attempted),
        }
    return {
        "correct": not checks,
        "attempted": attempted,
        "failed": counter.failed + counter.excluded,
        "metrics": values,
        "checks": checks,
        "digests": {k: sorted(ds) for k, ds in digests.items()},
        "experiments": {"untraced": len(untraced), "traced": len(traced),
                        "rounds_timed": len(rounds),
                        "round_p90_s": float(np.percentile(rounds, 90)),
                        "setup_samples": len(setup_windows)},
        "speed": {} if trace else {"samples": sampler.samples(), "median_wall_s": wall,
                                   "factor": factor},
        "breakdown": breakdown,
        "env": environment(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    args = ap.parse_args(argv)
    res = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.out_dir,
                  args.spans)
    args.result.write_text(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
