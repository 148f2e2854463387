"""The fedphish benchmark: one workload per call.

    python3 perfbench/run.py --workload fusion_html --seed 1 --seconds 30 --trace 0

Runs the workload in a fresh child process (``measure.py``) with the BLAS
thread count pinned to 1, checks its outputs, and prints the environment,
the ``rounds.csv`` digests, every metric with its unit and, as the last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs traced
experiments next to untraced ones and reports the per-layer metrics, the
tracing overhead and where each round's wall time went; the spans are kept
in ``perfbench/out/spans-<workload>-s<seed>.json``.

Exits 0 when every check passed, 1 when a check failed (the result line then
carries no numbers), 2 when the workload could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CHILD_TIMEOUT_S = 170
BLAS_THREADS = "1"  # steadier than 2 on a shared 2-core machine; at most nproc

sys.path.insert(0, str(HERE))
import catalog  # noqa: E402
import workloads  # noqa: E402


def git_sha() -> str:
    """The checkout's commit, or "unknown" outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_child(args, out_dir: Path) -> dict | None:
    result_path = out_dir / "result.json"
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    cmd = [sys.executable, str(HERE / "measure.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(out_dir),
           "--result", str(result_path),
           "--spans", str(OUT / f"spans-{args.workload}-s{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, env=env, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: {args.workload} did not finish in {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result_path.exists():
        print(f"error: {args.workload} exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(result_path.read_text())


def report(res: dict, trace: bool) -> None:
    print("env " + json.dumps(dict(res["env"], git_sha=git_sha())))
    print("rounds.csv sha256 " + json.dumps(res["digests"]))
    print("experiments " + json.dumps(res["experiments"]))
    if res["speed"]:
        print("speed " + json.dumps(res["speed"]))
    for check in res["checks"]:
        print(f"CHECK FAILED: {check}")
    for name, value in res["metrics"].items():
        shown = "MISSING (wrapped name gone)" if value is None else f"{value:.6g}"
        print(f"  {name:42s} {shown:>14s} {catalog.UNITS[name]}")
    if trace:
        print("round wall time, per round: self time by span plus uncovered")
        parts = {k: v for k, v in res["breakdown"].items() if k != "(round wall)"}
        for name, value in sorted(parts.items(), key=lambda kv: -kv[1]):
            print(f"  {name:42s} {value:14.6f} s")
        print(f"  {'sum':42s} {sum(parts.values()):14.6f} s")
        print(f"  {'(round wall)':42s} {res['breakdown']['(round wall)']:14.6f} s")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="fedphish benchmark, one workload")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated benchmark kills its child: subprocess.run does so on any exception
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    out_dir = OUT / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    out_dir.mkdir(parents=True)
    try:
        res = run_child(args, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if res is None:
        return 2
    want = catalog.PER_LAYER if args.trace else catalog.END_TO_END
    absent = [m.name for m in want if m.name not in res["metrics"]]
    if absent:
        res["checks"].append(f"metrics not reported: {absent}")
        res["correct"] = False
    report(res, bool(args.trace))
    metrics = {} if not res["correct"] else {
        name: {"value": value, "unit": catalog.UNITS[name]}
        for name, value in res["metrics"].items()
    }
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
