"""Correctness checks on one experiment's outputs. Each check returns a list
of failure messages; an empty list means the experiment passed."""

from __future__ import annotations

import hashlib
import math

import numpy as np


def check_rounds(rounds, n_rounds: int, heads: dict[str, set[str]]) -> list[str]:
    """Every round logs every (client, head) once, with a finite loss."""
    want = sorted((cid, h) for cid, hs in heads.items() for h in hs)
    fails = []
    if len(rounds) != n_rounds:
        fails.append(f"{len(rounds)} round logs, expected {n_rounds}")
    for i, log in enumerate(rounds):
        got = sorted((e.client_id, e.head) for e in log.entries)
        if log.round_index != i or got != want:
            fails.append(f"round {i}: entries {got} (index {log.round_index}), expected {want}")
        bad = [(e.client_id, e.head) for e in log.entries if not math.isfinite(e.loss)]
        if bad:
            fails.append(f"round {i}: non-finite eval loss for {bad}")
    return fails


def final_quality(rounds) -> tuple[float, float]:
    """Mean last-round eval accuracy and focal loss over client x head entries."""
    entries = rounds[-1].entries
    return (float(np.mean([e.metrics.accuracy for e in entries])),
            float(np.mean([e.loss for e in entries])))


def check_checkpoint(path, params: dict[str, np.ndarray], round_index: int,
                     load_checkpoint) -> list[str]:
    """The checkpoint loads back to ``params`` bitwise, at ``round_index``."""
    try:
        manifest, loaded = load_checkpoint(path)
    except Exception as exc:  # any failure to read back is a gate failure
        return [f"checkpoint {path} unreadable: {type(exc).__name__}: {exc}"]
    fails = []
    if manifest.get("round") != round_index:
        fails.append(f"checkpoint round {manifest.get('round')}, expected {round_index}")
    if sorted(loaded) != sorted(params):
        return fails + ["checkpoint parameter names differ from the result"]
    for name, want in params.items():
        got = np.asarray(loaded[name], dtype=np.float64)
        want = np.asarray(want, dtype=np.float64)
        if got.shape != want.shape or not np.array_equal(
            got.view(np.uint64), want.view(np.uint64)
        ):
            fails.append(f"checkpoint {name!r} differs bitwise from the result")
    return fails


def check_csv(path, rounds, read_round_csv) -> list[str]:
    """The written round CSV reads back as the in-memory logs at six decimals."""
    def six(x):
        return float(f"{x:.6f}")

    want = sorted(
        (log.round_index, e.client_id, e.head, six(e.loss), six(e.metrics.accuracy),
         six(e.metrics.precision), six(e.metrics.recall), six(e.metrics.fpr))
        for log in rounds for e in log.entries
    )
    got = [(r["round"], r["client_id"], r["head"], r["loss"], r["accuracy"],
            r["precision"], r["recall"], r["fpr"]) for r in read_round_csv(path)]
    return [] if got == want else [f"{path} does not match the in-memory round logs"]


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
