"""Confusion-matrix metrics, per-round CSV convergence logs, and the one
write-then-rename that every output file goes through.

Positive class is phishing (label 1) throughout, so FPR counts benign pages
misflagged as phishing.
"""

from __future__ import annotations

import contextlib
import csv
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "Confusion",
    "Metrics",
    "RoundEntry",
    "RoundLog",
    "confusion",
    "compute_metrics",
    "atomic_write",
    "write_round_csv",
    "read_round_csv",
]

CSV_HEADER = ["round", "client_id", "head", "loss", "accuracy", "precision", "recall", "fpr"]


@dataclass(frozen=True)
class Confusion:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    precision: float
    recall: float
    fpr: float


def confusion(predictions, labels) -> Confusion:
    """Standard counts; inputs are equal-length 0/1 sequences."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ValueError(
            f"length mismatch: {predictions.shape} predictions vs {labels.shape} labels"
        )
    bad = set(np.unique(predictions)) | set(np.unique(labels))
    if not bad <= {0, 1}:
        raise ValueError(f"values outside {{0,1}}: {sorted(bad - {0, 1})}")
    return Confusion(
        tp=int(np.sum((predictions == 1) & (labels == 1))),
        fp=int(np.sum((predictions == 1) & (labels == 0))),
        tn=int(np.sum((predictions == 0) & (labels == 0))),
        fn=int(np.sum((predictions == 0) & (labels == 1))),
    )


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def compute_metrics(c: Confusion) -> Metrics:
    """Accuracy, precision, recall and FPR; a zero denominator reports 0
    rather than raising."""
    return Metrics(
        accuracy=_ratio(c.tp + c.tn, c.total),
        precision=_ratio(c.tp, c.tp + c.fp),
        recall=_ratio(c.tp, c.tp + c.fn),
        fpr=_ratio(c.fp, c.fp + c.tn),
    )


@dataclass(frozen=True)
class RoundEntry:
    client_id: str
    head: str
    loss: float
    metrics: Metrics


@dataclass
class RoundLog:
    round_index: int
    entries: list[RoundEntry] = field(default_factory=list)


@contextlib.contextmanager
def atomic_write(path, mode: str, **open_kwargs):
    """A file opened under a temporary name next to ``path`` and renamed over
    it when the block ends, so ``path`` never holds a partial file; a block
    that raises leaves ``path`` as it was and no temporary file behind."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        # gone after the rename; left by a write that raised
        tmp.unlink(missing_ok=True)


def write_round_csv(logs: list[RoundLog], path) -> None:
    """One row per evaluated (round, client, head), sorted, floats at six
    decimals; rewriting the same logs yields a byte-identical file. It is
    written with ``atomic_write``.
    """
    rows = []
    for log in logs:
        for e in log.entries:
            rows.append(
                (
                    log.round_index,
                    e.client_id,
                    e.head,
                    f"{e.loss:.6f}",
                    f"{e.metrics.accuracy:.6f}",
                    f"{e.metrics.precision:.6f}",
                    f"{e.metrics.recall:.6f}",
                    f"{e.metrics.fpr:.6f}",
                )
            )
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    try:
        with atomic_write(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            writer.writerows(rows)
    except OSError as exc:
        raise OSError(f"cannot write round log to {path}: {exc}") from exc


def read_round_csv(path) -> list[dict]:
    """Parse a round CSV back into dicts (numeric fields converted)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        out = []
        for row in reader:
            out.append(
                {
                    "round": int(row["round"]),
                    "client_id": row["client_id"],
                    "head": row["head"],
                    "loss": float(row["loss"]),
                    "accuracy": float(row["accuracy"]),
                    "precision": float(row["precision"]),
                    "recall": float(row["recall"]),
                    "fpr": float(row["fpr"]),
                }
            )
        return out
