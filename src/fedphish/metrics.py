"""Confusion-matrix metrics and the per-round log of them
(``RoundLog``), which ``fedphish.runfiles`` writes as ``rounds.csv``.

Positive class is phishing (label 1) throughout, so FPR counts benign pages
misflagged as phishing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import runfiles

__all__ = [
    "Confusion",
    "Metrics",
    "RoundEntry",
    "RoundLog",
    "confusion",
    "compute_metrics",
]


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


# perfbench calls and wraps these by this module's attribute; each is the runfiles function
write_round_csv = runfiles.write_round_csv
read_round_csv = runfiles.read_round_csv
