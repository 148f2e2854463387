"""Confusion counts, derived metrics and the round CSV format."""

import csv

import numpy as np
import pytest

from fedphish.metrics import (
    Confusion,
    Metrics,
    RoundEntry,
    RoundLog,
    compute_metrics,
    confusion,
    read_round_csv,
    write_round_csv,
)


def recount_oracle(preds, labels):
    """Per-sample loop recount."""
    tp = fp = tn = fn = 0
    for p, y in zip(preds, labels):
        if p == 1 and y == 1:
            tp += 1
        elif p == 1 and y == 0:
            fp += 1
        elif p == 0 and y == 0:
            tn += 1
        else:
            fn += 1
    return Confusion(tp=tp, fp=fp, tn=tn, fn=fn)


def test_confusion_perfect():
    c = confusion([1, 0, 1, 0], [1, 0, 1, 0])
    assert (c.tp, c.tn, c.fp, c.fn) == (2, 2, 0, 0)


def test_confusion_constant_positive():
    c = confusion([1, 1, 1, 1], [1, 0, 1, 0])
    assert (c.tp, c.fp) == (2, 2)


def test_confusion_empty():
    c = confusion([], [])
    assert (c.tp, c.fp, c.tn, c.fn) == (0, 0, 0, 0)


def test_confusion_length_mismatch():
    with pytest.raises(ValueError):
        confusion([1], [1, 0])


def test_confusion_rejects_non_binary():
    with pytest.raises(ValueError):
        confusion([2, 0], [1, 0])


def test_confusion_matches_recount_oracle():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(0, 21))
        preds = rng.integers(0, 2, size=n)
        labels = rng.integers(0, 2, size=n)
        got = confusion(preds, labels)
        ref = recount_oracle(preds, labels)
        assert got == ref


def test_metrics_hand_case():
    m = compute_metrics(Confusion(tp=9, fp=1, tn=9, fn=1))
    assert abs(m.accuracy - 0.9) < 1e-12
    assert abs(m.precision - 0.9) < 1e-12
    assert abs(m.recall - 0.9) < 1e-12
    assert abs(m.fpr - 0.1) < 1e-12


def test_metrics_degenerate_flag():
    # no negatives: the FPR's denominator is zero, and it reports 0.0
    m = compute_metrics(Confusion(tp=3, fp=0, tn=0, fn=1))
    assert m.fpr == 0.0
    assert m.accuracy == 0.75


def test_metrics_ranges_random():
    rng = np.random.default_rng(1)
    for _ in range(200):
        c = Confusion(*(int(x) for x in rng.integers(0, 10, size=4)))
        m = compute_metrics(c)
        for v in (m.accuracy, m.precision, m.recall, m.fpr):
            assert 0.0 <= v <= 1.0


def test_accuracy_one_iff_no_errors():
    rng = np.random.default_rng(2)
    for _ in range(200):
        c = Confusion(*(int(x) for x in rng.integers(0, 6, size=4)))
        if c.total == 0:
            continue
        m = compute_metrics(c)
        assert (m.accuracy == 1.0) == (c.fp == 0 and c.fn == 0)


def make_logs():
    m = Metrics(accuracy=0.75, precision=0.8, recall=0.7, fpr=0.25)
    return [
        RoundLog(round_index=0, entries=[
            RoundEntry(client_id="b", head="url", loss=0.5, metrics=m),
            RoundEntry(client_id="a", head="url", loss=0.25, metrics=m),
        ]),
        RoundLog(round_index=1, entries=[
            RoundEntry(client_id="a", head="url", loss=0.125, metrics=m),
            RoundEntry(client_id="a", head="image", loss=0.0625, metrics=m),
        ]),
    ]


def test_csv_layout_and_sorting(tmp_path):
    path = tmp_path / "rounds.csv"
    write_round_csv(make_logs(), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "round,client_id,head,loss,accuracy,precision,recall,fpr"
    assert len(lines) == 5
    assert lines[1].startswith("0,a,url,0.250000")
    assert lines[2].startswith("0,b,url,0.500000")
    assert lines[3].startswith("1,a,image")
    assert lines[4].startswith("1,a,url")


def test_csv_rerun_byte_identical(tmp_path):
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_round_csv(make_logs(), p1)
    write_round_csv(make_logs(), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_empty_logs_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_round_csv([], path)
    assert path.read_text().splitlines() == [
        "round,client_id,head,loss,accuracy,precision,recall,fpr"
    ]


def test_csv_round_trips_at_six_decimals(tmp_path):
    path = tmp_path / "rt.csv"
    logs = make_logs()
    write_round_csv(logs, path)
    rows = read_round_csv(path)
    assert len(rows) == 4
    by_key = {(r["round"], r["client_id"], r["head"]): r for r in rows}
    for log in logs:
        for e in log.entries:
            row = by_key[(log.round_index, e.client_id, e.head)]
            assert row["loss"] == round(e.loss, 6)
            assert row["accuracy"] == round(e.metrics.accuracy, 6)


def test_csv_write_error_names_path(tmp_path):
    bad = tmp_path / "missing_dir" / "x.csv"
    with pytest.raises(OSError, match="x.csv"):
        write_round_csv([], bad)


@pytest.mark.parametrize("error", [RuntimeError("boom"), OSError(28, "No space left on device")],
                         ids=["runtime", "oserror"])
def test_csv_write_that_raises_keeps_the_old_file(tmp_path, monkeypatch, error):
    import fedphish.metrics

    path = tmp_path / "rounds.csv"
    write_round_csv(make_logs()[:1], path)
    old = path.read_bytes()
    real_writer = csv.writer

    class Failing:
        """A csv writer that writes the header and then raises."""

        def __init__(self, fh):
            self.writer = real_writer(fh)

        def writerow(self, row):
            self.writer.writerow(row)

        def writerows(self, rows):
            raise error

    monkeypatch.setattr(fedphish.metrics.csv, "writer", Failing)
    with pytest.raises(type(error)):
        write_round_csv(make_logs(), path)
    assert path.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rounds.csv"]
