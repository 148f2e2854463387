"""Self-tests of the benchmark: metric names, the correctness gate, span
arithmetic, the speed factor, failure accounting and wrapper robustness.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import catalog
import gate
import measure
import speed
import tracing
import workloads
from fedphish import federation
from fedphish.data import stack_url, synth_embeddings
from fedphish.federation import ClientData, TrainConfig
from fedphish.heads import ModelSpec

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


# ---------------------------------------------------------------------------
# names and BENCHMARK.json
# ---------------------------------------------------------------------------

def test_metric_names_are_well_formed_and_unique():
    names = [m.name for m in catalog.END_TO_END + catalog.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", catalog.UNITS[name]), name


def test_benchmark_json_matches_the_catalog():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in catalog.END_TO_END]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in catalog.PER_LAYER]
    setup = next(m for m in catalog.END_TO_END if m.name == "setup_s")
    assert setup.bound == max(m.bound for m in catalog.END_TO_END) <= 0.25


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_reports_every_end_to_end_metric(name, tmp_path, monkeypatch):
    # one short variant keeps this fast; the floors need full-length runs
    short = dataclasses.replace(workloads.WORKLOADS[name], rounds=1, variants=1, acc_floor=None)
    monkeypatch.setitem(workloads.WORKLOADS, name, short)
    res = measure.measure(name, seed=3, seconds=0, trace=False, out_dir=tmp_path)
    assert res["correct"], res["checks"]
    assert list(res["metrics"]) == [m.name for m in catalog.END_TO_END]
    for name, value in res["metrics"].items():
        assert np.isfinite(value) and value > 0, (name, value)


def test_configs_derive_from_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.make_config(name, 5, 1) == workloads.make_config(name, 5, 1)
        assert workloads.make_config(name, 5, 1) != workloads.make_config(name, 6, 1)
        assert "workers" not in workloads.make_config(name, 5, 0)


# ---------------------------------------------------------------------------
# the gate
# ---------------------------------------------------------------------------

def _params():
    return {"a.w": np.arange(6.0).reshape(2, 3), "b.s": np.array(0.5)}


def test_gate_accepts_an_intact_checkpoint(tmp_path):
    path = tmp_path / "c.ckpt"
    federation.save_checkpoint(path, _params(), run_id="t", round_index=4, cfg_hash="x")
    assert gate.check_checkpoint(path, _params(), 4, federation.load_checkpoint) == []
    assert gate.check_checkpoint(path, _params(), 3, federation.load_checkpoint)


def test_gate_rejects_a_truncated_checkpoint(tmp_path):
    path = tmp_path / "c.ckpt"
    federation.save_checkpoint(path, _params(), run_id="t", round_index=4, cfg_hash="x")
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 5])
    fails = gate.check_checkpoint(path, _params(), 4, federation.load_checkpoint)
    assert fails


def test_gate_rejects_a_bitwise_change(tmp_path):
    path = tmp_path / "c.ckpt"
    federation.save_checkpoint(path, _params(), run_id="t", round_index=4, cfg_hash="x")
    changed = _params()
    changed["a.w"][0, 0] = np.nextafter(0.0, 1.0)
    assert gate.check_checkpoint(path, changed, 4, federation.load_checkpoint)


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

def test_self_time_arithmetic_on_a_hand_built_tree():
    S = tracing.Span
    spans = [
        S("train", 0.0, 10.0, None),   # children cover 1-4 and 5-6: self 6
        S("fwd", 1.0, 4.0, 0),         # child covers 2-3: self 2
        S("lstm", 2.0, 3.0, 1),        # leaf: self 1
        S("bwd", 5.0, 6.0, 0),         # leaf: self 1
        S("agg", 11.0, 12.5, None),    # leaf: self 1.5
        S("setup", -3.0, -1.0, None),  # outside every window
    ]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0, 1.5, 2.0]
    out = tracing.window_breakdown(spans, [(0.0, 10.5), (10.5, 13.0)])
    assert out == {"train": 6.0, "fwd": 2.0, "lstm": 1.0, "bwd": 1.0, "agg": 1.5,
                   "(uncovered)": 0.5 + 1.0}
    assert sum(out.values()) == pytest.approx(13.0)


def test_tracer_records_parents():
    ticks = iter(range(100))
    t = tracing.Tracer(clock=lambda: float(next(ticks)))
    with t.span("outer"):
        with t.span("inner"):
            pass
    assert t.spans == [tracing.Span("outer", 0.0, 3.0, None), tracing.Span("inner", 1.0, 2.0, 0)]


def test_a_vanished_name_is_reported_missing_and_wrappers_come_off(monkeypatch):
    from fedphish import federation as fed
    original = fed.client_train
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("heads.gone.forward", "fedphish.heads", "GoneHead.forward"),))
    tracer = tracing.Tracer()
    with tracing.instrument(tracer, tracing.Probes(tracer, {})) as missing:
        assert fed.client_train is not original
    assert missing == {"heads.gone.forward"}
    assert fed.client_train is original


# ---------------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------------

def test_speed_factor_on_hand_built_samples(monkeypatch):
    monkeypatch.setattr(speed, "REF_S", (1.0, 2.0))
    monkeypatch.setattr(speed, "MIN_SPAN_S", 1.0)
    s = speed.Sampler()
    s.times = [[1.0, 5.0, 20.0], [2.0, 30.0]]
    s.durs = [[1.0, 3.0, 1.0], [2.0, 4.0]]
    # inside (0, 10) the kernels average 2.0 and 2.0 against references 1.0 and 2.0
    assert s.factor(0.0, 10.0) == pytest.approx((0.5 * 1.0) ** 0.5)
    # a kernel without a sample in the window is left out
    assert s.factor(15.0, 25.0) == pytest.approx(1.0)
    assert s.factor(25.0, 35.0) == pytest.approx(0.5)
    # a short window is widened to MIN_SPAN_S about its centre: (19.5, 20.5)
    assert s.factor(19.9, 20.1) == pytest.approx(1.0)
    # and doubled until a sample falls inside: (35, 45) holds none, (30, 50) does
    assert s.factor(35.0, 45.0) == pytest.approx(0.5)
    assert s.adjusted([(25.0, 35.0), (0.0, 1.0)]) == pytest.approx([5.0, 1.0])
    assert speed.Sampler().factor(0.0, 1.0) == 1.0


def test_sampler_samples_and_restores_the_signal_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Sampler(interval=0.001) as s:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert s.samples() >= 4 and all(s.durs)
    assert s.factor(t0, t0 + 0.2) > 0.0


# ---------------------------------------------------------------------------
# failure accounting
# ---------------------------------------------------------------------------

def _url_client(cid, seed, poison=False):
    samples = synth_embeddings(16, dim=16, seed=seed)
    train, val = stack_url(samples[:8]), stack_url(samples[8:])
    if poison:
        train["x"] = np.full_like(train["x"], np.nan)
    return ClientData(client_id=cid, train={"url": train}, val={"url": val})


def test_a_nan_client_raises_the_fail_share():
    cfg = TrainConfig(rounds=2, epochs=1, batch_size=8, seed=0)
    clients = [_url_client("good", 1), _url_client("poisoned", 2, poison=True)]
    with measure.counting_failures() as counter:
        federation.run_experiment(ModelSpec.desk(), cfg, clients)
    assert counter.failed == 2
    assert 1.0 - measure.ok_share(counter, attempted=2 * 2) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# the command
# ---------------------------------------------------------------------------

def test_the_command_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "url_rounds", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
