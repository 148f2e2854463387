"""The benchmark's tracing wraps fedphish names from outside the package.

A wrapped name that a refactor deletes makes the benchmark print its metric
as MISSING instead of failing, so this test fails on it first.
"""

import contextlib
import importlib.util
import json
from pathlib import Path

import numpy as np

import fedphish.config as config
import fedphish.federation as federation
from fedphish.data import synth_html
from fedphish.federation import ClientData, TrainConfig, _client_rng
from fedphish.heads import HTML_PREFIX, ModelSpec
from fedphish.preproc import PreprocConfig

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# wrapped names that no longer exist, in target-list order; dropping them
# from the target list is a benchmark change
DEAD_TARGETS = [
    ("heads.loss", "fedphish.federation", "js_consistency"),
    ("numerics.optimizer_step", "fedphish.numerics", "Sgd.step"),
]


def test_every_traced_span_resolves_a_target():
    # every target, not just one per span: a span with several targets
    # (heads.loss wraps three) would otherwise miss a renamed one
    tracing = load_tracing()
    assert tracing.TARGETS
    gone = [t for t in tracing.TARGETS if tracing._resolve(t[1], t[2]) is None]
    assert gone == DEAD_TARGETS
    # and every span keeps a live target
    assert {t[0] for t in tracing.TARGETS} == {t[0] for t in tracing.TARGETS if t not in gone}


def test_report_and_optimizer_probes_read_a_touched_rows_client():
    # the probes read report.params[k].nbytes and opt.m[k].nbytes for k in
    # opt.m; a table reported as touched rows must still answer both
    tracing = load_tracing()
    tracer = tracing.Tracer()
    probes = tracing.Probes(tracer, {"h0": {"html"}})
    pcfg = PreprocConfig(char_len=64, word_len=16, dom_len=16, word_buckets=257, dom_buckets=61)
    pages = synth_html(16, seed=2, preproc_cfg=pcfg)
    client = ClientData(client_id="h0", train={"html": pages}, val={"html": pages})
    spec = ModelSpec.desk_pages()
    broadcast = spec.init_params(5)
    cfg = TrainConfig(rounds=1, epochs=1, batch_size=8, seed=5)
    with tracing.instrument(tracer, probes) as gone:
        report = federation.client_train(client, broadcast, spec, cfg, _client_rng(5, 0, 0))
    assert tracer.missing == set()
    assert "federation.client_train" not in gone and "numerics.optimizer_step" not in gone
    owned = {k: v for k, v in broadcast.items() if k.startswith(HTML_PREFIX)}
    dense_bytes = sum(v.nbytes for v in owned.values())
    s = tracer.samples
    assert s["federation.report_bytes"] == [sum(v.nbytes for v in report.params.values())]
    assert s["federation.report_owned_bytes"] == s["federation.report_bytes"]
    # of the 258-row word table, only the rows training touched are reported and kept
    assert 0 < s["federation.report_bytes"][0] < dense_bytes
    assert 0 < s["numerics.optimizer_state_bytes"][0] < 2 * dense_bytes
    assert np.unique(pages["word"]).size < broadcast[HTML_PREFIX + "word.embed"].shape[0]


SYNTH_OF_MODALITY = {"url": ("embeddings", "synth_embeddings"),
                     "image": ("image_tokens", "synth_image_tokens"),
                     "html": ("html", "synth_html"), "pair": ("paired", "synth_paired")}


def test_build_clients_calls_the_generators_the_tracer_wraps(tmp_path):
    # data.synth_s times the generators by replacing fedphish.config's names;
    # a generator reached any other way would be timed as zero
    tracing = load_tracing()
    called = []

    def recording(name):
        def wrap(fn):
            def wrapper(*args, **kwargs):
                called.append(name)
                return fn(*args, **kwargs)
            return wrapper
        return wrap

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "model_profile": "desk_pages",
        "preproc": {"char_len": 32, "word_len": 8, "dom_len": 8, "word_buckets": 257, "dom_buckets": 61},
        "clients": [{"id": modality, "datasets": [{"modality": modality, "synth": {
            "kind": kind, "train_n": 2, "test_n": 2}}]} for modality, (kind, _) in SYNTH_OF_MODALITY.items()],
    }))
    cfg = config.parse_config(cfg_path)
    names = sorted({attr for span, module, attr in tracing.TARGETS if span == "data.synth"})
    assert names == sorted(name for _, name in SYNTH_OF_MODALITY.values())
    with contextlib.ExitStack() as stack:
        for name in names:
            stack.enter_context(tracing.patched(config, name, recording(name)))
        config.build_clients(cfg)
    assert called == [name for _, name in SYNTH_OF_MODALITY.values()]
