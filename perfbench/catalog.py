"""Every metric the benchmark reports: name, unit, direction, and for the
per-layer ones what each number is normalised by and which end-to-end metric
it should move on which workload. ``BENCHMARK.json`` lists the same names;
a self-test keeps the two in step.
"""

from __future__ import annotations

from typing import NamedTuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str        # "lower" or "higher"
    bound: float = 0.0  # end-to-end only: allowed worsening, share of the median
    per: str = ""       # per-layer only: what the value is normalised by
    moves: str = ""     # per-layer only: end-to-end metric and workload it should move


# Timings are medians over windows of wall time scaled to the machine's fast
# state (speed.py): raw wall-time medians of the same code differ by up to a
# third between runs on a shared virtual machine, scaled ones by a few percent.
# Final accuracy and loss vary with the data each seed draws (see workloads).
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("round_s", "s", "lower", 0.25),
    Metric("run_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
    Metric("final_acc", "share", "higher", 0.2),
    Metric("final_loss", "share", "lower", 0.25),
    # 1 - (failed + excluded client-rounds) / client-rounds attempted; the
    # complement of the fail share, so that it is never 0
    Metric("client_ok_share", "share", "higher", 0.05),
)

_SETUP = "setup_s (preproc on fusion_html; init on paper_roles)"
_HTML = "round_s on fusion_html"
_URL = "round_s on url_rounds"
_BYTES = "peak_rss_mb and round_s on paper_roles; flat on fusion_html"
_RUN = "run_s on paper_roles"


def _layer(name, unit, better, per, moves):
    return Metric(name, unit, better, per=per, moves=moves)


PER_LAYER = (
    _layer("config.parse_config_s", "s", "lower", "set-up", _SETUP),
    _layer("config.build_clients_s", "s", "lower", "set-up", _SETUP),
    _layer("data.synth_s", "s", "lower", "set-up", _SETUP),
    _layer("preproc.preprocess_s", "s", "lower", "set-up", _SETUP),
    _layer("preproc.preprocess_calls", "count", "lower", "set-up", _SETUP),
    _layer("heads.model_init_s", "s", "lower", "set-up", _SETUP),
    _layer("heads.html.forward_s", "s", "lower", "round", _HTML),
    _layer("heads.image.forward_s", "s", "lower", "round", _HTML),
    _layer("heads.fusion.forward_s", "s", "lower", "round", _HTML),
    _layer("numerics.bilstm_s", "s", "lower", "round", _HTML),
    _layer("numerics.mhsa_s", "s", "lower", "round", _HTML + "; round_s on paper_roles"),
    _layer("numerics.conv_s", "s", "lower", "round", _HTML),
    _layer("numerics.attention_pool_s", "s", "lower", "round", _HTML),
    _layer("numerics.layer_norm_s", "s", "lower", "round", _HTML),
    _layer("numerics.backward_s", "s", "lower", "round", _HTML + "; flat on url_rounds"),
    _layer("numerics.backward_calls", "count", "lower", "round", _HTML + "; flat on url_rounds"),
    _layer("numerics.graph_nodes", "count", "lower", "backward call (mean)",
           _HTML + " (~90% fewer HTML nodes); flat on url_rounds"),
    _layer("heads.url.forward_s", "s", "lower", "round", _URL),
    _layer("heads.loss_s", "s", "lower", "round", _URL),
    _layer("numerics.optimizer_step_s", "s", "lower", "round", _URL),
    _layer("numerics.clip_s", "s", "lower", "round", _URL),
    _layer("federation.client_evaluate_s", "s", "lower", "round", _URL),
    _layer("numerics.optimizer_init_s", "s", "lower", "round", _BYTES),
    _layer("numerics.optimizer_state_mb", "MB", "lower", "optimizer (mean)", _BYTES),
    _layer("numerics.optimizer_state_useful_share", "share", "higher", "all optimizer state", _BYTES),
    _layer("numerics.embedding_s", "s", "lower", "round", _BYTES),
    _layer("numerics.embedding_rows_touched_share", "share", "higher", "lookup (mean)", _BYTES),
    _layer("federation.report_mb", "MB", "lower", "client report (mean)", _BYTES),
    _layer("federation.report_useful_share", "share", "higher", "all report bytes", _BYTES),
    _layer("federation.aggregate_s", "s", "lower", "round", _BYTES),
    _layer("federation.client_train_s", "s", "lower", "client-round (median)", "round_s on all workloads"),
    _layer("federation.client_train_calls", "count", "lower", "round", "round_s on all workloads"),
    _layer("federation.save_checkpoint_s", "s", "lower", "experiment", _RUN),
    _layer("federation.checkpoint_mb", "MB", "lower", "experiment", _RUN),
    _layer("metrics.write_round_csv_s", "s", "lower", "experiment", _RUN),
    _layer("federation.client_failures", "count", "lower", "run (total)", "client_ok_share"),
    _layer("federation.excluded_reports", "count", "lower", "run (total)", "client_ok_share"),
    _layer("tracing.overhead_share", "share", "lower", "untraced run_s",
           "none: traced minus untraced run_s"),
    _layer("tracing.probe_s", "s", "lower", "round",
           "none: the traced run's own counting work"),
    _layer("tracing.uncovered_s", "s", "lower", "round",
           "round_s: time in rounds outside every span"),
)

UNITS = {m.name: m.unit for m in END_TO_END + PER_LAYER}
