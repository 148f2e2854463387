"""Role-bucketed aggregation, local training and the experiment loop."""

import json
import logging
import struct
import tracemalloc

import numpy as np
import pytest
from test_heads import tensors

import fedphish.federation as federation
import fedphish.metrics as metrics
import fedphish.runfiles as runfiles
from fedphish.data import synth_embeddings, synth_image_tokens
from fedphish.federation import (
    ClientData,
    ClientReport,
    TrainConfig,
    _client_rng,
    aggregate,
    batch_loss,
    client_evaluate,
    client_train,
    expert_logits,
    group_of,
    proximal_term,
    run_experiment,
    select_clients,
)
from fedphish.heads import (
    HTML_PREFIX,
    IMAGE_PREFIX,
    TABLE_OF_STREAM,
    URL_PREFIX,
    ModelSpec,
    focal_loss,
)
from fedphish.numerics import Adam, Tensor, TouchedRows, backward, clip_global_norm, zero_grads
from fedphish.runfiles import load_checkpoint, save_checkpoint


def report(cid, value, **weights):
    return ClientReport(cid, {"p": np.array([value])}, weights)


def onto(table, value):
    """A copy of ``table`` with a report's touched rows replaced."""
    out = table.copy()
    out[value.rows] = value.values
    return out


# ---------------------------------------------------------------------------
# grouping and selection
# ---------------------------------------------------------------------------

def test_group_of_prefixes():
    assert group_of("url_head.classifier.scale") == "url"
    assert group_of("fusion_head.gate.w1") == "fusion"
    assert group_of("image_head.block0.attn.wq") == "image"
    assert group_of("html_head.word.embed") == "html"


def test_group_of_rejects_unknown_prefix():
    with pytest.raises(ValueError, match="no head prefix"):
        group_of("bn_stats.counter")


def test_group_of_rejects_empty():
    with pytest.raises(ValueError, match="no head prefix"):
        group_of("")


def test_select_clients_by_role():
    reports = [
        report("a", 1.0, url=10.0),
        report("b", 2.0, image=5.0),
        report("c", 3.0, image=2.0),
    ]
    assert [(w, r.client_id) for w, r in select_clients("url", reports)] == [(10.0, "a")]
    assert [(w, r.client_id) for w, r in select_clients("image", reports)] == [
        (5.0, "b"), (2.0, "c")]
    assert select_clients("html", reports) == []
    assert select_clients("fusion", reports) == []


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def rows(n):
    return {"y": np.zeros(n, dtype=np.int64)}


def test_role_weights_pairs_overlap():
    data = ClientData("a", train={"image": rows(5), "html": rows(3), "url": rows(3),
                                  "pair": rows(5)})
    # a paired sample carries an image payload and an html payload
    assert data.role_weights() == {"image": 10.0, "html": 1.0, "url": 3.0, "fusion": 5.0}
    assert ClientData("b", train={"url": rows(4)}).role_weights() == {"url": 4.0}
    assert ClientData("c", train={"url": rows(0)}).role_weights() == {}


def test_role_weights_html_weighs_one():
    data = ClientData("a", train={"html": rows(37)})
    assert data.role_weights() == {"html": 1.0}
    pairs = ClientData("b", train={"pair": rows(7)})
    assert pairs.role_weights() == {"image": 7.0, "html": 1.0, "fusion": 7.0}


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def test_aggregate_single_owner_takes_its_value():
    g = {"url_head.w": np.array([0.0, 0.0])}
    reported = np.array([4.5, -0.0])
    new = aggregate(g, [ClientReport("a", {"url_head.w": reported}, {"url": 3.0})])
    assert new["url_head.w"][0] == 4.5
    # the report's own array, with no zero buffer or scaled copy: -0.0 stays -0.0
    assert new["url_head.w"] is reported


def test_aggregate_weighted_mean():
    g = {"url_head.w": np.array([0.0])}
    reports = [
        ClientReport("a", {"url_head.w": np.array([1.0])}, {"url": 10.0}),
        ClientReport("b", {"url_head.w": np.array([5.0])}, {"url": 30.0}),
    ]
    new = aggregate(g, reports)
    assert abs(new["url_head.w"][0] - 4.0) < 1e-12


def test_aggregate_keeps_old_when_no_owner():
    g = {"image_head.w": np.array([7.0]), "url_head.w": np.array([1.0])}
    reports = [ClientReport("a", {"image_head.w": np.array([9.9]),
                                  "url_head.w": np.array([2.0])}, {"url": 5.0})]
    new = aggregate(g, reports)
    assert new["image_head.w"] is g["image_head.w"]  # bitwise kept, same array
    assert new["url_head.w"][0] == 2.0


def test_aggregate_excludes_nan_reports():
    g = {"url_head.w": np.array([1.0])}
    reports = [
        ClientReport("a", {"url_head.w": np.array([np.nan])}, {"url": 5.0}),
        ClientReport("b", {"url_head.w": np.array([3.0])}, {"url": 5.0}),
    ]
    new = aggregate(g, reports)
    assert new["url_head.w"][0] == 3.0


def test_aggregate_checks_only_the_touched_rows_for_finiteness():
    old = np.array([[np.nan], [1.0], [2.0]])  # a non-finite row nobody touched
    reports = [
        ClientReport("a", {"html_head.t": TouchedRows(np.array([1]), np.array([[np.inf]]))},
                     {"html": 1.0}),
        ClientReport("b", {"html_head.t": TouchedRows(np.array([2]), np.array([[5.0]]))},
                     {"html": 1.0}),
    ]
    kept = old.copy()
    new = aggregate({"html_head.t": old}, reports)["html_head.t"]
    # written in place: the same table, the untouched rows bitwise as before
    assert new is old
    assert np.array_equal(new, np.array([[np.nan], [1.0], [5.0]]), equal_nan=True)
    assert np.array_equal(new[:2], kept[:2], equal_nan=True)


def test_touched_rows_has_no_dense_conversion():
    report = TouchedRows(np.array([1]), np.array([[5.0]]))
    assert report.nbytes == 16
    with pytest.raises(TypeError):
        np.isfinite(report)


@pytest.mark.parametrize("owners", [1, 2])
def test_aggregate_writes_table_rows_in_place(owners):
    # one owner's rows are written over the global table, several owners'
    # means over the union of their rows; nothing table-sized is allocated
    rng = np.random.default_rng(owners)
    table = rng.normal(size=(2**16, 64))
    kept = table.copy()
    dense = rng.normal(size=3)
    touched = [np.sort(rng.choice(table.shape[0], 100, replace=False)) for _ in range(owners)]
    reports = [ClientReport(f"c{i}", {"html_head.t": TouchedRows(rows, rng.normal(size=(rows.size, 64))),
                                      "html_head.b": rng.normal(size=3)}, {"html": 1.0 + i})
               for i, rows in enumerate(touched)]
    want = brute_force_aggregate({"html_head.t": kept, "html_head.b": dense},
                                 [ClientReport(r.client_id, {"html_head.t": onto(kept, r.params["html_head.t"]),
                                                             "html_head.b": r.params["html_head.b"]}, r.weights)
                                  for r in reports])
    tracemalloc.start()
    try:
        new = aggregate({"html_head.t": table, "html_head.b": dense}, reports)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.05 * table.nbytes
    assert new["html_head.t"] is table
    rows = np.unique(np.concatenate(touched))
    assert np.array_equal(table[rows], want["html_head.t"][rows])
    rest = np.setdiff1d(np.arange(table.shape[0]), rows)
    assert np.array_equal(table[rest], kept[rest])
    assert np.array_equal(new["html_head.b"], want["html_head.b"])


def test_average_of_several_table_owners_holds_one_owner_at_a_time():
    # the owners' whole rows are built one at a time and added into the sum:
    # three owners peak under four copies of the union rows
    rng = np.random.default_rng(3)
    table = rng.normal(size=(2**16, 64))
    kept = table.copy()
    touched = [np.sort(rng.choice(table.shape[0], 300, replace=False)) for _ in range(3)]
    reports = [ClientReport(f"c{i}", {"html_head.t": TouchedRows(rows, rng.normal(size=(rows.size, 64)))},
                            {"html": 1.0 + i})
               for i, rows in enumerate(touched)]
    want = brute_force_aggregate({"html_head.t": kept},
                                 [ClientReport(r.client_id, {"html_head.t": onto(kept, r.params["html_head.t"])},
                                               r.weights) for r in reports])
    union = np.unique(np.concatenate(touched))
    tracemalloc.start()
    try:
        aggregate({"html_head.t": table}, reports)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * union.size * 64 * 8
    assert table[union].tobytes() == want["html_head.t"][union].tobytes()


def test_aggregate_with_a_missing_report_leaves_the_model_untouched():
    # the table's name sorts before the missing one: every report is checked
    # before the first write
    table, dense = np.arange(6.0).reshape(3, 2), np.array([1.0, 2.0])
    g = {"html_head.a": table, "html_head.z": dense}
    kept = {k: v.copy() for k, v in g.items()}
    full = ClientReport("a", {"html_head.a": TouchedRows(np.array([1]), np.array([[9.0, 9.0]])),
                              "html_head.z": np.array([5.0, 5.0])}, {"html": 1.0})
    short = ClientReport("b", {"html_head.a": TouchedRows(np.array([2]), np.array([[7.0, 7.0]]))},
                         {"html": 1.0})
    with pytest.raises(ValueError, match="client b report is missing 'html_head.z'"):
        aggregate(g, [full, short])
    for k in g:
        assert np.array_equal(g[k], kept[k]), k


def test_aggregate_order_invariant():
    rng = np.random.default_rng(0)
    g = {"html_head.w": rng.normal(size=4), "url_head.w": rng.normal(size=4)}
    reports = [
        ClientReport(f"c{i}", {"html_head.w": rng.normal(size=4), "url_head.w": rng.normal(size=4)},
                     {"html": float(rng.integers(1, 9)), "url": float(rng.integers(1, 9))})
        for i in range(5)
    ]
    a = aggregate(g, reports)
    b = aggregate(g, list(reversed(reports)))
    for k in g:
        assert np.array_equal(a[k], b[k])


def brute_force_aggregate(global_params, reports):
    """Independent oracle: per-parameter weighted mean over role owners."""
    out = {}
    for name, old in global_params.items():
        role = name.split(".", 1)[0].removesuffix("_head")
        owners = [(r.weights[role], r.params[name])
                  for r in sorted(reports, key=lambda r: r.client_id) if r.weights.get(role, 0) > 0]
        if not owners:
            out[name] = old
        else:
            total = sum(w for w, _ in owners)
            out[name] = sum((w / total) * v for w, v in owners)
    return out


def test_aggregate_matches_brute_force_oracle_randomized():
    rng = np.random.default_rng(1)
    roles = ["image", "html", "url", "fusion"]
    for trial in range(50):
        k = int(rng.integers(1, 5))
        g = {f"{role}_head.p": rng.normal(size=1) for role in roles[:k]}
        reports = []
        for i in range(int(rng.integers(1, 4))):
            weights = {role: float(rng.integers(0, 5)) for role in roles}
            reports.append(ClientReport(f"c{i}", {n: rng.normal(size=1) for n in g}, weights))
        got = aggregate(g, reports)
        ref = brute_force_aggregate(g, reports)
        for n in g:
            assert np.allclose(got[n], ref[n], atol=1e-12), (trial, n)


# ---------------------------------------------------------------------------
# client training
# ---------------------------------------------------------------------------

def desk_url_client(cid="u0", n=32, seed=0, separation=6.0):
    tr = synth_embeddings(n, dim=16, separation=separation, seed=seed)
    va = synth_embeddings(n, dim=16, separation=separation, seed=seed + 100)
    return ClientData(client_id=cid, train={"url": tr}, val={"url": va})


def test_client_train_untouched_heads_stay_bitwise_equal():
    spec = ModelSpec.desk()
    cfg = TrainConfig(rounds=1, epochs=2, batch_size=16, seed=3)
    broadcast = spec.init_params(3)
    before = {k: v.copy() for k, v in broadcast.items()}
    rep = client_train(desk_url_client(), broadcast, spec, cfg, _client_rng(3, 0, 0))
    for name in broadcast:
        assert np.array_equal(broadcast[name], before[name]), name
    changed = [n for n in rep.params if not np.array_equal(rep.params[n], broadcast[n])]
    assert changed


def pair_client(cid="f0", n=8, seed=1):
    from fedphish.data import synth_paired
    from fedphish.preproc import PreprocConfig

    pcfg = PreprocConfig(char_len=32, word_len=8, dom_len=8, word_buckets=257, dom_buckets=61)
    pairs = synth_paired(n, seed=seed, image_length=4, image_dim=16, preproc_cfg=pcfg)
    return ClientData(client_id=cid, train={"pair": pairs}, val={"pair": pairs})


@pytest.mark.parametrize("make_client, owned", [
    (desk_url_client, {"url": 32.0}),
    (pair_client, {"image": 8.0, "html": 1.0, "fusion": 8.0}),
], ids=["url", "pair"])
def test_client_train_reports_only_owned_roles(make_client, owned):
    spec = ModelSpec.desk_pages()
    cfg = TrainConfig(rounds=1, epochs=1, batch_size=8, seed=3)
    broadcast = spec.init_params(3)
    rep = client_train(make_client(), broadcast, spec, cfg, _client_rng(3, 0, 0))
    assert rep.weights == owned
    assert set(rep.params) == {k for k in broadcast if group_of(k) in owned}


def test_client_train_mu_zero_equals_plain_training():
    spec = ModelSpec.desk()
    broadcast = spec.init_params(4)
    client = desk_url_client(seed=5)
    reps = []
    for mu in (0.0, None):
        cfg = TrainConfig(rounds=1, epochs=3, batch_size=16, seed=4,
                          mu=0.0 if mu is None else mu)
        reps.append(client_train(client, broadcast, spec, cfg, _client_rng(4, 0, 0)))
    for name in reps[0].params:
        assert np.array_equal(reps[0].params[name], reps[1].params[name])


def test_client_train_empty_loaders_rejected():
    spec = ModelSpec.desk()
    broadcast = spec.init_params(0)
    with pytest.raises(ValueError):
        client_train(ClientData(client_id="x"), broadcast, spec,
                     TrainConfig(rounds=1), _client_rng(0, 0, 0))


def desk_batch(kind, rng):
    batch = {"x": rng.normal(size=(3, 4, 16)), "char": rng.integers(0, 33, size=(3, 32)),
             "word": rng.integers(0, 17, size=(3, 8)), "dom": rng.integers(0, 9, size=(3, 8)),
             "y": np.array([0, 1, 1])}
    if kind == "url":
        batch["x"] = rng.normal(size=(3, 16))
    return batch


def test_pull_adds_mu_times_distance_to_every_trained_gradient(monkeypatch):
    # on each step of a client with pair and html data, the gradient that
    # reaches clipping is bitwise the data-loss gradient plus
    # mu (theta - theta_t) on every parameter it trains: the image, html and
    # fusion heads alike, on every batch kind, a table on its compact rows,
    # and a parameter the data loss did not reach takes the pull alone
    spec = ModelSpec.desk_pages()
    broadcast = spec.init_params(8)
    client = ClientData(client_id="f0", train={"pair": pair_client().train["pair"],
                                               "html": desk_html_client(n=8).train["html"]})
    mu = 0.2
    steps, trained = [], {}

    def make_optimizer(params, lr):
        trained.update(params)
        return real_make_optimizer(params, lr)

    def backward_and_record(loss):
        real_backward(loss)
        steps.append({"theta": {k: p.data.copy() for k, p in trained.items()},
                      "data": {k: p.grad.copy() for k, p in trained.items() if p.grad is not None}})

    def clip(grads, tau):
        steps[-1]["clipped"] = {k: p.grad.copy() for k, p in trained.items() if p.grad is not None}
        return real_clip(grads, tau)

    real_make_optimizer, real_backward, real_clip = (
        federation.make_optimizer, federation.backward, federation.clip_global_norm)
    monkeypatch.setattr(federation, "make_optimizer", make_optimizer)
    monkeypatch.setattr(federation, "backward", backward_and_record)
    monkeypatch.setattr(federation, "clip_global_norm", clip)
    cfg = TrainConfig(rounds=1, epochs=2, batch_size=4, seed=8, mu=mu)
    rep = client_train(client, broadcast, spec, cfg, _client_rng(8, 0, 0))

    anchor = {k: broadcast[k][v.rows] if isinstance(v, TouchedRows) else broadcast[k]
              for k, v in rep.params.items()}
    assert {group_of(k) for k in anchor} == {"image", "html", "fusion"}
    assert len(steps) == 8
    unreached = 0
    for step in steps:
        assert step["clipped"].keys() == anchor.keys()
        for k, g in step["clipped"].items():
            pull = mu * (step["theta"][k] - anchor[k])
            want = step["data"][k] + pull if k in step["data"] else pull
            assert np.array_equal(g, want), k
        unreached += len(anchor) - len(step["data"])
    # html batches leave the image and fusion parameters to the pull alone
    assert unreached > 0
    # after the first step every head has moved, so every head is pulled
    last = steps[-1]
    for role in ("image", "html", "fusion"):
        assert any(not np.array_equal(last["theta"][k], anchor[k])
                   for k in anchor if group_of(k) == role), role


@pytest.mark.parametrize("make_client, epochs, batch_size, steps", [
    # pair 8 rows and html 8 rows in batches of 3, the last of each partial
    (lambda: ClientData(client_id="f0", train={"pair": pair_client().train["pair"],
                                               "html": desk_html_client(n=8).train["html"]}),
     2, 3, 12),
    (lambda: desk_url_client(n=8), 1, 8, 1),
], ids=["two-kinds-two-epochs", "one-batch"])
def test_client_train_marks_only_its_final_step_last(monkeypatch, make_client, epochs, batch_size, steps):
    # the optimizer is rebuilt every round, so only the final step may skip
    # writing moments; the parameters are those of steps never marked last
    spec = ModelSpec.desk_pages()
    broadcast = spec.init_params(4)
    cfg = TrainConfig(rounds=1, epochs=epochs, batch_size=batch_size, seed=4)
    real_make_optimizer = federation.make_optimizer
    reports = {}
    for honour_last in (True, False):
        lasts = []

        def make_optimizer(params, lr):
            opt = real_make_optimizer(params, lr)
            real_step = opt.step

            def step(*, scale=1.0, last=False):
                lasts.append(last)
                real_step(scale=scale, last=last and honour_last)
            opt.step = step
            return opt

        monkeypatch.setattr(federation, "make_optimizer", make_optimizer)
        reports[honour_last] = client_train(make_client(), broadcast, spec, cfg, _client_rng(4, 0, 0))
        assert lasts == [False] * (steps - 1) + [True]
    values = {honour: {k: getattr(v, "values", v) for k, v in rep.params.items()}
              for honour, rep in reports.items()}
    assert values[True].keys() == values[False].keys()
    for k, v in values[True].items():
        assert v.tobytes() == values[False][k].tobytes(), k


def test_pull_changes_local_training():
    spec = ModelSpec.desk()
    broadcast = spec.init_params(6)
    client = desk_url_client(seed=7, n=48)
    reps = [client_train(client, broadcast, spec,
                         TrainConfig(rounds=1, epochs=2, batch_size=16, seed=6, mu=m),
                         _client_rng(6, 0, 0))
            for m in (0.0, 0.2)]
    url_names = [k for k in broadcast if k.startswith(URL_PREFIX)]
    assert any(not np.array_equal(reps[0].params[k], reps[1].params[k]) for k in url_names)


def test_html_step_leaves_embedding_gradients_row_sparse():
    # a table's gradient is zero outside the rows the batch looked up, and
    # a pull over one row of each table that no page looks up adds exactly
    # that row
    from fedphish.data import synth_html
    from fedphish.preproc import PreprocConfig

    pcfg = PreprocConfig(char_len=64, word_len=16, dom_len=16, word_buckets=257, dom_buckets=61)
    spec = ModelSpec.desk_pages()
    batch = synth_html(8, seed=2, preproc_cfg=pcfg)
    params = tensors(spec.init_params(13))
    moved = {name: np.setdiff1d(np.arange(params[name].shape[0]), batch[stream])[:1]
             for stream, name in TABLE_OF_STREAM.items()}
    snapshot = {k: p.data.copy() for k, p in params.items()}
    for k, rows in moved.items():
        snapshot[k][rows] += 0.5
    for mu in (0.0, 0.02):
        zero_grads(params)
        backward(batch_loss(spec.heads(), "html", params, batch, np.random.default_rng(0)))
        if mu > 0:
            proximal_term({k: p for k, p in params.items() if k.startswith(HTML_PREFIX)},
                          snapshot, mu)
        for stream, name in TABLE_OF_STREAM.items():
            grad = params[name].grad
            assert grad.shape == params[name].shape
            assert moved[name].size == 1
            nonzero = np.flatnonzero(grad.any(axis=1))
            assert np.isin(moved[name], nonzero).all() == (mu > 0), (mu, stream)
            assert np.isin(nonzero, np.union1d(batch[stream], moved[name])).all(), (mu, stream)


def desk_html_client(cid="h0", n=16, seed=2):
    from fedphish.data import synth_html
    from fedphish.preproc import PreprocConfig

    pcfg = PreprocConfig(char_len=64, word_len=16, dom_len=16, word_buckets=257, dom_buckets=61)
    pages = synth_html(n, seed=seed, preproc_cfg=pcfg)
    return ClientData(client_id=cid, train={"html": pages}, val={"html": pages})


@pytest.mark.parametrize("mu", [0.0, 0.02])
def test_client_train_reports_tables_as_touched_rows(mu):
    # a table travels as the rows the client's streams can look up, plus
    # PAD, in sorted order; the pull moves no other row
    spec = ModelSpec.desk_pages()
    client = desk_html_client()
    broadcast = spec.init_params(5)
    cfg = TrainConfig(rounds=1, epochs=2, batch_size=8, seed=5, mu=mu)
    rep = client_train(client, broadcast, spec, cfg, _client_rng(5, 0, 0))
    for stream, name in TABLE_OF_STREAM.items():
        value = rep.params[name]
        pad = broadcast[name].shape[0] - 1
        assert isinstance(value, TouchedRows), stream
        assert np.array_equal(value.rows, np.union1d(client.train["html"][stream], [pad]))
        assert value.values.shape == (value.rows.size,) + broadcast[name].shape[1:]
    tables = set(TABLE_OF_STREAM.values())
    assert all(isinstance(v, np.ndarray) for k, v in rep.params.items() if k not in tables)


@pytest.mark.parametrize("mu", [0.0, 0.02])
def test_client_train_trains_one_flat_copy_and_leaves_the_broadcast(mu):
    # the optimizer copies the owned parameters into its flat state once:
    # every broadcast array keeps its bits, and every trained array the
    # report holds, a compact table's rows included, is a view of one buffer
    spec = ModelSpec.desk_pages()
    client = ClientData(client_id="f0", train={"pair": pair_client().train["pair"],
                                               "html": desk_html_client(n=8).train["html"]})
    broadcast = spec.init_params(4)
    before = {k: v.copy() for k, v in broadcast.items()}
    cfg = TrainConfig(rounds=1, epochs=2, batch_size=4, seed=4, mu=mu)
    rep = client_train(client, broadcast, spec, cfg, _client_rng(4, 0, 0))
    for k, v in broadcast.items():
        assert v.tobytes() == before[k].tobytes(), k
    arrays = [v.values if isinstance(v, TouchedRows) else v for v in rep.params.values()]
    base = arrays[0].base
    assert base is not None and base.ndim == 1
    assert all(a.base is base for a in arrays)
    assert base.size == sum(a.size for a in arrays)


def full_table_training(data, broadcast, spec, cfg, rng):
    """``client_train`` without compact tables: every owned parameter, each
    table whole, trained by dense Adam with the pull over the whole table."""
    heads = spec.heads()
    owned = data.role_weights()
    params = {k: Tensor(v.copy(), requires_grad=True)
              for k, v in broadcast.items() if group_of(k) in owned}
    optimizer = Adam(params, lr=cfg.lr)
    for _ in range(cfg.epochs):
        for kind in federation.EXPERTS:
            if kind not in data.train:
                continue
            arrays = data.train[kind]
            for idx in federation._batches(len(arrays["y"]), cfg.batch_size, rng):
                zero_grads(params)
                batch = {k: v[idx] for k, v in arrays.items()}
                backward(batch_loss(heads, kind, params, batch, rng))
                if cfg.mu > 0:
                    for k, p in params.items():
                        pull = cfg.mu * (p.data - broadcast[k])
                        p.grad = pull if p.grad is None else p.grad + pull
                grads = [params[k].grad for k in sorted(params) if params[k].grad is not None]
                optimizer.step(scale=clip_global_norm(grads, federation.CLIP))
    return {k: p.data for k, p in params.items()}


@pytest.mark.parametrize("make_client", [desk_html_client, pair_client], ids=["html", "pair"])
@pytest.mark.parametrize("mu", [0.0, 0.02])
def test_compact_tables_train_as_the_full_tables(make_client, mu, monkeypatch):
    # without clipping, training the compact tables is bitwise training the
    # whole tables: the rows outside get no gradient, no pull and an Adam
    # update of exactly 0. With the default clip the global norm sums the
    # squares over other zero rows, so the results agree to rounding.
    spec = ModelSpec.desk_pages()
    client = make_client()
    broadcast = spec.init_params(9)
    for clip, rtol in ((1e9, 0.0), (1.0, 1e-12)):
        monkeypatch.setattr(federation, "CLIP", clip)
        cfg = TrainConfig(rounds=1, epochs=2, batch_size=4, seed=9, mu=mu)
        rep = client_train(client, broadcast, spec, cfg, _client_rng(9, 0, 0))
        ref = full_table_training(client, broadcast, spec, cfg, _client_rng(9, 0, 0))
        assert sorted(rep.params) == sorted(ref)
        for k, value in rep.params.items():
            got = onto(broadcast[k], value) if isinstance(value, TouchedRows) else value
            assert np.max(np.abs(got - ref[k]), initial=0.0) <= rtol * np.max(np.abs(ref[k])), (clip, k)
        moved = [k for k in ref if not np.array_equal(ref[k], broadcast[k])]
        assert set(TABLE_OF_STREAM.values()) <= set(moved), clip


def graph_nodes(loss) -> int:
    """Nodes that ``backward`` visits: everything reachable from the loss
    through parents that require a gradient, the loss and leaves included."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for p in stack.pop()._parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


# layer norm, GELU, log-softmax and focal loss are one node each; each MLP
# tail (the image and html classifiers, the whole url head) is one node; the
# word and DOM BiLSTMs are one node plus a slice per branch; the pull is no
# node at all. A primitive that turns back into a chain of nodes fails here
BATCH_LOSS_NODES = {"image": 103, "html": 58, "url": 9, "pair": 209}


@pytest.mark.parametrize("kind", sorted(BATCH_LOSS_NODES))
def test_batch_loss_graph_node_count(kind):
    spec = ModelSpec.desk()
    params = tensors(spec.init_params(0))
    batch = desk_batch(kind, np.random.default_rng(1))
    loss = batch_loss(spec.heads(), kind, params, batch, np.random.default_rng(2))
    assert graph_nodes(loss) == BATCH_LOSS_NODES[kind]


@pytest.mark.parametrize("kind", list(federation.EXPERTS))
def test_expert_logits_gives_the_logits_of_every_expert_of_its_kind(kind):
    spec = ModelSpec.desk()
    batch = desk_batch(kind, np.random.default_rng(1))
    logits = expert_logits(spec.heads(), kind, tensors(spec.init_params(0)), batch)
    assert list(logits) == list(federation.EXPERTS[kind])
    assert all(v.shape == (3, 2) for v in logits.values())


def test_client_train_trains_its_kinds_in_experts_order(monkeypatch):
    # the datasets are inserted in another order; two batches of each kind
    # per epoch, and every kind's batches before the next kind's
    spec = ModelSpec.desk_pages()
    client = ClientData("all", train={
        "pair": pair_client().train["pair"],
        "url": desk_url_client(n=8).train["url"],
        "html": desk_html_client(n=8).train["html"],
        "image": synth_image_tokens(8, length=4, dim=16, seed=3),
    })
    kinds = []
    real_batch_loss = federation.batch_loss

    def recording(heads, kind, *rest):
        kinds.append(kind)
        return real_batch_loss(heads, kind, *rest)

    monkeypatch.setattr(federation, "batch_loss", recording)
    broadcast = spec.init_params(3)
    cfg = TrainConfig(rounds=1, epochs=2, batch_size=4, seed=3)
    client_train(client, broadcast, spec, cfg, _client_rng(3, 0, 0))
    assert list(federation.EXPERTS) == ["image", "html", "url", "pair"]
    assert kinds == [k for _ in range(2) for k in federation.EXPERTS for _ in range(2)]


def test_pair_loss_is_the_fused_loss_plus_both_branch_losses():
    # built by hand from the heads: the loss and every gradient are bitwise
    # focal(fused) + 0.3 (focal(image) + focal(html)), and the
    # generator has drawn only the two heads' dropout masks
    from fedphish.data import synth_paired
    from fedphish.preproc import PreprocConfig

    pcfg = PreprocConfig(char_len=32, word_len=8, dom_len=8, word_buckets=257, dom_buckets=61)
    spec = ModelSpec.desk_pages()
    heads = spec.heads()
    batch = synth_paired(4, seed=1, image_length=4, image_dim=16, preproc_cfg=pcfg)
    labels = batch["y"]
    params = tensors(spec.init_params(12))

    def run(loss_fn):
        zero_grads(params)
        rng = np.random.default_rng(13)
        loss = loss_fn(rng)
        backward(loss)
        grads = {k: np.array(p.grad) for k, p in params.items() if p.grad is not None}
        return loss.data, grads, rng.bit_generator.state

    def by_hand(rng):
        l_i = expert_logits(heads, "image", params, batch, train=True, rng=rng)["image"]
        l_h = expert_logits(heads, "html", params, batch, train=True, rng=rng)["html"]
        fused, _ = heads["fusion"].forward(params, l_i, l_h)
        return focal_loss(fused, labels) + 0.3 * (
            focal_loss(l_i, labels) + focal_loss(l_h, labels))

    loss, grads, state = run(lambda rng: batch_loss(heads, "pair", params, batch, rng))
    ref_loss, ref_grads, ref_state = run(by_hand)
    assert np.array_equal(loss, ref_loss)
    assert state == ref_state
    assert grads.keys() == ref_grads.keys()
    for name in grads:
        assert np.array_equal(grads[name], ref_grads[name]), name
    # every image, html and fusion parameter is reached, the fusion gate
    # and both temperatures included, and no url parameter
    assert set(grads) == {k for k in params if group_of(k) != "url"}


def test_untouched_table_travels_as_its_broadcast_rows_next_to_a_touched_owner():
    # an html owner whose tables did not move, built by hand as its
    # reachable rows at their broadcast values, aggregates next to an html
    # client's touched rows as the whole broadcast would
    from fedphish.data import synth_paired
    from fedphish.preproc import PreprocConfig

    pcfg = PreprocConfig(char_len=64, word_len=16, dom_len=16, word_buckets=257, dom_buckets=61)
    spec = ModelSpec.desk_pages()
    broadcast = spec.init_params(5)
    pairs = synth_paired(8, seed=1, image_length=4, image_dim=16, preproc_cfg=pcfg)
    idle_params = {k: v.copy() for k, v in broadcast.items() if k.startswith(HTML_PREFIX)}
    for stream, name in TABLE_OF_STREAM.items():
        rows = np.union1d(pairs[stream], [broadcast[name].shape[0] - 1])
        idle_params[name] = TouchedRows(rows, broadcast[name][rows])
    idle = ClientReport("p0", idle_params, {"html": 1.0})
    cfg = TrainConfig(rounds=1, epochs=1, batch_size=4, seed=5)
    busy = client_train(desk_html_client(), broadcast, spec, cfg, _client_rng(5, 0, 1))
    w_idle, w_busy = idle.weights["html"], busy.weights["html"]
    total = w_idle + w_busy
    for reports, pool in (([idle, busy], [(w_idle, None), (w_busy, busy)]),
                          ([busy, idle], [(w_busy, busy), (w_idle, None)])):
        # aggregation writes the tables in place, so each call gets its own copy
        new = aggregate({k: v.copy() for k, v in broadcast.items()}, reports)
        for name in TABLE_OF_STREAM.values():
            old = broadcast[name]
            whole = [(w, old if r is None else onto(old, r.params[name])) for w, r in pool]
            want = (whole[0][0] / total) * whole[0][1]
            want += (whole[1][0] / total) * whole[1][1]
            assert np.array_equal(new[name], want), name
            rest = np.setdiff1d(np.arange(old.shape[0]), busy.params[name].rows)
            assert np.array_equal(new[name][rest], old[rest]), name


def test_client_rng_streams_differ_by_round_and_client():
    a = _client_rng(1, 0, 0).random(4)
    b = _client_rng(1, 0, 1).random(4)
    c = _client_rng(1, 1, 0).random(4)
    d = _client_rng(1, 0, 0).random(4)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.array_equal(a, d)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_evaluate_perfect_and_degenerate_predictors():
    spec = ModelSpec.desk()
    cfg = TrainConfig(rounds=1)
    heads = spec.heads()
    # craft url params that force constant "phishing" output: zero features
    params = spec.init_params(8)
    from fedphish.numerics import Tensor

    x = np.random.default_rng(9).normal(size=(100, 16))
    y = np.array([0, 1] * 50)
    logits = heads["url"].forward({k: Tensor(v) for k, v in params.items()}, {"x": x}).data
    preds = np.argmax(logits, axis=1)
    from fedphish.metrics import compute_metrics, confusion

    m = compute_metrics(confusion(np.ones_like(y), y))
    assert m.accuracy == 0.5 and m.recall == 1.0 and m.fpr == 1.0
    m2 = compute_metrics(confusion(y, y))
    assert m2.accuracy == 1.0 and m2.fpr == 0.0
    assert preds.shape == (100,)


def wrapped_roles(monkeypatch, params) -> set[str]:
    """Record which of ``params``' arrays ``client_evaluate`` wraps in a
    Tensor; returns the roles of the names recorded, filled in as it runs."""
    roles = set()

    class Recording(Tensor):
        __slots__ = ()

        def __init__(self, data, requires_grad=False):
            roles.update(group_of(k) for k, v in params.items() if v is data)
            super().__init__(data, requires_grad)

    monkeypatch.setattr(federation, "Tensor", Recording)
    return roles


def test_evaluate_paired_val_keeps_the_other_sets(monkeypatch):
    from fedphish.data import synth_paired
    from fedphish.preproc import PreprocConfig

    pcfg = PreprocConfig(char_len=32, word_len=8, dom_len=8, word_buckets=257, dom_buckets=61)
    spec = ModelSpec.desk_pages()
    pairs = synth_paired(8, seed=1, image_length=4, image_dim=16, preproc_cfg=pcfg)
    client = ClientData(client_id="f0", train={"pair": pairs},
                        val={"pair": pairs, "url": synth_embeddings(8, dim=16, seed=2)})
    params = spec.init_params(10)
    roles = wrapped_roles(monkeypatch, params)
    results = client_evaluate(params, client, spec, TrainConfig(rounds=1))
    # a paired set scores the fusion head and hides none of the client's other sets
    assert set(results) == {"fusion", "url"}
    # the fused path reads the image, html and fusion heads, the url set its own
    assert roles == {"image", "html", "fusion", "url"}
    alone = client_evaluate(params, ClientData(client_id="f0", train={}, val={"url": client.val["url"]}),
                            spec, TrainConfig(rounds=1))
    assert results["url"] == alone["url"]


def test_evaluate_single_modality_heads(monkeypatch):
    spec = ModelSpec.desk()
    params = spec.init_params(11)
    client = desk_url_client()
    roles = wrapped_roles(monkeypatch, params)
    results = client_evaluate(params, client, spec, TrainConfig(rounds=1))
    assert set(results) == {"url"}
    assert roles == {"url"}
    loss, m = results["url"]
    assert np.isfinite(loss)
    assert 0.0 <= m.accuracy <= 1.0


def per_batch_evaluate(params, data, model, cfg):
    """One forward and one ``focal_loss`` per ``batch_size`` slice, losses
    summed weighted by slice size: the oracle for ``client_evaluate``."""
    from fedphish.metrics import compute_metrics, confusion

    heads = model.heads()
    tensors = {k: Tensor(v) for k, v in params.items()}
    results = {}
    for kind in federation.EXPERTS:
        if kind not in data.val:
            continue
        scored = federation.EXPERTS[kind][-1]
        arrays = data.val[kind]
        labels = arrays["y"]
        losses = []
        preds = []
        for start in range(0, len(labels), cfg.batch_size):
            batch = {k: v[start : start + cfg.batch_size] for k, v in arrays.items()}
            logits = expert_logits(heads, kind, tensors, batch)[scored]
            losses.append(float(focal_loss(logits, batch["y"]).data) * len(batch["y"]))
            preds.append(np.argmax(logits.data, axis=-1))
        results[scored] = (
            sum(losses) / len(labels),
            compute_metrics(confusion(np.concatenate(preds), labels)),
        )
    return results


def desk_pages_val(kind, n, seed):
    """A validation set of ``kind`` at ``desk_pages`` dims: url 16 values a
    row, image 64, html 96 and pair 160."""
    from fedphish.data import synth_html, synth_paired
    from fedphish.preproc import PreprocConfig

    pcfg = PreprocConfig(char_len=64, word_len=16, dom_len=16, word_buckets=257, dom_buckets=61)
    if kind == "url":
        return synth_embeddings(n, dim=16, seed=seed)
    if kind == "image":
        return synth_image_tokens(n, length=4, dim=16, seed=seed)
    if kind == "html":
        return synth_html(n, seed=seed, preproc_cfg=pcfg)
    return synth_paired(n, seed=seed, image_length=4, image_dim=16, preproc_cfg=pcfg)


@pytest.mark.parametrize("batch_size", [16, 32, 7])
@pytest.mark.parametrize("kind, n", [("url", 600), ("url", 257), ("image", 300), ("html", 203),
                                     ("html", 33), ("pair", 150), ("pair", 33), ("url", 5)])
def test_evaluate_equals_per_batch_forwards_bitwise(kind, n, batch_size):
    spec = ModelSpec.desk_pages()
    params = spec.init_params(n)
    cfg = TrainConfig(rounds=1, batch_size=batch_size)
    # two draws: whether a row in a partial BLAS tile rounds differently
    # depends on its values
    for seed in (0, n):
        client = ClientData(client_id="c", train={}, val={kind: desk_pages_val(kind, n, seed)})
        got = client_evaluate(params, client, spec, cfg)
        want = per_batch_evaluate(params, client, spec, cfg)
        assert got.keys() == want.keys()
        for head, (loss, m) in got.items():
            assert type(loss) is float
            assert struct.pack("<d", loss) == struct.pack("<d", want[head][0]), (head, seed)
            assert m == want[head][1], (head, seed)


def forward_rows(monkeypatch) -> list[int]:
    """Replace ``expert_logits`` with one that scores every row 0 and record
    the row count of each forward ``client_evaluate`` runs."""
    rows = []

    def counting(heads, kind, params, batch, train=False, rng=None):
        rows.append(len(batch["y"]))
        return {federation.EXPERTS[kind][-1]: Tensor(np.zeros((len(batch["y"]), 2)))}

    monkeypatch.setattr(federation, "expert_logits", counting)
    return rows


@pytest.mark.parametrize("kind, n, batch_size, want", [
    # 16 batches of 16-value url rows fit 2**13 values, 2 of 96-value html rows
    ("url", 256, 32, [256]),
    ("url", 600, 32, [512, 64, 24]),
    ("html", 203, 32, [64, 64, 64, 11]),
    ("pair", 70, 32, [32, 32, 6]),
    # a batch size off the row tile keeps one forward per batch
    ("url", 20, 7, [7, 7, 6]),
])
def test_evaluate_forwards_hold_whole_batches_and_the_last_alone(monkeypatch, kind, n, batch_size, want):
    rows = forward_rows(monkeypatch)
    client = ClientData(client_id="c", train={}, val={kind: desk_pages_val(kind, n, seed=2)})
    client_evaluate({}, client, ModelSpec.desk(), TrainConfig(rounds=1, batch_size=batch_size))
    assert rows == want


@pytest.mark.parametrize("arrays", [
    {"x": np.zeros((100, 768))},
    {"char": np.zeros((100, 256), dtype=np.int64), "word": np.zeros((100, 32), dtype=np.int64),
     "dom": np.zeros((100, 32), dtype=np.int64)},
], ids=["url-768", "html-320"])
def test_evaluate_paper_width_rows_take_one_forward_per_batch(monkeypatch, arrays):
    rows = forward_rows(monkeypatch)
    kind = "url" if "x" in arrays else "html"
    val = dict(arrays, y=np.arange(100) % 2)
    client_evaluate({}, ClientData(client_id="c", train={}, val={kind: val}),
                    ModelSpec.desk(), TrainConfig(rounds=1, batch_size=32))
    assert rows == [32, 32, 32, 4]


# ---------------------------------------------------------------------------
# experiment loop
# ---------------------------------------------------------------------------

def test_single_client_single_round_adopts_client_params():
    spec = ModelSpec.desk()
    cfg = TrainConfig(rounds=1, epochs=2, batch_size=16, seed=12)
    client = desk_url_client(seed=13)
    init = spec.init_params(cfg.seed)
    rep = client_train(client, init, spec, cfg, _client_rng(cfg.seed, 0, 0))
    res = run_experiment(spec, cfg, [client])
    for name in init:
        if name.startswith(URL_PREFIX):
            assert np.array_equal(res.params[name], rep.params[name]), name
        else:
            assert np.array_equal(res.params[name], init[name]), name


def test_run_shuffled_client_list_same_result():
    spec = ModelSpec.desk()
    cfg = TrainConfig(rounds=2, epochs=2, batch_size=16, seed=15)
    clients = [desk_url_client(f"u{i}", seed=30 + i) for i in range(3)]
    a = run_experiment(spec, cfg, clients)
    b = run_experiment(spec, cfg, list(reversed(clients)))
    for k in a.params:
        assert np.array_equal(a.params[k], b.params[k])


def test_role_isolation_html_frozen_without_html_clients():
    spec = ModelSpec.desk()
    cfg = TrainConfig(rounds=5, epochs=2, batch_size=16, seed=16)
    url_client = desk_url_client("u0", seed=40)
    img = synth_image_tokens(16, length=4, dim=16, separation=6.0, seed=41)
    img_client = ClientData(client_id="i0", train={"image": img}, val={"image": img})
    init = spec.init_params(cfg.seed)
    seen = []
    res = run_experiment(spec, cfg, [url_client, img_client],
                         round_hook=lambda r, p, log: seen.append(
                             all(np.array_equal(p[k], init[k]) for k in p if k.startswith(HTML_PREFIX))
                         ))
    assert len(seen) == 5 and all(seen)
    assert any(not np.array_equal(res.params[k], init[k]) for k in init if k.startswith(URL_PREFIX))
    assert any(not np.array_equal(res.params[k], init[k]) for k in init if k.startswith(IMAGE_PREFIX))


def test_evaluation_only_client_is_scored_every_round_and_never_trained(monkeypatch):
    # the paper's inference case: a client that only invokes heads others trained
    spec = ModelSpec.desk()
    cfg = TrainConfig(rounds=2, epochs=1, batch_size=16, seed=19)
    viewer = ClientData(client_id="z", val={"url": synth_embeddings(32, dim=16, seed=63)})
    trained = []

    def recording_train(data, *args):
        trained.append(data.client_id)
        return client_train(data, *args)

    monkeypatch.setattr(federation, "client_train", recording_train)
    res = run_experiment(spec, cfg, [viewer, desk_url_client("a", seed=62)])
    assert trained == ["a", "a"]
    rows = [[(e.client_id, e.head) for e in r.entries] for r in res.rounds]
    assert rows == [[("a", "url"), ("z", "url")]] * 2
    with pytest.raises(ValueError, match="need at least one client with training data"):
        run_experiment(spec, cfg, [viewer])


def test_nan_client_dropped_and_other_owner_aggregates(caplog, monkeypatch):
    spec = ModelSpec.desk()
    cfg = TrainConfig(rounds=2, epochs=1, batch_size=16, seed=18)
    good = desk_url_client("a", seed=60)
    poisoned = desk_url_client("b", seed=61)
    poisoned.train["url"]["x"] = np.full_like(poisoned.train["url"]["x"], np.nan)
    owners = []  # per round: the url owners among the reports aggregated

    def recording_aggregate(params, reports):
        owners.append([r.client_id for _, r in select_clients("url", reports)])
        return aggregate(params, reports)

    monkeypatch.setattr(federation, "aggregate", recording_aggregate)
    with caplog.at_level(logging.ERROR, logger="fedphish.federation"):
        res = run_experiment(spec, cfg, [good, poisoned])
    failures = [r.getMessage() for r in caplog.records]
    assert failures == ["client b failed in round 0", "client b failed in round 1"]
    # the dropped client owns no role that round
    assert owners == [["a"], ["a"]]
    alone = run_experiment(spec, cfg, [good])
    for k in res.params:
        assert np.array_equal(res.params[k], alone.params[k]), k


def test_a_round_where_every_training_client_fails_ends_the_run(caplog):
    # a round with no report to aggregate ends the run and names the round,
    # and an evaluation-only client does not save it. The data turns NaN
    # after round 0, so round 0 trains and round 1 fails
    spec = ModelSpec.desk()
    cfg = TrainConfig(rounds=3, epochs=1, batch_size=16, seed=18)
    trainers = [desk_url_client("a", seed=60), desk_url_client("b", seed=61)]
    viewer = ClientData(client_id="z", val={"url": synth_embeddings(32, dim=16, seed=63)})
    hooked = []

    def poison(round_index, params, log):
        hooked.append(round_index)
        for client in trainers:
            client.train["url"]["x"][:] = np.nan

    with caplog.at_level(logging.ERROR, logger="fedphish.federation"):
        with pytest.raises(RuntimeError, match=r"^round 1: every training client failed$"):
            run_experiment(spec, cfg, [*trainers, viewer], round_hook=poison)
    assert hooked == [0]
    failures = [r.getMessage() for r in caplog.records]
    assert failures == ["client a failed in round 1", "client b failed in round 1"]


def test_programming_error_in_training_propagates(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("bug in our own code")

    monkeypatch.setattr(federation, "client_train", broken)
    with pytest.raises(TypeError, match="bug in our own code"):
        run_experiment(ModelSpec.desk(), TrainConfig(rounds=1), [desk_url_client()])


def test_duplicate_client_ids_rejected():
    spec = ModelSpec.desk()
    with pytest.raises(ValueError):
        run_experiment(spec, TrainConfig(rounds=1), [desk_url_client("a"), desk_url_client("a")])


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    spec = ModelSpec.desk()
    params = spec.init_params(18)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, run_id="trial", round_index=7, cfg_hash="0123456789abcdef")
    manifest, loaded = load_checkpoint(path)
    assert manifest["run_id"] == "trial"
    assert manifest["round"] == 7
    assert set(loaded) == set(params)
    for k in params:
        assert np.array_equal(loaded[k], params[k])


def test_checkpoint_bytes_match_the_record_format(tmp_path):
    # 0-d, negative zero, a transposed view and an empty array, against the
    # format written out by hand: magic, manifest, then per sorted name
    # (name length, name, ndim, shape, little-endian float64 values)
    params = {"z": np.asarray(-0.0), "t": np.arange(6.0).reshape(2, 3).T,
              "e": np.zeros((0, 4)), "v": np.array([1.5, -0.0, np.inf])}
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, run_id="r", round_index=3, cfg_hash="0123456789abcdef")
    manifest = json.dumps({"run_id": "r", "round": 3, "config_hash": "0123456789abcdef",
                           "n_params": 4}, sort_keys=True).encode()
    expected = b"FPCK" + struct.pack("<I", len(manifest)) + manifest
    for name in sorted(params):
        arr = params[name]
        expected += struct.pack("<H", len(name)) + name.encode() + struct.pack("<B", arr.ndim)
        expected += struct.pack(f"<{arr.ndim}I", *arr.shape) + arr.astype("<f8").tobytes()
    assert path.read_bytes() == expected
    _, loaded = load_checkpoint(path)
    for name, arr in params.items():
        assert loaded[name].shape == arr.shape
        assert loaded[name].dtype == np.float64
        assert loaded[name].tobytes() == np.ascontiguousarray(arr).tobytes()


def test_checkpoint_record_longer_than_file_is_truncated(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"a": np.zeros(2)}, run_id="r", round_index=0,
                    cfg_hash="0123456789abcdef")
    whole = bytearray(path.read_bytes())
    # the record's one dimension, just before its 16 value bytes: claim 2**32 - 1
    whole[-20:-16] = struct.pack("<I", 2**32 - 1)
    path.write_bytes(bytes(whole))
    with pytest.raises(ValueError, match=f"truncated at byte {len(whole)}"):
        load_checkpoint(path)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(ValueError):
        load_checkpoint(path)


@pytest.mark.parametrize("shape", [(1,) * 100, (0, 2**32 - 1, 2**32 - 1)],
                         ids=["too-many-dims", "too-many-elements"])
def test_checkpoint_shape_numpy_cannot_hold_is_named(tmp_path, shape):
    # each record is no longer than the file, but numpy allocates no array of its shape
    path = tmp_path / "bad.ckpt"
    manifest = manifest_with(n_params=1)
    record = struct.pack(f"<H1sB{len(shape)}I", 1, b"a", len(shape), *shape)
    path.write_bytes(b"FPCK" + struct.pack("<I", len(manifest)) + manifest + record
                     + bytes(8 * int(np.prod(shape))))
    with pytest.raises(ValueError, match="bad.ckpt: checkpoint record of shape"):
        load_checkpoint(path)


def test_benchmark_names_are_the_runfiles_functions():
    # perfbench calls and wraps the file functions by these module attributes
    assert federation.save_checkpoint is runfiles.save_checkpoint
    assert federation.load_checkpoint is runfiles.load_checkpoint
    assert metrics.write_round_csv is runfiles.write_round_csv
    assert metrics.read_round_csv is runfiles.read_round_csv


GOOD_MANIFEST = {"run_id": "r", "round": 0, "config_hash": "0123456789abcdef", "n_params": 0}


def manifest_with(**over):
    fields = {k: v for k, v in {**GOOD_MANIFEST, **over}.items() if v is not None}
    return json.dumps(fields).encode()


@pytest.mark.parametrize("manifest", [
    b"{}", b"[1]", manifest_with(n_params=None), manifest_with(n_params="x"),
    manifest_with(n_params=-1), manifest_with(n_params=True), manifest_with(n_params=1.0),
    b"\xff\xfe", b"{n_params", manifest_with(run_id=None), manifest_with(run_id=3),
    manifest_with(round=None), manifest_with(round=-1), manifest_with(round="0"),
    manifest_with(round=False), manifest_with(config_hash=None), manifest_with(config_hash=7),
], ids=["empty", "list", "no-n_params", "n_params-str", "n_params-negative", "n_params-bool",
        "n_params-float", "not-utf8", "not-json", "no-run_id", "run_id-int", "no-round",
        "round-negative", "round-str", "round-bool", "no-config_hash", "config_hash-int"])
def test_checkpoint_malformed_manifest_is_named(tmp_path, manifest):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"FPCK" + struct.pack("<I", len(manifest)) + manifest)
    with pytest.raises(ValueError, match="bad.ckpt: checkpoint manifest"):
        load_checkpoint(path)


def test_checkpoint_well_formed_manifest_loads(tmp_path):
    path = tmp_path / "empty.ckpt"
    manifest = manifest_with()
    path.write_bytes(b"FPCK" + struct.pack("<I", len(manifest)) + manifest)
    assert load_checkpoint(path) == (GOOD_MANIFEST, {})


def test_checkpoint_repeated_name_is_named(tmp_path):
    path = tmp_path / "twice.ckpt"
    save_checkpoint(path, {"a": np.array([1.0])}, run_id="r", round_index=0,
                    cfg_hash="0123456789abcdef")
    whole = path.read_bytes()
    (mlen,) = struct.unpack("<I", whole[4:8])
    record = whole[8 + mlen:]
    manifest = manifest_with(n_params=2)
    second = record.replace(np.array([1.0]).tobytes(), np.array([2.0]).tobytes())
    path.write_bytes(b"FPCK" + struct.pack("<I", len(manifest)) + manifest + record + second)
    with pytest.raises(ValueError, match="twice.ckpt: checkpoint holds two records named 'a'"):
        load_checkpoint(path)


def test_checkpoint_name_not_utf8_is_named(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"a": np.zeros(2)}, run_id="r", round_index=0,
                    cfg_hash="0123456789abcdef")
    whole = path.read_bytes()
    at = whole.index(b"\x01\x00a\x01")
    path.write_bytes(whole[:at + 2] + b"\xff" + whole[at + 3:])
    with pytest.raises(ValueError, match="model.ckpt: checkpoint parameter name is not UTF-8"):
        load_checkpoint(path)


def test_checkpoint_truncated_at_any_offset_is_named(tmp_path):
    params = ModelSpec.desk().init_params(19)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, run_id="trial", round_index=0, cfg_hash="0123456789abcdef")
    whole = path.read_bytes()
    cut = tmp_path / "cut.ckpt"
    # inside the magic, the manifest length, the manifest, a record and the last value
    for offset in (2, 6, 20, len(whole) // 2, len(whole) - 1):
        cut.write_bytes(whole[:offset])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(cut)


def test_checkpoint_trailing_bytes_are_named(tmp_path):
    params = ModelSpec.desk().init_params(19)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, run_id="trial", round_index=0, cfg_hash="0123456789abcdef")
    path.write_bytes(path.read_bytes() + b"garbage")
    with pytest.raises(ValueError, match="7 trailing bytes after the last record"):
        load_checkpoint(path)


def test_failed_save_keeps_existing_checkpoint(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"a": np.arange(3.0)}, run_id="old", round_index=0,
                    cfg_hash="0123456789abcdef")
    before = path.read_bytes()
    with pytest.raises(ValueError):
        # "b" cannot be written as float64 after "a" already was
        save_checkpoint(path, {"a": np.zeros(3), "b": "not a number"}, run_id="new",
                        round_index=1, cfg_hash="0123456789abcdef")
    assert path.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["model.ckpt"]
