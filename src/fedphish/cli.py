"""Command line entry point.

Subcommands: ``run`` (execute an experiment config, clients one after
another), ``synth`` (write synthetic JSONL datasets), ``gradcheck``
(finite-difference sweep over all four heads at desk dims). Exit codes:
0 success; 1 the run's config or data was rejected while it was parsed or
its clients were built, before any output was written; 2 any other
failure, including one inside the experiment.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import logging
import sys
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

from .rules import RULES

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2

log = logging.getLogger("fedphish")


def cmd_run(args) -> int:
    from .config import build_clients, config_hash, parse_config
    from .federation import run_experiment
    from .runfiles import save_checkpoint, write_round_csv

    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, train=replace(cfg.train, seed=args.seed))
        clients = build_clients(cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    out = Path(args.out if args.out is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    log.info("running %s: %d clients, %d rounds", cfg.name, len(clients), cfg.train.rounds)
    result = run_experiment(cfg.model, cfg.train, clients)

    csv_path = out / "rounds.csv"
    write_round_csv(result.rounds, csv_path)
    ckpt_path = out / "final.ckpt"
    save_checkpoint(
        ckpt_path, result.params, run_id=cfg.name,
        round_index=cfg.train.rounds - 1, cfg_hash=config_hash(cfg),
    )
    last = result.rounds[-1]
    for e in last.entries:
        print(f"{cfg.name} round {last.round_index} {e.client_id}/{e.head}: "
              f"acc={e.metrics.accuracy:.4f} fpr={e.metrics.fpr:.4f}")
    print(f"wrote {csv_path} and {ckpt_path}")
    return EXIT_OK


def cmd_synth(args) -> int:
    from .data import synth_embeddings, synth_pages
    from .runfiles import atomic_write

    if args.kind == "embeddings":
        data = synth_embeddings(args.n, dim=args.dim, separation=args.separation, seed=args.seed)
        rows = ({"label": int(y), "embedding": x.tolist()} for x, y in zip(data["x"], data["y"]))
    else:
        labels, pages = synth_pages(args.n, seed=args.seed)
        rows = ({"label": int(y), "html": html} for y, html in zip(labels, pages))
    # a write that fails leaves the old file, never a shorter dataset
    with atomic_write(args.out, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    print(f"wrote {args.n} {args.kind} samples to {args.out}")
    return EXIT_OK


def gradcheck_suite(seeds: int) -> dict[str, float]:
    """Max relative finite-difference error per head at desk dims.

    The checked function is ``federation.batch_loss``, the data loss that
    ``client_train`` backpropagates, on one image, html, url and pair batch
    (the pair's loss reaches both branches and the fusion head). Each seed
    sweeps every parameter tensor the loss reaches at its 24 largest-gradient
    coordinates (10 for the fusion loss); small tensors are swept in full.
    Completeness of each primitive's backward is covered exhaustively by the
    unit suite, so the head-level sweep focuses on the coordinates that
    carry numerically meaningful gradient mass.
    """
    from .federation import batch_loss
    from .heads import ModelSpec
    from .numerics import Tensor, backward, finite_difference_check, zero_grads

    spec = ModelSpec.desk()
    worst: dict[str, float] = {}

    for seed in range(seeds):
        # check at a generic point: N(0, 0.1) jitter keeps every live
        # gradient well above the finite-difference noise floor (the tiny
        # embedding init otherwise leaves recurrent-weight gradients ~1e-8,
        # where the relative-error formula amplifies rounding noise)
        jitter = np.random.default_rng(5000 + seed)
        params = {k: Tensor(v + jitter.normal(scale=0.1, size=v.shape), requires_grad=True)
                  for k, v in spec.init_params(seed).items()}
        heads = spec.heads()
        rng = np.random.default_rng(1000 + seed)
        page = {"x": rng.normal(size=(2, 4, spec.image.d_model)),
                "char": rng.integers(0, spec.html.char_vocab, size=(2, 32)),
                "word": rng.integers(0, spec.html.word_vocab, size=(2, 8)),
                "dom": rng.integers(0, spec.html.dom_vocab, size=(2, 8))}
        url = {"x": rng.normal(size=(2, spec.url.in_dim))}
        page["y"] = url["y"] = rng.integers(0, 2, size=2)

        # (head, batch kind, batch, coordinates per tensor). The fusion loss
        # reaches every branch parameter; it samples those more sparsely, the
        # per-head checks already cover them densely.
        checks = (("image", "image", page, 24), ("html", "html", page, 24),
                  ("url", "url", url, 24), ("fusion", "pair", page, 10))
        for offset, (name, kind, batch, limit) in enumerate(checks, start=1):
            def loss_fn(kind=kind, batch=batch, offset=offset):
                # dropout reseeded per call: every evaluation sees one function
                drop = np.random.default_rng(seed + offset)
                return batch_loss(heads, kind, params, batch, drop)

            zero_grads(params)
            backward(loss_fn())
            reached = {k: p for k, p in params.items() if p.grad is not None}
            err = finite_difference_check(loss_fn, reached, coord_limit=limit)
            worst[name] = max(worst.get(name, 0.0), err)
    return worst


def cmd_gradcheck(args) -> int:
    worst = gradcheck_suite(args.seeds)
    failed = False
    for head in sorted(worst):
        status = "ok" if worst[head] < 1e-4 else "FAIL"
        print(f"{head}: max relative error {worst[head]:.3e} [{status}]")
        failed |= worst[head] >= 1e-4
    return EXIT_RUNTIME if failed else EXIT_OK


def _ruled(rule: str):
    """An argparse type: a number that passes ``rule``, else a usage error
    naming the rule. ``--seeds`` below 1 would check nothing, ``synth --n``
    below 2 cannot hold both classes, and a NaN ``--separation`` would write
    embeddings that ``load_jsonl`` rejects."""
    parse = int if rule.startswith("an integer") else float

    def typed(raw: str):
        with contextlib.suppress(ValueError):
            if RULES[rule](value := parse(raw)):
                return value
        raise argparse.ArgumentTypeError(f"must be {rule}, got {raw}")
    return typed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedphish",
        description="Role-aware federated learning simulator for multi-modal "
                    "phishing webpage detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("--config", required=True,
                       help="path to a JSON experiment config; its default model_profile, "
                            "paper, computes in float32, and desk_pages in float64")
    p_run.add_argument("--out", default=None, help="output directory (overrides config)")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.set_defaults(fn=cmd_run)

    p_syn = sub.add_parser("synth", help="write a synthetic dataset")
    p_syn.add_argument("kind", choices=("embeddings", "html"))
    p_syn.add_argument("--n", type=_ruled("an integer >= 2"), required=True)
    p_syn.add_argument("--seed", type=_ruled("an integer >= 0"), default=0)
    p_syn.add_argument("--out", required=True)
    p_syn.add_argument("--dim", type=_ruled("an integer >= 1"), default=768)
    p_syn.add_argument("--separation", type=_ruled("a finite number >= 0"), default=4.0)
    p_syn.set_defaults(fn=cmd_synth)

    p_gc = sub.add_parser("gradcheck", help="finite-difference check of all four heads")
    p_gc.add_argument("--seeds", type=_ruled("an integer >= 1"), default=1)
    p_gc.set_defaults(fn=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    # stdout escapes what the locale's encoding cannot hold, as stderr does,
    # so a non-ASCII config name cannot fail a run that has written its files
    if isinstance(sys.stdout, io.TextIOWrapper):
        sys.stdout.reconfigure(errors="backslashreplace")
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        traceback.print_exc()
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
