"""Lines of ``src/fedphish`` that the program never runs.

Runs the program set in one process under a ``sys.settrace`` line tracer
(``coverage`` is not a dependency), then prints each executable line of
``src/fedphish`` that no run reached, as ``path:line: source``, and a total.
The program set is:

- every bundled config through ``fedphish run`` at 2 rounds, with its
  ``rounds.csv`` and ``final.ckpt`` read back;
- ``fedphish synth`` of both kinds;
- a run over path datasets, the url and html files that ``synth`` wrote;
- a run of the ``paper`` profile, the one that computes in float32: an
  html, an image and a url client, 1 round of one batch each;
- ``fedphish gradcheck --seeds 1``.

Every output goes to a temporary directory that is removed afterwards. A
line is executable when a code object compiled from its file has bytecode
on it; a function's ``def`` line counts as reached once the function is
defined. Run from the repository root:

    python tools/reach.py
"""

from __future__ import annotations

import contextlib
import io
import json
import logging
import runpy
import sys
import tempfile
import types
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "fedphish"


def executable_lines(path: Path) -> set[int]:
    """The lines of ``path`` that carry bytecode, over every code object
    compiled from it."""
    lines: set[int] = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: a module's start
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


class LineTracer:
    """Records each (file, line) run in a file under ``root``; frames of
    other files get no line events."""

    def __init__(self, root: Path):
        self.prefix = str(root) + "/"
        self.hits: dict[str, set[int]] = {}
        self._wanted: dict[str, bool] = {}

    def _local(self, frame, event, arg):
        if event == "line":
            self.hits[frame.f_code.co_filename].add(frame.f_lineno)
        return self._local

    def _global(self, frame, event, arg):
        name = frame.f_code.co_filename
        wanted = self._wanted.get(name)
        if wanted is None:
            wanted = self._wanted[name] = name.startswith(self.prefix)
            if wanted:
                self.hits.setdefault(name, set())
        return self._local if wanted else None

    @contextlib.contextmanager
    def tracing(self):
        sys.settrace(self._global)
        try:
            yield self
        finally:
            sys.settrace(None)


def run_cli(*argv: str) -> None:
    """``python -m fedphish.cli`` with ``argv``, its output kept unless it
    fails."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")  # a console's type
    sys.argv = ["fedphish", *argv]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            runpy.run_module("fedphish.cli", run_name="__main__")
        except SystemExit as exc:
            code = exc.code
    if code != 0:
        out.flush()
        sys.exit(f"fedphish {' '.join(argv)} exited {code}:\n{out.buffer.getvalue().decode()}")


def run_config(raw: dict, work: Path, rounds: int = 2) -> None:
    """Run a config at ``rounds`` rounds and read its round CSV and
    checkpoint back."""
    from fedphish.runfiles import load_checkpoint, read_round_csv

    name = raw["name"]
    config = work / f"{name}.json"
    config.write_text(json.dumps({**raw, "rounds": rounds}), encoding="utf-8")
    out = work / name
    run_cli("run", "--config", str(config), "--out", str(out))
    read_round_csv(out / "rounds.csv")
    load_checkpoint(out / "final.ckpt")


def path_config(work: Path) -> dict:
    """A config whose url and html clients read ``synth`` output files."""
    run_cli("synth", "embeddings", "--n", "48", "--dim", "16", "--seed", "1",
            "--out", str(work / "urls.jsonl"))
    run_cli("synth", "html", "--n", "48", "--seed", "2", "--out", str(work / "pages.jsonl"))

    def client(cid, modality, path):
        return {"id": cid, "datasets": [{"modality": modality, "path": str(work / path),
                                         "train_range": [0, 32], "test_range": [32, 48]}]}

    return {"name": "path_datasets", "seed": 7, "rounds": 2, "epochs": 1, "batch_size": 16,
            "model_profile": "desk_pages",
            "preproc": {"char_len": 64, "word_len": 16, "dom_len": 16,
                        "word_buckets": 257, "dom_buckets": 61},
            "clients": [client("url_a", "url", "urls.jsonl"),
                        client("html_a", "html", "pages.jsonl")]}


def paper_config() -> dict:
    """The paper profile at its default widths and tables, with short html
    streams: one client per modality, each one batch of 16."""
    def client(modality: str, kind: str) -> dict:
        return {"id": f"{modality}_only", "datasets": [{"modality": modality, "synth": {
            "kind": kind, "train_n": 16, "test_n": 16, "seed": 3}}]}

    return {"name": "paper_float32", "seed": 5, "epochs": 1, "batch_size": 16, "lr": 0.0001,
            "model_profile": "paper", "preproc": {"char_len": 256, "word_len": 32, "dom_len": 32},
            "clients": [client("html", "html"), client("image", "image_tokens"),
                        client("url", "embeddings")]}


def run_program(work: Path) -> None:
    from fedphish.config import bundled_config_names, bundled_config_path

    for name in bundled_config_names():
        raw = json.loads(bundled_config_path(name).read_text(encoding="utf-8"))
        run_config({**raw, "name": name}, work)
    run_config(path_config(work), work)
    run_config(paper_config(), work, rounds=1)
    run_cli("gradcheck", "--seeds", "1")


def main() -> int:
    sys.path.insert(0, str(SRC))
    # the runs' log lines would only repeat what their exit codes say
    logging.basicConfig(handlers=[logging.NullHandler()])
    tracer = LineTracer(PACKAGE)
    with tempfile.TemporaryDirectory() as work, tracer.tracing():
        run_program(Path(work))

    total = unreached = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = executable_lines(path)
        missed = sorted(lines - tracer.hits.get(str(path), set()))
        total += len(lines)
        unreached += len(missed)
        source = path.read_text(encoding="utf-8").splitlines()
        for line in missed:
            print(f"{path.relative_to(SRC.parent)}:{line}: {source[line - 1].strip()}")
    print(f"unreached: {unreached} of {total} executable lines in {PACKAGE.relative_to(SRC.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
