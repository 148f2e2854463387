"""The files of a run directory, written and read back. Each is written after
the last round through ``atomic_write``, so a path holds its old file or the
whole new one; a failed write raises ``OSError`` naming the target, with its
errno, and a file that is not what it claims raises ``ValueError`` naming it.

- ``rounds.csv``: the ``COLUMNS`` header, then one row per evaluated (round,
  client, head) in sorted order, floats at six decimals.
- ``final.ckpt``, little-endian: ``CHECKPOINT_MAGIC``, the manifest's length
  (u32), the manifest (UTF-8 JSON, sorted keys, ``_MANIFEST_FIELDS``), then
  per parameter in sorted name order: the name's length (u16), the UTF-8
  name, ndim (u8), each dimension (u32) and the float64 values in C order.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .rules import check

__all__ = ["COLUMNS", "CHECKPOINT_MAGIC", "atomic_write", "write_round_csv", "read_round_csv",
           "save_checkpoint", "load_checkpoint"]

COLUMNS = {"round": int, "client_id": str, "head": str, "loss": float,
           "accuracy": float, "precision": float, "recall": float, "fpr": float}

CHECKPOINT_MAGIC = b"FPCK"


@contextlib.contextmanager
def atomic_write(path, mode: str, **open_kwargs):
    """``open`` of a temporary file next to ``path``, renamed over it when the
    block ends; a block that raises leaves ``path`` as it was and no temporary file."""
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        # gone after the rename; left by a write that raised
        tmp.unlink(missing_ok=True)


def write_round_csv(logs, path) -> None:
    """Write the ``RoundLog`` list ``logs`` as a round log."""
    rows = sorted(((log.round_index, e.client_id, e.head, e.loss, e.metrics.accuracy, e.metrics.precision,
                    e.metrics.recall, e.metrics.fpr) for log in logs for e in log.entries),
                  key=lambda row: row[:3])
    with atomic_write(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(COLUMNS)
        writer.writerows([f"{v:.6f}" if kind is float else v for v, kind in zip(row, COLUMNS.values())]
                         for row in rows)


def read_round_csv(path) -> list[dict]:
    """The rows of a round log as dicts of ``COLUMNS`` types. A file that is
    not a round log, or a row that does not convert, raises ``ValueError``
    naming ``path``, and a row its line."""
    out = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            lines = csv.reader(fh)
            if next(lines, None) != list(COLUMNS):
                raise ValueError(f"{path}: not a round log, the header is not {','.join(COLUMNS)}")
            for row in filter(None, lines):
                try:
                    if len(row) != len(COLUMNS):
                        raise ValueError(f"{len(row)} cells, expected {len(COLUMNS)}")
                    out.append({name: kind(cell) for (name, kind), cell in zip(COLUMNS.items(), row)})
                except ValueError as exc:
                    raise ValueError(f"{path}: line {lines.line_num}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:  # binary, or a cell over csv's size limit
        raise ValueError(f"{path}: not a round log ({exc})") from exc
    return out


def save_checkpoint(path, params: dict[str, np.ndarray], run_id: str,
                    round_index: int, cfg_hash: str) -> None:
    """Write ``params`` and their manifest as a checkpoint."""
    manifest = json.dumps({"run_id": run_id, "round": round_index, "config_hash": cfg_hash,
                           "n_params": len(params)}, sort_keys=True).encode()
    with atomic_write(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC + struct.pack("<I", len(manifest)) + manifest)
        for name in sorted(params):
            # asarray, not ascontiguousarray: the latter promotes 0-d to 1-d
            arr = np.asarray(params[name], dtype="<f8")
            raw = name.encode()
            fh.write(struct.pack(f"<H{len(raw)}sB{arr.ndim}I", len(raw), raw, arr.ndim, *arr.shape))
            fh.write(_raw_bytes(arr))


def _raw_bytes(arr: np.ndarray) -> memoryview:
    """The bytes of ``arr`` in C order; no copy when it is C-contiguous."""
    return memoryview(arr.reshape(-1).view(np.uint8))


def _truncated(fh, path) -> ValueError:
    return ValueError(f"{path}: checkpoint truncated at byte {fh.tell()}")


def _read_exact(fh, n: int, path) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise _truncated(fh, path)
    return data


def _read_array(fh, shape: tuple[int, ...], path) -> np.ndarray:
    """The next ``shape`` little-endian float64 values, read straight into
    a new array. A record longer than the rest of the file is truncated
    before anything is allocated for it."""
    if 8 * math.prod(shape) > os.fstat(fh.fileno()).st_size - fh.tell():
        fh.seek(0, os.SEEK_END)
        raise _truncated(fh, path)
    try:
        arr = np.empty(shape, dtype="<f8")
    except ValueError as exc:  # too many dimensions, or too many elements to index
        raise ValueError(f"{path}: checkpoint record of shape {shape} cannot be allocated ({exc})") from exc
    if fh.readinto(_raw_bytes(arr)) != arr.nbytes:
        raise _truncated(fh, path)
    return arr.astype(np.float64, copy=False)


def _decode(raw: bytes, path, what: str) -> str:
    try:
        return raw.decode()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: checkpoint {what} is not UTF-8 ({exc})") from exc


_MANIFEST_FIELDS = {"run_id": "a string", "round": "an integer >= 0",
                    "config_hash": "a string", "n_params": "an integer >= 0"}


def _read_manifest(fh, path) -> dict:
    """The manifest: a JSON object whose ``_MANIFEST_FIELDS`` pass their rules."""
    (mlen,) = struct.unpack("<I", _read_exact(fh, 4, path))
    try:
        manifest = json.loads(_decode(_read_exact(fh, mlen, path), path, "manifest"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: checkpoint manifest is not JSON ({exc})") from exc
    check(f"{path}: checkpoint manifest", manifest, "an object")
    for key, rule in _MANIFEST_FIELDS.items():
        check(f"{path}: checkpoint manifest {key}", manifest.get(key), rule)
    return manifest


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """The manifest and the parameters of a checkpoint file. A file that is
    not a well-formed checkpoint, one with two records of one name included,
    raises ``ValueError`` naming ``path``."""
    with open(path, "rb") as fh:
        if _read_exact(fh, 4, path) != CHECKPOINT_MAGIC:
            raise ValueError(f"{path} is not a checkpoint file")
        manifest = _read_manifest(fh, path)
        params: dict[str, np.ndarray] = {}
        for _ in range(manifest["n_params"]):
            (nlen,) = struct.unpack("<H", _read_exact(fh, 2, path))
            name = _decode(_read_exact(fh, nlen, path), path, "parameter name")
            if name in params:
                raise ValueError(f"{path}: checkpoint holds two records named {name!r}")
            (ndim,) = struct.unpack("<B", _read_exact(fh, 1, path))
            shape = struct.unpack(f"<{ndim}I", _read_exact(fh, 4 * ndim, path))
            params[name] = _read_array(fh, shape, path)
        if trailing := len(fh.read()):
            raise ValueError(f"{path}: {trailing} trailing bytes after the last record")
    return manifest, params
