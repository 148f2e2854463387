"""The benchmark's tracing wraps fedphish names from outside the package.

A wrapped name that a refactor deletes makes the benchmark print its metric
as MISSING instead of failing, so this test fails on it first.
"""

import importlib.util
from pathlib import Path

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_resolves_a_target():
    tracing = load_tracing()
    found: dict[str, int] = {}
    for name, module, attr in tracing.TARGETS:
        found[name] = found.get(name, 0) + (tracing._resolve(module, attr) is not None)
    assert found
    assert sorted(name for name, n in found.items() if n == 0) == []
