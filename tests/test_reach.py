"""tools/reach.py: the line tracer that counts what the program never runs."""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "reach.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("reach", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_reports_the_branch_a_run_skips(tmp_path, monkeypatch):
    reach = load_tool()
    source = tmp_path / "pkg" / "branchy.py"
    source.parent.mkdir()
    source.write_text(
        '"""A module."""\n'            # 1
        "\n"                           # 2
        "\n"                           # 3
        "def sign(x):\n"               # 4
        '    """Docstring."""\n'       # 5
        "    if x < 0:\n"              # 6
        "        return -1\n"          # 7
        "    return 1\n"               # 8
        "\n"                           # 9
        "\n"                           # 10
        "def unused():\n"              # 11
        "    return 0\n",              # 12
        encoding="utf-8",
    )
    assert reach.executable_lines(source) == {1, 4, 6, 7, 8, 11, 12}
    monkeypatch.syspath_prepend(str(source.parent))
    tracer = reach.LineTracer(source.parent)
    with tracer.tracing():
        import branchy

        branchy.sign(3)
    sys.modules.pop("branchy")
    assert reach.executable_lines(source) - tracer.hits[str(source)] == {7, 12}
