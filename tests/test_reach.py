"""tools/reach.py: executable lines, the tracer and the tags of its report."""

import importlib.util
import os
import subprocess
import sys
import types
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "reach.py"


def load_reach():
    spec = importlib.util.spec_from_file_location("reach", _TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_reach_tags_each_missed_line(tmp_path):
    reach = load_reach()
    src = tmp_path / "probe.py"
    src.write_text("def f(x):\n"          # 1
                   "    if x > 0:\n"      # 2
                   "        return 1\n"   # 3
                   "    return -1\n"      # 4
                   "\n"
                   "\n"
                   "def g():\n"           # 7
                   "    return 0\n")      # 8
    assert reach.executable_lines(src) == {1, 2, 3, 4, 7, 8}
    ns = {}
    code = compile(src.read_text(), str(src), "exec")
    program = reach.traced([src], lambda: (exec(code, ns), ns["f"](1)))
    tests = reach.traced([src], lambda: ns["f"](-1))
    rows = [line.split(maxsplit=2) for line in reach.report([src], program, tests)]
    assert [(where.rsplit(":", 1)[1], tag, text) for where, tag, text in rows] == [
        ("4", "tests-only", "return -1"), ("8", "unreached", "return 0")]
    # a file nobody ran is reported whole, and the usage is checked
    assert len(reach.report([src], set())) == 6
    assert reach.main(["--bogus"]) == 2


def test_reach_imports_the_checkout_it_reports_on(tmp_path, monkeypatch, capsys):
    reach = load_reach()
    own = _TOOL.parents[1] / "src" / "pseudomode" / "__init__.py"
    # a fresh interpreter without PYTHONPATH finds this checkout's package
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    probe = ("import importlib.util as iu\n"
             f"spec = iu.spec_from_file_location('reach', {str(_TOOL)!r})\n"
             "mod = iu.module_from_spec(spec)\n"
             "spec.loader.exec_module(mod)\n"
             "print(mod.package_dir())\n")
    proc = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert Path(proc.stdout.strip()) == own.parent
    # another copy already imported: refused before anything is traced
    monkeypatch.setattr(sys, "path", list(sys.path))
    other = types.ModuleType("pseudomode")
    other.__file__ = str(tmp_path / "pseudomode" / "__init__.py")
    monkeypatch.setitem(sys.modules, "pseudomode", other)
    assert reach.main([]) == 2
    assert str(tmp_path) in capsys.readouterr().err
