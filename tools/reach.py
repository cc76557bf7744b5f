"""Report the source lines of pseudomode that no run reaches.

    python3 tools/reach.py [--tests]

It reports on the checkout it lives in: that checkout's src/ goes first on
sys.path, and it exits 2 if pseudomode would still come from anywhere else
(a copy imported earlier in the process), since a trace of one copy's code
would report every line of the other as unreached.  It traces with
sys.settrace, in this process and in a temporary directory: every invocation
that perfbench/workloads.generate makes at seeds 0 and 7, run through
pseudomode.cli.main, and both demos, run from a temporary copy.  With
--tests it then runs the tier-1 suite (pytest, in this process, hypothesis
seeded at 0, so two runs on one tree print the same report) under the same
tracer.  It prints, per module of src/pseudomode, each executable line
(from the code objects' co_lines) that the workloads and demos did not
reach, tagged `tests-only` when the suite reached it and `unreached`
otherwise, and on stderr one line per module with its count of each tag,
then the total.  Subprocesses are not traced, so the CLI tests that start
python and the demo smoke tests count for nothing.  Nothing is written into the
repository: bytecode caching is off and every run's files go to the
temporary directory.  BLAS is held to one thread, as in the benchmark.
"""

import contextlib
import importlib.util
import io
import json
import os
import runpy
import shutil
import sys
import tempfile
import types
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 7)


def executable_lines(path):
    """Line numbers that carry bytecode in the file's code objects."""
    stack = [compile(Path(path).read_text(), str(path), "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def traced(files, run):
    """Call run() and return the set of (file, line) it reached in files."""
    files = {str(f) for f in files}
    hits = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        code = frame.f_code
        if code.co_filename not in files:
            return None
        # the def line carries bytecode but gets no line event of its own
        hits.add((code.co_filename, code.co_firstlineno))
        return local

    old = sys.gettrace()
    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(old)
    return hits


def report(files, program, tests=frozenset()):
    """Lines 'path:line tag source' for every executable line program missed."""
    out = []
    for path in files:
        path = str(path)
        text = Path(path).read_text().splitlines()
        missed = sorted(n for n in executable_lines(path)
                        if (path, n) not in program)
        for n in missed:
            tag = "tests-only" if (path, n) in tests else "unreached"
            out.append(f"{os.path.relpath(path, ROOT)}:{n} {tag:10s} "
                       f"{text[n - 1].strip()}")
    return out


def run_programs(work):
    """Every workload invocation at SEEDS through cli.main, then both demos."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS, generate

    from pseudomode import cli

    for name in WORKLOADS:
        for seed in SEEDS:
            where = Path(work) / f"{name}_{seed}"
            where.mkdir()
            for inv in generate(name, seed)[0]:
                cfg = where / f"{inv['prefix']}.config.json"
                cfg.write_text(json.dumps(inv["config"]))
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main([inv["cmd"], "--config", str(cfg),
                                     "--out", str(where)])
                if code != 0:
                    print(f"{name}_{seed} {inv['prefix']}: exit {code}",
                          file=sys.stderr)
    for demo in sorted((ROOT / "demos").glob("*.py")):
        script = Path(work) / demo.name
        shutil.copy(demo, script)
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(script), run_name="__main__")


def package_dir():
    """Directory pseudomode is (or will be) imported from, ROOT/src first on
    sys.path; finding it does not import it, so the trace sees its import."""
    sys.path.insert(0, str(ROOT / "src"))
    loaded = sys.modules.get("pseudomode")
    origin = (loaded.__file__ if loaded
              else importlib.util.find_spec("pseudomode").origin)
    return Path(origin).resolve().parent


def main(argv):
    if argv not in ([], ["--tests"]):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    where = package_dir()
    if where != ROOT / "src" / "pseudomode":
        print(f"pseudomode is imported from {where}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.dont_write_bytecode = True
    files = sorted((ROOT / "src" / "pseudomode").glob("*.py"))
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)   # pytest's and hypothesis' files land here too
        try:
            program = traced(files, lambda: run_programs(work))
            tests = frozenset()
            if argv:
                import pytest

                with contextlib.redirect_stdout(sys.stderr):
                    tests = traced(files, lambda: pytest.main(
                        ["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0",
                         str(ROOT / "tests")]))
        finally:
            os.chdir(here)
    lines = report(files, program, tests)
    print("\n".join(lines))
    counts = {os.path.relpath(path, ROOT): Counter() for path in files}
    for line in lines:
        where, tag = line.split()[:2]
        counts[where.rsplit(":", 1)[0]][tag] += 1
    for path, tags in counts.items():
        print(f"{path}: {tags['tests-only']} tests-only, "
              f"{tags['unreached']} unreached", file=sys.stderr)
    print(f"{len(lines)} executable lines not reached by the workloads or "
          f"demos", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
