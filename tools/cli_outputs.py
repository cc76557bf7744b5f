"""Dump the CLI outputs of every benchmark workload, for a byte-level diff.

    PYTHONPATH=src python3 tools/cli_outputs.py OUT_DIR

Runs each workload's invocations from perfbench/workloads.generate at seeds
0 and 7 through pseudomode.cli.main, one after another in this process, and
leaves in OUT_DIR/<workload>_<seed>/ the files they write and, per
invocation, its config (<prefix>.config.json), stdout (<prefix>.stdout) and
stderr (<prefix>.stderr).  pseudomode comes from PYTHONPATH, and every path
the CLI sees is relative to the invocation's directory, so the trees that one
copy of this script makes from two checkouts compare with diff -r.  BLAS is
held to one thread, as in the benchmark.  Exits 1 if any invocation exits
non-zero.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import WORKLOADS, generate  # noqa: E402

SEEDS = (0, 7)


def main(argv):
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    from pseudomode import cli

    root = Path(argv[0]).resolve()
    failed = 0
    for name in WORKLOADS:
        for seed in SEEDS:
            where = root / f"{name}_{seed}"
            where.mkdir(parents=True, exist_ok=True)
            os.chdir(where)
            for inv in generate(name, seed)[0]:
                cfg = f"{inv['prefix']}.config.json"
                (where / cfg).write_text(json.dumps(inv["config"]) + "\n")
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main([inv["cmd"], "--config", cfg, "--out", "."])
                (where / f"{inv['prefix']}.stdout").write_text(out.getvalue())
                (where / f"{inv['prefix']}.stderr").write_text(err.getvalue())
                if code != 0:
                    failed += 1
                    print(f"{where.name} {inv['prefix']}: exit {code}",
                          file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
