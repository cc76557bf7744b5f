"""Benchmark of the pseudomode CLI, end to end and per layer.

    python3 perfbench/run.py --workload {operator,jwkb,fbi} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a pseudomode checkout; the program is imported from
./src.  The workload's configs are generated from the seed, and the program
sees only those files.  A pass is one fresh interpreter that runs the
workload's invocations through pseudomode.cli.main, one after another
(closed loop, one client).  Passes repeat until --seconds is used up, and
each end-to-end metric is the median over the passes.  BLAS and OpenMP are
pinned to one thread and --threads is not passed.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced passes: the per-layer metrics come from the traced ones (spans
recorded by perfbench/tracer.py), the per-subcommand times and CPU time from
the untraced ones, and the ratio of the two medians is the tracing overhead.
Every output file of every pass must be byte-identical to those of the first
pass, whose outputs are checked by perfbench/checks.py.  A non-zero exit, a
failed check or a differing file counts the invocation as failed.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Work files go to .bench_build/ and are
removed at the end.  See perfbench/METRICS.md for what each metric should
move.
"""

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".bench_build"
COMMANDS = ["region", "mode", "boundary", "sweep", "psgrid", "evolve", "fbi"]
MIN_PASSES = 4          # untraced passes in a --trace 0 run
SETUP_SAMPLES = 5       # fresh-interpreter imports behind the setup_s median
PASS_TIMEOUT = 60.0     # seconds; a pass that takes longer is killed
HARD_STOP = 100.0       # seconds after which no further pass starts
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBE = ("import time; t = time.perf_counter(); import pseudomode.cli; "
                "print(time.perf_counter() - t)")


def _median(values):
    return statistics.median(values) if values else 0.0


def _env(root):
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def _outputs(record):
    """Paths an invocation reported writing; [] when it failed."""
    if record["code"] != 0:
        return []
    return sorted(json.loads(record["stdout"])["outputs"])


def _read(paths):
    files = {}
    for p in paths:
        with open(p, "rb") as fh:
            files[os.path.basename(p)] = fh.read()
    return files


def run_pass(work, k, invocations, trace, env):
    """One fresh-interpreter pass; returns its result dict or None if it died."""
    out = os.path.join(work, f"pass{k}")
    os.makedirs(out)
    plan_path = os.path.join(work, f"plan{k}.json")
    result_path = os.path.join(work, f"result{k}.json")
    with open(plan_path, "w") as fh:
        json.dump({"invocations": invocations, "out": out, "trace": trace,
                   "result": result_path}, fh)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "passrun.py"), plan_path],
            env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT)
    except subprocess.TimeoutExpired:
        print(f"pass {k} timed out after {PASS_TIMEOUT} s", file=sys.stderr)
        return None
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        print(f"pass {k} exited {proc.returncode}:\n{proc.stderr}", file=sys.stderr)
        return None
    with open(result_path) as fh:
        result = json.load(fh)
    result.update(wall_s=wall, trace=trace, out=out)
    return result


def pass_metrics(result):
    """End-to-end numbers of one pass, per-subcommand sums included."""
    recs = result["invocations"]
    m = {"wall_s": result["wall_s"], "cli_s": sum(r["s"] for r in recs),
         "peak_rss_mb": result["peak_rss_mb"], "cpu_s": result["cpu_s"]}
    for cmd in COMMANDS:
        m[f"{cmd}_s"] = sum(r["s"] for r in recs if r["cmd"] == cmd)
    return m


def layer_metrics(result, check_stats):
    """Per-layer metrics of one traced pass, zero for layers not reached."""
    from tracer import CLI_SPAN, MATVEC_SPAN, TRACED, outer_layer, summarize
    spans = result["spans"]
    total, own, calls = summarize(spans)
    m = {}
    for module, names in TRACED.items():
        for name in names:
            span = f"{module}.{name}"
            key = span.lstrip("_")  # metric names start with a letter
            m.update({f"{key}.s": total[span], f"{key}.self_s": own[span],
                      f"{key}.calls": calls[span]})
    m["fbi.lanczos_matvecs"] = calls[MATVEC_SPAN]
    m["cli.self_s"] = own[CLI_SPAN]
    m["serialize.s"], m["serialize.calls"] = outer_layer(spans, "serialize.")
    m["serialize.bytes"] = result["bytes_written"]
    cells = check_stats.get("cells", 0)
    m["grid.cells"] = cells
    for key in ("converged", "below_floor"):
        m[f"grid.cells_{key}_frac"] = check_stats[key] / cells if cells else 0.0
    return m


def import_time(env):
    """Seconds a fresh interpreter takes to import pseudomode.cli, or None."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, timeout=PASS_TIMEOUT)
    return float(proc.stdout) if proc.returncode == 0 else None


def measure(args, root, work, invocations):
    """Run passes until the time budget is spent.

    Returns the (trace, result) pairs of the passes and the import-time
    samples: one per untraced pass, topped up to SETUP_SAMPLES with
    import-only interpreters.
    """
    env = _env(root)
    import_time(env)  # the first import in a checkout compiles bytecode
    kinds = [False, True] if args.trace else [False]
    min_rounds = 1 if args.trace else MIN_PASSES
    results = []
    start = time.perf_counter()
    rounds = 0
    while True:
        for trace in kinds:
            results.append((trace, run_pass(work, len(results), invocations,
                                            trace, env)))
        rounds += 1
        elapsed = time.perf_counter() - start
        per_round = elapsed / rounds
        if rounds >= min_rounds and (elapsed + per_round > args.seconds
                                     or elapsed + per_round > HARD_STOP):
            break
    setup = [r["setup_s"] for t, r in results if r is not None and not t]
    while setup and len(setup) < SETUP_SAMPLES:
        sample = import_time(env)
        if sample is None:
            break
        setup.append(sample)
    return results, setup


def lost_spans(result, expect):
    """Self-check of a traced pass: span counts the inputs imply, not met."""
    from tracer import summarize
    calls = summarize(result["spans"])[2]
    return [f"span self-check: {key} = {calls[key.rsplit('.', 1)[0]]}, "
            f"expected {want}" for key, want in expect.items()
            if calls[key.rsplit(".", 1)[0]] != want]


def verify(args, invocations, expect, results):
    """Check the reference outputs, compare every pass with them.

    An invocation fails in a pass when it exits non-zero, when its check
    failed on the reference pass, when its files differ from the reference,
    or when the pass is traced and lost spans.  Returns (attempted, failed,
    messages, check_stats).
    """
    import checks
    good = [r for _, r in results if r is not None]
    ref = next((r for r in good if not r["trace"]), None)
    attempted = len(invocations) * len(results)
    if ref is None:
        return attempted, attempted, ["no untraced pass finished"], {}
    rng = random.Random(f"check:{args.workload}:{args.seed}")
    ref_files, inv_fails, stats = [], [], {}
    for inv, rec in zip(invocations, ref["invocations"]):
        fails = []
        if rec["code"] != 0:
            fails.append(f"exit {rec['code']}: {rec['stderr'].strip()}")
        else:
            fails, st = checks.check(inv, ref["out"], rng)
            for key, val in st.items():
                stats[key] = stats.get(key, 0) + val
        ref_files.append(_read(_outputs(rec)))
        inv_fails.append([f"{inv['prefix']}: {f}" for f in fails])
    messages = [f for fails in inv_fails for f in fails]
    failed = len(invocations) * (len(results) - len(good))
    for r in good:
        lost = lost_spans(r, expect) if r["trace"] else []
        messages += lost
        for i, rec in enumerate(r["invocations"]):
            same = rec["code"] == 0 and _read(_outputs(rec)) == ref_files[i]
            if not same and not inv_fails[i]:
                messages.append(f"{rec['prefix']}: outputs differ from the "
                                f"reference pass ({'traced' if r['trace'] else 'untraced'})")
            failed += bool(lost or inv_fails[i]) or not same
    return attempted, failed, messages, stats


def environment():
    """Machine and library facts every report states."""
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=34.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "pseudomode", "cli.py")):
        print("error: run from the root of a pseudomode checkout "
              "(src/pseudomode/cli.py not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))  # for the output checks
    invocations, expect = workloads.generate(args.workload, args.seed)
    os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-",
                            dir=os.path.join(root, WORK_DIR))
    try:
        for inv in invocations:
            inv["config_path"] = os.path.join(work, inv["prefix"] + ".json")
            with open(inv["config_path"], "w") as fh:
                json.dump(inv["config"], fh)
        results, setup = measure(args, root, work, invocations)
        attempted, failed, messages, stats = verify(args, invocations, expect,
                                                    results)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [pass_metrics(r) for t, r in results if r is not None and not t]
    traced = [r for t, r in results if r is not None and t]
    if not untraced or (args.trace and not traced):
        print("error: no pass of a needed kind finished", file=sys.stderr)
        return 1
    e2e = {name: _median([p[name] for p in untraced]) for name in untraced[0]}
    e2e["setup_s"] = _median(setup)
    e2e["error_rate"] = failed / attempted
    values = e2e
    if args.trace:
        per_pass = [layer_metrics(r, stats) for r in traced]
        values = {k: _median([m[k] for m in per_pass]) for k in per_pass[0]}
        values["proc.cpu_s"] = e2e["cpu_s"]
        values["proc.trace_overhead_frac"] = (
            _median([r["wall_s"] for r in traced]) / e2e["wall_s"] - 1.0)
        for name in ["cli_s"] + [f"{cmd}_s" for cmd in COMMANDS]:
            values[name] = e2e[name]

    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(error_rate="fraction", cpu_s="s")
    for msg in messages:
        print(f"FAIL {msg}")
    print(f"environment {json.dumps(environment(), sort_keys=True)}")
    print(f"passes untraced={len(untraced)} traced={len(traced)}")
    shown = {**e2e, **values}
    for name in sorted(n for n in shown if n in units):
        print(f"{name} {shown[name]:.6g} {units[name]}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
