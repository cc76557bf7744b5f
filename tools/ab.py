"""Alternating parent/change pairs of benchmark runs, and their summary.

    python3 tools/ab.py PARENT CHANGE --workload W [--workload W2 ...] \
        --seed S --pairs N [--claim METRIC] [--trace] [--label L] [--out FILE]

PARENT and CHANGE are the roots of two pseudomode checkouts.  For each
workload, pair k runs `python3 perfbench/run.py --workload W --seed S
--trace 0` from the root of each tree in turn, the parent first when k is
odd, at run.py's default length (BENCHMARK.json's run_seconds), and keeps
from each run's last output line (one JSON object) wall_s, setup_s and
peak_rss_mb, rounded to 6 decimals, with correct, attempted and failed.
--trace adds one `--trace 1` run per side and workload, after the pairs.

The summary gives, per workload and metric, each side's [q1, median, q3]
by RULE, statistics.quantiles(n=4, method="inclusive"), rounded to 6
decimals, and the pairs the change won as "k/n" (lower is better for every
metric; a tie counts for neither); then the summed failed and attempted
counts and whether every run was correct.  The claim is the --claim metric
(wall_s, setup_s or peak_rss_mb; wall_s by default) on the first workload:
it is met when the change wins at least nine tenths of the pairs and the
parent's median exceeds the change's by more than the parent's quartile
spread q3 - q1.  Every other workload and metric gets its relative change
of medians, (change - parent) / parent.

The record, a BENCH_*.json skeleton with the command (its seconds read from
the parent's BENCHMARK.json), environment (from the runs' `environment`
lines), both trees' `git rev-parse HEAD` and source-tree hashes, pairs,
summary, claim and traced runs, goes to --out, or to stdout.
Progress goes to stderr.  A run that exits non-zero stops the tool (exit 1).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

RULE = "inclusive"
METRICS = ("wall_s", "setup_s", "peak_rss_mb")
COUNTS = ("correct", "attempted", "failed")
CLAIM_SHARE = Fraction(9, 10)   # least share of pairs the change must win


def quartiles(values, method=RULE):
    """[q1, median, q3] of values, each rounded to 6 decimals."""
    q1, _, q3 = statistics.quantiles(values, n=4, method=method)
    return [round(v, 6) for v in (q1, statistics.median(values), q3)]


def _wins(pairs, metric):
    """(pairs the change won, pairs) for a lower-is-better metric."""
    return (sum(p["change"][metric] < p["parent"][metric] for p in pairs),
            len(pairs))


def summarize(pairs):
    """Quartiles per side, won pairs per metric, and the summed counts."""
    out = {}
    for m in METRICS:
        won, n = _wins(pairs, m)
        out[m] = {
            "parent_q1_median_q3": quartiles([p["parent"][m] for p in pairs]),
            "change_q1_median_q3": quartiles([p["change"][m] for p in pairs]),
            "change_better_pairs": f"{won}/{n}",
        }
    for key in ("failed", "attempted"):
        out[key] = {side: sum(p[side][key] for p in pairs)
                    for side in ("parent", "change")}
    out["correct"] = all(p[side]["correct"] for p in pairs
                         for side in ("parent", "change"))
    return out


def claim(pairs, metric, workload):
    """The pairwise verdict on metric: won share and median gap against the spread."""
    q1, parent_median, q3 = quartiles([p["parent"][metric] for p in pairs])
    change_median = quartiles([p["change"][metric] for p in pairs])[1]
    won, n = _wins(pairs, metric)
    spread = round(q3 - q1, 6)
    difference = round(parent_median - change_median, 6)
    return {
        "metric": f"{metric} on {workload}",
        "parent_median": parent_median,
        "change_median": change_median,
        "parent_iqr": spread,
        "median_difference": difference,
        "relative_change": round(-difference / parent_median, 4),
        "change_better_pairs": f"{won}/{n}",
        "met": Fraction(won, n) >= CLAIM_SHARE and difference > spread,
    }


def median_changes(pairs):
    """(change - parent) / parent of the medians, per metric, to 4 decimals."""
    out = {}
    for m in METRICS:
        parent = statistics.median(p["parent"][m] for p in pairs)
        change = statistics.median(p["change"][m] for p in pairs)
        out[m] = round((change - parent) / parent, 4)
    return out


def quartile_rule(record):
    """The rule, 'inclusive' or 'exclusive', that gives a record's stored quartiles.

    None when neither reproduces every stored [q1, median, q3].
    """
    def reproduces(method):
        return all(
            quartiles([p[side][m] for p in pairs], method)
            == stored[f"{side}_q1_median_q3"]
            for key, pairs in record["pairs"].items()
            for m, stored in record["summary"][key].items()
            if isinstance(stored, dict) and "parent_q1_median_q3" in stored
            for side in ("parent", "change"))
    return next((m for m in ("inclusive", "exclusive") if reproduces(m)), None)


def _git(root, *args):
    proc = subprocess.run(["git", "-C", root, *args], capture_output=True,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def tree_facts(root):
    """HEAD, the hash of its src/ tree, and whether tracked files differ from it."""
    status = _git(root, "status", "--porcelain", "--untracked-files=no")
    return {"sha": _git(root, "rev-parse", "HEAD"),
            "src_tree": _git(root, "rev-parse", "HEAD:src"),
            "dirty": None if status is None else bool(status)}


def bench(root, workload, seed, trace):
    """One perfbench run from root: (its final JSON object, environment, FAIL lines)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd[1:])} in {root} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    env = next((json.loads(line.split(" ", 1)[1]) for line in lines
                if line.startswith("environment ")), None)
    fails = [line for line in lines if line.startswith("FAIL ")]
    return json.loads(lines[-1]), env, fails


def _kept(result):
    row = {m: round(result["metrics"][m]["value"], 6) for m in METRICS}
    row.update((k, result[k]) for k in COUNTS)
    return row


def run_pairs(roots, workload, seed, pairs, log):
    """pairs alternating runs; returns (pair records, environment)."""
    records, env = [], None
    for k in range(1, pairs + 1):
        runs = {}
        for side in (("parent", "change") if k % 2 else ("change", "parent")):
            result, env, _ = bench(roots[side], workload, seed, 0)
            runs[side] = _kept(result)
            log(f"{workload} pair {k} {side}: wall_s {runs[side]['wall_s']}")
        records.append({"pair": k, "order": f"{next(iter(runs))} first",
                        "parent": runs["parent"], "change": runs["change"]})
    return records, env


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--claim", choices=METRICS, default="wall_s")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--label", default="ab")
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs needs at least 2 pairs for quartiles")

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    roots = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    facts = {side: tree_facts(root) for side, root in roots.items()}
    with open(os.path.join(roots["parent"], "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    record = {
        "label": args.label,
        "parent_sha": facts["parent"]["sha"],
        "change_sha": facts["change"]["sha"],
        "trees": facts,
        "command": (f"python3 perfbench/run.py --workload <w> --seed {args.seed} "
                    f"--seconds {seconds:g} --trace 0, run by tools/ab.py "
                    "from the root of each tree; odd pairs run the parent first"),
        "quartile_rule": f"statistics.quantiles(n=4, method={RULE!r}), "
                         "rounded to 6 decimals",
        "machine": {"nproc": os.cpu_count(), "blas_threads": 1},
        "environment": None,
        "pairs": {}, "summary": {}, "median_changes": {},
    }
    try:
        for w in args.workload:
            key = f"{w}_seed{args.seed}"
            pairs, record["environment"] = run_pairs(
                roots, w, args.seed, args.pairs, log)
            record["pairs"][key] = pairs
            record["summary"][key] = summarize(pairs)
            record["median_changes"][key] = median_changes(pairs)
        first = args.workload[0]
        record["claim"] = claim(record["pairs"][f"{first}_seed{args.seed}"],
                                args.claim, first)
        if args.trace:
            record["traced"] = {}
            for w in args.workload:
                for side in ("parent", "change"):
                    result, _, fails = bench(roots[side], w, args.seed, 1)
                    values = {m: v["value"] for m, v in result["metrics"].items()}
                    values.update((k, result[k]) for k in COUNTS)
                    record["traced"][f"{side}_{w}_seed{args.seed}"] = dict(
                        values, fail_lines=fails)
                    log(f"{w} traced {side}: failed {result['failed']}")
    except RuntimeError as exc:
        log(str(exc))
        return 1
    text = json.dumps(record, indent=1) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
