"""tools/ab.py: the stored BENCH records as its oracle, and one run on stub trees."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]


def load_ab():
    spec = importlib.util.spec_from_file_location("ab", _ROOT / "tools" / "ab.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def record(name):
    return json.loads((_ROOT / name).read_text())


_INCLUSIVE = ["BENCH_fbi_gram.json", "BENCH_csv.json", "BENCH_fbi_noscipy.json",
              "BENCH_fbi_lowrank.json", "BENCH_csv_stream.json",
              "BENCH_region_stream.json", "BENCH_fbi_norandom.json"]


@pytest.mark.parametrize("name", _INCLUSIVE)
def test_summary_reproduces_the_stored_records(name):
    ab = load_ab()
    rec = record(name)
    assert ab.quartile_rule(rec) == ab.RULE
    for key, pairs in rec["pairs"].items():
        stored = rec["summary"][key]
        assert {m for m, v in stored.items()
                if isinstance(v, dict) and "parent_q1_median_q3" in v} \
            == set(ab.METRICS)
        ours = ab.summarize(pairs)
        assert {k: ours[k] for k in stored} == stored
    workload = rec["claim"]["metric"].split(" on ")[1]
    seeded = next(k for k in rec["pairs"] if k.startswith(f"{workload}_seed"))
    metric = rec["claim"]["metric"].split(" on ")[0]
    ours = ab.claim(rec["pairs"][seeded], metric, workload)
    assert {k: ours[k] for k in rec["claim"] if k != "met"} == \
        {k: v for k, v in rec["claim"].items() if k != "met"}
    assert ours["met"] is True


def test_import_record_used_the_exclusive_rule():
    ab = load_ab()
    assert ab.quartile_rule(record("BENCH_import.json")) == "exclusive"
    # the summary of one rule does not reproduce the other's record
    assert ab.quartile_rule(record("BENCH_fbi_gram.json")) != "exclusive"


_STUB = """\
import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
with open({log!r}, "a") as fh:
    fh.write({side!r} + " " + args["--trace"] + " " + str("--seconds" in args)
             + "\\n")
print("environment " + json.dumps({{"nproc": 2}}))
metrics = {{"wall_s": {wall}, "setup_s": 0.1, "peak_rss_mb": 40.0}}
print(json.dumps({{"correct": True, "attempted": 2, "failed": 0,
                  "metrics": {{k: {{"value": v, "unit": "s"}}
                              for k, v in metrics.items()}}}}))
"""


def stub_trees(tmp_path, log):
    """A parent and a change tree whose run.py logs its call and prints fixed metrics."""
    roots = {}
    for side, wall in (("parent", 1.0), ("change", 0.5)):
        root = tmp_path / side
        (root / "perfbench").mkdir(parents=True)
        (root / "perfbench" / "run.py").write_text(
            _STUB.format(log=str(log), side=side, wall=wall))
        roots[side] = root
    return roots


def test_pairs_alternate_and_the_record_is_written(tmp_path):
    log = tmp_path / "order.log"
    roots = stub_trees(tmp_path, log)
    # the record's command takes its run length from the parent's benchmark
    (roots["parent"] / "BENCHMARK.json").write_text('{"run_seconds": 7}')
    git = ["git", "-C", str(roots["parent"]), "-c", "user.name=t",
           "-c", "user.email=t@localhost"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-qm", "stub"]):
        subprocess.run(git + args, check=True, capture_output=True)
    out = tmp_path / "rec.json"
    argv = [str(roots["parent"]), str(roots["change"]), "--workload", "fbi",
            "--seed", "3", "--pairs", "4", "--trace",
            "--out", str(out)]
    assert load_ab().main(argv) == 0
    # no run is given --seconds, so run.py's default (the benchmark's) holds
    assert log.read_text().split("\n")[:-1] == [
        f"{side} {trace} False" for side, trace in (
            ("parent", 0), ("change", 0), ("change", 0), ("parent", 0),
            ("parent", 0), ("change", 0), ("change", 0), ("parent", 0),
            ("parent", 1), ("change", 1))]
    rec = json.loads(out.read_text())
    sha = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                         text=True, check=True).stdout.strip()
    assert rec["parent_sha"] == sha and rec["trees"]["parent"]["dirty"] is False
    assert rec["change_sha"] is None   # the change stub is no git tree
    assert rec["environment"] == {"nproc": 2}
    assert "--seed 3 --seconds 7 --trace 0" in rec["command"]
    pairs = rec["pairs"]["fbi_seed3"]
    assert [p["order"] for p in pairs] == ["parent first", "change first"] * 2
    assert pairs[0]["change"] == {"wall_s": 0.5, "setup_s": 0.1,
                                  "peak_rss_mb": 40.0, "correct": True,
                                  "attempted": 2, "failed": 0}
    summary = rec["summary"]["fbi_seed3"]
    assert summary["wall_s"]["change_better_pairs"] == "4/4"
    assert summary["setup_s"]["change_better_pairs"] == "0/4"   # ties
    # 4/4 pairs won, and the median gap 0.5 beats the parent's spread 0
    assert rec["claim"]["met"] is True
    assert rec["median_changes"]["fbi_seed3"]["wall_s"] == -0.5
    assert rec["traced"]["change_fbi_seed3"]["wall_s"] == 0.5


@pytest.mark.parametrize("metric, met", [("wall_s", True),
                                         ("peak_rss_mb", False)])
def test_claim_names_the_chosen_metric(tmp_path, metric, met):
    roots = stub_trees(tmp_path, tmp_path / "order.log")
    (roots["parent"] / "BENCHMARK.json").write_text('{"run_seconds": 7}')
    out = tmp_path / "rec.json"
    argv = [str(roots["parent"]), str(roots["change"]), "--workload", "jwkb",
            "--workload", "fbi", "--seed", "4", "--pairs", "2",
            "--out", str(out)]
    if metric != "wall_s":
        argv += ["--claim", metric]
    assert load_ab().main(argv) == 0
    claim = json.loads(out.read_text())["claim"]
    assert claim["metric"] == f"{metric} on jwkb"
    # the stub's change halves wall_s and ties on peak_rss_mb
    assert claim["change_better_pairs"] == ("2/2" if met else "0/2")
    assert claim["met"] is met
