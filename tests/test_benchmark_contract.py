"""The package names the benchmark harness in perfbench/ relies on.

perfbench/tracer.py wraps the functions it lists in TRACED by name, and
perfbench/checks.py rebuilds the psgrid operator through the grid module.
Both are read here, never changed, so a refactor that renames or drops one
of those names fails in the test suite instead of in a traced benchmark run.
A traced pass of each workload must also meet the span counts its generator
expects: a call routed around a traced module-level name loses its spans.
"""

import importlib
import importlib.util
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from pseudomode import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = load("tracer")
    for modname, names in tracer.TRACED.items():
        module = importlib.import_module(f"pseudomode.{modname}")
        for qual in names:
            owner = module
            for part in qual.split("."):
                owner = getattr(owner, part)
            assert callable(owner), f"{modname}.{qual}"
    # the Lanczos matvec counter patches fbi's module-level eigsh
    assert callable(importlib.import_module("pseudomode.fbi").eigsh)


def test_counting_eigsh_keeps_the_value_and_spans_each_apply():
    # the tracer's matvec counter around fbi.eigsh, on a Gram apply B B^H:
    # the same top eigenvalue as the bare oracle, and one span per apply
    fbi = importlib.import_module("pseudomode.fbi")
    tracer = load("tracer")
    rng = np.random.default_rng(5)
    B = rng.standard_normal((60, 40)) + 1j * rng.standard_normal((60, 40))
    applies = []

    def gram(v):
        applies.append(v)
        return B @ (B.conj().T @ v)
    op = SimpleNamespace(shape=(60, 60), dtype=np.dtype(complex), matvec=gram)
    v0 = rng.standard_normal(60) + 1j * rng.standard_normal(60)
    bare = fbi.eigsh(op, v0)
    assert abs(bare - np.linalg.svd(B, compute_uv=False)[0] ** 2) <= 1e-12 * bare
    applies.clear()
    t = tracer.Tracer()
    assert t._counting_eigsh(fbi.eigsh)(op, v0) == bare
    assert len(applies) > 0
    assert [span[0] for span in t.spans] == [tracer.MATVEC_SPAN] * len(applies)


@pytest.mark.parametrize("bc", [
    None, {"kind": "robin", "coef_deriv": 1.0, "coef_value": [0.8, 0.1]}])
def test_psgrid_output_check_runs(tmp_path, capsys, bc):
    # BoundaryCondition("robin", coef_deriv=, coef_value=), Grid1D,
    # discretize, reduced() and w_interior, exactly as checks.py calls them
    checks = load("checks")
    cfg = {"operator": "advection-exit", "h": 0.25, "prefix": "ps",
           "grid": {"lo": 0.0, "hi": 2.0, "m": 40},
           "z_re": {"lo": 0.1, "hi": 1.0, "m": 4},
           "z_im": {"lo": 0.1, "hi": 0.6, "m": 3}}
    if bc is not None:
        cfg["bc"] = bc
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["psgrid", "--config", str(path),
                     "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    fails, stats = checks.check_psgrid(cfg, str(tmp_path), random.Random(0))
    assert fails == []
    assert stats["cells"] == 12


@pytest.mark.parametrize("workload", ["operator", "jwkb", "fbi"])
def test_traced_pass_meets_the_expected_span_counts(tmp_path, monkeypatch,
                                                    workload):
    # one traced pass of the seed-0 invocations by perfbench/passrun.py, in a
    # fresh interpreter, then run.py's own self-check of its spans
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports its siblings
    run = load("run")
    invocations, expect = load("workloads").generate(workload, 0)
    if workload == "jwkb":
        # one phase per sweep row and per interior mode slot, whatever the h
        # ladder: a per-h recursion would make one per (row, h)
        rows = sum(len(inv["config"]["rows"]) for inv in invocations
                   if inv["cmd"] == "sweep")
        slots = sum(inv["cmd"] == "mode" and inv["config"]["kind"] == "interior"
                    for inv in invocations)
        expect["wkb.transport_recursion.calls"] = rows + slots
    for inv in invocations:
        inv["config_path"] = str(tmp_path / f"{inv['prefix']}.json")
        Path(inv["config_path"]).write_text(json.dumps(inv["config"]))
    (tmp_path / "out").mkdir()
    plan = {"invocations": invocations, "out": str(tmp_path / "out"),
            "trace": True, "result": str(tmp_path / "result.json")}
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    env = dict(os.environ, PYTHONPATH=str(PERFBENCH.parent / "src"))
    for var in run.THREAD_VARS:
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "passrun.py"), str(tmp_path / "plan.json")],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads((tmp_path / "result.json").read_text())
    assert [r["code"] for r in result["invocations"]] == [0] * len(invocations)
    assert run.lost_spans(result, expect) == []
