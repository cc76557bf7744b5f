"""End-to-end driver runs: every subcommand, exit codes, determinism."""

import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pseudomode import cli
from pseudomode.errors import ConvergenceError
from pseudomode.wkb import _H_MIN


def run(tmp_path, command, cfg, capsys, name="cfg.json"):
    cfg_path = tmp_path / name
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = cli.main([command, "--config", str(cfg_path), "--out", str(out)])
    captured = capsys.readouterr()
    return code, out, captured


def read_lines(path):
    with open(path) as fh:
        return fh.read().splitlines()


# -- happy paths ---------------------------------------------------------------


def test_region_command(tmp_path, capsys):
    cfg = {"operator": "complex-airy",
           "u": {"lo": -1.0, "hi": 1.0, "m": 5},
           "xi": {"lo": -1.5, "hi": 1.5, "m": 7},
           "plot": True}
    code, out, cap = run(tmp_path, "region", cfg, capsys)
    assert code == 0
    reply = json.loads(cap.out)
    assert sorted(reply) == ["outputs"]
    mask_lines = read_lines(out / "region_mask.csv")
    assert mask_lines[0] == "u,xi,bracket,in_omega"
    assert len(mask_lines) == 1 + 5 * 7
    # sigma = xi^2 + iu: bracket is -2 xi, so membership is exactly xi < 0
    for line in mask_lines[1:]:
        _, xi, bracket, flag = line.split(",")
        assert (float(xi) < 0) == (flag == "1")
        assert float(bracket) == -2.0 * float(xi)
    sym_lines = read_lines(out / "region_symbol.csv")
    assert sym_lines[0] == "u,xi,re_sigma,im_sigma"
    assert len(sym_lines) == 1 + 5 * 3  # three negative xi gridlines
    assert (out / "region.gp").exists()


def test_mode_command(tmp_path, capsys):
    cfg = {"operator": "complex-airy", "u": 0.0, "xi": -1.0,
           "h": 2.0 ** -5, "n": 1, "K": 24, "delta0": 0.5}
    code, out, _ = run(tmp_path, "mode", cfg, capsys)
    assert code == 0
    rep = json.loads((out / "mode_residuals.json").read_text())
    assert rep["kind"] == "interior"
    assert rep["z"] == [1.0, 0.0]  # sigma(0, -1) for xi^2 + iu
    assert 0.0 < rep["rl"] < 1e-2
    assert 0.5 < rep["norm"] < 3.0  # O(1) but not normalized
    assert 0.0 < rep["delta"] <= 0.5
    lines = read_lines(out / "mode_samples.csv")
    assert lines[0] == "x,re_f,im_f,re_fp,im_fp"
    assert len(lines) > 100


def test_mode_command_gaussian_kind(tmp_path, capsys):
    cfg = {"operator": "complex-airy", "kind": "gaussian",
           "u": 0.2, "xi": -1.0, "h": 2.0 ** -5}
    code, out, _ = run(tmp_path, "mode", cfg, capsys)
    assert code == 0
    rep = json.loads((out / "mode_residuals.json").read_text())
    assert rep["kind"] == "gaussian"
    assert rep["delta"] == 0.5  # fixed cutoff, no ladder search


def test_mode_command_rough_reports_its_support_half_width(tmp_path, capsys):
    h = 2.0 ** -5
    cfg = {"operator": "complex-airy", "kind": "rough",
           "u": 0.2, "xi": -1.0, "h": h}
    code, out, _ = run(tmp_path, "mode", cfg, capsys)
    assert code == 0
    rep = json.loads((out / "mode_residuals.json").read_text())
    assert rep["kind"] == "rough"
    assert rep["delta"] == 2.0 * h ** 0.5
    x = [float(line.split(",")[0])
         for line in read_lines(out / "mode_samples.csv")[1:]]
    assert abs(x[0] - (0.2 - rep["delta"])) <= 1e-12
    assert abs(x[-1] - (0.2 + rep["delta"])) <= 1e-12


@pytest.mark.parametrize("kind", ["interior", "gaussian"])
def test_mode_command_npts(tmp_path, capsys, kind):
    cfg = {"operator": "complex-airy", "kind": kind, "u": 0.2, "xi": -1.0,
           "h": 2.0 ** -5, "npts": 512}
    code, out, _ = run(tmp_path, "mode", cfg, capsys)
    assert code == 0
    assert len(read_lines(out / "mode_samples.csv")) == 1 + 512


def test_boundary_command(tmp_path, capsys):
    cfg = {"operator": "advection-exit", "z": 0.2, "h": 2.0 ** -5,
           "robin": [1.0, 1.0], "n": 1, "K": 32, "delta0": 0.5}
    code, out, _ = run(tmp_path, "boundary", cfg, capsys)
    assert code == 0
    rep = json.loads((out / "boundary_report.json").read_text())
    assert rep["inside"] is True
    assert rep["band_height"] == 1.0
    assert rep["robin_residual"] == 0.0
    roots = [complex(re, im) for re, im in rep["roots"]]
    assert roots[0] == pytest.approx(0.27639320225002106j)
    assert roots[1] == pytest.approx(0.7236067977499789j)
    assert rep["rl"] < 0.1
    assert (out / "boundary_parabola.csv").exists()
    assert (out / "boundary_samples.csv").exists()


def test_sweep_command(tmp_path, capsys):
    cfg = {"operator": "complex-airy",
           "rows": [{"u": 0.0, "xi": -1.0, "n": 1}],
           "h_list": [2.0 ** -k for k in range(4, 8)],
           "K": 24, "delta0": 0.5}
    code, out, _ = run(tmp_path, "sweep", cfg, capsys)
    assert code == 0
    detail = read_lines(out / "sweep_residuals.csv")
    assert detail[0] == "kind,n,u,xi,h,rq,rp,rl"
    assert len(detail) == 5
    orders = json.loads((out / "sweep_orders.json").read_text())
    assert len(orders) == 1
    assert orders[0]["kind"] == "interior"
    assert 2.5 < orders[0]["slope"] < 3.5  # n = 1: residual decays like h^3
    assert orders[0]["r2"] > 0.98


def test_sweep_row_at_roundoff_reports_an_infinite_slope(tmp_path, capsys):
    # n = 3 at h <= 1e-4: every residual rl sits at roundoff (about 2e-16),
    # where an order fit means nothing, so the row's slope is written as inf
    cfg = {"operator": "complex-airy",
           "rows": [{"u": 0.0, "xi": -1.0, "n": 3}],
           "h_list": [1e-4, 5e-5, 2.5e-5, 1.25e-5], "K": 24}
    code, out, cap = run(tmp_path, "sweep", cfg, capsys)
    assert code == 0, cap.err
    detail = read_lines(out / "sweep_residuals.csv")[1:]
    assert len(detail) == 4
    assert all(float(row.split(",")[7]) < 1e-13 for row in detail)
    assert read_lines(out / "sweep_orders.csv") == ["kind,n,slope,r2",
                                                    "interior,3,inf,1"]
    orders = json.loads((out / "sweep_orders.json").read_text())
    assert orders == [{"kind": "interior", "n": 3, "r2": 1.0, "slope": "inf"}]


def test_sweep_builds_one_phase_per_row(tmp_path, capsys, monkeypatch):
    # psi_m and the cutoff width do not depend on h: each row's modes along
    # the h ladder share one transport_recursion and one choose_delta
    from pseudomode import wkb

    recursions, ladders, modes = [], [], []
    recursion, ladder, assemble = (wkb.transport_recursion, wkb.choose_delta,
                                   cli.assemble_mode)
    monkeypatch.setattr(wkb, "transport_recursion",
                        lambda *a: recursions.append(a) or recursion(*a))
    monkeypatch.setattr(wkb, "choose_delta",
                        lambda *a, **k: ladders.append(a) or ladder(*a, **k))
    monkeypatch.setattr(cli, "assemble_mode",
                        lambda *a, **k: modes.append(assemble(*a, **k)) or modes[-1])
    cfg = {"operator": "complex-airy",
           "rows": [{"u": 0.0, "xi": -1.0, "n": 1}, {"u": 0.2, "xi": -0.9, "n": 2}],
           "h_list": [2.0 ** -k for k in range(4, 8)], "K": 24}
    code, _, cap = run(tmp_path, "sweep", cfg, capsys)
    assert code == 0, cap.err
    assert (len(recursions), len(ladders), len(modes)) == (2, 2, 8)
    for row in (modes[:4], modes[4:]):
        assert len({id(m.phase) for m in row}) == 1
        assert len({id(m.cutoff) for m in row}) == 1
    assert modes[0].phase is not modes[4].phase


def test_psgrid_command(tmp_path, capsys):
    cfg = {"operator": "complex-airy", "h": 2.0 ** -4,
           "grid": {"lo": -1.0, "hi": 1.0, "m": 60},
           "z_re": {"lo": 0.2, "hi": 1.2, "m": 3},
           "z_im": {"lo": -0.3, "hi": 0.3, "m": 3},
           "cloud": {"u": {"lo": -0.5, "hi": 0.5, "m": 5},
                     "xi": {"lo": -1.2, "hi": -0.4, "m": 5}},
           "plot": True}
    code, out, _ = run(tmp_path, "psgrid", cfg, capsys)
    assert code == 0
    lines = read_lines(out / "psgrid_smin.csv")
    assert lines[0] == "re_z,im_z,s_min,converged"
    assert len(lines) == 1 + 9
    for line in lines[1:]:
        vals = line.split(",")
        assert float(vals[2]) > 0.0
        assert vals[3] == "1"
    cloud = read_lines(out / "psgrid_cloud.csv")
    assert cloud[0] == "re_z,im_z"
    assert len(cloud) == 1 + 25  # the whole rectangle sits inside Omega
    gp = (out / "psgrid.gp").read_text()
    assert "psgrid_smin.csv" in gp and "psgrid_cloud.csv" in gp
    # b = 0 kills the exit condition, so no boundary parabola overlay
    assert not (out / "psgrid_parabola.csv").exists()


def test_psgrid_empty_z_grid(tmp_path, capsys):
    cfg = {"operator": "complex-airy", "h": 0.25,
           "grid": {"lo": -1.0, "hi": 1.0, "m": 24},
           "z_re": {"lo": 0.0, "hi": 1.0, "m": 0},
           "z_im": {"lo": 0.0, "hi": 1.0, "m": 3}}
    code, out, _ = run(tmp_path, "psgrid", cfg, capsys)
    assert code == 0
    lines = read_lines(out / "psgrid_smin.csv")
    assert lines == ["re_z,im_z,s_min,converged"]


def test_psgrid_boundary_overlay(tmp_path, capsys):
    cfg = {"operator": "advection-exit", "h": 0.25,
           "grid": {"lo": 0.0, "hi": 2.0, "m": 40},
           "z_re": {"lo": 0.1, "hi": 0.3, "m": 2},
           "z_im": {"lo": 0.1, "hi": 0.2, "m": 2}}
    code, out, _ = run(tmp_path, "psgrid", cfg, capsys)
    assert code == 0
    par = read_lines(out / "psgrid_parabola.csv")
    assert par[0] == "re_z,im_z"
    assert len(par) == 1 + 257


def test_fbi_command(tmp_path, capsys):
    cfg = {"kappa": [1.0, 0.3],
           "h_list": [1e-1, 1e-2],
           "grids": {"nxi": 64},
           "profile_s": [0.0, 0.5, 1.0],
           "isometry_h": [1e-2],
           "orthogonality": {"operator": "complex-airy", "gap": 0.5,
                             "h_list": [2.0 ** -4, 2.0 ** -5, 2.0 ** -6],
                             "xi": -1.0}}
    code, out, _ = run(tmp_path, "fbi", cfg, capsys)
    assert code == 0
    rep = json.loads((out / "fbi_report.json").read_text())
    assert rep["kappa"] == [1.0, 0.3]
    assert rep["norm_variation"] < 1e-6  # norm is h-independent by scaling
    # the rows read the bracket's upper end; its lower end is within 1e-3
    upper = float(read_lines(out / "fbi_norms.csv")[1].split(",")[1])
    assert 0.0 < upper - rep["norm_lower"] < 1e-3 * rep["norm_lower"]
    assert abs(rep["norm_rel_width"] - (upper / rep["norm_lower"] - 1.0)) <= 1e-12
    assert rep["profile_match"] < 1e-10
    assert rep["g_limit_rel_err"] < 1e-2
    assert rep["isometry"][0]["spread"] < 0.1
    orth = rep["orthogonality"]
    assert orth["slope_vs_inv_h"] < 0.0  # cross-Gram decays in 1/h
    assert orth["r2"] > 0.9
    assert len(read_lines(out / "fbi_norms.csv")) == 3
    assert read_lines(out / "fbi_profile.csv")[0] == "h,s,F,G"


def test_evolve_command(tmp_path, capsys):
    cfg = {"operator": "complex-airy", "h": 2.0 ** -5,
           "grid": {"lo": -1.0, "hi": 1.0, "m": 120},
           "modes": [{"u": -0.2, "xi": -1.0}, {"u": 0.2, "xi": -1.0}],
           "K": 24, "delta0": 0.5,
           "t_list": [0.1, 0.5], "delta_list": [1e-2, 1e-4], "M": 1.0}
    code, out, _ = run(tmp_path, "evolve", cfg, capsys)
    assert code == 0
    bounds = read_lines(out / "evolve_bounds.csv")
    assert bounds[0] == "t,lhs,bound,ratio"
    assert len(bounds) == 3
    budget = read_lines(out / "evolve_budget.csv")
    assert budget[0] == "t,delta,true_err,budget"
    assert len(budget) == 5
    for line in budget[1:]:
        _, _, true_err, bud = (float(v) for v in line.split(","))
        assert true_err <= bud * (1.0 + 1e-9)
    rep = json.loads((out / "evolve_report.json").read_text())
    assert rep["defect"] > 0.0
    assert len(rep["lam"]) == 2


def test_evolve_bound_row_at_t_zero(tmp_path, capsys):
    # at t = 0 both sides of the semigroup bound vanish: the ratio is 0, not inf
    cfg = dict(_BASE["evolve"], t_list=[0.0, 0.5])
    code, out, _ = run(tmp_path, "evolve", cfg, capsys)
    assert code == 0
    bounds = read_lines(out / "evolve_bounds.csv")
    assert bounds[1] == "0,0,0,0"
    assert 0.0 < float(bounds[2].split(",")[3]) < 1.0


def test_evolve_forms_each_regularized_inverse_once(tmp_path, capsys,
                                                    monkeypatch):
    # F_delta depends on delta alone, so a t_list x delta_list budget table
    # forms it once per delta
    from pseudomode import frame

    calls = []
    inner = frame.regularized_inverse

    def counting(F, delta=1e-6):
        calls.append(delta)
        return inner(F, delta)

    monkeypatch.setattr(frame, "regularized_inverse", counting)
    d_list = [1e-2, 1e-4, 1e-6]
    cfg = dict(_BASE["evolve"], t_list=[0.1, 0.5, 1.0], delta_list=d_list)
    code, out, _ = run(tmp_path, "evolve", cfg, capsys)
    assert code == 0
    assert len(read_lines(out / "evolve_budget.csv")) == 1 + 3 * len(d_list)
    assert calls == d_list


def test_out_dir_in_config_wins(tmp_path, capsys):
    target = tmp_path / "elsewhere"
    cfg = {"operator": "complex-airy",
           "u": {"lo": -1.0, "hi": 1.0, "m": 3},
           "xi": {"lo": -1.0, "hi": 1.0, "m": 3},
           "out_dir": str(target)}
    code, out, _ = run(tmp_path, "region", cfg, capsys)
    assert code == 0
    assert (target / "region_mask.csv").exists()
    assert not (out / "region_mask.csv").exists()


def test_outputs_are_byte_identical(tmp_path, capsys):
    cfg = {"operator": "complex-airy", "u": 0.1, "xi": -0.9,
           "h": 2.0 ** -5, "prefix": "m"}
    for sub in ("a", "b"):
        cfg_path = tmp_path / f"{sub}.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["mode", "--config", str(cfg_path),
                         "--out", str(tmp_path / sub)]) == 0
    capsys.readouterr()
    for name in ("m_samples.csv", "m_residuals.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


# -- failure modes -------------------------------------------------------------


def error_reply(cap):
    reply = json.loads(cap.err)
    assert sorted(reply) == ["error", "message"]
    return reply


def test_unknown_config_key_is_config_error(tmp_path, capsys):
    cfg = {"operator": "complex-airy", "u": 0.0, "xi": -1.0,
           "h": 0.125, "typo_key": 1}
    code, _, cap = run(tmp_path, "mode", cfg, capsys)
    assert code == 2
    assert error_reply(cap)["error"] == "ConfigError"


def test_missing_required_key(tmp_path, capsys):
    cfg = {"operator": "complex-airy", "u": 0.0, "h": 0.125}
    code, _, cap = run(tmp_path, "mode", cfg, capsys)
    assert code == 2
    assert "xi" in error_reply(cap)["message"]


def test_malformed_json_config(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text("{not json")
    code = cli.main(["region", "--config", str(cfg_path)])
    cap = capsys.readouterr()
    assert code == 2
    assert error_reply(cap)["error"] == "ConfigError"


def test_missing_config_file(tmp_path, capsys):
    code = cli.main(["region", "--config", str(tmp_path / "absent.json")])
    cap = capsys.readouterr()
    assert code == 2
    assert "cannot read config" in error_reply(cap)["message"]


def test_config_must_be_object(tmp_path, capsys):
    cfg_path = tmp_path / "list.json"
    cfg_path.write_text("[1, 2, 3]")
    code = cli.main(["region", "--config", str(cfg_path)])
    cap = capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("command, cfg", [
    ("region", {"operator": "complex-airy", "u": {"lo": -1.0, "hi": 1.0, "m": 3},
                "xi": {"lo": -1.0, "hi": 1.0, "m": 3}}),
    ("psgrid", {"operator": "complex-airy", "h": 0.25,
                "grid": {"lo": -1.0, "hi": 1.0, "m": 24},
                "z_re": {"lo": 0.2, "hi": 1.2, "m": 2},
                "z_im": {"lo": -0.3, "hi": 0.3, "m": 2}}),
])
@pytest.mark.parametrize("plot", ["no", 1, None])
def test_plot_must_be_boolean(tmp_path, capsys, command, cfg, plot):
    code, out, cap = run(tmp_path, command, dict(cfg, plot=plot), capsys)
    assert code == 2
    assert len(cap.err.splitlines()) == 1
    assert error_reply(cap)["error"] == "ConfigError"
    assert "plot" in error_reply(cap)["message"]
    assert not out.exists() or not any(out.iterdir())


def test_unknown_operator_name(tmp_path, capsys):
    cfg = {"operator": "no-such-field", "u": 0.0, "xi": -1.0, "h": 0.125}
    code, _, cap = run(tmp_path, "mode", cfg, capsys)
    assert code == 2
    assert "no-such-field" in error_reply(cap)["message"]


def test_precondition_failure_exits_3(tmp_path, capsys):
    # xi > 0 leaves the bracket-positive region for the Airy model
    cfg = {"operator": "complex-airy", "u": 0.0, "xi": 1.0, "h": 0.125}
    code, _, cap = run(tmp_path, "mode", cfg, capsys)
    assert code == 3
    assert error_reply(cap)["error"] == "NotInOmegaError"


@pytest.mark.parametrize("kind", ["interior", "rough", "gaussian"])
def test_mode_support_past_the_domain_exits_3(tmp_path, capsys, kind):
    # complex-airy lives on [-4, 4]; a width-0.5 support at u = 3.9 leaves it
    cfg = {"operator": "complex-airy", "kind": kind, "u": 3.9, "xi": -1.0,
           "h": 2.0 ** -6}
    code, out, cap = run(tmp_path, "mode", cfg, capsys)
    assert code == 3
    assert error_reply(cap)["error"] == "DomainError"
    assert not (out / "mode_samples.csv").exists()


def test_degenerate_root_exits_3(tmp_path, capsys):
    # z at the parabola vertex makes the two exponents collide
    cfg = {"operator": "advection-exit", "z": 0.25, "h": 0.125,
           "robin": [1.0, 1.0]}
    code, _, cap = run(tmp_path, "boundary", cfg, capsys)
    assert code == 3


def test_numeric_failure_exits_4(tmp_path, capsys, monkeypatch):
    def boom(cfg, outdir):
        raise ConvergenceError("iteration stalled")
    monkeypatch.setitem(cli._COMMANDS, "region", boom)
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text("{}")
    code = cli.main(["region", "--config", str(cfg_path)])
    cap = capsys.readouterr()
    assert code == 4
    assert error_reply(cap)["error"] == "ConvergenceError"


def test_memory_error_exits_4(tmp_path, capsys, monkeypatch):
    # a grid too large for memory; raised here instead of allocated
    def oom(*args):
        raise MemoryError("Unable to allocate 74.5 TiB")
    monkeypatch.setattr(cli.gd, "discretize", oom)
    code, _, cap = run(tmp_path, "psgrid", _BASE["psgrid"], capsys)
    assert code == 4
    assert len(cap.err.splitlines()) == 1
    assert error_reply(cap)["error"] == "MemoryError"


_BASE = {
    "region": {"operator": "complex-airy", "u": {"lo": -1.0, "hi": 1.0, "m": 3},
               "xi": {"lo": -1.0, "hi": 1.0, "m": 3}},
    "mode": {"operator": "complex-airy", "u": 0.0, "xi": -1.0, "h": 0.125},
    "boundary": {"operator": "advection-exit", "z": 0.2, "h": 0.125,
                 "robin": [1.0, 1.0]},
    "sweep": {"operator": "complex-airy", "rows": [{"u": 0.0, "xi": -1.0}],
              "h_list": [2.0 ** -k for k in range(3, 7)]},
    "psgrid": {"operator": "complex-airy", "h": 0.25,
               "grid": {"lo": -1.0, "hi": 1.0, "m": 24},
               "z_re": {"lo": 0.2, "hi": 1.2, "m": 2},
               "z_im": {"lo": -0.3, "hi": 0.3, "m": 2}},
    "evolve": {"operator": "complex-airy", "h": 2.0 ** -5,
               "grid": {"lo": -1.0, "hi": 1.0, "m": 60},
               "modes": [{"u": 0.0, "xi": -1.0}]},
    "fbi": {"h_list": [1e-1], "grids": {"nxi": 8}, "isometry_h": []},
}
_AIRY_BY_PAIRS = {"a": [1], "c": [0.0, [0.0, 1.0]]}


def _outputs(tmp_path, command, cfg, capsys, sub):
    (tmp_path / sub).mkdir(parents=True)
    code, out, _ = run(tmp_path / sub, command, cfg, capsys)
    assert code == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_explicit_defaults_write_the_same_files(tmp_path, capsys):
    # a one-mode roster's default coefficient is 1, and a missing bc block
    # means Dirichlet
    for command, extra in [("evolve", {"coefficients": [1.0]}),
                           ("psgrid", {"bc": {"kind": "dirichlet"}})]:
        implicit = _outputs(tmp_path, command, _BASE[command], capsys,
                            f"{command}/implicit")
        explicit = _outputs(tmp_path, command, dict(_BASE[command], **extra),
                            capsys, f"{command}/explicit")
        assert explicit == implicit


def test_evolve_budget_is_linear_in_the_coefficients(tmp_path, capsys):
    tables = []
    for sub, c in [("one", [1.0]), ("two_i", [[0.0, 2.0]])]:
        cfg = dict(_BASE["evolve"], coefficients=c)
        files = _outputs(tmp_path, "evolve", cfg, capsys, sub)
        rows = files["evolve_budget.csv"].decode().splitlines()[1:]
        tables.append(np.array([[float(v) for v in r.split(",")]
                                for r in rows]))
    one, two_i = tables
    np.testing.assert_array_equal(two_i[:, :2], one[:, :2])
    np.testing.assert_allclose(two_i[:, 2:], 2.0 * one[:, 2:], rtol=1e-9)


def test_evolve_refuses_endless_propagation(tmp_path, capsys):
    # exp(tA) f at t = 1e300 would need about 1e298 short steps
    cfg = dict(_BASE["evolve"], t_list=[1e300])
    code, _, cap = run(tmp_path, "evolve", cfg, capsys)
    assert code == 3
    assert len(cap.err.splitlines()) == 1
    assert error_reply(cap)["error"] == "PreconditionError"


def test_fbi_nan_gram_exits_4_with_one_line(tmp_path, capsys, monkeypatch):
    # a correlation pass that gives NaN is refused by the lower end's
    # Rayleigh quotient
    monkeypatch.setattr(cli.fbi.DistortedFBI, "_correlate",
                        lambda self, f: np.full_like(self._table, np.nan))
    code, _, cap = run(tmp_path, "fbi", _BASE["fbi"], capsys)
    assert code == 4
    assert "Traceback" not in cap.err
    assert len(cap.err.splitlines()) == 1
    assert error_reply(cap)["error"] == "ConvergenceError"


def test_fbi_makes_no_krylov_solve(tmp_path, capsys, monkeypatch):
    # the symbol bracket needs no Lanczos solve, and on the scaled grids the
    # transform is one matrix at every h, so one bracket gives every row
    def solved(*args):
        raise AssertionError("cmd_fbi ran a Krylov solve")
    monkeypatch.setattr(cli.fbi, "eigsh", solved)
    cfg = dict(_BASE["fbi"], h_list=[1e-1, 1e-2, 1e-3])
    code, out, cap = run(tmp_path, "fbi", cfg, capsys)
    assert code == 0, cap.err
    rows = read_lines(out / "fbi_norms.csv")[1:]
    assert len(rows) == 3 and len({r.split(",")[1] for r in rows}) == 1
    rep = json.loads((out / "fbi_report.json").read_text())
    assert rep["norm_variation"] == 0.0


def test_fbi_refuses_a_later_h_below_the_floor(tmp_path, capsys):
    # every h meets the floor before anything is computed, so a second h
    # below _H_MIN is refused although the first h's transform serves every row
    cfg = dict(_BASE["fbi"], h_list=[0.1, 1e-300])
    code, _, cap = run(tmp_path, "fbi", cfg, capsys)
    assert code == 3
    assert len(cap.err.splitlines()) == 1
    reply = error_reply(cap)
    assert reply["error"] == "PreconditionError"
    assert reply["message"] == (f"semiclassical parameter h=1e-300 is below "
                                f"{_H_MIN:.3g}, where mode derivatives overflow")


def test_fbi_profile_at_the_largest_s_the_config_accepts(tmp_path, capsys):
    # t = h^2 s^3 reaches 1e22 and 1e298, and g_limit_t the largest float,
    # where G is its Laplace expansion sqrt(pi/c6) (1 + 1/(c6 t))
    cfg = dict(_BASE["fbi"], profile_s=[1e8, 1e100],
               g_limit_t=1.7976931348623157e308)
    code, out, cap = run(tmp_path, "fbi", cfg, capsys)
    assert code == 0, cap.err
    rows = [line.split(",") for line in read_lines(out / "fbi_profile.csv")[1:]]
    assert len(rows) == 2
    for _, _, F, G in rows:
        assert F == G
    rep = json.loads((out / "fbi_report.json").read_text())
    assert rep["profile_match"] == 0.0
    # G(inf) = sqrt(pi/c6) is 3 times G(0+) = sqrt(pi)/(3 sqrt(c6))
    assert abs(rep["g_limit_rel_err"] - 2.0) <= 1e-15


def test_fbi_profile_where_h2_s3_underflows_is_its_limit(tmp_path, capsys):
    # s = 1e-110 is inside the accepted range, but h^2 s^3 is 0 in floats;
    # from c6 t = 1e-48 down, F = G = G(0+) = g_limit(c6) to eps
    cfg = dict(_BASE["fbi"], profile_s=[1e-110])
    code, out, cap = run(tmp_path, "fbi", cfg, capsys)
    assert code == 0, cap.err
    rows = [line.split(",") for line in read_lines(out / "fbi_profile.csv")[1:]]
    assert len(rows) == 1
    _, _, F, G = rows[0]
    rep = json.loads((out / "fbi_report.json").read_text())
    assert F == G and float(G) == rep["g_limit"]
    assert rep["profile_match"] == 0.0


@pytest.mark.parametrize("override", [
    {"g_limit_t": 5e-324},                       # a subnormal t
    {"kappa": [0.4, 0.0], "g_limit_t": 5e-324},  # c6 t underflows to 0
    {"kappa": [2.0, 0.0], "g_limit_t": 1e-308},  # c6 t = 2e-308 is subnormal
])
def test_fbi_g_limit_t_below_the_normal_range_meets_the_limit(tmp_path, capsys,
                                                             override):
    code, out, cap = run(tmp_path, "fbi", dict(_BASE["fbi"], **override),
                         capsys)
    assert code == 0, cap.err
    rep = json.loads((out / "fbi_report.json").read_text())
    assert rep["g_limit_rel_err"] == 0.0


def test_evolve_auto_gamma_runs_past_4096_nodes_without_an_m_by_m_array(
        tmp_path, capsys):
    # gamma 'auto' is read from the weighted band of the reduced operator and
    # ||E F_delta|| from QR factors, so a grid past the 4,096-node limit the
    # dense abscissa once had runs in memory linear in m
    m = 4099
    cfg = dict(_BASE["evolve"], grid={"lo": -1.0, "hi": 1.0, "m": m},
               t_list=[0.0])
    tracemalloc.start()
    try:
        code, out, cap = run(tmp_path, "evolve", cfg, capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0, cap.err
    assert json.loads((out / "evolve_report.json").read_text())["gamma"] < 0.0
    assert peak < 4 * m * m  # a quarter of one dense complex m x m array


def test_tiny_h_fails_with_one_stderr_line(tmp_path):
    # pytest captures numpy warnings, so run the real CLI: an h whose h^-2
    # overflows is refused before a mode is sampled, with nothing else on
    # stderr
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(_BASE["evolve"],
                                        h=2.976779897257126e-191)))
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "pseudomode.cli", "evolve", "--config",
         str(cfg_path), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 3
    assert len(proc.stderr.splitlines()) == 1
    reply = json.loads(proc.stderr)
    assert sorted(reply) == ["error", "message"]
    assert reply["error"] == "PreconditionError"


def test_large_xi_fails_with_one_stderr_line(tmp_path):
    # run the real CLI, whose stderr pytest does not capture: beyond the
    # bound a xi is refused with one JSON line, at it mode warns of nothing
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    for xi, code in ((-1e160, 2), (-cli._XI_MAX, 0)):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(_BASE["mode"], xi=xi)))
        proc = subprocess.run(
            [sys.executable, "-m", "pseudomode.cli", "mode", "--config",
             str(cfg_path), "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == code
        if code == 0:
            assert proc.stderr == ""
            continue
        assert len(proc.stderr.splitlines()) == 1
        assert json.loads(proc.stderr)["error"] == "ConfigError"


@pytest.mark.parametrize("command, delta0, code, error", [
    ("mode", 1e15, 4, "TruncationError"), ("mode", 1e-300, 4, "TruncationError"),
    ("boundary", 6981463658332.0, 3, "DomainError")])
def test_extreme_delta0_fails_with_one_stderr_line(tmp_path, command, delta0,
                                                    code, error):
    # run the real CLI: a ladder rung whose phase overflows (or whose probe
    # grid underflows) fails its test quietly, so no RuntimeWarning reaches
    # stderr ahead of the one JSON error line
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(_BASE[command], delta0=delta0)))
    proc = subprocess.run(
        [sys.executable, "-m", "pseudomode.cli", command, "--config",
         str(cfg_path), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == code
    assert len(proc.stderr.splitlines()) == 1
    assert json.loads(proc.stderr)["error"] == error


@pytest.mark.parametrize("command, override", [
    ("mode", {"sharpness": 1e300}),
    ("mode", {"sharpness": 1e300, "kind": "rough"}),
    ("boundary", {"polyline_halfwidth": 1e300}),
    ("boundary", {"z": 1e300}),
    ("evolve", {"gamma": 1e300}),
    ("evolve", {"coefficients": [1e300]})])
def test_overflow_fails_with_one_stderr_line(tmp_path, command, override):
    # run the real CLI: these once exited 0 with RuntimeWarnings on stderr
    # (and z = 1e300 wrote rp and rl as nan); under cli.main an overflow,
    # invalid value or division by zero raises and exits 4 with one line
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(_BASE[command], **override)))
    proc = subprocess.run(
        [sys.executable, "-m", "pseudomode.cli", command, "--config",
         str(cfg_path), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 4
    assert len(proc.stderr.splitlines()) == 1
    assert json.loads(proc.stderr)["error"] == "FloatingPointError"


def test_tiny_eta_window_fails_with_one_stderr_line(tmp_path):
    # run the real CLI: a u window of under one grid step per side, which
    # once sampled the kernel at xi near 1e-305 with overflow warnings, is
    # refused before any grid is built
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(_BASE["fbi"],
                                        grids={"nxi": 16, "eta_max": 1e-300})))
    proc = subprocess.run(
        [sys.executable, "-m", "pseudomode.cli", "fbi", "--config",
         str(cfg_path), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 3
    assert len(proc.stderr.splitlines()) == 1
    reply = json.loads(proc.stderr)
    assert reply["error"] == "PreconditionError"
    assert "0.5*osc*eta_max*ppw" in reply["message"]


# (command, override, exit code, n).  n fixes the case's id at
# command-override<n>-code, the name it had when ids were row positions, so a
# row can move next to related rows without renaming its case; a new row
# takes the next unused n.
_MALFORMED = [
    ("psgrid", {"grid": "abc"}, 2, 0),
    ("psgrid", {"grid": {"lo": 1.0, "hi": -1.0, "m": 50}}, 2, 1),
    ("evolve", {"grid": "abc"}, 2, 2),
    ("evolve", {"grid": {"lo": 1.0, "hi": 1.0, "m": 50}}, 2, 3),
    ("sweep", {"rows": [3]}, 2, 4),
    ("evolve", {"modes": [3]}, 2, 5),
    ("psgrid", {"cloud": 5}, 2, 6),
    ("fbi", {"orthogonality": 7}, 2, 7),
    ("fbi", {"grids": [1]}, 2, 8),
    ("sweep", {"h_list": 5}, 2, 9),
    ("fbi", {"h_list": 5}, 2, 10),
    ("fbi", {"orthogonality": {"h_list": 5}}, 2, 11),
    ("fbi", {"isometry_h": 5}, 2, 12),
    ("fbi", {"profile_s": 5}, 2, 13),
    ("fbi", {"kappa": [True, 0.3]}, 2, 14),
    ("evolve", {"t_list": 3}, 2, 15),
    ("evolve", {"delta_list": 3}, 2, 16),
    ("evolve", {"coefficients": 5}, 2, 17),
    ("evolve", {"coefficients": [float("nan")]}, 2, 18),
    ("mode", {"window": "foo"}, 2, 19),
    ("sweep", {"window": "foo"}, 2, 20),
    ("boundary", {"window": "foo"}, 2, 21),
    ("mode", {"K": 100}, 3, 22),
    ("boundary", {"z": float("nan")}, 2, 23),
    ("boundary", {"z": True}, 2, 24),
    ("boundary", {"z": [0.2, "x"]}, 2, 25),
    ("psgrid", {"bc": {"kind": "robin", "coef_deriv": {"re": float("inf")},
                       "coef_value": 1.0}}, 2, 26),
    ("mode", {"operator": {"a": [1.0], "c": [0.0, {"re": float("nan"),
                                                    "im": 1.0}]}}, 2, 27),
    ("mode", {"operator": {"a": [True], "c": [0.0, [0.0, 1.0]]}}, 2, 28),
    ("mode", {"operator": {"a": [], "c": [0.0, [0.0, 1.0]]}}, 3, 29),  # a = 0
    ("mode", {"operator": {"a": [1.0], "c": [0.0, [0.0, 1.0, 2.0]]}}, 2, 30),
    ("mode", {"operator": {"a": [1.0], "domain": "ab"}}, 2, 31),
    ("mode", {"operator": {"a": [1.0], "domain": [1, -1]}}, 2, 32),
    ("mode", {"operator": {"a": [1.0], "domain": [-1.0, float("inf")]}},
     2, 33),
    # the boundary constructions anchor at x = 0, which must be the endpoint
    ("boundary", {"operator": {"a": [1], "b": [[0, -1]], "c": [0],
                               "domain": [-1, 2]}}, 3, 34),
    ("region", {"prefix": 7}, 2, 35),
    ("mode", {"prefix": ["a"]}, 2, 36),
    ("mode", {"prefix": "no/such/x"}, 2, 37),
    ("boundary", {"prefix": "a\u0000b"}, 2, 38),
    ("mode", {"out_dir": 5}, 2, 39),
    ("mode", {"out_dir": "cfg.json/out"}, 2, 40),  # a file is in the way
    ("mode", {"prefix": "x" * 300}, 2, 41),     # file name too long to write
    ("evolve", {"modes": [{"u": 0.0}]}, 2, 42),
    ("evolve", {"modes": [{"u": 0.0, "xi": -1.0, "n": -1}]}, 2, 43),
    ("evolve", {"gamma": "x"}, 2, 44),
    ("evolve", {"coefficients": [1.0, 2.0]}, 2, 45),
    ("fbi", {"h_list": []}, 2, 46),
    ("fbi", {"profile_s": [1e300]}, 2, 47),
    ("fbi", {"kappa": [1e300, 0.0]}, 3, 48),        # kernel table too large
    ("fbi", {"isometry_h": [1e-6]}, 3, 49),         # kernel table too large
    # F(h, -1e100) is subnormal at c6 = Re kappa = 1e14 and 1e15 (8.9e-320,
    # 2.8e-321, with 3 and 1 digits), under the least subnormal at 1e17
    # (about 3e-325) and below every float at 1e20 (about 1e-330); the
    # profile comes before the transform, whose kernel table these kappa
    # would exceed
    ("fbi", {"kappa": [1e14, 0.0], "profile_s": [-1e100]}, 4, 67),
    ("fbi", {"kappa": [1e15, 0.0], "profile_s": [-1e100]}, 4, 68),
    ("fbi", {"kappa": [1e17, 0.0], "profile_s": [-1e100]}, 4, 58),
    ("fbi", {"kappa": [1e20, 0.0], "profile_s": [-1e100]}, 4, 50),
    # c6 (xi/h - s)^2 overflows in F's integrand at c6 = 1e120
    ("fbi", {"kappa": [1e120, 0.0], "profile_s": [-1e100]}, 4, 57),
    # |xi| above cli._XI_MAX, wherever a config gives a xi
    ("mode", {"xi": -1e160}, 2, 51),
    ("sweep", {"rows": [{"u": 0.0, "xi": -1e160}]}, 2, 52),
    ("evolve", {"modes": [{"u": 0.0, "xi": -1e160}]}, 2, 53),
    ("region", {"xi": {"lo": -1e60, "hi": 1.0, "m": 3}}, 2, 54),
    ("psgrid", {"cloud": {"u": {"lo": -1.0, "hi": 1.0, "m": 3},
                          "xi": {"lo": -1.0, "hi": 1e60, "m": 3}}}, 2, 55),
    ("fbi", {"orthogonality": {"xi": -1e160}}, 2, 56),
    # a u window under one grid step per side, or of no finite count
    ("fbi", {"grids": {"nxi": 8, "eta_max": 1e-300}}, 3, 59),
    ("fbi", {"grids": {"nxi": 8, "eta_max": 1e-30}}, 3, 60),
    ("fbi", {"grids": {"nxi": 8, "eta_max": 1e-3}}, 3, 61),
    ("fbi", {"grids": {"nxi": 8, "osc": 1e300, "eta_max": 1e300}}, 3, 62),
    # the decay fit needs two distinct h
    ("fbi", {"orthogonality": {"h_list": []}}, 2, 63),
    ("fbi", {"orthogonality": {"h_list": [0.0625]}}, 2, 64),
    ("fbi", {"orthogonality": {"h_list": [0.0625, 0.0625]}}, 2, 65),
    # about 1e6 x points: the kernel table is refused before allocating
    ("fbi", {"grids": {"nxi": 8, "ppw": 2e4}}, 3, 66),
    # range and shape checks of single keys
    ("mode", {"delta0": 0}, 2, 69),
    ("evolve", {"M": 0.5}, 2, 70),
    ("region", {"u": {"lo": -1.0, "hi": 1.0, "m": 1}}, 2, 71),
    ("region", {"u": {"lo": 1.0, "hi": -1.0, "m": 3}}, 2, 72),
    ("region", {"u": {"lo": -1.0, "hi": 1.0, "m": 0}}, 2, 73),
    ("psgrid", {"bc": {"kind": "neumann"}}, 2, 74),
    ("boundary", {"robin": [1.0, 1.0, 1.0]}, 2, 75),
    ("sweep", {"rows": []}, 2, 76),
    ("sweep", {"h_list": [0.5, 0.25, 0.125]}, 2, 77),
    ("fbi", {"kappa": [-1, 0.3]}, 2, 78),
    ("evolve", {"modes": []}, 2, 79),
]


@pytest.mark.parametrize(
    "command, override, code", [row[:3] for row in _MALFORMED],
    ids=[f"{c}-override{n}-{code}" for c, _, code, n in _MALFORMED])
def test_malformed_config_fails_cleanly(tmp_path, capsys, monkeypatch, command,
                                        override, code):
    def computed(*args):
        raise AssertionError("discretized before the config was read")
    # a malformed config fails before any operator is built; relative output
    # paths resolve inside tmp_path
    monkeypatch.setattr(cli.gd, "discretize", computed)
    monkeypatch.chdir(tmp_path)
    got, _, cap = run(tmp_path, command, dict(_BASE[command], **override),
                      capsys)
    assert got == code
    assert "Traceback" not in cap.err
    assert len(cap.err.splitlines()) == 1
    error_reply(cap)


@pytest.mark.parametrize("command, key", [
    ("sweep", "rows"), ("evolve", "modes"), ("evolve", "t_list"),
    ("evolve", "delta_list"), ("fbi", "profile_s")])
def test_an_empty_list_is_refused_before_any_file(tmp_path, capsys, command,
                                                   key):
    # each list gives one output row per entry: an empty one is a config
    # error, found before anything is computed or written
    code, out, cap = run(tmp_path, command, dict(_BASE[command], **{key: []}),
                         capsys)
    assert code == 2
    assert len(cap.err.splitlines()) == 1
    reply = error_reply(cap)
    assert reply == {"error": "ConfigError",
                     "message": f"'{key}' must not be empty"}
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["psgrid", "evolve"])
def test_singular_robin_rows_exit_3(tmp_path, capsys, command):
    # dx = 0.25 on [0, 2] with m = 9: the left Robin row's pivot
    # 1 * h * (-3 / (2 dx)) + 1.5 is 0, so the row cannot be eliminated
    cfg = dict(_BASE[command], operator="advection-exit", h=0.25,
               grid={"lo": 0.0, "hi": 2.0, "m": 9},
               bc={"kind": "robin", "coef_deriv": 1.0, "coef_value": 1.5})
    if command == "evolve":
        cfg["modes"] = [{"u": 1.0, "xi": -1.0}]
    code, _, cap = run(tmp_path, command, cfg, capsys)
    assert code == 3
    assert "Traceback" not in cap.err
    assert len(cap.err.splitlines()) == 1
    reply = error_reply(cap)
    assert reply["error"] == "PreconditionError"
    assert reply["message"] == "boundary rows are singular"


# every key each fuzzed subcommand reads ('out_dir' is left out: a drawn
# directory would be created wherever it points)
_FUZZ_KEYS = {
    "region": ["operator", "u", "xi", "prefix", "plot"],
    "mode": ["operator", "kind", "u", "xi", "h", "n", "K", "delta0",
             "sharpness", "npts", "window", "prefix"],
    "boundary": ["operator", "z", "h", "n", "K", "delta0", "robin",
                 "polyline_halfwidth", "polyline_points", "window", "prefix"],
    "sweep": ["operator", "rows", "h_list", "K", "delta0", "window",
              "prefix"],
    "psgrid": ["operator", "h", "grid", "bc", "z_re", "z_im", "cloud",
               "plot", "prefix"],
    "evolve": ["operator", "h", "grid", "bc", "modes", "K", "delta0", "n",
               "t_list", "delta_list", "M", "gamma", "coefficients",
               "prefix"],
    "fbi": ["kappa", "h_list", "grids", "profile_s", "g_limit_t",
            "orthogonality", "isometry_h", "prefix"],
}
# magnitudes at the ends of the float range: overflow, underflow, subnormals
_EXTREMES = st.sampled_from([1e300, -1e300, 1e-300, -1e-300, 2.5e-310,
                             -2.5e-310, 5e-324])
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10 ** 4, 10 ** 4) | st.floats()
    | _EXTREMES | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)


def keeps_the_contract(tmp_path, capsys, command, cfg):
    # a warning would reach a real run's stderr, so it is recorded here
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, cap = run(tmp_path, command, cfg, capsys)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in cap.err
    if code == 0:
        assert sorted(json.loads(cap.out)) == ["outputs"]
        assert cap.err == "" and not caught, [str(w.message) for w in caught]
    else:
        assert len(cap.err.splitlines()) == 1
        error_reply(cap)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(sorted(_FUZZ_KEYS)), data=st.data())
def test_config_fuzz_keeps_the_contract(tmp_path, capsys, command, data):
    key = data.draw(st.sampled_from(_FUZZ_KEYS[command]), label="key")
    value = data.draw(_JSON_VALUES, label="value")
    keeps_the_contract(tmp_path, capsys, command,
                       dict(_BASE[command], **{key: value}))


def _numeric_leaves(obj, path=()):
    """Paths to the int and float leaves of a JSON config."""
    if isinstance(obj, (dict, list)):
        items = obj.items() if isinstance(obj, dict) else enumerate(obj)
        return [p for k, v in items for p in _numeric_leaves(v, path + (k,))]
    numeric = isinstance(obj, (int, float)) and not isinstance(obj, bool)
    return [path] if numeric else []


def _replaced(cfg, path, value):
    cfg = json.loads(json.dumps(cfg))
    node = cfg
    for k in path[:-1]:
        node = node[k]
    node[path[-1]] = value
    return cfg


# every numeric key, and every numeric leaf of the base configs, at both ends
# of the float range: the overflow class the random fuzz rarely draws
_NOT_NUMERIC = {"operator", "prefix", "plot", "kind", "window", "bc"}
_EXTREME_CASES = [
    pytest.param(command, path, value, id=f"{command}-{tag}-{'.'.join(map(str, path))}"
                 f"-{value:+g}")
    for value in (1e300, -1e300)
    for command in sorted(_FUZZ_KEYS)
    for tag, paths in (("key", [(k,) for k in _FUZZ_KEYS[command]
                                if k not in _NOT_NUMERIC]),
                       ("leaf", _numeric_leaves(_BASE[command])))
    for path in paths]


@pytest.mark.parametrize("command, path, value", _EXTREME_CASES)
def test_extreme_magnitudes_keep_the_contract(tmp_path, capsys, command, path,
                                              value):
    keeps_the_contract(tmp_path, capsys, command,
                       _replaced(_BASE[command], path, value))


@pytest.mark.parametrize("spec", [
    _AIRY_BY_PAIRS,
    {"a": [[1, 0]], "b": [{"re": 0.0}], "c": [[0.0, 0.0], [0.0, 1.0]]},
    {"a": 1, "c": [0, {"im": 1}], "domain": [-4, 4]},
])
def test_polynomial_operator_entry_forms(tmp_path, capsys, spec):
    # every form spells a = 1, b = 0, c = i u on [-4, 4]: the Airy built-in
    outs = []
    for name, op in (("named", "complex-airy"), ("poly", spec)):
        cfg = dict(_BASE["mode"], operator=op, prefix=name)
        code, out, _ = run(tmp_path, "mode", cfg, capsys, name=f"{name}.json")
        assert code == 0
        outs.append([(out / f"{name}{suffix}").read_bytes()
                     for suffix in ("_samples.csv", "_residuals.json")])
    assert outs[0] == outs[1]
