"""End-to-end driver runs: every subcommand, exit codes, determinism."""

import json

import numpy as np
import pytest

from pseudomode import cli
from pseudomode.errors import ConvergenceError


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


def test_bad_thread_count(tmp_path, capsys):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text("{}")
    code = cli.main(["region", "--config", str(cfg_path), "--threads", "0"])
    capsys.readouterr()
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
