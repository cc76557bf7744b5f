"""Output checks that hold for any seed.

``check(inv, outdir, rng)`` reads the files one invocation wrote and returns
(failures, stats): a list of messages, empty when the outputs are correct,
and counters for the per-layer report.  Thresholds are the ones
tests/test_cli.py asserts, widened from its single inputs to the seeded
ranges of workloads.py where the test pins one value (its n = 1 slope
window becomes n + 2 +- 0.5).  The psgrid check compares against
scipy.linalg.svdvals, which shares no code with the inverse iteration.
"""

import csv
import json
import math
import os

import numpy as np
import scipy.linalg as sla

from pseudomode import grid as gd
from pseudomode.operators import get_operator

EPS = float(np.finfo(float).eps)
ORACLE_CELLS = 10  # svdvals cells per psgrid invocation
ORACLE_RTOL = 1e-6
# both s_min values carry an absolute error of a few eps ||W||_2 (Weyl's
# bound on the backward error), which dominates just above the floor
ORACLE_ATOL_FLOORS = 10.0

# closed-form principal symbols of the built-in fields used by the workloads
SYMBOLS = {
    "complex-airy": lambda u, xi: xi ** 2 + 1j * u,
    "davies-rotated": lambda u, xi: xi ** 2 + 1j * u ** 2,
}


def _csv(outdir, prefix, suffix):
    with open(os.path.join(outdir, prefix + suffix)) as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _json(outdir, prefix, suffix):
    with open(os.path.join(outdir, prefix + suffix)) as fh:
        return json.load(fh)


def _cplx(v):
    return complex(v[0], v[1]) if isinstance(v, list) else complex(v)


def _require(fails, ok, message):
    if not ok:
        fails.append(message)


def _bc(block):
    if block is None:
        return gd.BoundaryCondition("dirichlet")
    return gd.BoundaryCondition("robin", coef_deriv=_cplx(block["coef_deriv"]),
                                coef_value=_cplx(block["coef_value"]))


def check_psgrid(cfg, outdir, rng):
    fails = []
    header, rows = _csv(outdir, cfg["prefix"], "_smin.csv")
    _require(fails, header == ["re_z", "im_z", "s_min", "converged"],
             f"smin header {header}")
    z_re = np.linspace(cfg["z_re"]["lo"], cfg["z_re"]["hi"], cfg["z_re"]["m"])
    z_im = np.linspace(cfg["z_im"]["lo"], cfg["z_im"]["hi"], cfg["z_im"]["m"])
    cells = [complex(r, i) for r in z_re for i in z_im]
    if len(rows) != len(cells):
        return [f"{len(rows)} cells written, {len(cells)} expected"], {}
    g = cfg["grid"]
    op = gd.discretize(get_operator(cfg["operator"]), cfg["h"],
                       gd.Grid1D(g["lo"], g["hi"], g["m"]), _bc(cfg.get("bc")))
    sw = np.sqrt(op.w_interior)
    M = op.reduced()
    eye = np.eye(M.shape[0])
    sample = set(rng.sample(range(len(cells)), ORACLE_CELLS))
    stats = {"cells": len(cells), "converged": 0, "below_floor": 0}
    for k, (z, row) in enumerate(zip(cells, rows)):
        re_z, im_z, s, conv = float(row[0]), float(row[1]), float(row[2]), row[3]
        _require(fails, complex(re_z, im_z) == z, f"cell {k} at {row[:2]}, not {z}")
        _require(fails, math.isfinite(s) and s >= 0.0, f"cell {k} s_min {s}")
        # every cell of the workloads' windows converges at this commit
        _require(fails, conv == "1", f"cell {k} z={z} did not converge")
        stats["converged"] += conv == "1"
        W = sw[:, None] * (M - z * eye) / sw[None, :]
        if k in sample:
            sv = sla.svdvals(W)
            norm, oracle = float(sv[0]), float(sv[-1])
        else:
            # ||W||_2 <= sqrt(||W||_1 ||W||_inf), tight to ~1% for these
            # banded matrices; an exact SVD per cell would dominate the run
            norm = math.sqrt(np.linalg.norm(W, 1) * np.linalg.norm(W, np.inf))
            oracle = None
        below = (oracle if oracle is not None else s) < EPS * norm
        stats["below_floor"] += below
        # below the roundoff floor both numbers are noise: classify only
        if oracle is not None and not below:
            tol = ORACLE_RTOL * oracle + ORACLE_ATOL_FLOORS * EPS * norm
            _require(fails, abs(s - oracle) <= tol,
                     f"cell {k} z={z}: s_min {s!r} vs svdvals {oracle!r}")
    return fails, stats


def check_evolve(cfg, outdir, rng):
    fails = []
    n_t, n_d = len(cfg["t_list"]), len(cfg["delta_list"])
    header, rows = _csv(outdir, cfg["prefix"], "_bounds.csv")
    _require(fails, header == ["t", "lhs", "bound", "ratio"] and len(rows) == n_t,
             "bounds table shape")
    header, rows = _csv(outdir, cfg["prefix"], "_budget.csv")
    _require(fails, header == ["t", "delta", "true_err", "budget"]
             and len(rows) == n_t * n_d, "budget table shape")
    for row in rows:
        _, _, true_err, budget = (float(v) for v in row)
        _require(fails, true_err <= budget * (1.0 + 1e-9),
                 f"true_err {true_err} > budget {budget}")
    rep = _json(outdir, cfg["prefix"], "_report.json")
    _require(fails, rep["defect"] > 0.0, "defect not positive")
    _require(fails, len(rep["lam"]) == len(cfg["modes"]), "lam length")
    return fails, {}


def check_sweep(cfg, outdir, rng):
    fails = []
    header, rows = _csv(outdir, cfg["prefix"], "_residuals.csv")
    _require(fails, header == ["kind", "n", "u", "xi", "h", "rq", "rp", "rl"],
             f"residuals header {header}")
    _require(fails, len(rows) == len(cfg["rows"]) * len(cfg["h_list"]),
             "residual row count")
    orders = _json(outdir, cfg["prefix"], "_orders.json")
    _require(fails, len(orders) == len(cfg["rows"]), "order row count")
    for spec, got in zip(cfg["rows"], orders):
        n = spec["n"]
        ok = (got["kind"] == "interior" and got["n"] == n
              and isinstance(got["slope"], float)
              and n + 1.5 < got["slope"] < n + 2.5 and got["r2"] > 0.98)
        _require(fails, ok, f"order fit {got} for n={n} at {spec}")
    return fails, {}


def check_mode(cfg, outdir, rng):
    fails = []
    rep = _json(outdir, cfg["prefix"], "_residuals.json")
    kind = cfg["kind"]
    z = SYMBOLS[cfg["operator"]](cfg["u"], cfg["xi"])
    _require(fails, rep["kind"] == kind, f"kind {rep['kind']}")
    _require(fails, abs(_cplx(rep["z"]) - z) <= 1e-12 * abs(z), f"z {rep['z']} vs {z}")
    for key in ("rq", "rp", "rl", "norm"):
        _require(fails, math.isfinite(rep[key]) and rep[key] > 0.0, f"{key} {rep[key]}")
    if kind == "interior":
        _require(fails, rep["rl"] < 1e-2, f"rl {rep['rl']}")
        _require(fails, 0.5 < rep["norm"] < 3.0, f"norm {rep['norm']}")
        _require(fails, 0.0 < rep["delta"] <= 0.5, f"delta {rep['delta']}")
    elif kind == "gaussian":
        _require(fails, rep["delta"] == 0.5, f"delta {rep['delta']}")
    header, rows = _csv(outdir, cfg["prefix"], "_samples.csv")
    _require(fails, header == ["x", "re_f", "im_f", "re_fp", "im_fp"]
             and len(rows) > 100, "samples table shape")
    return fails, {}


def check_boundary(cfg, outdir, rng):
    fails = []
    rep = _json(outdir, cfg["prefix"], "_report.json")
    z = _cplx(cfg["z"])
    # advection-exit: sigma(0, xi) = xi^2 - i xi, roots (i +- sqrt(4z - 1))/2
    disc = np.sqrt(complex(4.0 * z - 1.0))
    want = sorted([(1j + disc) / 2.0, (1j - disc) / 2.0],
                  key=lambda w: (w.imag, w.real))
    got = [_cplx(r) for r in rep["roots"]]
    _require(fails, all(abs(a - b) <= 1e-12 for a, b in zip(got, want)),
             f"roots {got} vs {want}")
    _require(fails, rep["inside"] is True, "z not inside the parabola")
    _require(fails, rep["band_height"] == 1.0, f"band {rep['band_height']}")
    _require(fails, abs(rep["robin_residual"]) <= 1e-12,
             f"robin residual {rep['robin_residual']}")
    _require(fails, 0.0 < rep["rl"] < 0.1, f"rl {rep['rl']}")
    header, rows = _csv(outdir, cfg["prefix"], "_parabola.csv")
    _require(fails, header == ["s", "re_sigma", "im_sigma"] and len(rows) == 513,
             "parabola table shape")
    return fails, {}


def check_region(cfg, outdir, rng):
    fails = []
    u_m, xi_m = cfg["u"]["m"], cfg["xi"]["m"]
    header, rows = _csv(outdir, cfg["prefix"], "_mask.csv")
    _require(fails, header == ["u", "xi", "bracket", "in_omega"]
             and len(rows) == u_m * xi_m, "mask table shape")
    inside = 0
    bad = 0
    for _, xi, bracket, flag in rows:
        # sigma = xi^2 + i u: bracket -2 xi, membership exactly xi < 0
        xi = float(xi)
        inside += xi < 0.0
        bad += (xi < 0.0) != (flag == "1") or float(bracket) != -2.0 * xi
    _require(fails, bad == 0, f"{bad} mask rows disagree with the closed form")
    header, rows = _csv(outdir, cfg["prefix"], "_symbol.csv")
    _require(fails, header == ["u", "xi", "re_sigma", "im_sigma"]
             and len(rows) == inside, "symbol table shape")
    bad = sum(abs(complex(float(a), float(b)) - SYMBOLS["complex-airy"](float(u), float(x)))
              > 1e-14 for u, x, a, b in rows)
    _require(fails, bad == 0, f"{bad} symbol rows disagree with the closed form")
    return fails, {}


def check_fbi(cfg, outdir, rng):
    fails = []
    rep = _json(outdir, cfg["prefix"], "_report.json")
    _require(fails, rep["kappa"] == cfg["kappa"], f"kappa {rep['kappa']}")
    _require(fails, rep["norm_variation"] < 1e-6, f"norm_variation {rep['norm_variation']}")
    _require(fails, rep["profile_match"] < 1e-10, f"profile_match {rep['profile_match']}")
    _require(fails, rep["g_limit_rel_err"] < 1e-2, f"g_limit_rel_err {rep['g_limit_rel_err']}")
    _require(fails, all(s["spread"] < 0.1 for s in rep["isometry"]),
             f"isometry {rep['isometry']}")
    orth = rep["orthogonality"]
    _require(fails, orth["slope_vs_inv_h"] < 0.0 and orth["r2"] > 0.9,
             f"orthogonality slope {orth['slope_vs_inv_h']} r2 {orth['r2']}")
    header, rows = _csv(outdir, cfg["prefix"], "_norms.csv")
    _require(fails, header == ["h", "norm"] and len(rows) == len(cfg["h_list"]),
             "norms table shape")
    header, _ = _csv(outdir, cfg["prefix"], "_profile.csv")
    _require(fails, header == ["h", "s", "F", "G"], f"profile header {header}")
    return fails, {}


CHECKS = {
    "psgrid": check_psgrid, "evolve": check_evolve, "sweep": check_sweep,
    "mode": check_mode, "boundary": check_boundary, "region": check_region,
    "fbi": check_fbi,
}


def check(inv, outdir, rng):
    """(failures, stats) for one invocation; a missing file is a failure."""
    try:
        return CHECKS[inv["cmd"]](inv["config"], outdir, rng)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"], {}
