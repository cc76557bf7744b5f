"""Command line driver.

    pseudomode <subcommand> --config cfg.json [--out DIR]

Subcommands: region, mode, boundary, sweep, psgrid, fbi, evolve.  Configs are
JSON with strict key checking (unknown keys are config errors, not typo
sinks).  Outputs are CSV/JSON data files plus optional gnuplot scripts, all
deterministic: identical configs give byte-identical files.

Exit codes: 0 ok; 2 config error; 3 mathematical precondition violated;
4 numeric failure (non-convergence, a numpy overflow, invalid value or
division by zero, or a proved bound violated, which means a bug).  Failures
print one JSON object {"error": ..., "message": ...} on standard error.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import boundary as bd
from . import fbi
from . import frame as fr
from . import grid as gd
from . import serialize as ser
from .errors import ConfigError, PreconditionError, PseudomodeError
from .operators import get_operator, parse_complex, parse_real
from .symbol import principal_symbol, region_mask, symbol_image
from .wkb import (DEFAULT_K, DEFAULT_NPTS, DELTA0, _check_h, assemble_mode, gaussian_mode,
                  rough_mode)

_REQUIRED = object()
_DEFAULT_H_SWEEP = [2.0 ** -k for k in range(4, 10)]
#: the largest |xi| a config may give; a mode's residuals stay finite below it
_XI_MAX = 1e50


# -- config plumbing -----------------------------------------------------------


def _take(cfg, key, default=_REQUIRED):
    if key in cfg:
        return cfg.pop(key)
    if default is _REQUIRED:
        raise ConfigError(f"missing required config key '{key}'")
    return default


def _done(cfg, where):
    if cfg:
        raise ConfigError(f"unknown config key(s) in {where}: {sorted(cfg)}")


def _real(v, name, lo=None, hi=None, open_lo=False):
    x = parse_real(v, name)
    if lo is not None and (x < lo or (open_lo and x == lo)):
        raise ConfigError(f"'{name}' must be {'>' if open_lo else '>='} {lo}")
    if hi is not None and x > hi:
        raise ConfigError(f"'{name}' must be <= {hi}")
    return x


def _int(v, name, lo=None):
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"'{name}' must be an integer, got {v!r}")
    if lo is not None and v < lo:
        raise ConfigError(f"'{name}' must be >= {lo}")
    return v


def _bool(v, name):
    if not isinstance(v, bool):
        raise ConfigError(f"'{name}' must be true or false, got {v!r}")
    return v


def _obj(v, name):
    """A copy of a JSON object block, for _take to consume."""
    if not isinstance(v, dict):
        raise ConfigError(f"'{name}' must be an object, got {v!r}")
    return dict(v)


def _list(v, name, parse, nonempty=False, **kw):
    """A JSON list, each entry read by parse(entry, 'name[]', **kw).

    With nonempty, an empty list is refused: each entry gives output rows.
    """
    if not isinstance(v, list):
        raise ConfigError(f"'{name}' must be a list, got {v!r}")
    if nonempty and not v:
        raise ConfigError(f"'{name}' must not be empty")
    return [parse(e, f"{name}[]", **kw) for e in v]


def _window(v):
    if v not in ("auto", "support", "plateau"):
        raise ConfigError(f"'window' must be 'auto', 'support' or 'plateau', got {v!r}")
    return v


def _xi(x, name):
    """x, a number or an axis, once every entry has |xi| <= _XI_MAX."""
    if np.any(np.abs(x) > _XI_MAX):
        raise ConfigError(f"'{name}' must lie in [-{_XI_MAX:g}, {_XI_MAX:g}]")
    return x


def _h_value(v, name="h"):
    return _real(v, name, lo=0.0, open_lo=True, hi=1.0)


def _axis(block, name, min_m=2):
    """{lo, hi, m} -> linspace; m = 0 gives an empty axis."""
    block = _obj(block, name)
    lo = _real(_take(block, "lo"), f"{name}.lo")
    hi = _real(_take(block, "hi"), f"{name}.hi")
    m = _int(_take(block, "m"), f"{name}.m", lo=0)
    _done(block, f"'{name}'")
    if m == 0:
        return np.empty(0)
    if m < min_m:
        raise ConfigError(f"'{name}.m' must be 0 or >= {min_m}")
    if not lo < hi:
        raise ConfigError(f"'{name}' needs lo < hi")
    return np.linspace(lo, hi, m)


def _grid(cfg):
    """The 'grid' block {lo, hi, m} of psgrid and evolve."""
    block = _obj(_take(cfg, "grid"), "grid")
    lo = _real(_take(block, "lo"), "grid.lo")
    hi = _real(_take(block, "hi"), "grid.hi")
    m = _int(_take(block, "m"), "grid.m", lo=8)
    _done(block, "'grid'")
    if not lo < hi:
        raise ConfigError("'grid' needs lo < hi")
    return gd.Grid1D(lo, hi, m)


def _path_part(v, name, separators=False):
    """A string for output paths: no NUL, and no path separator unless allowed."""
    bad = ["\0"] + [c for c in (os.sep, os.altsep) if c and not separators]
    if not isinstance(v, str) or any(c in v for c in bad):
        raise ConfigError(
            f"'{name}' must be a string without any of {bad}, got {v!r}")
    return v


def _bc(block):
    if block is None:
        return gd.BoundaryCondition("dirichlet")
    block = _obj(block, "bc")
    kind = _take(block, "kind")
    if kind == "dirichlet":
        _done(block, "'bc'")
        return gd.BoundaryCondition("dirichlet")
    if kind == "robin":
        cd = parse_complex(_take(block, "coef_deriv"), "bc.coef_deriv")
        cv = parse_complex(_take(block, "coef_value"), "bc.coef_value")
        _done(block, "'bc'")
        return gd.BoundaryCondition("robin", coef_deriv=cd, coef_value=cv)
    raise ConfigError("'bc.kind' must be 'dirichlet' or 'robin'")


# -- subcommands ---------------------------------------------------------------


def cmd_region(cfg, stem):
    cf = get_operator(_take(cfg, "operator"))
    u = _axis(_take(cfg, "u"), "u")
    xi = _xi(_axis(_take(cfg, "xi"), "xi"), "xi")
    plot = _bool(_take(cfg, "plot", False), "plot")
    _done(cfg, "region config")
    if u.size == 0 or xi.size == 0:
        raise ConfigError("region grids must not be empty")
    mask = region_mask(cf, u, xi)
    uu, xx = np.meshgrid(u, xi, indexing="ij")
    files = [ser.write_csv(stem + "_mask.csv",
                           ["u", "xi", "bracket", "in_omega"],
                           [uu.ravel(), xx.ravel(), mask.bracket.ravel(),
                            mask.in_omega.ravel()])]
    su, sxi, sigma = symbol_image(mask)
    files.append(ser.write_csv(stem + "_symbol.csv",
                               ["u", "xi", "re_sigma", "im_sigma"],
                               [su, sxi, sigma.real, sigma.imag]))
    if plot:
        gp = stem + ".gp"
        with open(gp, "w") as fh:
            fh.write("\n".join([
                "set datafile separator ','",
                "set xlabel 're sigma'",
                "set ylabel 'im sigma'",
                f"plot '{os.path.basename(stem)}_symbol.csv' skip 1 using 3:4 "
                "with points pt 7 ps 0.3 title 'sigma(Omega)'",
            ]) + "\n")
        files.append(gp)
    return files


def _build_mode(cf, kind, u, xi, h, n, K, delta0, sharpness, npts):
    if kind == "interior":
        return assemble_mode(cf, u, xi, h, n=n, K=K, delta0=delta0,
                             sharpness=sharpness, npts=npts)
    if kind == "rough":
        return rough_mode(cf, u, xi, h, npts=npts, sharpness=sharpness)
    if kind == "gaussian":
        return gaussian_mode(cf, u, xi, h, sharpness=sharpness, npts=npts)
    raise ConfigError("mode kind must be 'interior', 'rough' or 'gaussian'")


def cmd_mode(cfg, stem):
    cf = get_operator(_take(cfg, "operator"))
    kind = _take(cfg, "kind", "interior")
    u = _real(_take(cfg, "u"), "u")
    xi = _xi(_real(_take(cfg, "xi"), "xi"), "xi")
    h = _h_value(_take(cfg, "h"))
    n = _int(_take(cfg, "n", 1), "n", lo=0)
    K = _int(_take(cfg, "K", DEFAULT_K), "K", lo=1)
    delta0 = _real(_take(cfg, "delta0", DELTA0), "delta0", lo=0.0, open_lo=True)
    sharpness = _real(_take(cfg, "sharpness", 1.0), "sharpness", lo=0.0,
                      open_lo=True)
    npts = _int(_take(cfg, "npts", DEFAULT_NPTS), "npts", lo=64)
    window = _window(_take(cfg, "window", "auto"))
    _done(cfg, "mode config")
    mode = _build_mode(cf, kind, u, xi, h, n, K, delta0, sharpness, npts)
    rq, rp, rl, nrm = gd.residual_triple(mode, cf, window=window)
    files = [ser.mode_to_csv(stem + "_samples.csv", mode)]
    report = {
        "kind": mode.kind, "u": u, "xi": xi, "h": h, "n": mode.n,
        "z": complex(mode.z), "window": window,
        "rq": rq, "rp": rp, "rl": rl, "norm": nrm, "delta": mode.cutoff.delta,
    }
    files.append(ser.write_json(stem + "_residuals.json", report))
    return files


def cmd_boundary(cfg, stem):
    cf = get_operator(_take(cfg, "operator"))
    z = parse_complex(_take(cfg, "z"), "z")
    h = _h_value(_take(cfg, "h"))
    n = _int(_take(cfg, "n", 1), "n", lo=0)
    K = _int(_take(cfg, "K", DEFAULT_K), "K", lo=1)
    delta0 = _real(_take(cfg, "delta0", DELTA0), "delta0", lo=0.0, open_lo=True)
    robin = _list(_take(cfg, "robin"), "robin", parse_complex)
    if len(robin) != 2:
        raise ConfigError("'robin' must be [coef_deriv, coef_value]")
    rc = gd.BoundaryCondition("robin", *robin)
    half = _real(_take(cfg, "polyline_halfwidth", 3.0), "polyline_halfwidth",
                 lo=0.0, open_lo=True)
    m = _int(_take(cfg, "polyline_points", 513), "polyline_points", lo=16)
    window = _window(_take(cfg, "window", "auto"))
    _done(cfg, "boundary config")

    height = bd.boundary_band(cf)
    s = np.linspace(-half, half, m)
    curve = principal_symbol(cf, 0.0, s)
    files = [ser.write_csv(stem + "_parabola.csv",
                           ["s", "re_sigma", "im_sigma"],
                           [s, curve.real, curve.imag])]
    roots = bd.quadratic_roots(cf, z)
    mode = bd.robin_combination(cf, rc, z, h, n=n, K=K, delta0=delta0)
    rq, rp, rl, nrm = gd.residual_triple(mode, cf, window=window)
    files.append(ser.mode_to_csv(stem + "_samples.csv", mode))
    files.append(ser.write_json(stem + "_report.json", {
        "z": z, "h": h, "n": n, "band_height": height,
        "inside": bd.inside_parabola(cf, z),
        "roots": [complex(r) for r in roots],
        "robin_residual": bd.robin_residual(mode, rc),
        "rq": rq, "rp": rp, "rl": rl, "norm": nrm, "window": window,
    }))
    return files


def cmd_sweep(cfg, stem):
    cf = get_operator(_take(cfg, "operator"))
    rows_cfg = _list(_take(cfg, "rows"), "rows", _obj, nonempty=True)
    h_list = _list(_take(cfg, "h_list", _DEFAULT_H_SWEEP), "h_list", _h_value)
    if len(h_list) < 4:
        raise ConfigError("'h_list' needs at least 4 values for order fits")
    K = _int(_take(cfg, "K", DEFAULT_K), "K", lo=1)
    delta0 = _real(_take(cfg, "delta0", DELTA0), "delta0", lo=0.0, open_lo=True)
    window = _window(_take(cfg, "window", "auto"))
    _done(cfg, "sweep config")

    detail = []
    summary = []
    for spec in rows_cfg:
        kind = _take(spec, "kind", "interior")
        u = _real(_take(spec, "u"), "rows[].u")
        xi = _xi(_real(_take(spec, "xi"), "rows[].xi"), "rows[].xi")
        n = _int(_take(spec, "n", 1), "rows[].n", lo=0)
        _done(spec, "'rows[]'")
        rls = []
        for h in h_list:
            mode = _build_mode(cf, kind, u, xi, h, n, K, delta0, 1.0, DEFAULT_NPTS)
            rq, rp, rl, nrm = gd.residual_triple(mode, cf, window=window)
            detail.append((kind, n, u, xi, h, rq, rp, rl))
            rls.append(rl)
        if max(rls) < 1e-13:
            summary.append((kind, n, float("inf"), 1.0))
        else:
            slope, _, r2 = gd.order_fit(h_list, rls)
            summary.append((kind, n, slope, r2))
    files = [
        ser.write_csv(stem + "_residuals.csv",
                      ["kind", "n", "u", "xi", "h", "rq", "rp", "rl"],
                      zip(*detail)),
        ser.write_csv(stem + "_orders.csv",
                      ["kind", "n", "slope", "r2"], zip(*summary)),
        ser.write_json(stem + "_orders.json", [
            {"kind": k, "n": n, "slope": s, "r2": r} for k, n, s, r in summary]),
    ]
    return files


def cmd_psgrid(cfg, stem):
    cf = get_operator(_take(cfg, "operator"))
    h = _h_value(_take(cfg, "h"))
    grid = _grid(cfg)
    bc = _bc(_take(cfg, "bc", None))
    z_re = _axis(_take(cfg, "z_re"), "z_re", min_m=1)
    z_im = _axis(_take(cfg, "z_im"), "z_im", min_m=1)
    cloud = _take(cfg, "cloud", None)
    if cloud is not None:
        cloud = _obj(cloud, "cloud")
        cu = _axis(_take(cloud, "u"), "cloud.u")
        cxi = _xi(_axis(_take(cloud, "xi"), "cloud.xi"), "cloud.xi")
        _done(cloud, "'cloud'")
    plot = _bool(_take(cfg, "plot", False), "plot")
    _done(cfg, "psgrid config")

    smin_path = stem + "_smin.csv"
    if z_re.size == 0 or z_im.size == 0:
        empty = np.empty((z_re.size, z_im.size))
        return [ser.resolvent_to_csv(smin_path, z_re, z_im, empty, empty)]
    op = gd.discretize(cf, h, grid, bc)
    smin, ok = gd.resolvent_map(op, z_re, z_im)
    files = [ser.resolvent_to_csv(smin_path, z_re, z_im, smin, ok)]
    overlays = []
    if cloud is not None:
        _, _, sigma = symbol_image(region_mask(cf, cu, cxi))
        cpath = ser.write_csv(stem + "_cloud.csv",
                              ["re_z", "im_z"], [sigma.real, sigma.imag])
        files.append(cpath)
        overlays.append(os.path.basename(cpath))
    try:
        bd.boundary_band(cf)   # raises where there is no exit condition
        s = np.linspace(-3.0, 3.0, 257)
        curve = principal_symbol(cf, 0.0, s)
        ppath = ser.write_csv(stem + "_parabola.csv",
                              ["re_z", "im_z"], [curve.real, curve.imag])
        files.append(ppath)
        overlays.append(os.path.basename(ppath))
    except PreconditionError:
        pass  # no exit condition: no boundary overlay
    if plot:
        files.append(ser.gnuplot_contour(
            stem + ".gp",
            os.path.basename(files[0]), "resolvent norm map", overlays))
    return files


def cmd_fbi(cfg, stem):
    kappa = parse_complex(_take(cfg, "kappa", [1.0, 0.3]), "kappa")
    if kappa.real <= 0.0:
        raise ConfigError("'kappa' needs a positive real part")
    h_list = _list(_take(cfg, "h_list", [1e-1, 1e-2, 1e-3]), "h_list", _h_value,
                   nonempty=True)
    gb = _obj(_take(cfg, "grids", {}), "grids")
    eta_max = _real(_take(gb, "eta_max", 3.0), "grids.eta_max", lo=0.0, open_lo=True)
    nxi = _int(_take(gb, "nxi", 128), "grids.nxi", lo=8)
    osc = _real(_take(gb, "osc", 12.0), "grids.osc", lo=0.0, open_lo=True)
    ppw = _real(_take(gb, "ppw", 24.0), "grids.ppw", lo=1.0)
    _done(gb, "'grids'")
    # |s| <= 1e100 keeps the G argument h^2 s^3 finite
    s_probes = _list(_take(cfg, "profile_s", [0.0, 0.5, 1.0, 2.0]), "profile_s",
                     _real, nonempty=True, lo=-1e100, hi=1e100)
    t_limit = _real(_take(cfg, "g_limit_t", 1e-7), "g_limit_t", lo=0.0,
                    open_lo=True)
    orth = _take(cfg, "orthogonality", None)
    if orth is not None:
        orth = _obj(orth, "orthogonality")
        cf = get_operator(_take(orth, "operator", "complex-airy"))
        gap = _real(_take(orth, "gap", 0.5), "orthogonality.gap", lo=0.0,
                    open_lo=True)
        ohs = np.array(_list(_take(orth, "h_list", [2.0 ** -k for k in range(4, 9)]),
                             "orthogonality.h_list", _h_value))
        if len(set(ohs)) < 2:
            raise ConfigError("'orthogonality.h_list' needs at least 2 distinct "
                              "values for the decay fit")
        oxi = _xi(_real(_take(orth, "xi", -1.0), "orthogonality.xi"),
                  "orthogonality.xi")
        _done(orth, "'orthogonality'")
    iso_h = _list(_take(cfg, "isometry_h", [1e-3]), "isometry_h", _h_value)
    _done(cfg, "fbi config")

    c6 = kappa.real
    # each h meets the floor that the transform's grids would check at it;
    # they are made at the first h only
    for h in h_list:
        _check_h(h)
    # the profile needs only c6, h and s, so it comes before the transform:
    # a profile the quadrature refuses (exit 4) is refused whether or not
    # the transform's kernel table would be
    prof_rows = []
    worst = 0.0
    for h in h_list:
        for s in s_probes:
            Fv = fbi.boundedness_profile(c6, h, s)
            Gv = fbi.g_profile(c6, h ** 2 * s ** 3) if s > 0 else Fv
            if s > 0:
                worst = max(worst, abs(Fv - Gv) / abs(Gv))
            prof_rows.append((h, s, Fv, Gv))

    report = {"kappa": kappa, "c6": c6}
    # On the scaled grids the transform is one matrix at every h (fbi module
    # docstring; tests/test_fbi.py checks the covariance), so it is built at
    # the first h and its symbol bracket gives every row: norm_variation is 0
    # by construction.  Each row reads the upper end.
    T = fbi.DistortedFBI(kappa, h_list[0], *fbi.scaled_distorted_grids(
        kappa, h_list[0], eta_max=eta_max, nxi=nxi, osc=osc, ppw=ppw))
    norms = [T.norm() for _ in h_list]
    report["norms"] = [{"h": h, "norm": v} for h, v in zip(h_list, norms)]
    vals = np.array(norms)
    report["norm_variation"] = float((vals.max() - vals.min()) / vals.min())
    lower = T.norm_lower()
    report["norm_lower"] = lower
    report["norm_rel_width"] = (norms[0] - lower) / lower
    report["profile_match"] = worst
    glim = fbi.g_limit(c6)
    report["g_limit"] = glim
    report["g_limit_rel_err"] = abs(fbi.g_profile(c6, t_limit) - glim) / glim

    spreads = []
    for h in iso_h:
        ratios = fbi.near_isometry_probe(kappa, h)
        spreads.append({"h": h,
                        "spread": float(ratios.max() / ratios.min() - 1.0)})
    report["isometry"] = spreads

    if orth is not None:
        svs = fbi.orthogonality_decay(cf, ohs, gap=gap, xi=oxi)
        slope, _, r2 = gd.line_fit(1.0 / ohs, np.log(svs))
        report["orthogonality"] = {
            "gap": gap, "h_list": list(ohs), "cross_gram": list(svs),
            "slope_vs_inv_h": slope, "r2": r2,
        }

    files = [
        ser.write_csv(stem + "_norms.csv",
                      ["h", "norm"], [h_list, norms]),
        ser.write_csv(stem + "_profile.csv",
                      ["h", "s", "F", "G"], zip(*prof_rows)),
        ser.write_json(stem + "_report.json", report),
    ]
    return files


def cmd_evolve(cfg, stem):
    cf = get_operator(_take(cfg, "operator"))
    h = _h_value(_take(cfg, "h"))
    grid = _grid(cfg)
    bc = _bc(_take(cfg, "bc", None))
    roster = _list(_take(cfg, "modes"), "modes", _obj, nonempty=True)
    K = _int(_take(cfg, "K", DEFAULT_K), "K", lo=1)
    delta0 = _real(_take(cfg, "delta0", DELTA0), "delta0", lo=0.0, open_lo=True)
    n_default = _int(_take(cfg, "n", 1), "n", lo=0)
    points = []
    for spec in roster:
        u = _real(_take(spec, "u"), "modes[].u")
        xi = _xi(_real(_take(spec, "xi"), "modes[].xi"), "modes[].xi")
        nn = _int(_take(spec, "n", n_default), "modes[].n", lo=0)
        _done(spec, "'modes[]'")
        points.append((u, xi, nn))
    t_list = _list(_take(cfg, "t_list", [0.1, 0.5, 1.0]), "t_list", _real,
                   nonempty=True, lo=0.0)
    d_list = _list(_take(cfg, "delta_list", [1e-2, 1e-4, 1e-6]), "delta_list",
                   _real, nonempty=True, lo=0.0, open_lo=True)
    M = _real(_take(cfg, "M", 1.0), "M", lo=1.0)
    gamma = _take(cfg, "gamma", "auto")
    if gamma != "auto":
        gamma = _real(gamma, "gamma")
    coeffs = _take(cfg, "coefficients", None)
    if coeffs is not None:
        coeffs = _list(coeffs, "coefficients", parse_complex)
        if len(coeffs) != len(points):
            raise ConfigError("'coefficients' length must match the roster")
    _done(cfg, "evolve config")

    op = gd.discretize(cf, h, grid, bc)
    A = -op.banded()
    x_int, w_int = op.x_interior, op.w_interior
    modes = [assemble_mode(cf, u, xi, h, n=nn, K=K, delta0=delta0)
             for u, xi, nn in points]
    F0 = fr.build_frame(modes, x_int, w_int)
    # the decaying direction: A = -L_h generates the reference semigroup, so
    # the frame eigenvalues flip sign with it
    F = fr.FrameMatrix(E=F0.E, lam=-F0.lam, x=F0.x, weights=F0.weights,
                       provenance=F0.provenance)
    eps = fr.defect(A, F)
    if gamma == "auto":
        gamma = fr.numerical_abscissa(A, w_int)
    rows = fr.semigroup_bound_check(A, F, M, gamma, t_list)
    files = [ser.report_to_csv(stem + "_bounds.csv", rows)]

    if coeffs is None:
        phi0 = np.full(F.n_cols, 1.0 / np.sqrt(F.n_cols), dtype=complex)
    else:
        phi0 = np.array(coeffs)
    f = F.E @ phi0
    # F_delta f depends on delta alone, so it is formed once per delta
    phis = [fr.reconstruct(F, f, delta)[0] for delta in d_list]
    budget_rows = []
    for t in t_list:
        for delta, phi in zip(d_list, phis):
            _, true_err, budget = fr.evolve_approx(A, F, f, phi, t, M, gamma)
            budget_rows.append((t, delta, true_err, budget))
    files.append(ser.write_csv(stem + "_budget.csv",
                               ["t", "delta", "true_err", "budget"],
                               zip(*budget_rows)))
    files.append(ser.write_json(stem + "_report.json", {
        "defect": eps, "M": M, "gamma": gamma,
        "lam": list(F.lam), "t_list": t_list, "delta_list": d_list,
    }))
    return files


# -- driver --------------------------------------------------------------------

_COMMANDS = {
    "region": cmd_region,
    "mode": cmd_mode,
    "boundary": cmd_boundary,
    "sweep": cmd_sweep,
    "psgrid": cmd_psgrid,
    "fbi": cmd_fbi,
    "evolve": cmd_evolve,
}


def _fail(exc, code):
    sys.stderr.write(json.dumps(
        {"error": type(exc).__name__, "message": str(exc)}) + "\n")
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="pseudomode",
        description="semiclassical pseudomode and pseudospectra toolkit")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)
    try:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
        outdir = _path_part(cfg.pop("out_dir", args.out), "out_dir",
                            separators=True)
        # every subcommand names its files <prefix>_<part>, prefix defaulting
        # to the subcommand's name
        prefix = _path_part(cfg.pop("prefix", args.command), "prefix")
        os.makedirs(outdir, exist_ok=True)
        # overflow, invalid and divide raise (exit 4), not warn ahead of the
        # JSON line or write inf and nan as data; underflow stays quiet
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            files = _COMMANDS[args.command](cfg, os.path.join(outdir, prefix))
    except (ConfigError, OSError) as exc:  # OSError: the outputs cannot be written
        return _fail(exc, 2)
    except PreconditionError as exc:
        return _fail(exc, 3)
    except (PseudomodeError, FloatingPointError, MemoryError,
            np.linalg.LinAlgError) as exc:  # any other library error: numeric
        return _fail(exc, 4)
    sys.stdout.write(json.dumps({"outputs": sorted(files)}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
