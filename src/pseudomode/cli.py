"""Command line driver.

    pseudomode <subcommand> --config cfg.json [--out DIR] [--threads N]

Subcommands: region, mode, boundary, sweep, psgrid, fbi, evolve.  Configs are
JSON with strict key checking (unknown keys are config errors, not typo
sinks).  Outputs are CSV/JSON data files plus optional gnuplot scripts, all
deterministic: identical configs give byte-identical files.

Exit codes: 0 ok; 2 config error; 3 mathematical precondition violated;
4 numeric failure (non-convergence or a proved bound violated, which means a
bug).  Failures print one JSON object {"error": ..., "message": ...} on
standard error.
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
from .errors import (BoundViolationError, ConfigError, ConvergenceError,
                     PreconditionError, PseudomodeError, TruncationError)
from .operators import get_operator
from .symbol import principal_symbol, region_mask, symbol_image
from .wkb import assemble_mode, gaussian_mode, rough_mode

_REQUIRED = object()
_DEFAULT_H_SWEEP = [2.0 ** -k for k in range(4, 10)]


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


def _real(v, name, lo=None, hi=None, open_lo=False, open_hi=False):
    try:
        x = float(v)
    except (TypeError, ValueError):
        raise ConfigError(f"'{name}' must be a real number, got {v!r}") from None
    if not np.isfinite(x):
        raise ConfigError(f"'{name}' must be finite")
    if lo is not None and (x < lo or (open_lo and x == lo)):
        raise ConfigError(f"'{name}' must be {'>' if open_lo else '>='} {lo}")
    if hi is not None and (x > hi or (open_hi and x == hi)):
        raise ConfigError(f"'{name}' must be {'<' if open_hi else '<='} {hi}")
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


def _cplx(v, name):
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(_real(v[0], name + "[0]"), _real(v[1], name + "[1]"))
    raise ConfigError(f"'{name}' must be a number or an [re, im] pair")


def _h_value(v, name="h"):
    x = _real(v, name, lo=0.0, open_lo=True, hi=1.0)
    return x


def _axis(block, name, min_m=2):
    """{lo, hi, m} -> linspace; m = 0 gives an empty axis."""
    if not isinstance(block, dict):
        raise ConfigError(f"'{name}' must be an object with lo, hi, m")
    block = dict(block)
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


def _operator(cfg):
    spec = _take(cfg, "operator")
    return get_operator(spec)


def _bc(block):
    if block is None:
        return gd.BoundaryCondition("dirichlet")
    if not isinstance(block, dict):
        raise ConfigError("'bc' must be an object")
    block = dict(block)
    kind = _take(block, "kind")
    if kind == "dirichlet":
        _done(block, "'bc'")
        return gd.BoundaryCondition("dirichlet")
    if kind == "robin":
        cd = _cplx(_take(block, "coef_deriv"), "bc.coef_deriv")
        cv = _cplx(_take(block, "coef_value"), "bc.coef_value")
        _done(block, "'bc'")
        return gd.BoundaryCondition("robin", coef_deriv=cd, coef_value=cv)
    raise ConfigError("'bc.kind' must be 'dirichlet' or 'robin'")


def _out_path(outdir, prefix, suffix):
    return os.path.join(outdir, f"{prefix}{suffix}")


# -- subcommands ---------------------------------------------------------------


def cmd_region(cfg, outdir):
    cf = _operator(cfg)
    u = _axis(_take(cfg, "u"), "u")
    xi = _axis(_take(cfg, "xi"), "xi")
    prefix = _take(cfg, "prefix", "region")
    plot = _bool(_take(cfg, "plot", False), "plot")
    _done(cfg, "region config")
    if u.size == 0 or xi.size == 0:
        raise ConfigError("region grids must not be empty")
    mask = region_mask(cf, u, xi)
    rows = []
    for i, uu in enumerate(u):
        for j, xx in enumerate(xi):
            rows.append((uu, xx, mask.bracket[i, j], bool(mask.in_omega[i, j])))
    files = [ser.write_csv(_out_path(outdir, prefix, "_mask.csv"),
                           ["u", "xi", "bracket", "in_omega"], rows)]
    srows = [(uu, xx, v.real, v.imag) for uu, xx, v in symbol_image(mask)]
    files.append(ser.write_csv(_out_path(outdir, prefix, "_symbol.csv"),
                               ["u", "xi", "re_sigma", "im_sigma"], srows))
    if plot:
        gp = _out_path(outdir, prefix, ".gp")
        with open(gp, "w") as fh:
            fh.write("\n".join([
                "set datafile separator ','",
                "set xlabel 're sigma'",
                "set ylabel 'im sigma'",
                f"plot '{prefix}_symbol.csv' skip 1 using 3:4 "
                "with points pt 7 ps 0.3 title 'sigma(Omega)'",
            ]) + "\n")
        files.append(gp)
    return files


def _build_mode(cf, kind, u, xi, h, n, K, delta0, sharpness, npts):
    if kind == "interior":
        return assemble_mode(cf, u, xi, h, n=n, K=K, delta0=delta0,
                             sharpness=sharpness)
    if kind == "rough":
        return rough_mode(cf, u, xi, h, npts=npts, sharpness=sharpness)
    if kind == "gaussian":
        return gaussian_mode(cf, u, xi, h, sharpness=sharpness)
    raise ConfigError("mode kind must be 'interior', 'rough' or 'gaussian'")


def cmd_mode(cfg, outdir):
    cf = _operator(cfg)
    kind = _take(cfg, "kind", "interior")
    u = _real(_take(cfg, "u"), "u")
    xi = _real(_take(cfg, "xi"), "xi")
    h = _h_value(_take(cfg, "h"))
    n = _int(_take(cfg, "n", 1), "n", lo=0)
    K = _int(_take(cfg, "K", 24), "K", lo=1)
    delta0 = _real(_take(cfg, "delta0", 0.5), "delta0", lo=0.0, open_lo=True)
    sharpness = _real(_take(cfg, "sharpness", 1.0), "sharpness", lo=0.0,
                      open_lo=True)
    npts = _int(_take(cfg, "npts", 2048), "npts", lo=64)
    window = _take(cfg, "window", "auto")
    prefix = _take(cfg, "prefix", "mode")
    _done(cfg, "mode config")
    mode = _build_mode(cf, kind, u, xi, h, n, K, delta0, sharpness, npts)
    rq, rp, rl, nrm = gd.residual_triple(mode, cf, window=window)
    files = [ser.mode_to_csv(_out_path(outdir, prefix, "_samples.csv"), mode)]
    report = {
        "kind": mode.kind, "u": u, "xi": xi, "h": h, "n": mode.n,
        "z": complex(mode.z), "window": window,
        "rq": rq, "rp": rp, "rl": rl, "norm": nrm,
    }
    if mode.cutoff is not None:
        report["delta"] = mode.cutoff.delta
    files.append(ser.write_json(_out_path(outdir, prefix, "_residuals.json"),
                                report))
    return files


def cmd_boundary(cfg, outdir):
    cf = _operator(cfg)
    z = _cplx(_take(cfg, "z"), "z")
    h = _h_value(_take(cfg, "h"))
    n = _int(_take(cfg, "n", 1), "n", lo=0)
    K = _int(_take(cfg, "K", 24), "K", lo=1)
    delta0 = _real(_take(cfg, "delta0", 0.5), "delta0", lo=0.0, open_lo=True)
    robin = _take(cfg, "robin")
    if not (isinstance(robin, (list, tuple)) and len(robin) == 2):
        raise ConfigError("'robin' must be [coef_deriv, coef_value]")
    rc = bd.RobinCondition(_cplx(robin[0], "robin[0]"), _cplx(robin[1], "robin[1]"))
    half = _real(_take(cfg, "polyline_halfwidth", 3.0), "polyline_halfwidth",
                 lo=0.0, open_lo=True)
    m = _int(_take(cfg, "polyline_points", 513), "polyline_points", lo=16)
    window = _take(cfg, "window", "auto")
    prefix = _take(cfg, "prefix", "boundary")
    _done(cfg, "boundary config")

    height = bd.boundary_band(cf)
    s = np.linspace(-half, half, m)
    curve = np.array([principal_symbol(cf, 0.0, float(v)) for v in s])
    files = [ser.write_csv(_out_path(outdir, prefix, "_parabola.csv"),
                           ["s", "re_sigma", "im_sigma"],
                           zip(s, curve.real, curve.imag))]
    roots = bd.quadratic_roots(cf, z)
    mode = bd.robin_combination(cf, rc, z, h, n=n, K=K, delta0=delta0)
    rq, rp, rl, nrm = gd.residual_triple(mode, cf, window=window)
    files.append(ser.mode_to_csv(_out_path(outdir, prefix, "_samples.csv"), mode))
    files.append(ser.write_json(_out_path(outdir, prefix, "_report.json"), {
        "z": z, "h": h, "n": n, "band_height": height,
        "inside": bd.inside_parabola(cf, z),
        "roots": [complex(r) for r in roots],
        "robin_residual": bd.robin_residual(mode, rc),
        "rq": rq, "rp": rp, "rl": rl, "norm": nrm, "window": window,
    }))
    return files


def cmd_sweep(cfg, outdir):
    cf = _operator(cfg)
    rows_cfg = _take(cfg, "rows")
    if not isinstance(rows_cfg, list) or not rows_cfg:
        raise ConfigError("'rows' must be a non-empty list of mode specs")
    h_list = [_h_value(v) for v in _take(cfg, "h_list", _DEFAULT_H_SWEEP)]
    if len(h_list) < 4:
        raise ConfigError("'h_list' needs at least 4 values for order fits")
    K = _int(_take(cfg, "K", 24), "K", lo=1)
    delta0 = _real(_take(cfg, "delta0", 0.5), "delta0", lo=0.0, open_lo=True)
    window = _take(cfg, "window", "auto")
    prefix = _take(cfg, "prefix", "sweep")
    _done(cfg, "sweep config")

    detail = []
    summary = []
    for spec in rows_cfg:
        spec = dict(spec)
        kind = _take(spec, "kind", "interior")
        u = _real(_take(spec, "u"), "rows[].u")
        xi = _real(_take(spec, "xi"), "rows[].xi")
        n = _int(_take(spec, "n", 1), "rows[].n", lo=0)
        _done(spec, "'rows[]'")
        rls = []
        for h in h_list:
            mode = _build_mode(cf, kind, u, xi, h, n, K, delta0, 1.0, 2048)
            rq, rp, rl, nrm = gd.residual_triple(mode, cf, window=window)
            detail.append((kind, n, u, xi, h, rq, rp, rl))
            rls.append(rl)
        if max(rls) < 1e-13:
            summary.append((kind, n, "inf", 1.0))
        else:
            slope, _, r2 = gd.order_fit(h_list, rls)
            summary.append((kind, n, slope, r2))
    files = [
        ser.write_csv(_out_path(outdir, prefix, "_residuals.csv"),
                      ["kind", "n", "u", "xi", "h", "rq", "rp", "rl"], detail),
        ser.write_csv(_out_path(outdir, prefix, "_orders.csv"),
                      ["kind", "n", "slope", "r2"], summary),
        ser.write_json(_out_path(outdir, prefix, "_orders.json"), [
            {"kind": k, "n": n, "slope": s, "r2": r} for k, n, s, r in summary]),
    ]
    return files


def cmd_psgrid(cfg, outdir):
    cf = _operator(cfg)
    h = _h_value(_take(cfg, "h"))
    gblock = dict(_take(cfg, "grid"))
    lo = _real(_take(gblock, "lo"), "grid.lo")
    hi = _real(_take(gblock, "hi"), "grid.hi")
    m = _int(_take(gblock, "m"), "grid.m", lo=8)
    _done(gblock, "'grid'")
    bc = _bc(_take(cfg, "bc", None))
    z_re = _axis(_take(cfg, "z_re"), "z_re", min_m=1)
    z_im = _axis(_take(cfg, "z_im"), "z_im", min_m=1)
    cloud = _take(cfg, "cloud", None)
    plot = _bool(_take(cfg, "plot", False), "plot")
    prefix = _take(cfg, "prefix", "psgrid")
    _done(cfg, "psgrid config")

    files = []
    if z_re.size == 0 or z_im.size == 0:
        files.append(ser.write_csv(_out_path(outdir, prefix, "_smin.csv"),
                                   ["re_z", "im_z", "s_min", "converged"], []))
        return files
    op = gd.discretize(cf, h, gd.Grid1D(lo, hi, m), bc)
    smin, ok = gd.resolvent_map(op, z_re, z_im)
    files.append(ser.resolvent_to_csv(_out_path(outdir, prefix, "_smin.csv"),
                                      z_re, z_im, smin, ok))
    overlays = []
    if cloud is not None:
        cloud = dict(cloud)
        cu = _axis(_take(cloud, "u"), "cloud.u")
        cxi = _axis(_take(cloud, "xi"), "cloud.xi")
        _done(cloud, "'cloud'")
        cloud_img = symbol_image(region_mask(cf, cu, cxi))
        cpath = ser.write_csv(_out_path(outdir, prefix, "_cloud.csv"),
                              ["re_z", "im_z"],
                              [(v.real, v.imag) for _, _, v in cloud_img])
        files.append(cpath)
        overlays.append(os.path.basename(cpath))
    try:
        height = bd.boundary_band(cf)
        s = np.linspace(-3.0, 3.0, 257)
        curve = np.array([principal_symbol(cf, 0.0, float(v)) for v in s])
        ppath = ser.write_csv(_out_path(outdir, prefix, "_parabola.csv"),
                              ["re_z", "im_z"], zip(curve.real, curve.imag))
        files.append(ppath)
        overlays.append(os.path.basename(ppath))
    except PreconditionError:
        pass  # no exit condition: no boundary overlay
    if plot:
        files.append(ser.gnuplot_contour(
            _out_path(outdir, prefix, ".gp"),
            os.path.basename(files[0]), "resolvent norm map", overlays))
    return files


def cmd_fbi(cfg, outdir):
    kappa = _cplx(_take(cfg, "kappa", [1.0, 0.3]), "kappa")
    if kappa.real <= 0.0:
        raise ConfigError("'kappa' needs a positive real part")
    h_list = [_h_value(v) for v in _take(cfg, "h_list", [1e-1, 1e-2, 1e-3])]
    gb = dict(_take(cfg, "grids", {}))
    eta_max = _real(_take(gb, "eta_max", 3.0), "grids.eta_max", lo=0.0, open_lo=True)
    nxi = _int(_take(gb, "nxi", 128), "grids.nxi", lo=8)
    osc = _real(_take(gb, "osc", 12.0), "grids.osc", lo=0.0, open_lo=True)
    ppw = _real(_take(gb, "ppw", 24.0), "grids.ppw", lo=1.0)
    _done(gb, "'grids'")
    s_probes = [_real(v, "profile_s[]") for v in _take(cfg, "profile_s",
                                                       [0.0, 0.5, 1.0, 2.0])]
    t_limit = _real(_take(cfg, "g_limit_t", 1e-7), "g_limit_t", lo=0.0,
                    open_lo=True)
    orth = _take(cfg, "orthogonality", None)
    iso_h = _take(cfg, "isometry_h", [1e-3])
    prefix = _take(cfg, "prefix", "fbi")
    _done(cfg, "fbi config")

    c6 = (1.0 / kappa).real
    report = {"kappa": kappa, "c6": c6}
    norm_rows = []
    for h in h_list:
        u, xi, x = fbi.scaled_distorted_grids(kappa, h, eta_max=eta_max,
                                              nxi=nxi, osc=osc, ppw=ppw)
        T = fbi.DistortedFBI(kappa, h, u, xi, x)
        norm_rows.append((h, T.norm()))
    report["norms"] = [{"h": h, "norm": v} for h, v in norm_rows]
    vals = np.array([v for _, v in norm_rows])
    report["norm_variation"] = float((vals.max() - vals.min()) / vals.min())

    prof_rows = []
    worst = 0.0
    for h in h_list:
        for s in s_probes:
            Fv = fbi.boundedness_profile(c6, h, s)
            Gv = fbi.g_profile(c6, h ** 2 * s ** 3) if s > 0 else Fv
            if s > 0:
                worst = max(worst, abs(Fv - Gv) / abs(Gv))
            prof_rows.append((h, s, Fv, Gv))
    report["profile_match"] = worst
    glim = fbi.g_limit(c6)
    report["g_limit"] = glim
    report["g_limit_rel_err"] = abs(fbi.g_profile(c6, t_limit) - glim) / glim

    spreads = []
    for h in iso_h:
        ratios = fbi.near_isometry_probe(kappa, _h_value(h, "isometry_h[]"))
        spreads.append({"h": float(h),
                        "spread": float(ratios.max() / ratios.min() - 1.0)})
    report["isometry"] = spreads

    if orth is not None:
        orth = dict(orth)
        cf = get_operator(_take(orth, "operator", "complex-airy"))
        gap = _real(_take(orth, "gap", 0.5), "orthogonality.gap", lo=0.0,
                    open_lo=True)
        ohs = np.array([_h_value(v, "orthogonality.h_list[]")
                        for v in _take(orth, "h_list",
                                       [2.0 ** -k for k in range(4, 9)])])
        oxi = _real(_take(orth, "xi", -1.0), "orthogonality.xi")
        _done(orth, "'orthogonality'")
        svs = fbi.orthogonality_decay(cf, ohs, gap=gap, xi=oxi)
        x = 1.0 / ohs
        y = np.log(svs)
        coef = np.polyfit(x, y, 1)
        yhat = np.polyval(coef, x)
        r2 = 1.0 - float(np.sum((y - yhat) ** 2) / np.sum((y - y.mean()) ** 2))
        report["orthogonality"] = {
            "gap": gap, "h_list": list(ohs), "cross_gram": list(svs),
            "slope_vs_inv_h": float(coef[0]), "r2": r2,
        }

    files = [
        ser.write_csv(_out_path(outdir, prefix, "_norms.csv"),
                      ["h", "norm"], norm_rows),
        ser.write_csv(_out_path(outdir, prefix, "_profile.csv"),
                      ["h", "s", "F", "G"], prof_rows),
        ser.write_json(_out_path(outdir, prefix, "_report.json"), report),
    ]
    return files


def cmd_evolve(cfg, outdir):
    cf = _operator(cfg)
    h = _h_value(_take(cfg, "h"))
    gblock = dict(_take(cfg, "grid"))
    lo = _real(_take(gblock, "lo"), "grid.lo")
    hi = _real(_take(gblock, "hi"), "grid.hi")
    m = _int(_take(gblock, "m"), "grid.m", lo=8)
    _done(gblock, "'grid'")
    bc = _bc(_take(cfg, "bc", None))
    roster = _take(cfg, "modes")
    if not isinstance(roster, list) or not roster:
        raise ConfigError("'modes' must be a non-empty list")
    K = _int(_take(cfg, "K", 24), "K", lo=1)
    delta0 = _real(_take(cfg, "delta0", 0.5), "delta0", lo=0.0, open_lo=True)
    n_default = _int(_take(cfg, "n", 1), "n", lo=0)
    t_list = [_real(v, "t_list[]", lo=0.0) for v in _take(cfg, "t_list",
                                                          [0.1, 0.5, 1.0])]
    d_list = [_real(v, "delta_list[]", lo=0.0, open_lo=True)
              for v in _take(cfg, "delta_list", [1e-2, 1e-4, 1e-6])]
    M = _real(_take(cfg, "M", 1.0), "M", lo=1.0)
    gamma_cfg = _take(cfg, "gamma", "auto")
    coeffs = _take(cfg, "coefficients", None)
    prefix = _take(cfg, "prefix", "evolve")
    _done(cfg, "evolve config")

    op = gd.discretize(cf, h, gd.Grid1D(lo, hi, m), bc)
    A = -op.banded()
    x_int, w_int = op.x_interior, op.w_interior
    modes = []
    for spec in roster:
        spec = dict(spec)
        u = _real(_take(spec, "u"), "modes[].u")
        xi = _real(_take(spec, "xi"), "modes[].xi")
        nn = _int(_take(spec, "n", n_default), "modes[].n", lo=0)
        _done(spec, "'modes[]'")
        modes.append(assemble_mode(cf, u, xi, h, n=nn, K=K, delta0=delta0))
    F0 = fr.build_frame(modes, x_int, w_int)
    # the decaying direction: A = -L_h generates the reference semigroup, so
    # the frame eigenvalues flip sign with it
    F = fr.FrameMatrix(E=F0.E, lam=-F0.lam, x=F0.x, weights=F0.weights,
                       provenance=F0.provenance)
    eps = fr.defect(A, F)
    gamma = (fr.numerical_abscissa(A, w_int) if gamma_cfg == "auto"
             else _real(gamma_cfg, "gamma"))
    rows = fr.semigroup_bound_check(A, F, M, gamma, t_list)
    files = [ser.report_to_csv(_out_path(outdir, prefix, "_bounds.csv"), rows)]

    if coeffs is None:
        phi0 = np.full(F.n_cols, 1.0 / np.sqrt(F.n_cols), dtype=complex)
    else:
        phi0 = np.array([_cplx(v, "coefficients[]") for v in coeffs])
        if phi0.shape != (F.n_cols,):
            raise ConfigError("'coefficients' length must match the roster")
    f = F.E @ phi0
    budget_rows = []
    for t in t_list:
        for delta in d_list:
            _, true_err, budget = fr.evolve_approx(A, F, f, delta, t, M, gamma)
            budget_rows.append((t, delta, true_err, budget))
    files.append(ser.write_csv(_out_path(outdir, prefix, "_budget.csv"),
                               ["t", "delta", "true_err", "budget"],
                               budget_rows))
    files.append(ser.write_json(_out_path(outdir, prefix, "_report.json"), {
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
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads (reserved; results identical)")
    args = parser.parse_args(argv)
    try:
        if args.threads < 1:
            raise ConfigError("--threads must be >= 1")
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
        outdir = cfg.pop("out_dir", args.out)
        os.makedirs(outdir, exist_ok=True)
        files = _COMMANDS[args.command](cfg, outdir)
    except ConfigError as exc:
        return _fail(exc, 2)
    except PreconditionError as exc:
        return _fail(exc, 3)
    except (ConvergenceError, BoundViolationError, TruncationError,
            FloatingPointError, np.linalg.LinAlgError) as exc:
        return _fail(exc, 4)
    except PseudomodeError as exc:  # anything else from the library: numeric
        return _fail(exc, 4)
    sys.stdout.write(json.dumps({"outputs": sorted(files)}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
