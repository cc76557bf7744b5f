"""Seeded inputs for the benchmark workloads.

A workload is a fixed sequence of CLI invocations.  Each generator draws the
free parameters of its configs from the seed and returns the invocations
together with the span counts a traced pass must reproduce (the self-check
that no wrapper went missing).  Parameter ranges are chosen so that every
invocation succeeds and every output check holds for any seed.

Only the standard library is used here: the runner imports this module
before any pass starts, and importing numpy there would warm the page cache
for the first pass.
"""

import random

H_LADDER = [2.0 ** -k for k in range(4, 10)]


def _draw(rng, lo, hi):
    # 6 decimals keep the generated configs readable and exactly reproducible
    return round(rng.uniform(lo, hi), 6)


def _inv(cmd, prefix, cfg):
    return {"cmd": cmd, "prefix": prefix, "config": dict(cfg, prefix=prefix)}


def _airy_point(rng):
    # Omega = {xi < 0} for sigma = xi^2 + i u; twist 1/(2 xi) stays O(1)
    return _draw(rng, -0.8, 0.8), _draw(rng, -1.3, -0.7)


def _davies_point(rng):
    # Omega = {u xi < 0} for sigma = xi^2 + i u^2; |u| >= 0.4 keeps the twist
    # u/xi away from 0, where the cutoff ladder would have to shrink
    side = rng.choice((-1.0, 1.0))
    return side * _draw(rng, 0.4, 0.9), -side * _draw(rng, 0.7, 1.3)


def operator(rng):
    """psgrid on two operators, then evolve: dense resolvent and expm work."""
    airy = {
        "operator": "complex-airy", "h": 2.0 ** -7,
        "grid": {"lo": -1.0, "hi": 1.0, "m": 400},
        "z_re": {"lo": _draw(rng, 0.15, 0.25), "hi": _draw(rng, 1.1, 1.3), "m": 10},
        "z_im": {"lo": _draw(rng, -0.55, -0.45), "hi": _draw(rng, 0.45, 0.55), "m": 10},
    }
    exit_robin = {
        "operator": "advection-exit", "h": 2.0 ** -4,
        "grid": {"lo": 0.0, "hi": 2.0, "m": 400},
        "bc": {"kind": "robin", "coef_deriv": _draw(rng, 0.5, 1.5),
               "coef_value": _draw(rng, 0.5, 1.5)},
        "z_re": {"lo": _draw(rng, 0.05, 0.15), "hi": _draw(rng, 0.9, 1.1), "m": 10},
        "z_im": {"lo": _draw(rng, 0.0, 0.1), "hi": _draw(rng, 0.5, 0.7), "m": 10},
    }
    modes = [{"u": _draw(rng, -0.55 + k / 7.0 - 0.03, -0.55 + k / 7.0 + 0.03),
              "xi": _draw(rng, -1.15, -0.85)} for k in range(8)]
    t_list = [_draw(rng, 0.05, 0.15), _draw(rng, 0.4, 0.6), _draw(rng, 0.9, 1.1)]
    delta_list = [1e-2, 1e-4, 1e-6]
    evolve = {
        "operator": "complex-airy", "h": 2.0 ** -5,
        "grid": {"lo": -1.0, "hi": 1.0, "m": 300},
        "modes": modes, "K": 24, "delta0": 0.5,
        "t_list": t_list, "delta_list": delta_list, "M": 1.0,
    }
    invocations = [_inv("psgrid", "psgrid_airy", airy),
                   _inv("psgrid", "psgrid_exit", exit_robin),
                   _inv("evolve", "evolve_airy", evolve)]
    expect = {
        "grid.smallest_singular_value.calls": sum(
            c["z_re"]["m"] * c["z_im"]["m"] for c in (airy, exit_robin)),
        "frame.evolve_approx.calls": len(t_list) * len(delta_list),
        "frame.build_frame.calls": 1,
        "wkb.assemble_mode.calls": len(modes),
    }
    return invocations, expect


def _sweep(rng, op, point, K):
    rows = []
    for n in (0, 1, 2, 0, 1, 2):
        u, xi = point(rng)
        rows.append({"u": u, "xi": xi, "n": n})
    return {"operator": op, "rows": rows, "h_list": H_LADDER, "K": K,
            "delta0": 0.5}


def jwkb(rng):
    """sweep, mode, boundary and region: series recursion and serialization."""
    invocations = [
        _inv("sweep", "sweep_airy", _sweep(rng, "complex-airy", _airy_point, 24)),
        _inv("sweep", "sweep_davies", _sweep(rng, "davies-rotated", _davies_point, 32)),
    ]
    # n, K and h are fixed per slot so that a pass costs about the same for
    # every seed; only the anchor points move
    slots = [("complex-airy", _airy_point, 0, 24, 2.0 ** -5),
             ("complex-airy", _airy_point, 2, 32, 2.0 ** -7),
             ("davies-rotated", _davies_point, 1, 24, 2.0 ** -6),
             ("davies-rotated", _davies_point, 2, 32, 2.0 ** -5)]
    for k, (op, point, n, K, h) in enumerate(slots):
        u, xi = point(rng)
        invocations.append(_inv("mode", f"mode_interior{k}", {
            "operator": op, "kind": "interior", "u": u, "xi": xi, "h": h,
            "n": n, "K": K, "delta0": 0.5}))
    for kind in ("gaussian", "rough"):
        u, xi = _airy_point(rng)
        invocations.append(_inv("mode", f"mode_{kind}", {
            "operator": "complex-airy", "kind": kind, "u": u, "xi": xi,
            "h": 2.0 ** -6}))
    for k, (n, h) in enumerate([(1, 2.0 ** -5), (2, 2.0 ** -6)]):
        # inside the parabola Re z > (Im z)^2 and away from its vertex 1/4,
        # where the two boundary roots collide
        invocations.append(_inv("boundary", f"boundary{k}", {
            "operator": "advection-exit",
            "z": [_draw(rng, 0.08, 0.2), _draw(rng, -0.05, 0.05)],
            "h": h, "robin": [_draw(rng, 0.5, 1.5), _draw(rng, 0.5, 1.5)],
            "n": n, "K": 32, "delta0": 0.5}))
    invocations.append(_inv("region", "region_airy", {
        "operator": "complex-airy",
        "u": {"lo": _draw(rng, -1.2, -0.8), "hi": _draw(rng, 0.8, 1.2), "m": 241},
        "xi": {"lo": _draw(rng, -1.7, -1.3), "hi": _draw(rng, 1.3, 1.7), "m": 241},
    }))
    sweep_modes = 2 * 6 * len(H_LADDER)
    expect = {
        "grid.residual_triple.calls": sweep_modes + len(slots) + 2 + 2,
        "wkb.assemble_mode.calls": sweep_modes + len(slots),
        "boundary.robin_combination.calls": 2,
        "symbol.region_mask.calls": 1,
    }
    return invocations, expect


def fbi(rng):
    """The fbi subcommand at the grid sizes of the CLI test."""
    h_list = [1e-1, 1e-2]
    cfg = {
        # a narrow kappa range keeps the x-grid within about 3% of one size
        "kappa": [_draw(rng, 0.9, 1.1), _draw(rng, -0.3, 0.3)],
        "h_list": h_list,
        "grids": {"nxi": 64},
        "profile_s": [0.0, 0.5, 1.0],
        "isometry_h": [1e-2],
        "orthogonality": {"operator": "complex-airy", "gap": _draw(rng, 0.4, 0.6),
                          "h_list": [2.0 ** -4, 2.0 ** -5, 2.0 ** -6],
                          "xi": _draw(rng, -1.2, -0.8)},
    }
    expect = {
        "fbi.DistortedFBI.norm.calls": len(h_list),
        "fbi.orthogonality_decay.calls": 1,
        "fbi.near_isometry_probe.calls": 1,
    }
    return [_inv("fbi", "fbi", cfg)], expect


WORKLOADS = {"operator": operator, "jwkb": jwkb, "fbi": fbi}


def generate(name, seed):
    """(invocations, expected span counts) of workload `name` for `seed`."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))
