"""Whole-pipeline acceptance runs: convergence orders, proved bounds, probes.

Thirteen checks, each a single test emitting one PASS/FAIL line with the
measured numbers.  The lines show under ``pytest -s`` or via the standalone
driver ``python3 tests/test_acceptance.py``; every check runs in well under a
minute single-threaded.
"""

import functools

import numpy as np
import scipy.linalg as sla

import pseudomode as pm
from pseudomode import fbi
from pseudomode.frame import (FrameMatrix, build_frame, defect, frame_bounds,
                              numerical_abscissa, positivity_floor,
                              pseudospectrum_inclusion, regularized_inverse,
                              semigroup_bound_check)

TOTAL = 13


def verdict(idx, label, ok, detail=""):
    line = f"[{idx:2d}/{TOTAL}] {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def random_frame(rng, m, N, normalized=True):
    E = rng.standard_normal((m, N)) + 1j * rng.standard_normal((m, N))
    w = rng.uniform(0.5, 2.0, m)
    if normalized:
        E = E / np.sqrt(w @ (np.abs(E) ** 2))
    lam = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    return FrameMatrix(E=E, lam=lam, x=np.arange(m, dtype=float), weights=w,
                       normalized=normalized)


# -- shared sweeps (computed once, used by several checks) ---------------------

H_SWEEP = [2.0 ** -k for k in range(4, 10)]


@functools.lru_cache(maxsize=None)
def interior_sweep(n):
    """(rq, rp, rl) lists over H_SWEEP for the Airy field at (0, -1)."""
    airy = pm.complex_airy()
    rqs, rps, rls = [], [], []
    for h in H_SWEEP:
        mode = pm.assemble_mode(airy, 0.0, -1.0, h, n=n, K=64, delta0=0.6)
        rq, rp, rl, _ = pm.residual_triple(mode, airy)
        rqs.append(rq)
        rps.append(rp)
        rls.append(rl)
    return rqs, rps, rls


@functools.lru_cache(maxsize=None)
def exit_field():
    # same boundary symbol as the built-in advection field, but a nonzero
    # interior variation (c = 0.025 u) so residuals are measurable: the
    # unperturbed field reproduces each exponential mode exactly
    return pm.polynomial_field([1.0], [-1j], [0.0, 0.025], (0.0, 2.0))


@functools.lru_cache(maxsize=None)
def airy_frame_setup():
    """Discretized Airy generator plus a 16-column interior-mode frame."""
    airy = pm.complex_airy()
    h = 2.0 ** -6
    op = pm.discretize(airy, h, pm.Grid1D(-1.0, 1.0, 300),
                       pm.BoundaryCondition("dirichlet"))
    A = -op.reduced()          # semigroup generator: the negated operator
    modes = [pm.assemble_mode(airy, u, -1.0, h, n=1, K=48, delta0=0.5)
             for u in np.linspace(-0.45, 0.45, 16)]
    F0 = build_frame(modes, op.x_interior, op.w_interior)
    F = FrameMatrix(E=F0.E, lam=-F0.lam, x=F0.x, weights=F0.weights,
                    provenance=F0.provenance)
    eps = defect(A, F)
    gamma = numerical_abscissa(A, op.w_interior)
    return A, F, eps, gamma


# -- the thirteen checks -------------------------------------------------------


def test_01_interior_residual_orders():
    slopes = []
    for n in (0, 1, 2):
        _, _, rls = interior_sweep(n)
        slope, _, r2 = pm.order_fit(H_SWEEP, rls)
        slopes.append(slope)
        assert r2 >= 0.99
        assert slope >= n + 1.7
    verdict(1, "interior operator-residual orders n=0,1,2", True,
            "slopes " + ", ".join(f"{s:.3f}" for s in slopes))


def test_02_interior_localization_rates():
    rqs, rps, _ = interior_sweep(1)
    sq, _, _ = pm.order_fit(H_SWEEP, rqs)
    sp, _, _ = pm.order_fit(H_SWEEP, rps)
    ok = 0.35 <= sq <= 0.65 and 0.35 <= sp <= 0.65
    verdict(2, "interior position/momentum localization rates", ok,
            f"slopes {sq:.3f}, {sp:.3f}")


def test_03_rough_mode_rates():
    airy = pm.complex_airy()
    rqs, rps, rls = [], [], []
    for h in H_SWEEP:
        rq, rp, rl, _ = pm.residual_triple(pm.rough_mode(airy, 0.0, -1.0, h),
                                           airy)
        rqs.append(rq)
        rps.append(rp)
        rls.append(rl)
    slopes = [pm.order_fit(H_SWEEP, v)[0] for v in (rqs, rps, rls)]
    ok = all(0.35 <= s <= 0.65 for s in slopes)
    verdict(3, "rough-mode residual rates", ok,
            "slopes " + ", ".join(f"{s:.3f}" for s in slopes))


def test_04_gaussian_distance_rate():
    airy = pm.complex_airy()
    ds = []
    for h in H_SWEEP:
        mode = pm.assemble_mode(airy, 0.0, -1.0, h, n=1, K=64, delta0=0.6)
        gmode = pm.gaussian_mode(airy, 0.0, -1.0, h, delta=mode.cutoff.delta)
        ds.append(pm.gaussian_distance(mode, gmode))
    slope, _, _ = pm.order_fit(H_SWEEP, ds)
    ok = 0.35 <= slope <= 0.65
    verdict(4, "gaussian-comparison distance rate", ok, f"slope {slope:.3f}")


def test_05_boundary_mode_orders():
    cf = exit_field()
    rl_slopes = []
    rqs, rps = [], []
    for n in (0, 1):
        rls = []
        for h in H_SWEEP:
            mode = pm.boundary_mode(cf, 0.3j, h, n=n, K=48, delta0=0.6)
            rq, rp, rl, _ = pm.residual_triple(mode, cf)
            rls.append(rl)
            if n == 1:
                rqs.append(rq)
                rps.append(rp)
        rl_slopes.append(pm.order_fit(H_SWEEP, rls)[0])
    sq, _, _ = pm.order_fit(H_SWEEP, rqs)
    sp, _, _ = pm.order_fit(H_SWEEP, rps)
    ok = (0.85 <= sq <= 1.15 and 0.85 <= sp <= 1.15
          and rl_slopes[0] >= 1.7 and rl_slopes[1] >= 2.7)

    # the constant-coefficient field is represented exactly; its residuals sit
    # at rounding level, which is why the order fits use the perturbed field
    mlit = pm.boundary_mode(pm.advection_exit(), 0.3j, 2.0 ** -8)
    _, rp_lit, rl_lit, _ = pm.residual_triple(mlit, pm.advection_exit())
    ok = ok and rp_lit == 0.0 and rl_lit <= 1e-15
    verdict(5, "boundary-mode localization and residual orders", ok,
            f"rq {sq:.3f}, rp {sp:.3f}, rl {rl_slopes[0]:.3f}/"
            f"{rl_slopes[1]:.3f}")


def test_06_robin_exactness_and_orders():
    cf = exit_field()
    rc = pm.BoundaryCondition("robin", 1.0, 1.0)
    bc_worst = 0.0
    slopes = []
    for n in (0, 1):
        rls = []
        for h in H_SWEEP:
            mode = pm.robin_combination(cf, rc, 0.2, h, n=n, K=48, delta0=0.6)
            bc_worst = max(bc_worst, pm.robin_residual(mode, rc))
            rls.append(pm.residual_triple(mode, cf)[2])
        slopes.append(pm.order_fit(H_SWEEP, rls)[0])
    mlit = pm.robin_combination(pm.advection_exit(), rc, 0.2, 2.0 ** -8)
    rl_lit = pm.residual_triple(mlit, pm.advection_exit())[2]
    ok = (bc_worst < 1e-12 and slopes[0] >= 1.7 and slopes[1] >= 2.7
          and rl_lit <= 1e-12)
    verdict(6, "robin-trace exactness and combined-mode orders", ok,
            f"bc {bc_worst:.1e}, rl slopes {slopes[0]:.3f}/{slopes[1]:.3f}")


def test_07_regularized_inverse_bounds_and_oracle():
    rng = np.random.default_rng(31)
    worst_nf = worst_nef = worst_oracle = 0.0
    for _ in range(50):
        m = int(rng.integers(8, 40))
        N = int(rng.integers(2, 30))
        F = random_frame(rng, m, N, normalized=False)
        f = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        sw = np.sqrt(F.weights)
        for delta in (1.0, 1e-2, 1e-4, 1e-6):
            Fd = regularized_inverse(F, delta)
            nf, nef = frame_bounds(F, Fd)
            worst_nf = max(worst_nf, nf * delta ** 0.5)
            worst_nef = max(worst_nef, nef)
            # independent oracle: the same quadratic as one stacked least
            # squares, solved by SVD inside lstsq
            A = np.vstack([sw[:, None] * F.E, np.sqrt(delta) * np.eye(N)])
            b = np.concatenate([sw * f, np.zeros(N)])
            ref, *_ = np.linalg.lstsq(A, b, rcond=None)
            mis = np.linalg.norm(Fd @ f - ref) / np.linalg.norm(ref)
            worst_oracle = max(worst_oracle, mis)
    ok = (worst_nf <= 1.0 + 1e-10 and worst_nef <= 1.0 + 1e-10
          and worst_oracle <= 1e-8)
    verdict(7, "regularized inverse norm bounds and minimization oracle", ok,
            f"sup ||F_d||*sqrt(d) {worst_nf:.6f}, sup ||EF_d|| "
            f"{worst_nef:.6f}, oracle {worst_oracle:.1e}")


def test_08_semigroup_evolution_bound():
    A, F, eps, gamma = airy_frame_setup()
    rows = semigroup_bound_check(A, F, 1.0, gamma, [0.1, 0.5, 1.0],
                                 strict=False)
    ok = all(r["ok"] for r in rows) and eps > 0.0
    verdict(8, "semigroup evolution bound with certified constants", ok,
            f"defect {eps:.3e}, ratios "
            + ", ".join(f"{r['ratio']:.3f}" for r in rows))


def test_09_pseudospectral_inclusion():
    A, F, eps, _ = airy_frame_setup()
    rows = pseudospectrum_inclusion(A, F, 2.0 * eps)
    worst = max(r["smin"] for r in rows) / (2.0 * eps)
    ok = len(rows) == F.n_cols and all(r["ok"] and r["converged"] for r in rows)
    # oracle: the dense SVD of W^(1/2) (A - lam) W^(-1/2), at the tolerance
    # of the resolvent-map oracle in test_grid
    sw = np.sqrt(F.weights)
    S = sw[:, None] * A / sw[None, :]
    floor = 10.0 * np.finfo(float).eps * sla.svdvals(S)[0]
    miss = 0.0
    for row, lam in zip(rows, F.lam):
        ref = sla.svdvals(S - lam * np.eye(S.shape[0]))[-1]
        miss = max(miss, abs(row["smin"] - ref) / (1e-6 * ref + floor))
        ok = ok and row["ok"] == (ref < 2.0 * eps)
    verdict(9, "pseudospectral inclusion of frame eigenvalues", ok and miss <= 1.0,
            f"sup smin/eps {worst:.1e}, sup |smin - dense|/tol {miss:.2f}")


def test_10_distorted_transform_boundedness():
    kappa = 1.0 + 0.3j
    c6 = (1.0 / kappa).real
    norms = []
    for h in (1e-1, 1e-2, 1e-3):
        u, xi, x = fbi.scaled_distorted_grids(kappa, h)
        norms.append(fbi.DistortedFBI(kappa, h, u, xi, x).norm())
    norms = np.array(norms)
    variation = float(norms.max() / norms.min() - 1.0)
    # grid-convergence witness: doubling the quadrature leaves the norm alone
    u, xi, x = fbi.scaled_distorted_grids(kappa, 1e-2, nxi=256, ppw=48.0)
    refine = abs(fbi.DistortedFBI(kappa, 1e-2, u, xi, x).norm() - norms[1])
    refine /= norms[1]
    worst_fg = 0.0
    for h in (1e-1, 1e-2, 1e-3):
        for s in (0.5, 1.0, 2.0):
            Fv = fbi.boundedness_profile(c6, h, s)
            Gv = fbi.g_profile(c6, h ** 2 * s ** 3)
            worst_fg = max(worst_fg, abs(Fv - Gv) / abs(Gv))
    glim = fbi.g_limit(c6)
    lim_err = abs(fbi.g_profile(c6, 1e-7) - glim) / glim
    ok = (variation < 0.10 and refine < 1e-3 and worst_fg < 1e-6
          and lim_err < 0.01)
    verdict(10, "distorted-transform boundedness profile", ok,
            f"norm spread {variation:.1e}, refine {refine:.1e}, "
            f"F=G {worst_fg:.1e}, limit {lim_err:.1e}")


def test_11_asymptotic_orthogonality_decay():
    airy = pm.complex_airy()
    hs = np.array([2.0 ** -k for k in range(4, 9)])
    svs = fbi.orthogonality_decay(airy, hs, gap=0.5)
    x = 1.0 / hs
    y = np.log(svs)
    coef = np.polyfit(x, y, 1)
    yhat = np.polyval(coef, x)
    r2 = 1.0 - float(np.sum((y - yhat) ** 2) / np.sum((y - np.mean(y)) ** 2))
    ok = coef[0] < 0.0 and r2 >= 0.98
    verdict(11, "cross-gram asymptotic orthogonality decay", ok,
            f"slope {coef[0]:.4f} per 1/h, r2 {r2:.4f}")


def test_12_quantization_positivity_floor():
    rng = np.random.default_rng(12)
    floor = 0.0
    for _ in range(50):
        m = int(rng.integers(6, 30))
        N = int(rng.integers(2, 40))
        F = random_frame(rng, m, N)
        f = rng.uniform(0.0, 3.0, N)
        floor = min(floor, positivity_floor(F, f))
    ok = floor >= -1e-12
    verdict(12, "quantization positivity floor", ok, f"floor {floor:.1e}")


def test_13_resolvent_filling_probe():
    airy = pm.complex_airy()
    pts = [(u, xi) for xi in (-0.35, -0.40)
           for u in (-0.6, -0.3, 0.0, 0.3, 0.6)]
    hs = [2.0 ** -k for k in range(4, 9)]
    smin = pm.filling_probe(airy, pts, hs, lambda h: pm.Grid1D(-1.0, 1.0, 320))
    ok = smin.shape == (10, 5) and bool(np.all(np.diff(smin, axis=1) < 0.0))
    # closed-form rate: the whole-line Airy resolvent decays like
    # exp(-S/h) h^alpha with S = (4/3) (Re z)^(3/2) = (4/3) |xi|^3 and
    # alpha near 1/2; at u = +-0.6 the Dirichlet wall moves S by about 1%
    h = np.array(hs)
    fit = np.column_stack([-1.0 / h, np.log(h), np.ones_like(h)])
    worst_s, alphas = 0.0, []
    for (u, xi), row in zip(pts, smin):
        if abs(u) <= 0.3:
            (S, alpha, _), *_ = np.linalg.lstsq(fit, np.log(row), rcond=None)
            worst_s = max(worst_s, abs(S / (4.0 / 3.0 * abs(xi) ** 3) - 1.0))
            alphas.append(alpha)
    ok = ok and worst_s <= 5e-3 and 0.4 < min(alphas) and max(alphas) < 0.55
    verdict(13, "resolvent filling probe monotonicity and decay rate", ok,
            f"sup smin at h=2^-8: {float(smin[:, -1].max()):.1e}, "
            f"rate rel err {worst_s:.1e}, alpha in "
            f"[{min(alphas):.3f}, {max(alphas):.3f}]")


def main():
    names = sorted(n for n in globals() if n.startswith("test_"))
    failures = 0
    for name in names:
        try:
            globals()[name]()
        except AssertionError:
            failures += 1
        except Exception as exc:  # died before the verdict line
            idx = int(name.split("_")[1])
            print(f"[{idx:2d}/{TOTAL}] {name}: FAIL  "
                  f"({type(exc).__name__}: {exc})")
            failures += 1
    return failures


if __name__ == "__main__":
    raise SystemExit(main())
