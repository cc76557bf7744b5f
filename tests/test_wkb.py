"""Interior quasimode construction: phases, cutoffs, norms, comparisons."""

import mpmath
import numpy as np
import pytest
from scipy.special import binom

import pseudomode as pm
from pseudomode.wkb import choose_delta, phi_coefficient_series, transport_recursion

from conftest import wnorm


def closed_form_eikonal(K):
    """Taylor coefficients of (2/3)[(1 - is)^(3/2) - 1] at s = 0."""
    # derivative is -i (1 - is)^(1/2); integrate the binomial series termwise
    c = np.zeros(K + 1, dtype=complex)
    for m in range(K):
        d = -1j * binom(0.5, m) * (-1j) ** m
        c[m + 1] = d / (m + 1)
    return c


def closed_form_amplitude(K):
    """Taylor coefficients of -(1/4) ln(1 - is)."""
    c = np.zeros(K + 1, dtype=complex)
    for m in range(1, K + 1):
        c[m] = (1j) ** m / (4.0 * m)
    return c


def test_eikonal_closed_form(airy):
    K = 32
    psi = pm.eikonal_phase(airy, 0.0, -1.0, K=K)
    np.testing.assert_allclose(psi.c, closed_form_eikonal(K), rtol=1e-12,
                               atol=1e-15)
    assert psi.c[0] == 0.0
    assert psi.c[1] == -1j              # exactly i*xi
    assert abs(psi.c[2] - (-0.25)) < 1e-15


@pytest.mark.parametrize("u,xi", [(0.3, -1.1), (-0.5, -0.7), (0.0, -2.0)])
def test_transport_coefficients_match_mpmath_closed_forms(airy, u, xi):
    # complex Airy, z = -i/xi^2: psi_{-1}' = i xi (1 + zs)^(1/2),
    # psi_0' = (i/4xi^2)(1 + zs)^(-1), psi_1' = -(5i/32xi^5)(1 + zs)^(-5/2),
    # each expanded by the binomial series at 30 digits and integrated
    K = 24
    ph = transport_recursion(airy, u, xi, 1, K=K)
    with mpmath.workdps(30):
        x = mpmath.mpf(xi)
        z = -1j / x ** 2
        terms = [(1j * x, mpmath.mpf(1) / 2), (1j / (4 * x ** 2), -1),
                 (-5j / (32 * x ** 5), -mpmath.mpf(5) / 2)]
        for m, (scale, p) in zip((-1, 0, 1), terms):
            exact = [0] + [scale * mpmath.binomial(p, j) * z ** j / (j + 1)
                           for j in range(K)]
            got = ph.psi_m(m).c
            assert got.size == K + 1 and got[0] == 0.0
            for j in range(1, K + 1):
                err = abs(mpmath.mpc(got[j]) - exact[j]) / abs(exact[j])
                assert err <= 1e-13, (m, j, float(err))


def test_transport_amplitude_closed_form(airy):
    K = 32
    ph = pm.transport_recursion(airy, 0.0, -1.0, 0, K=K)
    np.testing.assert_allclose(ph.psi_m(0).c, closed_form_amplitude(K),
                               rtol=1e-12, atol=1e-15)


def test_phase_invariants(airy):
    ph = pm.transport_recursion(airy, 0.0, -1.0, 2, K=24)
    for m in range(-1, 3):
        assert ph.psi_m(m).c[0] == 0.0  # every term vanishes at s = 0
    k = pm.twist_curvature(airy, 0.0, -1.0)
    assert abs(ph.twist - k) < 1e-13
    assert ph.psi_m(-1).c[2].real < 0.0
    with pytest.raises(IndexError):
        ph.psi_m(3)


def test_symbolic_residual_coefficients_vanish(airy):
    n, K = 2, 24
    ph = pm.transport_recursion(airy, 0.0, -1.0, n, K=K)
    scale = max(np.max(np.abs(ph.psi_m(m).c)) for m in range(-1, n + 1))
    for p in range(0, n + 2):
        res = phi_coefficient_series(airy, ph, p)
        assert np.max(np.abs(res.c)) <= 1e-12 * scale
    # one order beyond the constructed terms the coefficient must not vanish
    beyond = phi_coefficient_series(airy, ph, n + 2)
    assert np.max(np.abs(beyond.c)) > 1e-6 * scale


def test_not_in_omega_raises(airy):
    with pytest.raises(pm.NotInOmegaError):
        pm.eikonal_phase(airy, 0.0, 1.0)
    with pytest.raises(pm.NotInOmegaError):
        pm.transport_recursion(airy, 0.0, 0.5, 1)
    with pytest.raises(pm.PreconditionError):
        pm.transport_recursion(airy, 0.0, -1.0, -2)


def test_choose_delta_gaussian_phase_accepts_base():
    from pseudomode._series import Series

    c = np.zeros(25, dtype=complex)
    c[1] = -1j
    c[2] = -0.5
    ph = pm.PhaseSeries(u=0.0, xi=-1.0 + 0j, n=-1, K=24, psi=[Series(c)])
    assert choose_delta(ph).delta == 0.5


def test_choose_delta_rejects_growing_phase():
    from pseudomode._series import Series

    c = np.zeros(25, dtype=complex)
    c[1] = 1j
    c[2] = 0.5                          # positive real part: no decay
    ph = pm.PhaseSeries(u=0.0, xi=1.0 + 0j, n=-1, K=24, psi=[Series(c)])
    with pytest.raises(pm.NotInOmegaError):
        choose_delta(ph)


def test_choose_delta_ladder_values(airy):
    # K = 24 cannot hold the tail at 0.5 and steps down once
    ph24 = transport_recursion(airy, 0.0, -1.0, 1, K=24)
    assert choose_delta(ph24).delta == 0.25
    ph64 = transport_recursion(airy, 0.0, -1.0, 1, K=64)
    assert choose_delta(ph64, delta0=0.6).delta == 0.6


def test_cutoff_profile_shape():
    cut = pm.CutoffSpec(0.5)
    s = np.linspace(-0.6, 0.6, 241)
    chi, dchi, d2chi = cut.jet(s)
    assert np.all((0.0 <= chi) & (chi <= 1.0))
    assert np.all(chi[np.abs(s) <= 0.25] == 1.0)
    assert np.all(chi[np.abs(s) >= 0.5] == 0.0)
    band = (np.abs(s) <= 0.25) | (np.abs(s) >= 0.5)
    assert np.all(dchi[band] == 0.0)
    assert np.all(d2chi[band] == 0.0)


def test_cutoff_derivatives_are_consistent():
    from scipy.integrate import quad

    cut = pm.CutoffSpec(0.5)
    # chi(s0) = 1 + int_{delta/2}^{s0} chi'  (the jet's chi' by construction)
    for s0 in (0.3, 0.38, 0.45, 0.499):
        step, _ = quad(lambda t: cut.jet(np.array([t]))[1][0], 0.25, s0,
                       limit=200)
        assert abs(cut.jet(np.array([s0]))[0][0] - (1.0 + step)) < 1e-6
    # chi'' is the derivative of chi' (both closed forms)
    s = np.linspace(0.26, 0.49, 31)
    e = 1e-5
    fd = (cut.jet(s + e)[1] - cut.jet(s - e)[1]) / (2 * e)
    np.testing.assert_allclose(cut.jet(s)[2], fd, rtol=1e-5, atol=1e-4)


@pytest.mark.parametrize("lam", [0.25, 0.5, 1.0, 2.0, 3.7])
def test_step_table_matches_scipy_cumulative_trapezoid_bitwise(lam):
    from scipy.integrate import cumulative_trapezoid

    from pseudomode.cutoff import _step_table

    t, step, Z = _step_table(lam)
    bump = np.zeros_like(t)
    bump[1:-1] = np.exp(-lam / (1.0 - t[1:-1] ** 2))
    cum = cumulative_trapezoid(bump, t, initial=0.0)
    assert Z == cum[-1]
    assert np.array_equal(step, 1.0 - cum / cum[-1])


def test_mode_center_value_and_samples(airy):
    h = 2.0 ** -6
    mode = pm.assemble_mode(airy, 0.0, -1.0, h, n=1)
    assert mode.evaluate(np.array([0.0]))[0] == h ** -0.25
    # samples realize prefactor * chi * exp(phase) on the stored grid
    s = mode.x - mode.u
    want = h ** -0.25 * mode.cutoff.jet(s)[0] * np.exp(mode.phase.jet(h, s)[0])
    np.testing.assert_allclose(mode.f, want, rtol=1e-13, atol=1e-13)
    assert mode.z == pm.principal_symbol(airy, 0.0, -1.0)


def test_mode_derivatives_match_finite_differences(airy):
    h = 2.0 ** -5
    mode = pm.assemble_mode(airy, 0.0, -1.0, h, n=1)
    xs = np.linspace(-0.08, 0.08, 41)
    e = 1e-4
    v0, v1, v2 = mode.samples(xs)
    np.testing.assert_array_equal(mode.evaluate(xs), v0)
    fd1 = (mode.evaluate(xs + e) - mode.evaluate(xs - e)) / (2 * e)
    assert np.max(np.abs(fd1 - v1)) <= 1e-4 * np.max(np.abs(v1))
    fd2 = (mode.evaluate(xs + e) - 2 * v0 + mode.evaluate(xs - e)) / e ** 2
    assert np.max(np.abs(fd2 - v2)) <= 1e-4 * np.max(np.abs(v2))


def test_h_range_guard(airy):
    with pytest.raises(pm.PreconditionError):
        pm.assemble_mode(airy, 0.0, -1.0, 0.0)
    with pytest.raises(pm.PreconditionError):
        pm.assemble_mode(airy, 0.0, -1.0, 2.0)


def test_norm_converges_to_laplace_constant(airy):
    # ||f||^2 -> G(0) Gamma(1/2) / F(0)^(1/2) with F(0) = 1/2, G(0) = 1
    target = pm.laplace_constant(0, 1.0, 0.5)
    assert abs(target - np.sqrt(2.0 * np.pi)) < 1e-14
    diffs = []
    for j in (5, 6, 8, 10):
        mode = pm.assemble_mode(airy, 0.0, -1.0, 2.0 ** -j, n=1)
        diffs.append(abs(mode.norm() ** 2 - target))
    assert all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:]))
    assert diffs[-1] < 1e-3


def test_laplace_constant_values():
    assert abs(pm.laplace_constant(0, 1.0, 1.0) - np.sqrt(np.pi)) < 1e-14
    assert abs(pm.laplace_constant(1, 1.0, 1.0) - np.sqrt(np.pi) / 2) < 1e-14
    assert abs(pm.laplace_constant(0, 2.0, 4.0) - np.sqrt(np.pi)) < 1e-14
    with pytest.raises(pm.PreconditionError):
        pm.laplace_constant(0, 1.0, -1.0)
    with pytest.raises(pm.PreconditionError):
        pm.laplace_constant(0.5, 1.0, 1.0)


def test_truncation_robustness(airy):
    h = 2.0 ** -5
    m48 = pm.assemble_mode(airy, 0.0, -1.0, h, n=1, K=48)
    m24 = pm.assemble_mode(airy, 0.0, -1.0, h, n=1, K=24)
    d = min(m48.cutoff.delta, m24.cutoff.delta)
    xs = np.linspace(-d / 2, d / 2, 301)
    v48 = m48.evaluate(xs)
    v24 = m24.evaluate(xs)
    assert np.max(np.abs(v48 - v24)) <= 1e-8 * np.max(np.abs(v48))


def test_uncertainty_product_floor(airy):
    # || (Q-u) f || * || (P-xi) f || >= (h/2) ||f||^2 on the full support
    hs = [2.0 ** -j for j in range(4, 9)]
    prods = []
    for h in hs:
        mode = pm.assemble_mode(airy, 0.0, -1.0, h, n=1)
        rq, rp, _, _ = pm.residual_triple(mode, airy, window="support")
        prods.append(rq * rp)
        assert rq * rp >= (h / 2.0) * (1.0 - 1e-9)
    slope, _, _ = pm.order_fit(hs, prods)
    assert 0.9 <= slope <= 1.3


def test_rough_mode_properties(airy):
    norms = [pm.rough_mode(airy, 0.0, -1.0, 2.0 ** -j).norm()
             for j in range(4, 9)]
    assert max(norms) - min(norms) <= 1e-13 * norms[0]

    h = 2.0 ** -6
    mode = pm.rough_mode(airy, 0.2, -1.0, h)
    rq, rp, rl, _ = pm.residual_triple(mode, airy)
    assert rq <= 2.0 * np.sqrt(h) * (1.0 + 1e-9)
    assert rl > 0.0

    hs = [2.0 ** -4, 2.0 ** -6, 2.0 ** -8]
    rls = [pm.residual_triple(pm.rough_mode(airy, 0.2, -1.0, h), airy)[2]
           for h in hs]
    slope, _, _ = pm.order_fit(hs, rls)
    assert 0.35 <= slope <= 0.65


def test_rough_mode_is_a_plane_wave_on_its_plateau(airy):
    # on |x - u| <= h^(1/2) the bump is 1, so f = h^(-1/4) e^(i xi x/h), and
    # for complex Airy (L_h - sigma(u, xi)) f = i (x - u) f: rL equals rQ
    h = 2.0 ** -6
    mode = pm.rough_mode(airy, 0.1, -1.0, h)
    assert mode.cutoff.delta == 2.0 * h ** 0.5
    assert np.count_nonzero(mode.cutoff.plateau(mode.x - mode.u)) == 1024
    rq, rp, rl, _ = pm.residual_triple(mode, airy, window="plateau")
    assert rp <= 1e-14
    assert abs(rl - rq) <= 1e-12 * rq


def test_gaussian_mode_exact_for_quadratic_phase(quad_exact):
    h = 2.0 ** -5
    assert pm.twist_curvature(quad_exact, 0.0, -1.0) == -0.5
    mode = pm.assemble_mode(quad_exact, 0.0, -1.0, h, n=-1)
    gmode = pm.gaussian_mode(quad_exact, 0.0, -1.0, h)
    assert pm.gaussian_distance(mode, gmode) <= 1e-14


def test_gaussian_mode_requires_contracting_twist(airy):
    with pytest.raises(pm.NotInOmegaError):
        pm.gaussian_mode(airy, 0.0, 1.0, 0.05)


def test_gaussian_mode_support_stays_in_the_domain(airy):
    # the ladder's width at (3.9, -1) reaches past the domain edge 4
    with pytest.raises(pm.DomainError, match="mode support edge"):
        pm.gaussian_mode(airy, 3.9, -1.0, 2.0 ** -6)
    with pytest.raises(pm.DomainError, match="mode support edge"):
        pm.gaussian_mode(airy, -3.9, -1.0, 2.0 ** -6, delta=0.2)
    g = pm.gaussian_mode(airy, 3.9, -1.0, 2.0 ** -6, delta=0.1)
    assert g.x[-1] <= airy.domain[1]


def test_gaussian_norm_constant(airy):
    # ||g||^2 -> (pi / |Re k|)^(1/2) = sqrt(2 pi) at k = -1/2
    g = pm.gaussian_mode(airy, 0.0, -1.0, 2.0 ** -8)
    assert abs(g.norm() ** 2 - np.sqrt(2.0 * np.pi)) < 0.02 * np.sqrt(2 * np.pi)


def test_gaussian_distance_slope(airy):
    hs = [2.0 ** -5, 2.0 ** -7, 2.0 ** -9]
    ds = []
    for h in hs:
        mode = pm.assemble_mode(airy, 0.0, -1.0, h, n=1, K=64, delta0=0.6)
        gmode = pm.gaussian_mode(airy, 0.0, -1.0, h, delta=mode.cutoff.delta)
        ds.append(pm.gaussian_distance(mode, gmode))
    slope, _, _ = pm.order_fit(hs, ds)
    assert 0.3 <= slope <= 0.7


def test_phase_series_derivative_consistency(airy):
    ph = pm.transport_recursion(airy, 0.0, -1.0, 1, K=32)
    h = 0.05
    s = np.linspace(-0.2, 0.2, 41)
    e = 1e-6
    fd = (ph.jet(h, s + e)[0] - ph.jet(h, s - e)[0]) / (2 * e)
    np.testing.assert_allclose(ph.jet(h, s)[1], fd, rtol=1e-7, atol=1e-7)
