"""Endpoint quasimodes: parabola geometry, one-sided phases, Robin traces."""

import math

import numpy as np
import pytest

import pseudomode as pm


def varfield():
    """Variable drift field sharing the endpoint values of the built-in."""
    return pm.polynomial_field([1.0], [-1j], [0.0, 0.025], (0.0, 2.0))


def winding_verdict(z, S=60.0, npts=400001):
    """Independent interior test: winding of sigma(0, s) - z over real s."""
    s = np.linspace(-S, S, npts)
    curve = s ** 2 - 1j * s - z
    dphi = np.unwrap(np.angle(curve))
    return int(round((dphi[-1] - dphi[0]) / (2.0 * np.pi))) != 0


def test_exit_condition(adv, airy):
    assert pm.exit_condition(adv)
    # reversed drift: the flow enters at 0 instead of exiting
    entering = pm.polynomial_field([1.0], [1j], [0.0], (0.0, 2.0))
    assert not pm.exit_condition(entering)
    assert not pm.exit_condition(airy)   # b = 0
    # the Robin combination refuses the entering field through the band
    with pytest.raises(pm.PreconditionError, match="exit condition fails"):
        pm.robin_combination(entering, pm.BoundaryCondition("dirichlet"), 0.2,
                             2.0 ** -6)


def test_band_height(adv):
    assert pm.boundary_band(adv) == 1.0
    assert pm.boundary_band(
        pm.polynomial_field([2.0], [-2j], [0.0], (0.0, 2.0))) == 1.0
    assert pm.boundary_band(
        pm.polynomial_field([1.0], [-3j], [0.0], (0.0, 2.0))) == 3.0
    with pytest.raises(pm.PreconditionError):
        pm.boundary_band(pm.polynomial_field([1.0], [1j], [0.0], (0.0, 2.0)))


def test_quadratic_roots_values(adv):
    r1, r2 = pm.quadratic_roots(adv, 0.2)
    assert abs(r1 - 0.27639320225002106j) < 1e-14
    assert abs(r2 - 0.7236067977499789j) < 1e-14
    assert r1.imag <= r2.imag            # ordered by (Im, Re)
    for r in (r1, r2):
        assert abs(pm.principal_symbol(adv, 0.0, r) - 0.2) < 1e-12


def test_quadratic_roots_vertex_degenerate(adv):
    with pytest.raises(pm.DegenerateRootError):
        pm.quadratic_roots(adv, 0.25)    # vertex value c0 - b0^2/4a0


def test_inside_parabola_verdicts(adv):
    assert pm.inside_parabola(adv, 0.2)
    assert pm.inside_parabola(adv, 100.0)
    assert not pm.inside_parabola(adv, 0.0)     # on the curve (s = 0)
    assert not pm.inside_parabola(adv, -0.01)
    with pytest.warns(RuntimeWarning):
        assert pm.inside_parabola(adv, 0.25)    # degenerate interior limit


def test_inside_parabola_matches_winding(adv):
    rng = np.random.default_rng(23)
    n = 0
    while n < 60:
        z = complex(rng.uniform(-1.0, 3.0), rng.uniform(-1.5, 1.5))
        if abs(z.real - z.imag ** 2) < 0.05:
            continue                     # too close to the curve for either test
        assert pm.inside_parabola(adv, z) == winding_verdict(z)
        n += 1


def test_endpoint_must_be_zero():
    # the exit field's coefficients on [-1, 2]: x = 0 is an interior point
    shifted = pm.polynomial_field([1.0], [-1j], [0.0], (-1.0, 2.0))
    assert not pm.exit_condition(shifted)
    with pytest.raises(pm.PreconditionError):
        pm.boundary_band(shifted)
    with pytest.raises(pm.PreconditionError):
        pm.quadratic_roots(shifted, 0.2)
    with pytest.raises(pm.PreconditionError):
        pm.boundary_phase(shifted, 0.3j)
    with pytest.raises(pm.PreconditionError):
        pm.robin_combination(shifted, pm.BoundaryCondition("dirichlet"), 0.2,
                             2.0 ** -6)


def test_endpoint_read_from_value_only_coefficients(adv):
    # the exit field through the closure provider
    fd = pm.CoefficientField(*(pm.AnalyticJet(lambda x, v=v: v)
                               for v in (1.0, -1j, 0.0)), (0.0, 2.0))
    assert pm.exit_condition(fd)
    assert pm.boundary_band(fd) == pm.boundary_band(adv)
    assert pm.quadratic_roots(fd, 0.2) == pm.quadratic_roots(adv, 0.2)


def test_constant_coefficients_collapse_phase(adv):
    # sigma(0, xi) is exact at order s^1: psi_{-1} = i xi s, corrections vanish
    ph = pm.boundary_phase(adv, 0.3j, n=2, K=24)
    want = np.zeros(25, dtype=complex)
    want[1] = 1j * 0.3j
    np.testing.assert_array_equal(ph.psi_m(-1).c, want)
    for m in range(0, 3):
        assert np.all(ph.psi_m(m).c == 0.0)
    assert ph.one_sided


def test_boundary_phase_errors(adv):
    with pytest.raises(pm.BranchPointError):
        pm.boundary_phase(adv, 0.5j)     # the vertex covector -b/2a
    with pytest.raises(pm.PreconditionError):
        pm.boundary_phase(adv, -0.2j)
    with pytest.raises(pm.PreconditionError):
        pm.boundary_phase(adv, 1.0 + 0j)


def test_boundary_mode_trace_and_norm(adv):
    h = 2.0 ** -6
    mode = pm.boundary_mode(adv, 0.3j, h)
    assert mode.f[0] == h ** -0.5
    assert mode.x[0] == 0.0
    # ||f||^2 -> G(0)/F(0) with decay rate F(0) = 2 Im xi = 0.6
    target = pm.laplace_constant_boundary(0, 1.0, 0.6)
    assert abs(target - 1.0 / 0.6) < 1e-14
    assert abs(mode.norm() ** 2 - target) < 1e-4
    errs = [abs(pm.boundary_mode(adv, 0.3j, 2.0 ** -j).norm() ** 2 - target)
            for j in (4, 5, 6)]
    assert errs[0] > errs[1] > errs[2]


def test_laplace_constant_boundary_values():
    assert pm.laplace_constant_boundary(0, 1.0, 1.0) == 1.0
    assert pm.laplace_constant_boundary(2, 1.0, 1.0) == 2.0
    assert abs(pm.laplace_constant_boundary(0, 3.0, 2.0) - 1.5) < 1e-15
    with pytest.raises(pm.PreconditionError):
        pm.laplace_constant_boundary(0, 1.0, 0.0)
    with pytest.raises(pm.PreconditionError):
        pm.laplace_constant_boundary(1, 1.0, 1.0)   # odd power


def test_boundary_mode_localization_orders(adv):
    hs = [2.0 ** -4, 2.0 ** -6, 2.0 ** -8]
    rqs = []
    for h in hs:
        mode = pm.boundary_mode(adv, 0.3j, h)
        rq, rp, rl, _ = pm.residual_triple(mode, adv)
        rqs.append(rq)
        # exact exponential for constant coefficients: plateau residuals vanish
        assert rp == 0.0
        assert rl <= 1e-15
    slope, _, _ = pm.order_fit(hs, rqs)
    assert 0.8 <= slope <= 1.2           # linear-rate Laplace: O(h)


def test_boundary_mode_momentum_order_variable_field():
    cf = varfield()
    hs = [2.0 ** -4, 2.0 ** -6, 2.0 ** -8]
    rps = [pm.residual_triple(pm.boundary_mode(cf, 0.3j, h, K=48), cf)[1]
           for h in hs]
    slope, _, _ = pm.order_fit(hs, rps)
    assert 0.8 <= slope <= 1.2


def test_boundary_mode_operator_order_variable_field():
    cf = varfield()
    hs = [2.0 ** -5, 2.0 ** -6, 2.0 ** -7]
    rls = [pm.residual_triple(pm.boundary_mode(cf, 0.3j, h, n=1, K=48), cf)[2]
           for h in hs]
    slope, _, r2 = pm.order_fit(hs, rls)
    assert 2.6 <= slope <= 3.4
    assert r2 > 0.999


def test_robin_combination_exact_trace(adv):
    rc = pm.BoundaryCondition("robin", 1.0, 1.0)
    mode = pm.robin_combination(adv, rc, 0.2, 2.0 ** -6)
    assert pm.robin_residual(mode, rc) == 0.0
    assert mode.xi is None
    rq, rp, rl, _ = pm.residual_triple(mode, adv)
    assert math.isnan(rp)                # no single covector to measure against
    assert rl < 1e-12
    assert rq > 0.0


def test_robin_combination_dirichlet(adv):
    rc = pm.BoundaryCondition("robin", 0.0, 1.0)     # f(0) = 0
    mode = pm.robin_combination(adv, rc, 0.2, 2.0 ** -6)
    assert abs(mode.f[0]) <= 1e-13 * np.max(np.abs(mode.f))


def test_dirichlet_is_the_robin_pair_zero_one(adv):
    bcs = (pm.BoundaryCondition("dirichlet"), pm.BoundaryCondition("robin", 0, 1))
    grid = pm.Grid1D(0.0, 2.0, 64)
    bands = [pm.discretize(adv, 2.0 ** -4, grid, bc).band for bc in bcs]
    assert bands[0].tobytes() == bands[1].tobytes()
    modes = [pm.robin_combination(adv, bc, 0.2, 2.0 ** -6) for bc in bcs]
    for name in ("f", "fp", "fpp"):
        assert (getattr(modes[0], name).tobytes()
                == getattr(modes[1], name).tobytes())


def test_robin_combination_rejects_exterior_z(adv):
    rc = pm.BoundaryCondition("robin", 1.0, 1.0)
    with pytest.raises(pm.PreconditionError):
        pm.robin_combination(adv, rc, -0.01, 2.0 ** -6)


def test_robin_combination_variable_field_order():
    cf = varfield()
    rc = pm.BoundaryCondition("robin", 1.0, 1.0)
    hs = [2.0 ** -5, 2.0 ** -7]
    rls = []
    for h in hs:
        mode = pm.robin_combination(cf, rc, 0.2, h, n=1, K=48)
        assert pm.robin_residual(mode, rc) <= 1e-13
        rls.append(pm.residual_triple(mode, cf)[2])
    slope = np.log(rls[0] / rls[1]) / np.log(hs[0] / hs[1])
    assert 2.5 <= slope <= 3.5
