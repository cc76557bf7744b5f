"""Principal symbol, bracket sign region, twist curvature, multiplicity."""

import math

import mpmath
import numpy as np
import pytest

import pseudomode as pm
from pseudomode.symbol import AnalyticJet, CoefficientField, PolynomialJet, as_jet_provider
from pseudomode.wkb import choose_delta, transport_recursion


def test_principal_symbol_values(airy):
    assert pm.principal_symbol(airy, 0.0, -1.0) == 1.0 + 0.0j
    assert pm.principal_symbol(airy, 2.0, 3.0) == 9.0 + 2.0j
    bfield = pm.polynomial_field([1.0], [1.0], [0.0], (-2.0, 2.0))
    assert pm.principal_symbol(bfield, 0.0, 1.0) == 2.0 + 0.0j


def test_symbol_outside_domain_raises(airy):
    with pytest.raises(pm.DomainError):
        pm.principal_symbol(airy, 5.0, 0.0)


def test_symbol_derivatives_values(airy):
    su, sx = pm.symbol_derivatives(airy, 0.0, -1.0)
    assert su == 1j and sx == -2.0
    bfield = pm.polynomial_field([1.0], [1.0], [0.0], (-2.0, 2.0))
    su, sx = pm.symbol_derivatives(bfield, 0.0, 1.0)
    assert su == 0.0 and sx == 3.0


def test_real_coefficients_have_real_u_derivative():
    cfr = pm.polynomial_field([1.0, 0.1], [0.0, 0.5], [1.0, 0.0, -0.3],
                              (-2.0, 2.0))
    rng = np.random.default_rng(0)
    for _ in range(20):
        u = rng.uniform(-1.5, 1.5)
        xi = rng.uniform(-2.0, 2.0)
        su, _ = pm.symbol_derivatives(cfr, u, xi)
        assert su.imag == 0.0
        assert pm.poisson_bracket(cfr, u, xi) == 0.0


def test_derivatives_match_finite_differences():
    cf = pm.polynomial_field([1.0, 0.2, -0.05], [0.1j, 0.3], [0.0, 1j, 0.25],
                             (-2.0, 2.0))
    rng = np.random.default_rng(1)
    e = 1e-4
    for _ in range(25):
        u = rng.uniform(-1.0, 1.0)
        xi = rng.uniform(-2.0, 2.0)
        su, sx = pm.symbol_derivatives(cf, u, xi)
        fd_u = (pm.principal_symbol(cf, u + e, xi)
                - pm.principal_symbol(cf, u - e, xi)) / (2 * e)
        fd_x = (pm.principal_symbol(cf, u, xi + e)
                - pm.principal_symbol(cf, u, xi - e)) / (2 * e)
        assert abs(fd_u - su) <= 1e-6 * max(abs(su), 1.0)
        assert abs(fd_x - sx) <= 1e-6 * max(abs(sx), 1.0)


def test_poisson_bracket_values(airy):
    assert pm.poisson_bracket(airy, 0.0, -1.0) == 2.0
    assert pm.poisson_bracket(airy, 0.0, 1.0) == -2.0


def test_davies_bracket_is_minus_4_u_xi(davies):
    rng = np.random.default_rng(2)
    for _ in range(20):
        u = rng.uniform(-1.0, 1.0)
        xi = rng.uniform(-1.5, 1.5)
        assert abs(pm.poisson_bracket(davies, u, xi) - (-4.0 * u * xi)) < 1e-12


def test_twist_curvature_values(airy, davies):
    assert pm.twist_curvature(airy, 0.0, -1.0) == -0.5
    # frozen-potential family sigma = xi^2 + c(u): k = -i c'(u) / (2 xi)
    rng = np.random.default_rng(3)
    for cf in (airy, davies):
        for _ in range(10):
            u = rng.uniform(-1.0, 1.0)
            xi = rng.choice([-1.0, 1.0]) * rng.uniform(0.4, 1.5)
            cprime = cf.jets(u, 1)[2][1]
            want = -1j * cprime / (2.0 * xi)
            assert abs(pm.twist_curvature(cf, u, xi) - want) < 1e-13


def test_twist_singular_point_raises(airy):
    with pytest.raises(pm.SingularPointError):
        pm.twist_curvature(airy, 0.3, 0.0)


def test_sign_link_twist_bracket_membership(davies):
    # Re(twist) < 0 iff bracket > 0 iff in the admissible region, pointwise
    rng = np.random.default_rng(4)
    for _ in range(50):
        u = rng.uniform(-1.0, 1.0)
        xi = rng.uniform(-1.5, 1.5)
        br = pm.poisson_bracket(davies, u, xi)
        member = pm.in_omega(davies, u, xi)
        assert member == (br > 0.0)
        _, sx = pm.symbol_derivatives(davies, u, xi)
        if sx != 0.0:
            assert (pm.twist_curvature(davies, u, xi).real < 0.0) == (br > 0.0)


def test_region_mask_half_plane(airy):
    xi = np.linspace(-2.0, 2.0, 21)       # symmetric about 0
    mask = pm.region_mask(airy, np.linspace(-1, 1, 11), xi)
    want = np.broadcast_to(xi < 0.0, mask.in_omega.shape)
    assert np.array_equal(mask.in_omega, want)
    assert np.array_equal(mask.in_omega, mask.bracket > 0.0)


def test_region_mask_real_symbol_empty():
    cfr = pm.polynomial_field([1.0], [0.0, 0.3], [0.0, 0.0, 1.0], (-2.0, 2.0))
    mask = pm.region_mask(cfr, np.linspace(-1, 1, 9), np.linspace(-1, 1, 9))
    assert not mask.in_omega.any()


def test_region_mask_davies_quadrants(davies):
    u = np.linspace(-1.0, 1.0, 21)
    xi = np.linspace(-1.0, 1.0, 21)
    mask = pm.region_mask(davies, u, xi)
    U, XI = np.meshgrid(u, xi, indexing="ij")
    np.testing.assert_allclose(mask.bracket, -4.0 * U * XI, atol=1e-12)
    assert np.array_equal(mask.in_omega, U * XI < 0.0)


def test_region_mask_deterministic(airy):
    a = pm.region_mask(airy, np.linspace(-1, 1, 15), np.linspace(-1, 1, 15))
    b = pm.region_mask(airy, np.linspace(-1, 1, 15), np.linspace(-1, 1, 15))
    assert np.array_equal(a.bracket, b.bracket)
    assert np.array_equal(a.sigma, b.sigma)


def test_bracket_conjugation_antisymmetry():
    plus = pm.complex_airy()
    minus = pm.polynomial_field([1.0], [0.0], [0.0, -1j], (-4.0, 4.0))
    u = np.linspace(-1, 1, 9)
    xi = np.linspace(-1.5, 1.5, 9)
    mp = pm.region_mask(plus, u, xi)
    mm = pm.region_mask(minus, u, xi)
    np.testing.assert_array_equal(mp.bracket, -mm.bracket)


def test_symbol_image(airy):
    u = np.linspace(-1.0, 1.0, 7)
    xi = np.linspace(-2.0, -0.5, 5)       # wholly admissible half-grid
    mask = pm.region_mask(airy, u, xi)
    uu, xx, sig = pm.symbol_image(mask)
    assert uu.shape == xx.shape == sig.shape == (35,)
    # np.nonzero order: u outermost
    np.testing.assert_array_equal(uu, np.repeat(u, 5))
    np.testing.assert_array_equal(xx, np.tile(xi, 7))
    np.testing.assert_array_equal(sig, xx ** 2 + 1j * uu)

    empty = pm.region_mask(airy, u, np.linspace(0.5, 2.0, 5))
    assert all(col.size == 0 for col in pm.symbol_image(empty))


def test_multiplicity_counts_preimage_clusters(airy, davies):
    u = np.linspace(-1.0, 1.0, 161)
    xi = np.linspace(-1.6, 1.6, 161)
    mask_a = pm.region_mask(airy, u, xi)
    # z = 1 + 0.5i: unique admissible preimage (u, xi) = (0.5, -1)
    assert pm.multiplicity(mask_a, 1.0 + 0.5j, tol=0.05) == 1
    assert pm.multiplicity(mask_a, 40.0 + 40.0j, tol=0.05) == 0
    mask_d = pm.region_mask(davies, u, xi)
    z = pm.principal_symbol(davies, 0.5, -1.0)
    # preimages (0.5, -1) and (-0.5, 1) sit in different quadrants
    assert pm.multiplicity(mask_d, z, tol=0.05) == 2


def test_ellipticity_probe_rejects_vanishing_a():
    # a(u) = u vanishes at the sampled endpoint u = 0
    with pytest.raises(pm.EllipticityError):
        CoefficientField(PolynomialJet([0.0, 1.0]), 0.0, 1.0, (0.0, 1.0))
    with pytest.raises(pm.EllipticityError):
        CoefficientField(0.0, 1.0, 1.0, (-1.0, 1.0))


def test_jet_degree_zero_equals_evaluation(airy):
    for u in (-0.7, 0.0, 1.3):
        ja, jb, jc = airy.jets(u, 3)
        assert ja[0] == complex(airy.a.values(np.array(u)))
        assert jc[0] == complex(airy.c.values(np.array(u)))


def test_coefficient_field_from_a_scalar_a_list_and_a_closure(airy):
    cf = CoefficientField(1.0, [0.0], lambda x: 1j * x, airy.domain)
    assert isinstance(cf.b, PolynomialJet)
    assert isinstance(cf.c, AnalyticJet)
    xs = np.linspace(-4.0, 4.0, 17)
    for got, ref in zip((cf.a, cf.b, cf.c), (airy.a, airy.b, airy.c)):
        assert np.array_equal(got.values(xs), ref.values(xs))
    assert cf.c.values(np.array(2.0)).shape == ()
    assert cf.c.values(xs.reshape(1, 17)).shape == (1, 17)
    # the closure's jet is exact to roundoff in the 0.5^j-weighted norm
    w = 0.5 ** np.arange(5)
    for u in (-3.5, 0.0, 0.3, 2.0):
        for got, ref in zip(cf.jets(u, 4), airy.jets(u, 4)):
            assert np.max(np.abs(got - ref) * w) <= 1e-15 * max(abs(u), 1.0)
    with pytest.raises(pm.PreconditionError, match="jet provider"):
        as_jet_provider(object())


def test_analytic_jet_matches_polynomial_jet():
    # (coefficients low to high, jet points): Airy's c, Davies' c, a quintic
    for coeffs, points in [([0.0, 1j], (-3.5, 0.0, 2.0)),
                           ([0.0, 0.0, 1j], (-0.8, 0.1, 0.9, 4.0)),
                           ([1.0, -2.0, 0.5j, 0.0, 0.25, -1j], (-1.0, 0.3, 1.7))]:
        exact = PolynomialJet(coeffs)
        closure = AnalyticJet(lambda z: sum(c * z ** k for k, c in enumerate(coeffs)))
        w = AnalyticJet.R ** np.arange(81)
        for x in points:
            je, ja = exact.jet(x, 80), closure.jet(x, 80)
            assert np.max(np.abs(ja - je) * w) <= 1e-13 * np.max(np.abs(je) * w)


@pytest.mark.parametrize("fn, coefficient", [
    (np.exp, lambda x, j: mpmath.exp(x) / mpmath.factorial(j)),
    (lambda z: 1j * np.sin(z),
     lambda x, j: 1j * mpmath.sin(x + j * mpmath.pi / 2) / mpmath.factorial(j)),
], ids=["exp", "sin"])
def test_analytic_jet_at_order_80_matches_mpmath(fn, coefficient):
    # the exact Taylor coefficients e^x/j! and sin(x + j pi/2)/j!, at 40 digits
    w = AnalyticJet.R ** np.arange(81)
    for x in (-1.3, 0.0, 0.3, 2.5):
        with mpmath.workdps(40):
            ref = np.array([complex(coefficient(mpmath.mpf(x), j))
                            for j in range(81)])
        got = AnalyticJet(fn).jet(x, 80)
        assert np.max(np.abs(got - ref) * w) <= 1e-15 * np.max(np.abs(ref) * w)


@pytest.mark.parametrize("name, u, xi, c", [
    ("complex_airy", 0.0, -1.0, lambda z: 1j * z),
    ("davies_rotated", 0.6, -0.8, lambda z: 1j * z ** 2)], ids=["airy", "davies"])
def test_closure_phase_matches_polynomial_phase(name, u, xi, c):
    exact = getattr(pm, name)()
    closure = CoefficientField(lambda z: 1.0, lambda z: 0.0, c, exact.domain)
    pe = transport_recursion(exact, u, xi, 1)
    pc = transport_recursion(closure, u, xi, 1)
    w = choose_delta(pe).delta ** np.arange(len(pe.psi[0].c))
    for m in (-1, 0, 1):
        want, got = pe.psi_m(m).c, pc.psi_m(m).c
        assert np.max(np.abs(got - want) * w) <= 1e-13 * np.max(np.abs(want) * w)


def test_analytic_jet_refuses_a_pole_on_its_circle_and_a_real_only_closure():
    # poles at +-i/2, on the circle |z| = 0.5: the aliased half is 5e-3 of max |fn|
    with pytest.raises(pm.ConvergenceError, match="not analytic"):
        AnalyticJet(lambda z: 1.0 / (1.0 + 4.0 * z ** 2)).jet(0.0, 4)
    assert AnalyticJet(lambda z: 1.0 / (1.0 + 4.0 * z ** 2)).jet(1.5, 4)[0] == \
        pytest.approx(0.1, rel=1e-14)
    with pytest.raises(pm.PreconditionError, match="complex"):
        AnalyticJet(math.exp).jet(0.0, 4)
    # orders from N/2 = 128 up would read the aliased half
    with pytest.raises(pm.PreconditionError, match="not below"):
        AnalyticJet(np.exp).jet(0.0, 128)
    # a real-only closure passes the float probe, then fails at the first jet
    cf = CoefficientField(1.0, 0.0, math.exp, (-1.0, 1.0))
    with pytest.raises(pm.PreconditionError, match="complex"):
        cf.jets(0.0, 2)
