"""Boundary-layer quasimodes on [0, gamma] for operators with an exit endpoint.

At an exit endpoint (Im(-b(0)/a(0)) > 0) the operator carries a band of
admissible complex covectors

    band = { xi : 0 < Im(xi) < Im(-b(0)/a(0)) },

and sigma(0, band) fills the region inside the parabola {sigma(0, t): t real}.
Each xi in the band supports a one-sided quasimode

    f(s) = h^(-1/2) chi(s) exp(psi(s)),   s in [0, delta],

built by the same eikonal/transport recursion as the interior construction,
anchored at u = 0 with complex xi; the decay is now linear-rate,
|e^psi|^2 ~ exp(-s F(s)/h) with F(0) = 2 Im(xi), so norms follow the
one-sided Laplace law c h^(m+1) rather than the interior h^(m+1/2) law.

For a point z strictly inside the parabola the two covector roots of
sigma(0, xi) = z give two such modes, and the combination

    f = beta_2 f_1 - beta_1 f_2,   beta_r = u h f_r'(0) + w f_r(0),

satisfies the Robin condition u h f'(0) + w f(0) = 0 at machine precision
while keeping the O(h^(n+2)) operator residual.  The condition is a
grid.BoundaryCondition, the same type that closes the stencil operator;
Dirichlet is its pair (u, w) = (0, 1).

Every construction here is anchored at the left endpoint of the domain, which
must be x = 0: the functions that read the endpoint coefficients raise
PreconditionError otherwise, and exit_condition is False.
"""

import math
import warnings

import numpy as np

from .errors import DegenerateRootError, PreconditionError
from .wkb import (DEFAULT_K, DEFAULT_NPTS, DELTA0, Pseudomode, _check_h,
                  _cutoff, _mode, _phase_core, _phase_evaluator, choose_delta)

__all__ = ["exit_condition", "boundary_band", "quadratic_roots",
           "inside_parabola", "boundary_phase", "boundary_mode",
           "laplace_constant_boundary", "robin_combination", "robin_residual"]


def _endpoint(cf):
    """(a(0), b(0), c(0)); raises PreconditionError unless the domain starts at 0."""
    if cf.domain[0] != 0.0:
        raise PreconditionError(
            f"boundary constructions need the endpoint x = 0, domain is {cf.domain}")
    return tuple(complex(g.values(0.0)) for g in (cf.a, cf.b, cf.c))


def exit_condition(cf):
    """True when the domain starts at 0 and Im(-b(0)/a(0)) > 0 there."""
    try:
        return boundary_band(cf) > 0.0
    except PreconditionError:
        return False


def boundary_band(cf):
    """Height H of the admissible band {0 < Im(xi) < H} at the endpoint."""
    a0, b0, _ = _endpoint(cf)
    height = float(np.imag(-b0 / a0))
    if height <= 0.0:
        raise PreconditionError("exit condition fails: Im(-b(0)/a(0)) <= 0")
    return height


def quadratic_roots(cf, z):
    """The two roots of a(0) xi^2 + b(0) xi + c(0) = z, ordered by (Im, Re).

    The roots coincide exactly when z equals the vertex value
    c(0) - b(0)^2 / 4a(0), taken to within 1e-12 relative; that input
    raises DegenerateRootError.
    """
    a0, b0, c0 = _endpoint(cf)
    z = complex(z)
    vertex = c0 - b0 ** 2 / (4.0 * a0)
    scale = max(abs(z), abs(vertex), 1.0)
    if abs(z - vertex) <= 1e-12 * scale:
        raise DegenerateRootError(
            f"z={z} is the parabola vertex c(0)-b(0)^2/4a(0); roots coincide"
        )
    disc = np.sqrt(complex(b0 ** 2 - 4.0 * a0 * (c0 - z)))
    r1 = (-b0 + disc) / (2.0 * a0)
    r2 = (-b0 - disc) / (2.0 * a0)
    roots = sorted((r1, r2), key=lambda w: (w.imag, w.real))
    for r in roots:
        check = a0 * r ** 2 + b0 * r + c0
        if abs(check - z) > 1e-10 * max(abs(z), 1.0):
            raise DegenerateRootError(f"root verification failed at xi={r}")
    return roots[0], roots[1]


def inside_parabola(cf, z):
    """True iff z lies strictly inside {sigma(0, t): t real}.

    Equivalent to both covector roots of sigma(0, xi) = z lying strictly in
    the admissible band.  The vertex value is the degenerate interior limit
    point: it returns True with a warning rather than raising.
    """
    height = boundary_band(cf)  # also enforces the exit condition
    try:
        roots = quadratic_roots(cf, z)
    except DegenerateRootError:
        warnings.warn(
            "z equals the parabola vertex; treating as (degenerate) interior",
            RuntimeWarning,
            stacklevel=2,
        )
        return True
    return all(0.0 < r.imag < height for r in roots)


def boundary_phase(cf, xi, n=1, K=DEFAULT_K):
    """One-sided phase series [psi_{-1}, ..., psi_n] anchored at the endpoint.

    Same recursion as the interior construction with u = 0 and complex xi;
    psi_{-1}(s) = i xi s + k s^2/2 + O(s^3).  Raises BranchPointError when
    w(xi, 0) = 0 (that xi is the branch point of the covector square root:
    for constant coefficients, exactly the vertex covector -b/2a).
    """
    xi = complex(xi)
    if not xi.imag > 0.0:
        raise PreconditionError(f"boundary covector must have Im(xi) > 0, got {xi}")
    _endpoint(cf)  # the anchor must be the endpoint x = 0
    return _phase_core(cf, 0.0, xi, n, K, one_sided=True)


def boundary_mode(cf, xi, h, n=1, K=DEFAULT_K, delta0=DELTA0, delta=None,
                  phase=None):
    """Boundary quasimode f(s) = h^(-1/2) chi(s) e^(psi(s)) on [0, delta].

    chi is the sharpness-1 cutoff of width delta, or of the ladder width
    when delta is None; the mode is sampled at DEFAULT_NPTS points.
    f(0) = h^(-1/2) exactly (chi(0) = 1, psi(0) = 0).  Residual orders
    against sigma(0, xi): O(h^(n+2)) for the operator, O(h) for both
    localization norms (linear-rate Laplace asymptotics).
    """
    _check_h(h)
    xi = complex(xi)
    if phase is None:
        phase = boundary_phase(cf, xi, n=n, K=K)
    cutoff = _cutoff(phase, delta, delta0, 1.0)
    return _mode("boundary", cf, h, n, 0.0, xi, phase, cutoff,
                 _phase_evaluator(phase, cutoff, h, 0.0, h ** -0.5), DEFAULT_NPTS)


def laplace_constant_boundary(m, G0, F0):
    """Leading constant of int_0^delta s^m G(s) exp(-s F(s)/h) ds ~ c h^(m+1).

    c = G(0) Gamma(m+1) / F(0)^(m+1) for even non-negative integer m (the
    one-sided, linear-decay-rate law).
    """
    if F0 <= 0:
        raise PreconditionError("Laplace rate F(0) must be positive")
    if m < 0 or int(m) != m or int(m) % 2 != 0:
        raise PreconditionError("m must be a non-negative even integer")
    return G0 * math.gamma(m + 1.0) / F0 ** (m + 1.0)


def robin_residual(mode, bc):
    """Normalized boundary residual |u h f'(0) + w f(0)| / (h^(-1/2)(|u|+|w|))."""
    scale = mode.h ** -0.5 * (abs(bc.coef_deriv) + abs(bc.coef_value))
    return abs(bc.trace(mode)) / scale


def robin_combination(cf, bc, z, h, n=1, K=DEFAULT_K, delta0=DELTA0):
    """Robin-exact combination f = beta_2 f_1 - beta_1 f_2 of the two root modes.

    beta_r = bc.trace(f_r) = coef_deriv * h f_r'(0) + coef_value * f_r(0) are
    taken from the actual numeric traces, so the boundary condition holds to
    rounding (the classical coefficients i*u*xi_r + w are their h -> 0
    limits).  Both modes share one cutoff width (the smaller ladder width,
    at sharpness 1) and sample grid.  The result has xi = None (no single
    covector) and keeps the O(h^(n+2)) operator residual against z.
    """
    _check_h(h)
    if not exit_condition(cf):
        raise PreconditionError("exit condition fails at the endpoint")
    z = complex(z)
    if not inside_parabola(cf, z):
        raise PreconditionError(f"z={z} is not strictly inside the parabola")
    xi1, xi2 = quadratic_roots(cf, z)
    phases = [boundary_phase(cf, xi, n=n, K=K) for xi in (xi1, xi2)]
    delta = min(choose_delta(ph, delta0=delta0).delta for ph in phases)
    f1, f2 = (boundary_mode(cf, xi, h, n=n, K=K, delta=delta, phase=ph)
              for xi, ph in zip((xi1, xi2), phases))
    beta1, beta2 = bc.trace(f1), bc.trace(f2)
    scale = max(abs(beta1), abs(beta2))
    if scale <= 1e-13 * h ** -0.5 * (abs(bc.coef_deriv) + abs(bc.coef_value)):
        raise DegenerateRootError(
            "both root modes satisfy the boundary condition; combination degenerate"
        )
    # Combine first, rescale after: the rescale multiplies f, f', f'' by one
    # common real factor and therefore preserves the exact beta cancellation
    # in the boundary trace.
    s = 1.0 / scale

    def ev(x):
        return tuple(s * (beta2 * g1 - beta1 * g2)
                     for g1, g2 in zip(f1.samples(x), f2.samples(x)))

    return Pseudomode("boundary", h, n, 0.0, None, z, tuple(phases), f1.cutoff,
                      f1.x, ev)
