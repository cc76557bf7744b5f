"""Principal symbol of L_h f = -h^2 a f'' - i h b f' + c f and its phase-space geometry.

The symbol is sigma(u, xi) = a(u) xi^2 + b(u) xi + c(u).  Everything downstream
needs Taylor jets of the coefficients, so a coefficient is represented by a jet
provider: ``jet(x, order)`` returns the Taylor coefficients f^(j)(x)/j! for
j = 0..order, stacked on a leading axis over an array x, and ``values(xs)``
evaluates f on an array.  Polynomial providers return exact jets at any order;
a closure becomes an AnalyticJet, which must take complex arguments and be
analytic within 0.5 of every jet point.

The calculus is array-valued, u broadcast against xi, and a rectangle grid is
the same calculus on u[:, None] and xi[None, :].  sigma and sigma_xi = 2 a xi + b
read ``values``; only sigma_u reads the order-1 jets.  The bracket of the real
and imaginary parts of sigma,

    {s1, s2} = ds1/du ds2/dxi - ds1/dxi ds2/du = Im(conj(sigma_u) sigma_xi),

defines the elliptic region Omega = {bracket > 0} where localized quasimodes
exist; the twist curvature k = -i sigma_u / sigma_xi satisfies Re k < 0
exactly on Omega.
"""

import functools

import numpy as np

from .errors import (ConvergenceError, DomainError, EllipticityError, PreconditionError,
                     SingularPointError)


class PolynomialJet:
    """Polynomial sum_k c_k x^k with exact Taylor-shift jets."""

    def __init__(self, coeffs):
        self.coeffs = np.atleast_1d(np.asarray(coeffs, dtype=complex))

    def jet(self, x, order):
        # synthetic-division Taylor shift to each x; its order-0 pass is Horner's rule
        x = np.asarray(x, dtype=float)
        work = list(self.coeffs)
        out = np.zeros((order + 1,) + x.shape, dtype=complex)
        for j in range(min(order, len(work) - 1) + 1):
            for i in range(len(work) - 2, j - 1, -1):
                work[i] = work[i] + x * work[i + 1]
            out[j] = work[j]
        return out

    def values(self, xs):
        return self.jet(xs, 0)[0]


class AnalyticJet:
    """A closure fn, analytic on the closed disc |z - x| <= R about each jet point x.

    ``jet`` is the trapezoid rule for Cauchy's integral on |z - x| = R, one FFT of
    fn at N points with coefficient j divided by R^j (Lyness & Moler 1967;
    Bornemann 2011).  R = 0.5 is wkb.DELTA0, the widest phase disc, so the error
    is roundoff in the R^j-weighted norm.  Orders N/2 and up alias into the upper
    (negative-frequency) half, which must be roundoff next to max |fn| on the circle.
    """

    N, R = 256, 0.5  # N >= 2 (JET_ORDER_MAX + 1): requested orders stay below N/2

    def __init__(self, fn):
        self.fn = fn

    def jet(self, x, order):
        if not order < self.N // 2:
            raise PreconditionError(f"jet order {order} is not below N/2 = {self.N // 2}")
        x = np.asarray(x, dtype=float)
        z = x[..., None] + self.R * np.exp(2j * np.pi * np.arange(self.N) / self.N)
        try:
            y = np.array([self.fn(zk) for zk in z.ravel().tolist()], complex).reshape(z.shape)
        except TypeError as exc:
            raise PreconditionError(f"closure coefficients must take complex x: {exc}") from None
        c, top = np.fft.fft(y) / self.N, np.max(np.abs(y), axis=-1)
        bad = ~(np.max(np.abs(c[..., self.N // 2:]), axis=-1) <= 100 * np.finfo(float).eps * top)
        if bad.any():  # name the first failing point
            raise ConvergenceError(
                f"closure coefficient is not analytic on |z - {float(x[bad][0])}| <= {self.R}")
        return np.moveaxis(c[..., : order + 1] / self.R ** np.arange(order + 1), -1, 0)

    def values(self, xs):
        xs = np.asarray(xs, dtype=float)  # fn is called on floats
        return np.array([self.fn(x) for x in xs.ravel().tolist()], complex).reshape(xs.shape)


def as_jet_provider(obj):
    """Coerce a provider, constant, coefficient list, or closure to a jet provider."""
    if isinstance(obj, (PolynomialJet, AnalyticJet)):
        return obj
    if np.isscalar(obj):
        return PolynomialJet([obj])
    if isinstance(obj, (list, tuple, np.ndarray)):
        return PolynomialJet(obj)
    if callable(obj):
        return AnalyticJet(obj)
    raise PreconditionError(f"cannot build a jet provider from {type(obj)!r}")


class CoefficientField:
    """The coefficient triple (a, b, c) of L_h on an interval domain.

    Construction probes the leading coefficient on a dense grid and refuses
    non-elliptic fields (a(x) = 0 somewhere on the probe).  Jets are served
    up to order JET_ORDER_MAX.  A closure coefficient must take complex z and
    be analytic on |z - x| <= 0.5 about each jet point x: its jet is one FFT
    of 256 values on that circle, refused when the disc holds a singularity.
    """

    ELLIPTICITY_PROBE = 512
    JET_ORDER_MAX = 80

    def __init__(self, a, b, c, domain):
        self.a, self.b, self.c = (as_jet_provider(g) for g in (a, b, c))
        lo, hi = float(domain[0]), float(domain[1])
        if not lo < hi:
            raise PreconditionError("domain must be a non-degenerate interval (lo, hi)")
        self.domain = (lo, hi)
        probe = np.linspace(lo, hi, self.ELLIPTICITY_PROBE)
        if np.min(np.abs(self.a.values(probe))) == 0.0:
            raise EllipticityError("leading coefficient a(x) vanishes on the domain probe")

    def require_inside(self, x, what="point"):
        lo, hi = self.domain
        x = np.asarray(x, dtype=float)
        outside = ~((lo - 1e-12 <= x) & (x <= hi + 1e-12))
        if outside.any():
            raise DomainError(f"{what} x={float(x[outside][0])} outside domain [{lo}, {hi}]")

    def jets(self, x, order):
        """Taylor jets of (a, b, c) about the points x, each (order+1,) + shape(x)."""
        self.require_inside(x)
        if order > self.JET_ORDER_MAX:
            raise PreconditionError(
                f"jet order {order} exceeds JET_ORDER_MAX={self.JET_ORDER_MAX}")
        return self.a.jet(x, order), self.b.jet(x, order), self.c.jet(x, order)


# -- symbol calculus: points or arrays, u broadcast against xi ------------------


def principal_symbol(cf, u, xi):
    """sigma(u, xi) = a(u) xi^2 + b(u) xi + c(u), broadcasting u against xi."""
    cf.require_inside(u, "position")
    xi = np.asarray(xi)
    out = cf.a.values(u) * xi ** 2 + cf.b.values(u) * xi + cf.c.values(u)
    return complex(out) if out.ndim == 0 else out


def symbol_derivatives(cf, u, xi):
    """(sigma_u, sigma_xi), broadcasting u against xi: sigma_u = a' xi^2 + b' xi + c'
    from the order-1 jets, sigma_xi = 2 a xi + b from ``values`` as in principal_symbol."""
    a1, b1, c1 = (jet[1] for jet in cf.jets(u, 1))
    xi = np.asarray(xi)
    sigma_u = a1 * xi ** 2 + b1 * xi + c1
    sigma_xi = 2.0 * cf.a.values(u) * xi + cf.b.values(u)
    return (complex(sigma_u), complex(sigma_xi)) if sigma_u.ndim == 0 else (sigma_u, sigma_xi)


def poisson_bracket(cf, u, xi):
    """{Re sigma, Im sigma} = Im(conj(sigma_u) sigma_xi) at (u, xi)."""
    sigma_u, sigma_xi = symbol_derivatives(cf, u, xi)
    # a copy, so the complex product is freed rather than kept under a view
    bracket = np.imag(np.conj(sigma_u) * sigma_xi).copy()
    return float(bracket) if bracket.ndim == 0 else bracket


def twist_curvature(cf, u, xi):
    """k = -i sigma_u / sigma_xi; Re k < 0 exactly on Omega."""
    sigma_u, sigma_xi = symbol_derivatives(cf, u, xi)
    scale = max(abs(sigma_u), abs(sigma_xi), 1.0)
    if abs(sigma_xi) <= 1e-14 * scale:
        raise SingularPointError(f"sigma_xi vanishes at (u, xi)=({u}, {xi})")
    return complex(-1j * sigma_u / sigma_xi)


def in_omega(cf, u, xi):
    return poisson_bracket(cf, u, xi) > 0.0


# -- region geometry on rectangles --------------------------------------------


class RegionMask:
    """Bracket sign data of sigma on the phase-space rectangle grid u x xi.

    Construction computes nothing: bracket ({Re sigma, Im sigma}, of shape
    (len(u), len(xi))), in_omega (bracket > 0) and sigma are each formed on
    first read, by the pointwise calculus on u[:, None] against xi[None, :],
    and kept.  rows(i, j) is the mask, as yet unformed, of u rows i to j."""

    def __init__(self, cf, u, xi):
        self.cf, self.u, self.xi = cf, u, xi

    @functools.cached_property
    def bracket(self):
        return poisson_bracket(self.cf, self.u[:, None], self.xi[None, :])

    @functools.cached_property
    def in_omega(self):
        return self.bracket > 0.0

    @functools.cached_property
    def sigma(self):
        return principal_symbol(self.cf, self.u[:, None], self.xi[None, :])

    def rows(self, i, j):
        return RegionMask(self.cf, self.u[i:j], self.xi)


def region_mask(cf, u_grid, xi_grid):
    """The RegionMask, formed on first read, of the grid u_grid x xi_grid."""
    return RegionMask(cf, np.asarray(u_grid, dtype=float), np.asarray(xi_grid, dtype=float))


def symbol_image(mask):
    """Columns (u, xi, sigma) over the in-Omega grid points, in np.nonzero order."""
    iu, ix = np.nonzero(mask.in_omega)
    return mask.u[iu], mask.xi[ix], mask.sigma[iu, ix]


def multiplicity(mask, z, tol):
    """Number of connected in-Omega preimage clusters of z on the grid.

    Grid cells with |sigma - z| below tol are clustered with 8-neighbor
    connectivity.
    """
    hit = mask.in_omega & (np.abs(mask.sigma - z) < tol)
    if not hit.any():
        return 0
    from scipy.ndimage import label
    structure = np.ones((3, 3), dtype=int)  # 8-neighbor connectivity
    _, ncomp = label(hit, structure=structure)
    return int(ncomp)
