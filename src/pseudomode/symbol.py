"""Principal symbol of L_h f = -h^2 a f'' - i h b f' + c f and its phase-space geometry.

The symbol is sigma(u, xi) = a(u) xi^2 + b(u) xi + c(u).  Everything downstream
needs Taylor jets of the coefficients, so a coefficient is represented by a jet
provider: ``jet(x, order)`` returns the Taylor coefficients f^(j)(x)/j! for
j = 0..order, and ``values(xs)`` evaluates f on an array.  Polynomial providers
return exact jets at any order; arbitrary value-only closures get a
finite-difference fallback that is only trustworthy to moderate order.

The bracket of the real and imaginary parts of sigma,

    {s1, s2} = ds1/du ds2/dxi - ds1/dxi ds2/du = Im(conj(sigma_u) sigma_xi),

defines the elliptic region Omega = {bracket > 0} where localized quasimodes
exist; the twist curvature k = -i sigma_u / sigma_xi satisfies Re k < 0
exactly on Omega.
"""

import numpy as np
from scipy.ndimage import label as _cc_label

from .errors import DomainError, EllipticityError, PreconditionError, SingularPointError

_FD_REL_STEP = 1e-2


class PolynomialJet:
    """Polynomial sum_k c_k x^k with exact Taylor-shift jets."""

    def __init__(self, coeffs):
        self.coeffs = np.atleast_1d(np.asarray(coeffs, dtype=complex))

    def jet(self, x, order):
        # synthetic-division Taylor shift of the coefficient vector to x
        work = list(self.coeffs)
        out = np.zeros(order + 1, dtype=complex)
        for j in range(min(order, len(work) - 1) + 1):
            for i in range(len(work) - 2, j - 1, -1):
                work[i] += x * work[i + 1]
            out[j] = work[j]
        return out

    def values(self, xs):
        xs = np.asarray(xs, dtype=float)
        out = np.zeros(np.shape(xs), dtype=complex)
        for ck in self.coeffs[::-1]:
            out = out * xs + ck
        return out


class FiniteDifferenceJet:
    """Fallback wrapping a value-only closure.

    Derivative j is estimated by a central stencil of width 2*ceil((j+1)/2)+1
    via a local polynomial fit; accuracy degrades quickly with the order, so
    use analytic providers whenever the coefficient has a closed form.
    """

    def __init__(self, fn):
        self.fn = fn

    def jet(self, x, order):
        half = max(2, (order + 2) // 2 + 1)
        npts = 2 * half + 1
        step = _FD_REL_STEP * max(1.0, abs(x))
        t = (np.arange(npts) - half) * step
        y = np.array([self.fn(x + ti) for ti in t], dtype=complex)
        # least-squares polynomial fit in the local variable
        V = np.vander(t, order + 1, increasing=True)
        coef, *_ = np.linalg.lstsq(V, y, rcond=None)
        return coef[: order + 1]

    def values(self, xs):
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        return np.array([self.fn(float(x)) for x in xs], dtype=complex)


def as_jet_provider(obj):
    """Coerce a provider, constant, coefficient list, or closure to a jet provider."""
    if isinstance(obj, (PolynomialJet, FiniteDifferenceJet)):
        return obj
    if np.isscalar(obj):
        return PolynomialJet([obj])
    if isinstance(obj, (list, tuple, np.ndarray)):
        return PolynomialJet(obj)
    if callable(obj):
        return FiniteDifferenceJet(obj)
    raise TypeError(f"cannot build a jet provider from {type(obj)!r}")


class CoefficientField:
    """The coefficient triple (a, b, c) of L_h on an interval domain.

    Construction probes the leading coefficient on a dense grid and refuses
    non-elliptic fields (a(x) = 0 somewhere on the probe).  Jets are served
    up to order JET_ORDER_MAX.
    """

    ELLIPTICITY_PROBE = 512
    JET_ORDER_MAX = 80

    def __init__(self, a, b, c, domain):
        self.a = as_jet_provider(a)
        self.b = as_jet_provider(b)
        self.c = as_jet_provider(c)
        lo, hi = float(domain[0]), float(domain[1])
        if not lo < hi:
            raise PreconditionError("domain must be a non-degenerate interval (lo, hi)")
        self.domain = (lo, hi)
        probe = np.linspace(lo, hi, self.ELLIPTICITY_PROBE)
        avals = self.a.values(probe)
        if np.min(np.abs(avals)) == 0.0:
            raise EllipticityError("leading coefficient a(x) vanishes on the domain probe")

    def require_inside(self, x, what="point"):
        lo, hi = self.domain
        if not (lo - 1e-12 <= x <= hi + 1e-12):
            raise DomainError(f"{what} x={x} outside domain [{lo}, {hi}]")

    def jets(self, x, order):
        """Taylor jets of (a, b, c) about x, each of length order+1."""
        self.require_inside(x)
        if order > self.JET_ORDER_MAX:
            raise PreconditionError(
                f"jet order {order} exceeds JET_ORDER_MAX={self.JET_ORDER_MAX}")
        return self.a.jet(x, order), self.b.jet(x, order), self.c.jet(x, order)


# -- pointwise symbol calculus -------------------------------------------------


def principal_symbol(cf, u, xi):
    """sigma(u, xi) = a(u) xi^2 + b(u) xi + c(u); u may be an array."""
    u = np.asarray(u, dtype=float)
    lo, hi = cf.domain
    if np.any(u < lo - 1e-12) or np.any(u > hi + 1e-12):
        raise DomainError(f"position outside domain [{lo}, {hi}]")
    a, b, c = cf.a.values(u), cf.b.values(u), cf.c.values(u)
    out = a * np.asarray(xi) ** 2 + b * np.asarray(xi) + c
    if out.ndim == 0:
        return complex(out)
    return out


def symbol_derivatives(cf, u, xi):
    """(sigma_u, sigma_xi) at a single phase-space point."""
    cf.require_inside(u)
    ja, jb, jc = cf.jets(float(u), 1)
    sigma_u = ja[1] * xi ** 2 + jb[1] * xi + jc[1]
    sigma_xi = 2.0 * ja[0] * xi + jb[0]
    return complex(sigma_u), complex(sigma_xi)


def poisson_bracket(cf, u, xi):
    """{Re sigma, Im sigma} = Im(conj(sigma_u) sigma_xi) at (u, xi)."""
    sigma_u, sigma_xi = symbol_derivatives(cf, u, xi)
    return float(np.imag(np.conj(sigma_u) * sigma_xi))


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
    """Bracket sign data of sigma on a phase-space rectangle grid.

    Attributes:
        u, xi: 1-D grid vectors.
        bracket: (len(u), len(xi)) array of {Re sigma, Im sigma}.
        in_omega: boolean mask bracket > 0.
        sigma: symbol values on the grid.
    """

    def __init__(self, u, xi, bracket, sigma):
        self.u = u
        self.xi = xi
        self.bracket = bracket
        self.in_omega = bracket > 0.0
        self.sigma = sigma


def region_mask(cf, u_grid, xi_grid):
    """Evaluate bracket and symbol on the product grid (vectorized)."""
    u = np.asarray(u_grid, dtype=float)
    xi = np.asarray(xi_grid, dtype=float)
    for uu in (u[0], u[-1]):
        cf.require_inside(uu, "grid edge")
    # jets of order 1 along u, vectorized through values of derivative proxies
    a0 = cf.a.values(u)[:, None]
    b0 = cf.b.values(u)[:, None]
    c0 = cf.c.values(u)[:, None]
    a1 = np.array([cf.a.jet(float(x), 1)[1] for x in u])[:, None]
    b1 = np.array([cf.b.jet(float(x), 1)[1] for x in u])[:, None]
    c1 = np.array([cf.c.jet(float(x), 1)[1] for x in u])[:, None]
    X = xi[None, :]
    sigma = a0 * X ** 2 + b0 * X + c0
    sigma_u = a1 * X ** 2 + b1 * X + c1
    sigma_xi = 2.0 * a0 * X + b0
    bracket = np.imag(np.conj(sigma_u) * sigma_xi)
    return RegionMask(u, xi, bracket, sigma)


def symbol_image(mask):
    """Columns (u, xi, sigma) over the in-Omega grid points, in np.nonzero order."""
    iu, ix = np.nonzero(mask.in_omega)
    return mask.u[iu], mask.xi[ix], mask.sigma[iu, ix]


def multiplicity(mask, z, tol=None):
    """Number of connected in-Omega preimage clusters of z on the grid.

    Grid cells with |sigma - z| below tol (default: a grid-spacing-scaled
    resolution threshold) are clustered with 8-neighbor connectivity.
    """
    if tol is None:
        # resolution scale: |grad sigma| * grid spacing, crudely bounded
        du = np.max(np.diff(mask.u)) if mask.u.size > 1 else 1.0
        dxi = np.max(np.diff(mask.xi)) if mask.xi.size > 1 else 1.0
        gu, gx = np.gradient(mask.sigma, mask.u, mask.xi)
        gmax = max(float(np.max(np.abs(gu))), float(np.max(np.abs(gx))), 1.0)
        tol = 1.5 * gmax * max(du, dxi)
    hit = mask.in_omega & (np.abs(mask.sigma - z) < tol)
    if not hit.any():
        return 0
    structure = np.ones((3, 3), dtype=int)  # 8-neighbor connectivity
    _, ncomp = _cc_label(hit, structure=structure)
    return int(ncomp)
