"""JWKB quasimode construction for L_h f = -h^2 a f'' - i h b f' + c f.

A quasimode concentrated at an interior phase-space point (u, xi) in Omega has
the form

    f(u + s) = h^(-1/4) chi(s) exp(psi(s)),
    psi(s) = sum_{m=-1}^{n} h^m psi_m(s),

where psi_{-1} solves the eikonal equation

    psi_{-1}(s) = i int_0^s [ -b(u+v)/(2a(u+v)) + sqrt(w(u, xi, v)) ] dv,
    w(u, xi, v) = a(u) xi^2 / a(u+v) + b(u) xi / a(u+v)
                  + b(u+v)^2 / (4 a(u+v)^2) + (c(u) - c(u+v)) / a(u+v),

with the branch pinned by sqrt(w)(0) = xi + b(u)/(2 a(u)), and the transport
corrections psi_m kill the coefficient of h^(m+1) in exp(-psi) L_h exp(psi):

    psi_m(s) = int_0^s F_m / (2 a psi_{-1}' + i b) dv,
    F_m = -a(u+s) [ psi_{m-1}'' + sum_{i+j=m-1, i,j>=0} psi_i' psi_j' ].

All series run at an internally padded degree so the stored coefficients up to
the requested degree K are exact, which makes the order-(m+1) cancellations
verifiable coefficient by coefficient (see phi_coefficient_series).

Everything here is expressed through the offset s from the anchor; the same
core serves the boundary-layer construction (complex xi, one-sided cutoff) in
the boundary module.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ._series import Series
from .cutoff import CutoffSpec
from .errors import (NotInOmegaError, PreconditionError, SingularPointError,
                     TruncationError)
from .grid import l2, trapezoid_weights
from .symbol import in_omega, principal_symbol, twist_curvature

DEFAULT_K = 24
DEFAULT_NPTS = 2048
DELTA0 = 0.5
#: points of the decay-rate probe grid on each rung of the cutoff ladder
_N_PROBE = 257


@dataclass
class PhaseSeries:
    """Truncated phase expansion psi = sum h^m psi_m about an anchor point.

    psi[j] is the series of psi_{m} with m = j - 1 (so psi[0] is the eikonal
    term psi_{-1});  all terms vanish at s = 0 and the eikonal's linear
    coefficient is exactly i*xi.  jet(h, s) folds the expansion into one
    series for that h and evaluates it with its first two derivatives.
    """

    u: float
    xi: complex
    n: int
    K: int
    psi: list
    one_sided: bool = False

    def psi_m(self, m):
        if not -1 <= m <= self.n:
            raise IndexError(f"phase term m={m} outside [-1, {self.n}]")
        return self.psi[m + 1]

    @property
    def twist(self):
        """Quadratic coefficient doubled: k such that psi_{-1} = i xi s + k s^2/2 + ..."""
        return 2.0 * self.psi[0].c[2] if self.psi[0].degree >= 2 else 0.0 + 0.0j

    def jet(self, h, s):
        """(psi, psi', psi'') at offsets s: three Horner passes for any n.

        The terms are summed in coefficient space first, j ascending, into
        the one series Psi_h = sum_j h^(j-1) psi[j]; Psi_h and its first two
        derivatives are then evaluated at s.
        """
        fold = Series(sum(h ** (j - 1) * p.c for j, p in enumerate(self.psi)))
        d1 = fold.deriv()
        return fold(s), d1(s), d1.deriv()(s)


def _phase_core(cf, u, xi, n, K, one_sided=False):
    """Shared eikonal + transport recursion about the anchor u.

    The coefficient jets are taken at the padded degree pad = K + 2(n+2), so
    the returned terms [psi_{-1}, psi_0, ..., psi_n], truncated to degree K,
    are exact.
    """
    pad = K + 2 * (max(n, 0) + 2)
    A, B, C = (Series(j) for j in cf.jets(u, pad))
    a0, b0, c0 = A.c[0], B.c[0], C.c[0]
    sigma_xi = 2.0 * a0 * xi + b0

    w = (a0 * xi ** 2 + b0 * xi) / A + (B * B) / ((A * A) * 4.0) + (c0 - C) / A
    branch = xi + b0 / (2.0 * a0)
    sqrt_w = w.sqrt(branch)  # raises BranchPointError when w(0) = 0
    psi_m1 = ((B / A) * (-0.5) + sqrt_w).integ() * 1j

    psis = [psi_m1]
    if n >= 0:
        scale = max(abs(sigma_xi), abs(xi), 1.0)
        if abs(sigma_xi) <= 1e-14 * scale:
            raise SingularPointError("transport denominator i*sigma_xi vanishes")
        d1 = [psi_m1.deriv()]
        denom = A * d1[0] * 2.0 + B * 1j
        for m in range(0, n + 1):
            Fm = d1[m].deriv()  # psi''_{m-1}
            if m >= 1:
                conv = Series.constant(0.0, Fm.degree)
                for i in range(0, m):
                    conv = conv + d1[i + 1] * d1[m - i]
                Fm = Fm + conv
            Fm = -(A * Fm)
            psi_next = (Fm / denom).integ()
            psis.append(psi_next)
            d1.append(psi_next.deriv())
    return PhaseSeries(u=u, xi=complex(xi), n=n, K=K,
                       psi=[p.truncated(K) for p in psis], one_sided=one_sided)


def eikonal_phase(cf, u, xi, K=DEFAULT_K):
    """Eikonal term psi_{-1} at an interior phase-space point of Omega."""
    return transport_recursion(cf, u, xi, -1, K).psi[0]


def transport_recursion(cf, u, xi, n, K=DEFAULT_K):
    """Full phase expansion [psi_{-1}, ..., psi_n] at an interior point (n >= -1)."""
    u = float(u)
    xi = float(xi)
    if n < -1:
        raise PreconditionError("truncation level n must be >= -1")
    cf.require_inside(u, "anchor")
    if not in_omega(cf, u, xi):
        raise NotInOmegaError(f"(u, xi)=({u}, {xi}) has non-positive bracket")
    return _phase_core(cf, u, xi, n, K)


def phi_coefficient_series(cf, phase, p):
    """Order-p coefficient phi_p of exp(-psi)(L_h - sigma) exp(psi) as a series.

    For a correct transport recursion phi_p vanishes identically (to the
    retained degree) for 1 <= p <= n+1; phi_0 is the eikonal identity and
    vanishes as well.  Degrees above K-2 are not meaningful.
    """
    K = phase.K
    ja, jb, jc = cf.jets(phase.u, K)
    A, B, C = Series(ja), Series(jb), Series(jc)
    xi = phase.xi
    sigma = A.c[0] * xi ** 2 + B.c[0] * xi + C.c[0]

    def d1(m):
        return phase.psi[m + 1].deriv() if -1 <= m <= phase.n else None

    def d2(m):
        return d1(m).deriv() if -1 <= m <= phase.n else None

    out = Series.constant(0.0, K - 2 if K >= 2 else 0)
    t = d2(p - 2)
    if t is not None:
        out = out + t
    conv = None
    for i in range(-1, phase.n + 1):
        j = p - 2 - i
        if -1 <= j <= phase.n:
            term = d1(i) * d1(j)
            conv = term if conv is None else conv + term
    if conv is not None:
        out = out + conv
    out = -(A * out)
    t = d1(p - 1)
    if t is not None:
        out = out - (B * t) * 1j
    if p == 0:
        out = out + (C - sigma)
    return out.truncated(min(out.degree, K - 2))


def choose_delta(phase, delta0=DELTA0, sharpness=1.0):
    """Largest cutoff width from the geometric ladder delta0 * 2^-j, j <= 40.

    Acceptance requires the decay-rate profile F built from the eikonal term
    (quadratic rate -2 Re psi_{-1}(s)/s^2 in the interior, linear rate
    -2 Re psi_{-1}(s)/s at the boundary) to stay above F(0)/2 on a probe
    grid of _N_PROBE points, and the series truncation tail of every phase
    term to sit below 1e-10 at radius delta.
    """
    eik = phase.psi[0]
    if phase.one_sided:
        F0 = -2.0 * float(np.real(eik.c[1]))  # = 2 Im xi
        order = 1
        bad = PreconditionError("boundary covector must have Im(xi) > 0")
    else:
        F0 = -2.0 * float(np.real(eik.c[2]))  # = -Re k
        order = 2
        bad = NotInOmegaError("twist curvature has non-negative real part")
    if F0 <= 0.0:
        raise bad
    for j in range(41):
        delta = delta0 * 2.0 ** (-j)
        if phase.one_sided:
            s = np.linspace(delta / _N_PROBE, delta, _N_PROBE)
        else:
            s = np.linspace(-delta, delta, _N_PROBE)
            s = s[np.abs(s) > delta / (4.0 * _N_PROBE)]
        with np.errstate(all="ignore"):  # an overflowed rung fails its test
            F = -2.0 * np.real(eik(s)) / s ** order
            tail = max(p.tail_bound(delta) for p in phase.psi)
        if np.min(F) >= 0.5 * F0 and tail <= 1e-10:
            return CutoffSpec(delta, sharpness=sharpness, one_sided=phase.one_sided)
    raise TruncationError(
        "no admissible cutoff width on the ladder; increase K or check the point"
    )


def _cutoff(phase, delta, delta0, sharpness):
    """The ladder's cutoff for the phase, or the fixed width delta when given."""
    if delta is None:
        return choose_delta(phase, delta0=delta0, sharpness=sharpness)
    return CutoffSpec(delta, sharpness=sharpness, one_sided=phase.one_sided)


@dataclass
class Pseudomode:
    """A concentrated quasimode with analytic first and second derivatives.

    kind is one of 'interior', 'rough', 'boundary', 'gaussian'.  The mode is
    its evaluator, a closure mapping abscissae to the triple (f, f', f''),
    built from one jet of the cutoff and one of the phase series:
    construction samples it on the grid x into f, fp, fpp, and norm() is ||f||
    in the trapezoid weights of x.  samples(xs) resamples the triple exactly
    (no interpolation) anywhere else, and evaluate(xs) returns its f.  The cutoff owns the
    mode's footprint: x spans u + cutoff.span, f vanishes off
    cutoff.live(x - u), and cutoff.plateau(x - u) is where chi is 1.
    """

    kind: str
    h: float
    n: int
    u: float
    xi: complex
    z: complex
    phase: object
    cutoff: object
    x: np.ndarray
    evaluator: object = field(repr=False)
    f: np.ndarray = field(init=False)
    fp: np.ndarray = field(init=False)
    fpp: np.ndarray = field(init=False)

    def __post_init__(self):
        self.f, self.fp, self.fpp = self.evaluator(self.x)

    def samples(self, xs):
        """(f, f', f'') resampled on arbitrary abscissae in one pass."""
        return self.evaluator(np.asarray(xs, dtype=float))

    def evaluate(self, xs):
        """f resampled on arbitrary abscissae; samples() gives f' and f'' too."""
        return self.samples(xs)[0]

    def norm(self):
        return l2(trapezoid_weights(self.x), self.f)


def _phase_evaluator(phase, cutoff, h, u, prefactor):
    """Closure computing (f, f', f'') for f = prefactor * chi(s) exp(psi(h, s))."""

    def ev(xs):
        s = np.asarray(xs, dtype=float) - u
        live = cutoff.live(s)
        sl = s[live]
        chi, dchi, d2chi = cutoff.jet(sl)
        psi, dpsi, d2psi = phase.jet(h, sl)
        e = prefactor * np.exp(psi)
        f, fp, fpp = (np.zeros(s.shape, dtype=complex) for _ in range(3))
        f[live] = chi * e
        fp[live] = (dchi + chi * dpsi) * e
        fpp[live] = (d2chi + 2.0 * dchi * dpsi + chi * (d2psi + dpsi ** 2)) * e
        return f, fp, fpp

    return ev


#: The smallest h accepted.  A mode's second derivative is of order (xi/h)^2
#: times its normalisation, which overflows near h = 1e-154 at xi = 1; here
#: h^-2 is about 1e154, which leaves room for any moderate xi.
_H_MIN = float(np.finfo(float).max) ** -0.25


def _check_h(h):
    if not 0.0 < h <= 1.0:
        raise PreconditionError(f"semiclassical parameter h={h} outside (0, 1]")
    if h < _H_MIN:
        raise PreconditionError(f"semiclassical parameter h={h} is below "
                                f"{_H_MIN:.3g}, where mode derivatives overflow")


def _mode(kind, cf, h, n, u, xi, phase, cutoff, evaluator, npts):
    """The mode sampled at npts points of u + cutoff.span; z = sigma(u, xi).

    Both ends of the span must lie in the domain, else DomainError.
    """
    lo, hi = cutoff.span
    cf.require_inside(u + lo, "mode support edge")
    cf.require_inside(u + hi, "mode support edge")
    x = u + np.linspace(lo, hi, npts)
    return Pseudomode(kind, h, n, u, complex(xi), principal_symbol(cf, u, xi),
                      phase, cutoff, x, evaluator)


@functools.lru_cache(maxsize=1)
def _interior_phase(cf, u, xi, n, K, delta0, sharpness):
    """(phase, cutoff) of the interior mode at (u, xi): neither depends on h."""
    phase = transport_recursion(cf, u, xi, n, K)
    return phase, choose_delta(phase, delta0=delta0, sharpness=sharpness)


def assemble_mode(cf, u, xi, h, n=1, K=DEFAULT_K, delta0=DELTA0, sharpness=1.0,
                  npts=DEFAULT_NPTS):
    """Interior JWKB quasimode at (u, xi) in Omega, cut off by choose_delta.

    Residual orders against sigma(u, xi): O(h^{n+2}) for the operator,
    O(h^{1/2}) for position/momentum localization.

    The phase terms psi_m and the ladder's cutoff width do not depend on h,
    so the last (phase, cutoff) pair is kept in a one-entry memo keyed by
    (cf, u, xi, n, K, delta0, sharpness), with cf compared by identity: a run
    of calls at one anchor across an h ladder (the sweep subcommand) makes
    one transport_recursion and one choose_delta.  Modes built from a hit
    share the two objects, which is sound because nothing mutates a
    PhaseSeries or a CutoffSpec after construction.
    """
    _check_h(h)
    u, xi = float(u), float(xi)
    phase, cutoff = _interior_phase(cf, u, xi, n, K, delta0, sharpness)
    return _mode("interior", cf, h, n, u, xi, phase, cutoff,
                 _phase_evaluator(phase, cutoff, h, u, h ** -0.25), npts)


def rough_mode(cf, u, xi, h, npts=DEFAULT_NPTS, sharpness=1.0):
    """Plateau-bump wave packet at scale h^(1/2): all three residuals O(h^(1/2)).

    No bracket condition is needed; this is the construction that works at any
    point of phase space, at the price of the weakest localization rate.
    """
    _check_h(h)
    u, xi = float(u), float(xi)
    bump = CutoffSpec(2.0 * h ** 0.5, sharpness=sharpness)

    def ev(xs):
        xs = np.asarray(xs, dtype=float)
        osc = np.exp(1j * xi * xs / h) * h ** -0.25
        phi, dphi, d2phi = bump.jet(xs - u)
        return (phi * osc, (1j * xi / h * phi + dphi) * osc,
                (-(xi / h) ** 2 * phi + 2j * xi / h * dphi + d2phi) * osc)

    return _mode("rough", cf, h, 0, u, xi, None, bump, ev, npts)


def gaussian_mode(cf, u, xi, h, delta=None, sharpness=1.0, npts=DEFAULT_NPTS):
    """Comparison Gaussian g = h^(-1/4) chi(s) exp(h^(-1)(i xi s + k s^2/2)).

    k is the twist curvature at (u, xi); Re k < 0 is required.  chi is the
    plateau cutoff of width delta, or of the ladder width when delta is None,
    as on the JWKB mode: this realizes the quantity ||chi (e^psi - e^gauss)||
    actually controlled by the O(h^(1/2)) comparison estimate.
    """
    _check_h(h)
    u, xi = float(u), float(xi)
    k = twist_curvature(cf, u, xi)
    if k.real >= 0.0:
        raise NotInOmegaError("twist curvature has non-negative real part")
    # Degree 5, so that the last three coefficients, which choose_delta's
    # tail test reads as truncation error, are the exact zeros above k/2.
    coeffs = np.zeros(6, dtype=complex)
    coeffs[1] = 1j * xi
    coeffs[2] = k / 2.0
    phase = PhaseSeries(u=u, xi=complex(xi), n=-1, K=5, psi=[Series(coeffs)])
    cutoff = _cutoff(phase, delta, DELTA0, sharpness)
    return _mode("gaussian", cf, h, -1, u, xi, phase, cutoff,
                 _phase_evaluator(phase, cutoff, h, u, h ** -0.25), npts)


def gaussian_distance(mode, gmode):
    """|| f - g || over the union of the two sample grids (exact resampling)."""
    x = np.union1d(mode.x, gmode.x)
    return l2(trapezoid_weights(x), mode.evaluate(x) - gmode.evaluate(x))


def laplace_constant(beta, G0, F0):
    """Leading constant of int s^(2 beta) G(s) exp(-s^2 F(s)/h) ds ~ c h^(beta+1/2).

    c = G(0) Gamma((2 beta + 1)/2) / F(0)^((2 beta + 1)/2), for the interior
    (quadratic decay) normal form.
    """
    if beta < 0 or int(beta) != beta:
        raise PreconditionError("beta must be a non-negative integer")
    return _laplace(G0, F0, (2.0 * beta + 1.0) / 2.0)


def _laplace(G0, F0, p):
    """G(0) Gamma(p) / F(0)^p, the leading constant of both Laplace laws."""
    if F0 <= 0:
        raise PreconditionError("Laplace rate F(0) must be positive")
    return G0 * math.gamma(p) / F0 ** p
