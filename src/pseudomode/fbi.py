"""Semiclassical synthesis transforms and their boundedness diagnostics.

Three kernel families over a phase-space region:

  * full quasimode kernels  e_(h,u,xi) = f/||f||  (the JWKB construction),
  * Gaussian kernels        e'_(h,u,xi) = g/||g||, g = exp{(i xi s + k s^2/2)/h},
  * the distorted FBI family g~_(h,u,xi) = exp{i xi (x-u)/h - (x-u)^2/(2 h kappa xi)},
    defined for Re(kappa) > 0 and xi > 0 only.

The first two are frames: transform_frame() puts their unit columns at the
nodes of phase_space_grid() into a FrameMatrix whose coefficient weights are
the phase-space quadrature weights.  Synthesis l2(weights) -> L2(x weights)
is F.synthesize, analysis its exact adjoint F.adjoint(), and the norm of the
map is the top singular value of F.scaled(), the same frame code the
semigroup and reconstruction bounds run through.  The distorted transform
carries the h^(-1/2) prefactor of its definition; its L2 -> L2 norm is
uniformly bounded in h.  On the scaled-window grids this is exact: with
x = h^(2/3) y, u = h^(2/3) v and xi = h^(1/3) eta the kernel is
exp{i eta (y - v) - (y - v)^2/(2 kappa eta)}, and the prefactor and the
quadrature weights cancel the Jacobians, so scaled_distorted_grids gives
the same y, v and eta grids at every h and DistortedFBI(kappa, h, ...) is
one matrix up to rounding; one norm per kappa holds for every h.  Its kernel
depends on x - u alone, and u must be a run of a uniform x grid (other grids
are refused), so the x-side Gram S S^H of the map S is a windowed sum of
circulant blocks, one per xi node.  _kernel_taps builds the one kernel
table, and DistortedFBI keeps its FFT, one row per xi node.  The norm is
bracketed, with no Krylov solve, by the kernel symbol sigma(theta) =
sum_l |table_l(theta)|^2: S S^H is a compression of a circulant whose norm
is the sup of sigma (Boettcher & Silbermann, Analysis of Toeplitz Operators,
2006), which gives the certified upper end norm(), and one Rayleigh quotient
g^H S S^H g = ||S^H g||^2 of a windowed plane wave at sigma's peak gives the
lower end norm_lower().  ||S^H g|| is one batched FFT pass over the table's
rows, the one FFT path: one for norm_lower() and one per near_isometry_probe
sample.  The FFTs are numpy's, eigsh (a Lanczos solve, kept as the tests'
oracle for the bracket) and _split_quad (the profile rule) are written here,
and numpy.fft and numpy.polynomial are imported where called, so no
subcommand loads scipy for a transform.  fftconvolve, which no apply path
calls, is the one scipy caller left; perfbench's tracer lists it by name.

The boundedness profile F(h,s) = int_0^inf h^(-1/2) xi^(1/2)
exp{-c6 (xi/h - s)^2 h xi} dxi obeys F(h,s) = G(h^2 s^3) with
G(t) = int_0^inf eta^(1/2) t^(1/2) exp{-c6 (eta-1)^2 eta t} deta and
G(0+) = sqrt(pi)/(3 sqrt(c6)); here c6 = Re(kappa), and F is the continuum
symbol: sigma(theta) dx^2/h -> 2 sqrt(pi c6) F(h, theta/dx) as the grids
refine and the xi window widens.  Both are quadratures from c6 t = 1e-48,
below which they are G(0+) to eps, up to c6 t = 1e9 and the expansion
sqrt(pi/c6) (1 + 1/(c6 t)) from there.
"""

from functools import cache, cached_property

import numpy as np

from .errors import ConvergenceError, PreconditionError
from .frame import FrameMatrix, unit_columns
from .grid import trapezoid_weights
from .symbol import in_omega, principal_symbol, twist_curvature
from .wkb import _check_h, assemble_mode, gaussian_mode

__all__ = [
    "phase_space_grid",
    "transform_frame",
    "gaussian_kernel_compare",
    "fftconvolve",
    "DistortedFBI",
    "scaled_distorted_grids",
    "boundedness_profile",
    "g_profile",
    "g_limit",
    "near_isometry_probe",
    "gaussian_overlap",
    "asymptotic_orthogonality",
    "orthogonality_decay",
    "generalized_kappa_check",
]


def phase_space_grid(cf, u_range, xi_range, nu, nxi):
    """Product-trapezoid nodes on a rectangle, clipped to the bracket-positive set.

    Returns (points, weights): points[:, 0] = u, points[:, 1] = xi, and the
    cell weights of the rectangle at the points that survive the clip.
    """
    us = np.linspace(u_range[0], u_range[1], nu)
    xis = np.linspace(xi_range[0], xi_range[1], nxi)
    U, XI = np.meshgrid(us, xis, indexing="ij")
    pts = np.column_stack([U.ravel(), XI.ravel()])
    w = np.outer(trapezoid_weights(us), trapezoid_weights(xis)).ravel()
    keep = in_omega(cf, us[:, None], xis[None, :]).ravel()
    if not keep.any():
        raise PreconditionError("rectangle does not meet the admissible region")
    return pts[keep], w[keep]


def transform_frame(cf, kind, h, x, points, weights):
    """Unit kernel columns at phase-space quadrature nodes, as a FrameMatrix.

    kind 'jwkb' samples the order-0 full quasimode on x; 'gaussian' the
    bare Gaussian exp((i xi s + k s^2/2)/h), s = x - u, with k the twist
    curvature (no cutoff, so closed-form overlaps hold).  The node weights
    become the coefficient weights: F.synthesize(phi) is the quadrature
    transform sum_j w_j phi_j e_j.
    """
    if kind not in ("jwkb", "gaussian"):
        raise PreconditionError(f"unknown kernel kind {kind!r}")
    x = np.asarray(x, dtype=float)
    points = np.atleast_2d(np.asarray(points, dtype=float))

    def column(u, xi):
        if kind == "jwkb":
            return assemble_mode(cf, u, xi, h, n=0).evaluate(x)
        return _bare_gaussian(cf, u, xi, h, x)

    w = trapezoid_weights(x)
    return FrameMatrix(
        E=unit_columns([column(u, xi) for u, xi in points], w),
        lam=principal_symbol(cf, points[:, 0], points[:, 1]), x=x, weights=w,
        provenance=[(kind, u, xi, h, 0) for u, xi in points],
        coef_weights=weights)


def gaussian_kernel_compare(cf, points, h, K=24):
    """max over phase-space points of || e_(h,u,xi) - e'_(h,u,xi) ||.

    e is the order-0 quasimode kernel.  Both kernels carry the same plateau
    cutoff and sample grid, so the difference is the quantity the O(h^(1/2))
    comparison estimate controls; it dominates the l1-normalized transform
    difference on the sub-rectangle.  K is the JWKB kernel's series degree.
    """
    worst = 0.0
    for u, xi in points:
        f = assemble_mode(cf, u, xi, h, n=0, K=K)
        g = gaussian_mode(cf, u, xi, h, delta=f.cutoff.delta,
                          sharpness=f.cutoff.sharpness)
        wx = f.weights   # g is sampled on f.x too: same delta, same npts
        vf = f.f / np.sqrt(np.sum(wx * np.abs(f.f) ** 2))
        vg = g.f / np.sqrt(np.sum(wx * np.abs(g.f) ** 2))
        worst = max(worst, float(np.sqrt(np.sum(wx * np.abs(vf - vg) ** 2))))
    return worst


def _bare_gaussian(cf, u, xi, h, x):
    """exp((i xi s + k s^2/2)/h) at s = x - u, k the twist curvature at (u, xi)."""
    k = twist_curvature(cf, u, xi)
    if k.real >= 0.0:
        raise PreconditionError("gaussian kernel needs Re(twist) < 0")
    s = x - u
    return np.exp((1j * xi * s + 0.5 * k * s * s) / h)


def fftconvolve(a, b):
    """Full linear convolution of two complex 1-D arrays through scipy.fft.

    The transform length and calls are those of scipy.signal.fftconvolve for
    complex input; importing scipy.signal would pull in scipy.stats.
    """
    from scipy.fft import fft, ifft, next_fast_len
    n = a.size + b.size - 1
    size = next_fast_len(n, False)
    return ifft(fft(a, size) * fft(b, size))[:n]


# -- distorted FBI transform ---------------------------------------------------

# kernels are sampled, and x grids padded, to this many Gaussian widths
# sqrt(h xi / Re(1/kappa)) on each side of the centre
TAIL_SIGMAS = 9.0


def _kernel(kappa, h, xi, s):
    """Unit kernel g~/||g~|| at offsets s = x - u.

    g~ = exp{i xi s/h - s^2/(2 h kappa xi)} has the closed-form norm
    ||g~|| = (pi h xi / Re(1/kappa))^(1/4).
    """
    g = np.exp(1j * xi * s / h - s * s / (2.0 * h * kappa * xi))
    return g / (np.pi * h * xi / (1.0 / kappa).real) ** 0.25


def _check_kappa_h(kappa, h):
    """kappa as a complex, once it and h pass the checks every entry shares."""
    kappa = complex(kappa)
    if not (kappa.real > 0.0
            and np.finfo(float).tiny <= (1.0 / kappa).real < np.inf):
        raise PreconditionError("distorted transform requires Re(kappa) > 0 "
                                "with Re(1/kappa) a normal float")
    _check_h(h)
    return kappa


#: Most entries (xi rows times circular length) a kernel table may hold; the
#: table and a Rayleigh quotient's work arrays then take at most 160 MB.
_MAX_TABLE = 4_000_000


def _check_table(nxi, n):
    """Refuse an (nxi, n) kernel table before anything is allocated."""
    if not nxi * n <= _MAX_TABLE:
        raise PreconditionError(
            f"kernel table of {nxi} rows x {float(n):.3g} columns exceeds "
            f"{_MAX_TABLE} entries; use a coarser grid or a larger h")


def _fast_len(n):
    """Smallest 11-smooth integer >= n: scipy.fft.next_fast_len(n, False)."""
    m = max(n, 1)
    while True:
        r = m
        for p in (2, 3, 5, 7, 11):
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 1


def _kernel_taps(kappa, h, xis, dx, n):
    """Per-xi unit kernels, each wrapped onto one circular length.

    Row l holds the kernel on offsets d*dx, |d| <= ceil(TAIL_SIGMAS width/dx)
    + 1, at index d mod L.  Taps are clipped to |d| <= n - 1, the largest
    offset between two points of an n-point grid, and L = _fast_len(n + max
    taps), so a circular convolution of an n-point signal wraps no tap onto
    the grid.
    """
    _check_table(len(xis), n)
    r = (1.0 / kappa).real
    half = np.minimum(np.ceil(TAIL_SIGMAS * np.sqrt(h * np.asarray(xis) / r) / dx)
                      + 1, n - 1).astype(int)
    L = _fast_len(n + int(half.max()))
    _check_table(len(xis), L)
    table = np.zeros((len(xis), L), dtype=complex)
    for row, xi, m in zip(table, xis, half):
        d = np.arange(-m, m + 1)
        row[d] = _kernel(kappa, h, xi, dx * d)   # negative d wraps to L + d
    return table


#: Most Lanczos steps, and so Krylov basis vectors, one eigsh solve takes
_LANCZOS_STEPS = 256


def eigsh(A, v0):
    """Top eigenvalue of a Hermitian operator: Lanczos, fully reorthogonalized.

    A is any object with .shape (n, n) and .matvec; v0 is the start vector.
    Each step applies A once and orthogonalizes the new vector against the
    whole basis twice (classical Gram-Schmidt), so the tridiagonal T holds
    the Rayleigh quotient of an orthonormal Krylov basis.  The solve stops
    at the first step whose top Ritz pair (theta, s) of T has residual
    beta |s_last| <= eps |theta|, ARPACK's test at tol = 0, or whose basis
    spans the space.  It takes at most min(n, _LANCZOS_STEPS) steps and
    refuses (PreconditionError), before allocating it, a basis of more than
    _MAX_TABLE entries.  A non-finite step, or no convergence within the
    step cap, raises ConvergenceError.

    Nothing in the package calls it: it is the tests' oracle for the
    DistortedFBI bracket, run on their Gram apply.  It sits at module level,
    under this name, because perfbench's tracer replaces fbi.eigsh with a
    wrapper that hands on A as a LinearOperator whose matvec counts the
    Lanczos steps.
    """
    n = A.shape[0]
    steps = min(n, _LANCZOS_STEPS)
    if not steps * n <= _MAX_TABLE:
        raise PreconditionError(
            f"Krylov basis of {steps} x {n} entries exceeds {_MAX_TABLE}; "
            "use a coarser grid")
    V = np.empty((steps, n), dtype=complex)
    T = np.zeros((steps, steps))   # the tridiagonal, filled one step at a time
    v = v0 / np.linalg.norm(v0)
    for j in range(steps):
        V[j] = v
        basis = V[:j + 1]
        w = A.matvec(v).astype(complex)
        c = np.conj(basis @ np.conj(w))   # basis^H w, with no conj copy of basis
        alpha = T[j, j] = c[j].real
        w -= basis.T @ c
        w -= basis.T @ np.conj(basis @ np.conj(w))   # twice is enough
        beta = np.linalg.norm(w)
        if not (np.isfinite(alpha) and np.isfinite(beta)):
            raise ConvergenceError(f"Lanczos step {j} gave alpha {alpha}, "
                                   f"beta {beta}")
        theta, s = np.linalg.eigh(T[:j + 1, :j + 1])
        if (beta * abs(s[-1, -1]) <= np.finfo(float).eps * abs(theta[-1])
                or j + 1 == n):
            return float(theta[-1])
        if j + 1 < steps:
            T[j, j + 1] = T[j + 1, j] = beta
        v = w / beta
    raise ConvergenceError(f"Lanczos solve did not converge in {steps} steps")


class DistortedFBI:
    """Quadrature realization of the h^(-1/2)-scaled distorted transform.

    Columns are the unit kernels g~/||g~|| (see _kernel).  u must be a run of
    a uniform x grid of at least 8 points; any other grid raises
    PreconditionError.  No apply of S exists.  With D = diag(w_x), W =
    diag(window) (w_u/h on the u-run of x, zero off it) and K_l the n x L
    block of the L-circulant C_l whose first column is sqrt(w_xi_l) times the
    xi_l kernel on the 2T + 1 offsets of _kernel_taps, wrapped, S S^H =
    D^(1/2) (sum_l K_l W K_l^H) D^(1/2), as L leaves every offset between two
    x points unaliased.  The (nxi, L) table holds the FFT of each C_l's first
    column, and _correlate gives every K_l^H D^(1/2) f in one batched pass.
    norm() and norm_lower() bracket ||S|| from the table with no Krylov
    solve; matrix() and column() give S densely, for tests.
    """

    MAX_DENSE = 40_000_000

    def __init__(self, kappa, h, u_grid, xi_grid, x_grid):
        from numpy.fft import fft
        self.kappa = _check_kappa_h(kappa, h)
        self.h = float(h)
        self.u = np.asarray(u_grid, dtype=float)
        self.xi = np.asarray(xi_grid, dtype=float)
        self.x = np.asarray(x_grid, dtype=float)
        if np.any(self.xi <= 0.0):
            raise PreconditionError("xi grid must be strictly positive")
        self._i0 = self._offset()
        n = self.x.size
        self.wx = trapezoid_weights(self.x)
        A = _kernel_taps(self.kappa, self.h, self.xi, self.x[1] - self.x[0], n)
        A *= np.sqrt(trapezoid_weights(self.xi))[:, None]
        # the coefficient rows' window: w_u / h on u, zero off it
        self._window = np.zeros(A.shape[1])
        self._window[self._i0:self._i0 + self.u.size] = (
            trapezoid_weights(self.u) / self.h)
        self._table = fft(A, axis=-1, out=A)
        # norm()'s roundoff margin, relative
        self._margin = 4.0 * np.finfo(float).eps * np.log2(A.shape[1])

    def _offset(self):
        """Index of u[0] in x; refuses a u that is not a run of a uniform x grid."""
        if self.u.size < 2 or self.x.size < 8:
            raise PreconditionError(
                f"distorted transform needs at least 2 u and 8 x points, "
                f"not {self.u.size} and {self.x.size}")
        du = np.diff(self.u)
        dx = np.diff(self.x)
        if not (0.0 < dx[0] and np.ptp(du) <= 1e-9 * du[0]
                and np.ptp(dx) <= 1e-9 * dx[0]
                and abs(du[0] - dx[0]) <= 1e-9 * dx[0]):
            raise PreconditionError("u and x grids must be uniform with one step")
        off = (self.u[0] - self.x[0]) / dx[0]
        i0 = int(round(off))
        if not (abs(off - i0) <= 1e-6 and 0 <= i0
                and i0 + self.u.size <= self.x.size):
            raise PreconditionError("u grid must be a run of the x grid")
        return i0

    @property
    def n_cols(self):
        return self.u.size * self.xi.size

    def column(self, u, xi):
        if xi <= 0.0:
            raise PreconditionError("xi must be positive")
        return _kernel(self.kappa, self.h, xi, self.x - u)

    def norm_check(self):
        """Max relative deviation of up to 64 seeded column norms from closed form.

        The sample is restricted to xi >= max(xi)/4: the x-grid resolves the
        Gaussian width sqrt(h xi) only above some xi, and the unresolvable
        low-xi columns are normalized by the closed form anyway.
        """
        rng = np.random.default_rng(0)
        xis = self.xi[self.xi >= 0.25 * self.xi.max()]
        total = self.u.size * xis.size
        j = rng.choice(total, size=min(64, total), replace=False)
        cols = _kernel(self.kappa, self.h, xis[j % xis.size],
                       self.x[:, None] - self.u[j // xis.size])
        return float(np.max(np.abs(np.sqrt(self.wx @ np.abs(cols) ** 2) - 1.0)))

    def matrix(self):
        """Scaled map diag(sqrt(wx)) K diag(h^(-1/2) sqrt(w_u w_xi)): plain 2-norm = operator norm."""
        if self.x.size * self.n_cols > self.MAX_DENSE:
            raise PreconditionError(
                f"dense matrix would have {self.x.size * self.n_cols} entries; "
                "use the matrix-free norm instead"
            )
        cols = np.empty((self.x.size, self.u.size, self.xi.size), dtype=complex)
        for i, u in enumerate(self.u):  # one u at a time bounds the temporaries
            cols[:, i] = _kernel(self.kappa, self.h, self.xi, (self.x - u)[:, None])
        cols *= np.sqrt(self.wx)[:, None, None]
        cols *= self.h ** -0.5 * np.sqrt(
            np.outer(trapezoid_weights(self.u), trapezoid_weights(self.xi)))
        return cols.reshape(self.x.size, self.n_cols)

    def _correlate(self, f):
        """K_l^H D^(1/2) f for every xi row l: sqrt(wx) f correlated with each row."""
        from numpy.fft import fft, ifft
        L = self._table.shape[1]
        # conj(table) F formed as conj(table conj(F)): no conjugate table is kept
        rows = self._table * np.conj(fft(np.sqrt(self.wx) * f, L))
        return ifft(np.conj(rows, out=rows), axis=-1, out=rows)

    @cached_property
    def _sigma(self):
        """sigma = sum_l |table[l]|^2, at the table's L DFT frequencies.

        Summed at the first ask and kept; a non-finite sigma is not kept, so
        every ask raises ConvergenceError again.
        """
        sigma = np.sum(self._table.real ** 2 + self._table.imag ** 2, axis=0)
        if not np.all(np.isfinite(sigma)):
            raise ConvergenceError("the kernel symbol is not finite")
        return sigma

    def norm(self):
        """Certified upper end of the bracket on ||S||, the largest singular value.

        0 <= W <= max window, and sum_l K_l K_l^H is a compression of
        sum_l C_l C_l^H, the circulant whose eigenvalues are sigma at the L DFT
        frequencies (see the class docstring).  So ||S||^2 = ||S S^H|| <=
        max w_x max window max sigma.  The square root is raised by the
        roundoff margin 4 eps log2 L, relative, as an FFT entry is off by
        about eps log2 L.  The first ask of either end sums sigma, O(nxi L)
        elementwise work and no FFT, and later asks reuse it.  On the default
        grids the bound sits 1.8e-4 to 3.4e-4 relative above ||S||.  A
        non-finite symbol raises ConvergenceError.
        """
        scale = self.wx.max() * self._window.max()
        return float(np.sqrt(scale * self._sigma.max()) * (1.0 + self._margin))

    def norm_lower(self):
        """Lower end of the bracket on ||S||: one Rayleigh quotient of S S^H.

        g is a Hann-windowed plane wave exp(i theta_k a) on the u-run of x, at
        the DFT frequency where sigma peaks, and the value is
        sqrt(g^H S S^H g / g^H g) from one _correlate: at most ||S||, up to
        the roundoff of that pass; on the default grids it sits 1e-4 to
        1.5e-4 relative below ||S||.  A non-finite symbol or quotient raises
        ConvergenceError.
        """
        sigma = self._sigma
        run = np.arange(self._i0, self._i0 + self.u.size)
        g = np.zeros(self.x.size, dtype=complex)
        g[run] = (np.sin(np.pi * np.arange(1, run.size + 1) / (run.size + 1)) ** 2
                  * np.exp(2j * np.pi * np.argmax(sigma) / sigma.size * run))
        return self._ratio(g)

    def _ratio(self, g):
        """sqrt(g^H S S^H g / g^H g); a quotient not finite raises ConvergenceError.

        g^H S S^H g = sum_l sum_j window_j |(K_l^H D^(1/2) g)_j|^2.
        """
        mag = np.abs(self._correlate(g))
        mag *= mag
        quotient = np.sum(mag @ self._window) / np.vdot(g, g).real
        if not 0.0 <= quotient < np.inf:
            raise ConvergenceError(f"the Gram Rayleigh quotient is {quotient}")
        return float(np.sqrt(quotient))


def scaled_distorted_grids(kappa, h, eta_max=3.0, nxi=128, osc=12.0, ppw=24.0):
    """Window/resolution choices that keep the discrete transform h-uniform.

    The norm-carrying region sits at xi ~ h^(1/3) (where the cubic decay
    exponent xi^3/h is order one), with spatial oscillation scale
    2 pi h / xi ~ h^(2/3) and Gaussian width sqrt(h xi) ~ h^(2/3).  The
    xi-window scales like h^(1/3) and all lengths like h^(2/3), exactly:
    u h^(-2/3), x h^(-2/3) and xi h^(-1/3) are the same grids at every h, up
    to rounding (the point counts are h-free ratios), so the transform built
    on them is one matrix and its norm is h-independent (see the module
    docstring).  Of the refusals, only _check_h's depend on h.
    """
    kappa = _check_kappa_h(kappa, h)
    xi_scale = h ** (1.0 / 3.0)
    # square-root spacing: the Gram's xi-integrand has a xi^(1/2) cusp at 0,
    # smooth in q = sqrt(xi), so trapezoid in q converges at second order;
    # the lower endpoint is pinned to a fixed fraction of the window so that
    # doubling nxi refines the same integral
    q_max = np.sqrt(eta_max * xi_scale)
    # the u-window is held exactly at +-half_u (only the point count changes
    # with ppw); this keeps the windowed operator fixed under refinement, so
    # doubling the resolution measures pure quadrature error
    half_u = np.pi * osc * h ** (2.0 / 3.0)
    steps = 0.5 * osc * eta_max * ppw   # u grid steps per side, before rounding
    if not 0.5 < steps < np.inf:
        raise PreconditionError(
            f"0.5*osc*eta_max*ppw = {steps:.3g} u grid steps per side; the "
            "u window needs a finite count that rounds to at least 1")
    nu_half = int(round(steps))
    dx = half_u / nu_half
    r = (1.0 / kappa).real
    with np.errstate(over="ignore", divide="ignore"):  # inf is refused below
        npad = np.ceil(TAIL_SIGMAS * np.sqrt(h * q_max ** 2 / r) / dx)
    _check_table(nxi, 2 * (nu_half + npad) + 1)   # the table is at least this wide
    npad = int(npad)
    xi_grid = np.linspace(q_max / 256.0, q_max, nxi) ** 2
    u_grid = dx * np.arange(-nu_half, nu_half + 1)
    x_grid = dx * np.arange(-nu_half - npad, nu_half + npad + 1)
    return u_grid, xi_grid, x_grid


# -- boundedness profile -------------------------------------------------------


#: Gauss-Legendre nodes per panel of the profile rule
_GL_NODES = 24


@cache
def _gauss_legendre():
    """_GL_NODES Gauss-Legendre nodes and weights on [0, 1], read-only."""
    from numpy.polynomial.legendre import leggauss
    nodes, weights = leggauss(_GL_NODES)
    rule = (0.5 * (nodes + 1.0), 0.5 * weights)
    for a in rule:
        a.flags.writeable = False
    return rule


def _split_quad(integrand, peak, width, small, knee, what):
    """int_0^inf integrand by composite Gauss-Legendre in q = sqrt(eta).

    The integrand is a profile's, sqrt(eta) times a decaying factor (see
    boundedness_profile), vectorized over eta.  Its scales, in eta: the
    peak of its Gaussian factor and that factor's width (inf when it has
    none), the small-eta decay length `small` (inf when there is none) and
    the knee, where the cubic decay takes over.  Panels end at 0; the peak
    and 2, 5 and 10 widths on either side of it; 1, 4, 16 and 64 small
    lengths; and 1, 2, 4 and 8 knees, each inside [0, 8 knees].  In q the
    sqrt(eta) cusp at 0 is smooth, so _GL_NODES nodes per panel reach
    roundoff.

    Past X = 8 knees the tail is dropped.  For F there the exponent is
    c6 (xi/h - s)^2 h xi >= (7/8)^2 c6 xi^3/h >= 392, so the dropped tail
    is below h^(1/2) exp(-392) / (2.29 c6 X^(3/2)); G is the same integral
    under xi = h s eta.  For any integrand, X times its value at X must be
    at most eps of the total, or ConvergenceError is raised: a width
    function that decays more slowly (generalized_kappa_check) can leave
    mass there.  An overflow in the integrand, and a total below the least
    normal float, raise it too, as does a Gaussian factor narrower than 1e6
    eps times its peak: the roundoff in its argument, about eps peak/width
    relative, then passes 1e-6 (against mpmath, G is off by about a tenth
    of that).
    """
    cut = 8.0 * knee
    if not cut < np.inf:
        raise ConvergenceError(f"{what} quadrature has no finite cut")
    if not np.finfo(float).eps * peak <= 1e-6 * width:
        raise ConvergenceError(
            f"{what} Gaussian factor of width {width:.3g} at {peak:.3g} is "
            "too narrow for float arithmetic")
    ends = np.array([0.0, peak, knee, 2.0 * knee, 4.0 * knee, cut]
                    + [peak + k * width for k in (-10, -5, -2, 2, 5, 10)]
                    + [small * m for m in (1.0, 4.0, 16.0, 64.0)])
    # sorted, equal neighbours dropped: np.unique would import numpy.ma
    ends = np.sort(ends[(ends >= 0.0) & (ends <= cut)])
    q = np.sqrt(ends[np.append(True, ends[1:] != ends[:-1])])
    nodes, weights = _gauss_legendre()
    dq = np.diff(q)
    qs = q[:-1, None] + dq[:, None] * nodes
    with np.errstate(over="raise", invalid="raise"):
        try:
            vals = integrand(np.append(qs * qs, cut))
        except FloatingPointError as exc:
            raise ConvergenceError(f"{what} integrand overflows") from exc
    total = float((2.0 * qs * vals[:-1].reshape(qs.shape)) @ weights @ dq)
    # positive integrands: a zero, subnormal or NaN total found no mass
    if not total >= np.finfo(float).tiny:
        raise ConvergenceError(f"{what} quadrature found no mass")
    if not vals[-1] * cut <= np.finfo(float).eps * total:
        raise ConvergenceError(f"{what} integrand has mass past its cut")
    return total


def _profile_scales(c6, h, s):
    """(peak, width, small, knee) of F(h, s)'s integrand, in xi.

    Near xi = h s > 0 the exponent is c6 s (xi - h s)^2 to leading order,
    width 1/sqrt(c6 s); for small xi it is c6 s^2 h xi, length 1/(c6 s^2 h);
    past the knee max(h s, 0) + (h/c6)^(1/3) the cubic c6 xi^3/h takes over.
    """
    tiny = float(np.finfo(float).tiny)   # an underflowed s keeps finite scales
    peak = max(h * s, 0.0)
    width = max(c6 * s, tiny) ** -0.5 if s > 0 else np.inf
    small = 1.0 / max(c6 * s * s * h, tiny) if s != 0 else np.inf
    return peak, width, small, peak + (h / c6) ** (1.0 / 3.0)


#: c6 t from which G(t) is taken as sqrt(pi/c6) (1 + 1/(c6 t)): the next
#: term, about 7.5/(c6 t)^2 against mpmath, is below 1e-17 there, while the
#: quadrature is off by 2e-13 at c6 t = 1e8 and its Gaussian factor, of
#: width (c6 t)^(-1/2), leaves float arithmetic near c6 t = 2e19
_LAPLACE_CT = 1e9


#: c6 t up to which G(t) is taken as its limit G(0+) = g_limit(c6): under
#: y = eta t^(1/3), G(t) = G(0+) (1 + 2 Gamma(7/6)/sqrt(pi) (c6 t)^(1/3) + ...),
#: and the relative term, about 1.05 (c6 t)^(1/3), is below eps/2 there
_LIMIT_CT = 1e-48


def _laplace_g(c6, ct):
    """G at c6 t = ct >= _LAPLACE_CT: Laplace's method at eta = 1 and eta = 0."""
    return float(np.sqrt(np.pi / c6) * (1.0 + 1.0 / ct))


def boundedness_profile(c6, h, s):
    """F(h,s) = int_0^inf h^(-1/2) xi^(1/2) exp{-c6 (xi/h - s)^2 h xi} dxi.

    At s > 0 with c6 h^2 s^3 >= _LAPLACE_CT this is G's large-t expansion,
    and with c6 h^2 s^3 <= _LIMIT_CT (an underflow to 0 included) G's limit
    g_limit(c6).
    """
    if c6 <= 0.0:
        raise PreconditionError("c6 must be positive")
    if h <= 0.0:
        raise PreconditionError("h must be positive")
    ct = c6 * h * h * s * s * s  # a product overflows to inf, s ** 3 raises
    if ct >= _LAPLACE_CT:
        return _laplace_g(c6, ct)
    if s > 0 and ct <= _LIMIT_CT:
        return g_limit(c6)

    def integrand(xi):
        return h ** -0.5 * np.sqrt(xi) * np.exp(-c6 * (xi / h - s) ** 2 * h * xi)

    return _split_quad(integrand, *_profile_scales(c6, h, s),
                       "boundedness profile")


def g_profile(c6, t):
    """G(t) = int_0^inf eta^(1/2) t^(1/2) exp{-c6 (eta-1)^2 eta t} deta, t >= 0.

    From c6 t = _LAPLACE_CT on, G is its expansion sqrt(pi/c6) (1 + 1/(c6 t)),
    and up to c6 t = _LIMIT_CT its limit g_limit(c6); at t = 0, which an
    h^2 s^3 that underflows gives, G is that limit too.
    """
    if c6 <= 0.0:
        raise PreconditionError("c6 must be positive")
    if t < 0.0:
        raise PreconditionError("t must not be negative")
    ct = c6 * t
    if ct >= _LAPLACE_CT:
        return _laplace_g(c6, ct)
    if ct <= _LIMIT_CT:
        return g_limit(c6)

    def integrand(eta):
        # sqrt(eta t) would overflow where sqrt(eta) sqrt(t) does not
        return np.sqrt(eta) * np.sqrt(t) * np.exp(-c6 * (eta - 1.0) ** 2 * eta * t)

    # F's scales under xi = h s eta, t = h^2 s^3
    return _split_quad(integrand, 1.0, ct ** -0.5, 1.0 / ct,
                       1.0 + ct ** (-1.0 / 3.0), "G-profile")


def g_limit(c6):
    """lim_(t->0+) G(t) = int_0^inf eta^(1/2) exp{-c6 eta^3} deta = sqrt(pi)/(3 sqrt(c6))."""
    if c6 <= 0.0:
        raise PreconditionError("c6 must be positive")
    return np.sqrt(np.pi) / (3.0 * np.sqrt(c6))


#: half-width of the near-isometry probe's x window; its taper starts halfway
_PROBE_WINDOW = 3.0


def near_isometry_probe(kappa, h):
    """Ratios ||E*~ f|| / ||f|| for 20 random band-limited f; returns the array.

    Each f sums 6 waves of frequency in [1, 2] (seeded draws) under a taper.
    With T the DistortedFBI whose u and x grids are both the probe's x
    window and g = sqrt(wx) f, each ratio is sqrt(g^H M g / g^H g) for T's
    Gram M = S S^H.  A wave of frequency s has squared ratio 2 sqrt(pi c6)
    F(h, s), c6 = Re kappa, and F(h, s) = G(h^2 s^3) -> G(0+) as h -> 0 on a
    fixed band, so the ratios concentrate at sqrt(2 pi/3) for every kappa.
    """
    kappa = _check_kappa_h(kappa, h)
    rng = np.random.default_rng(0)
    xi_scale = h ** (1.0 / 3.0)
    # 96 nodes up to 3 h^(1/3); dx takes 8 points per wavelength at the top
    # xi and 64 at the top probe frequency 2
    xi = np.linspace(xi_scale * 3.0 / (2.0 * 96), 3.0 * xi_scale, 96)
    dx = min(2.0 * np.pi * h / xi[-1] / 8.0, np.pi / 64.0)
    n_half = int(np.ceil(_PROBE_WINDOW / dx))
    x = dx * np.arange(-n_half, n_half + 1)
    T = DistortedFBI(kappa, h, x, xi, x)
    taper = np.ones_like(x)
    edge = np.abs(x) > 0.5 * _PROBE_WINDOW
    taper[edge] = np.cos(0.5 * np.pi * (np.abs(x[edge]) - 0.5 * _PROBE_WINDOW)
                         / (0.5 * _PROBE_WINDOW)) ** 2

    ratios = []
    for _ in range(20):
        freqs = rng.uniform(1.0, 2.0, size=6)
        amps = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        f = taper * sum(a * np.exp(1j * sf * x) for a, sf in zip(amps, freqs))
        ratios.append(T._ratio(np.sqrt(T.wx) * f))
    return np.asarray(ratios)


# -- asymptotic orthogonality --------------------------------------------------


def gaussian_overlap(cf, p1, p2, h):
    """|<g1, g2>| / (||g1|| ||g2||) for bare Gaussians at equal-xi points.

    With common twist k and gap d = u2 - u1 the closed form is
    exp(-d^2 |k|^2 / (4 |Re k| h)), the single-point orthogonality rate.
    """
    (u1, xi1), (u2, xi2) = p1, p2
    k1 = twist_curvature(cf, u1, xi1)
    k2 = twist_curvature(cf, u2, xi2)
    if k1.real >= 0.0 or k2.real >= 0.0:
        raise PreconditionError("both points need Re(twist) < 0")
    # quadrature on a window covering both packets
    w = 12.0 * np.sqrt(h / min(-k1.real, -k2.real))
    x = np.linspace(min(u1, u2) - w, max(u1, u2) + w, 4001)
    wx = trapezoid_weights(x)
    g1 = _bare_gaussian(cf, u1, xi1, h, x)
    g2 = _bare_gaussian(cf, u2, xi2, h, x)
    n1 = np.sqrt(np.sum(wx * np.abs(g1) ** 2))
    n2 = np.sqrt(np.sum(wx * np.abs(g2) ** 2))
    return float(abs(np.sum(wx * np.conj(g1) * g2)) / (n1 * n2))


def asymptotic_orthogonality(FU, FV):
    """||(E_U)* E_V|| for spatially disjoint phase-space subsets U, V.

    FU and FV are transform frames on one x grid; their u-projections, read
    from the provenance, must be disjoint.  Largest singular value of the
    weighted cross-Gram; decays like exp(-c/h) in the gap between them.
    """
    uu = [p[1] for p in FU.provenance]
    uv = [p[1] for p in FV.provenance]
    if len(uu) != FU.n_cols or len(uv) != FV.n_cols:
        raise PreconditionError("frames need one provenance entry per column")
    if not (max(uu) < min(uv) or max(uv) < min(uu)):
        raise PreconditionError("u-projections of the two subsets overlap")
    if not np.array_equal(FU.x, FV.x):
        raise PreconditionError("the two frames must share one x grid")
    G = FU.E.conj().T @ (FU.weights[:, None] * FV.E)
    S = ((np.sqrt(FU.coef_weights)[:, None] * G)
         * np.sqrt(FV.coef_weights)[None, :])
    return float(np.linalg.svd(S, compute_uv=False)[0])


def orthogonality_decay(cf, h_list, gap=0.5, xi=-1.0):
    """Cross-Gram norms between two u-clusters separated by a gap, per h.

    Two phase-space rectangles, 0.1 wide in u and xi +- 0.05 in xi, sit at
    u = -(gap + 0.1)/2 and +(gap + 0.1)/2 (so their u-projections stay `gap`
    apart), each with 3 x 3 Gaussian kernel nodes, on a 2048-point x window
    reaching 1.5 beyond them; the return value is the array of largest
    cross-Gram singular values over h_list.  Against 1/h these fall on a line
    in log scale with negative slope (tunneling factor exp(-c/h)).
    """
    h_list = np.asarray(h_list, dtype=float)
    c0 = (gap + 0.1) / 2.0
    u_ranges = [(-c0 - 0.05, -c0 + 0.05), (c0 - 0.05, c0 + 0.05)]
    x = np.linspace(max(cf.domain[0], u_ranges[0][0] - 1.5),
                    min(cf.domain[1], u_ranges[1][1] + 1.5), 2048)
    grids = [phase_space_grid(cf, u_range, (xi - 0.05, xi + 0.05), 3, 3)
             for u_range in u_ranges]
    out = np.empty(h_list.size)
    for i, h in enumerate(h_list):
        FU, FV = (transform_frame(cf, "gaussian", float(h), x, *g)
                  for g in grids)
        out[i] = asymptotic_orthogonality(FU, FV)
    return out


# -- generalized width functions -----------------------------------------------


def generalized_kappa_check(kappa_fn, alpha0, alpha_inf, c0, c_inf, h,
                            s_probes=(-2.0, 0.0, 1.0, 10.0, 100.0)):
    """Power-law sandwich check for Re(kappa(xi)) plus a boundedness probe.

    Verifies c0^-1 xi^alpha0 <= Re kappa <= c0 xi^alpha0 on (0,1] and the
    analogous alpha_inf bound on [1,inf) at 50 log-spaced probes each, then
    evaluates the generalized profile F(h,s) with c6 = 1 and Re kappa(xi) in
    the width slot and returns (True, sup over the s probes).
    """
    if alpha0 < 0 or alpha_inf < 0 or c0 <= 0 or c_inf <= 0:
        raise PreconditionError("sandwich parameters must be positive (alphas >= 0)")
    for lo, alpha, c, side in ((-6, alpha0, c0, "(0,1]"),
                               (0, alpha_inf, c_inf, "[1,inf)")):
        for xi in np.logspace(lo, lo + 6, 50):
            rk = np.real(kappa_fn(xi))
            if not (xi ** alpha / c - 1e-12 <= rk <= c * xi ** alpha + 1e-12):
                raise PreconditionError(
                    f"Re kappa({xi}) = {rk} violates the {side} sandwich")

    # the knee is where the lower sandwich bound's decay xi^(2 + alpha)/(h c)
    # reaches 1; for Re kappa(xi) = xi it is F's at c6 = 1, h^(1/3)
    knee = (h * c_inf) ** (1.0 / (2.0 + alpha_inf))
    if knee < 1.0:
        knee = min((h * c0) ** (1.0 / (2.0 + alpha0)), 1.0)

    def profile(s):
        def integrand(xi):
            rk = np.real(kappa_fn(xi))
            return h ** -0.5 * np.sqrt(rk) * np.exp(-(xi / h - s) ** 2 * h * rk)

        # the other panel ends are those of F at c6 = 1
        peak, width, small, _ = _profile_scales(1.0, h, s)
        return _split_quad(integrand, peak, width, small, peak + knee,
                           "generalized profile")

    sup = max(profile(s) for s in s_probes)
    return True, float(sup)
