"""Grids, banded discretization, residual measurement, resolvent maps, propagation.

Residual orders are always measured through the analytic path (modes carry
exact first and second derivatives): the target orders reach O(h^4), which is
unreachable through stencil noise at practical resolutions.  The banded
stencil operator serves frame and pseudospectra work and, in
residual_stencil, a low-order cross-check.  Building it, eliminating its
boundary rows, factoring a resolvent cell and applying exp(tA)
(expm_multiply only) all cost O(m) per step; dense matrices are built only
on request.  A list of shifts is measured by one loop, _smin_cells: the
operator is put in LAPACK band layout once (_band), and each cell factors
that band minus its own shift.  scipy is imported where it is called, so the
JWKB subcommands, which call none of it, start without it.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError
from .symbol import principal_symbol


def trapezoid_weights(x):
    """Trapezoid quadrature weights on the nodes x (a single node weighs 1)."""
    x = np.asarray(x, dtype=float)
    w = np.empty_like(x)
    if x.size == 1:
        w[0] = 1.0
        return w
    w[1:-1] = (x[2:] - x[:-2]) / 2.0
    w[0] = (x[1] - x[0]) / 2.0
    w[-1] = (x[-1] - x[-2]) / 2.0
    return w


def lh(cf, h, x, f, fp, fpp):
    """L_h f = -h^2 a f'' - i h b f' + c f from samples of f, f', f'' at x."""
    return (-h ** 2 * cf.a.values(x) * fpp - 1j * h * cf.b.values(x) * fp
            + cf.c.values(x) * f)


@dataclass
class Grid1D:
    """Uniform grid of m nodes on [lo, hi]; trapezoid_weights(x) weighs them."""

    lo: float
    hi: float
    m: int
    x: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.m < 8:
            raise PreconditionError("grid needs at least 8 points")
        if not self.lo < self.hi:
            raise PreconditionError("grid interval is empty")
        self.x = np.linspace(self.lo, self.hi, self.m)

    @property
    def dx(self):
        return self.x[1] - self.x[0]


class BoundaryCondition:
    """Endpoint condition coef_deriv * h f' + coef_value * f = 0.

    'dirichlet' is the Robin pair (0, 1).  discretize writes the condition
    into both endpoint rows of the stencil operator; trace() evaluates it on
    a boundary mode at its first sample.
    """

    def __init__(self, kind, coef_deriv=None, coef_value=None):
        if kind == "dirichlet":
            coef_deriv, coef_value = 0.0, 1.0
        elif kind != "robin":
            raise PreconditionError("bc kind must be 'dirichlet' or 'robin'")
        elif coef_deriv is None or coef_value is None:
            raise PreconditionError("robin bc needs coef_deriv and coef_value")
        self.kind = kind
        self.coef_deriv = complex(coef_deriv)
        self.coef_value = complex(coef_value)
        if self.coef_deriv == 0 and self.coef_value == 0:
            raise PreconditionError("Robin coefficients must not both vanish")

    def __repr__(self):
        if self.kind == "dirichlet":
            return "BoundaryCondition(dirichlet)"
        return f"BoundaryCondition(robin, {self.coef_deriv}, {self.coef_value})"

    def trace(self, mode):
        """coef_deriv * h f'(x0) + coef_value * f(x0) at the mode's first sample x0."""
        return self.coef_deriv * mode.h * mode.fp[0] + self.coef_value * mode.f[0]


#: diagonal offsets j - i of a band in LAPACK order: band[2 + i - j, j] = A[i, j]
_OFFSETS = np.arange(2, -3, -1)


@dataclass
class DenseOperator:
    """L_h on the grid, stored by its five diagonals.

    Matrix rows 0 and m-1 carry the boundary condition functionals; interior
    rows carry -h^2 a d2 - i h b d1 + c through 4th-order central stencils
    (2nd-order at the two near-boundary rows), so every row lies within
    bandwidth 2.  `band` holds the m x m matrix in LAPACK band layout,
    band[2 + i - j, j] = A[i, j].  Spectral and semigroup work uses the square
    operator on the interior unknowns with the two boundary values eliminated
    through the bc rows, which keeps bandwidth 2: banded() gives it as a
    sparse matrix in O(m) memory.  `matrix` and reduced() build dense arrays
    on request only.
    """

    band: np.ndarray
    bc: BoundaryCondition
    h: float
    grid: Grid1D

    @property
    def x_interior(self):
        return self.grid.x[1:-1]

    @property
    def w_interior(self):
        # interior nodes of a uniform trapezoid rule all carry weight dx
        return np.full(self.grid.m - 2, self.grid.dx)

    @property
    def matrix(self):
        """The m x m matrix, boundary rows included, as a dense array."""
        import scipy.sparse as sp
        m = self.grid.m
        return sp.dia_array((self.band, _OFFSETS), shape=(m, m)).toarray()

    def banded(self):
        """The reduced operator as a scipy.sparse dia_array of bandwidth 2."""
        import scipy.sparse as sp
        n = self.grid.m - 2
        return sp.dia_array((_eliminate_bc(self.band), _OFFSETS), shape=(n, n))

    def reduced(self):
        """Square operator on interior nodes after eliminating the bc rows."""
        return self.banded().toarray()


def _eliminate_bc(band):
    """Band of the interior block once the boundary values are eliminated.

    Row e in {0, m-1} reads x_e = -(sum_j A[e, j] x_j) / A[e, e] over its
    two interior neighbours j, and x_e enters only the two interior rows
    next to it, so the substitution changes a 2 x 2 corner block per end.
    """
    m = band.shape[1]
    red = band[:, 1:-1].copy()  # red[2 + i - j, j - 1] = A[i, j]
    for e, near in ((0, (1, 2)), (m - 1, (m - 2, m - 3))):
        pivot = band[2, e]
        if pivot == 0.0:
            raise PreconditionError("boundary rows are singular")
        for j in near:
            elim = -(band[2 + e - j, j] / pivot)  # x_e = ... + elim x_j
            red[2 + e - j, j - 1] = 0.0  # row e itself is not an unknown
            for i in near:
                red[2 + i - j, j - 1] += band[2 + i - e, e] * elim
    return red


def discretize(cf, h, grid, bc):
    """Banded discretization of L_h = -h^2 a d2 - i h b d1 + c on the grid."""
    if not 0.0 < h <= 1.0:
        raise PreconditionError(f"h={h} outside (0, 1]")
    cf.require_inside(grid.lo, "grid edge")
    cf.require_inside(grid.hi, "grid edge")
    m, dx = grid.m, grid.dx
    a = cf.a.values(grid.x)
    b = cf.b.values(grid.x)
    c = cf.c.values(grid.x)
    band = np.zeros((5, m), dtype=complex)

    d1_4 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * dx)
    d2_4 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * dx ** 2)
    d1_2 = np.array([-1.0, 0.0, 1.0]) / (2.0 * dx)
    d2_2 = np.array([1.0, -2.0, 1.0]) / dx ** 2

    for rows, s1, s2 in ((np.arange(2, m - 2), d1_4, d2_4),
                         (np.array([1, m - 2]), d1_2, d2_2)):
        half = s1.size // 2
        coef = (-h ** 2 * a[rows, None] * s2[None, :]
                - 1j * h * b[rows, None] * s1[None, :])
        coef[:, half] += c[rows]
        for k in range(s1.size):
            d = k - half  # entry (i, i + d) sits at band[2 - d, i + d]
            band[2 - d, rows + d] = coef[:, k]

    # one-sided 3-point first derivative in coef_deriv * h * f' + coef_value * f
    cd, cv = bc.coef_deriv, bc.coef_value
    band[2, 0] = cd * h * (-3.0) / (2.0 * dx) + cv
    band[1, 1] = cd * h * 4.0 / (2.0 * dx)
    band[0, 2] = cd * h * (-1.0) / (2.0 * dx)
    band[2, -1] = cd * h * 3.0 / (2.0 * dx) + cv
    band[3, -2] = cd * h * (-4.0) / (2.0 * dx)
    band[4, -3] = cd * h * 1.0 / (2.0 * dx)
    return DenseOperator(band=band, bc=bc, h=h, grid=grid)


def _window_mask(mode, x, window):
    """Boolean mask of the mode's measurement window on the abscissae x.

    'support': all of x.  'plateau': mode.cutoff.plateau(x - u), where the
    cutoff is identically 1 and the phase expansion alone defines the mode.
    'auto' resolves to 'plateau' for phase-bearing kinds
    and 'support' for rough packets (whose residual *is* the envelope
    derivative, which lives outside the plateau).
    """
    if window == "auto":
        window = "support" if mode.kind == "rough" else "plateau"
    if window == "support":
        return np.ones(x.size, dtype=bool)
    if window != "plateau":
        raise PreconditionError("window must be 'auto', 'support' or 'plateau'")
    return mode.cutoff.plateau(x - mode.u)


def residual_triple(mode, cf, window="auto"):
    """(rQ, rP, rL, norm): residual norms relative to ||f|| on the window.

    position: ||(Q - u) f|| with Q multiplication by x (boundary modes use
    u = 0, i.e. ||Q f||); momentum: ||(P - xi) f|| with P = -i h d/dx;
    operator: ||(L_h - z) f||; norm is ||f|| itself on the window.  For
    combined boundary modes without a single xi the momentum entry is NaN.

    By default phase-built modes are measured on the cutoff plateau, where
    the envelope is exactly 1 and the measured operator residual is the
    expansion defect of order h^(n+2); on 'support' the cutoff's own
    transition terms (of size ~ exp(-c/h), dominant at moderate h) are
    included.  Rough packets default to their support; their cutoff's
    plateau is |x - u| <= h^(1/2), where they are a pure plane wave.  Leaving
    the transition out, the plateau residual bounds no s_min(L_h - z): at
    h = 2^-4 it is 1.1e-4 where the support residual is 0.36.
    """
    mask = _window_mask(mode, mode.x, window)
    x = mode.x[mask]
    if x.size < 8:
        raise PreconditionError("measurement window contains too few samples")
    w = trapezoid_weights(x)
    f = mode.f[mask]
    fp = mode.fp[mask]
    fpp = mode.fpp[mask]

    def wnorm(v):
        return float(np.sqrt(np.sum(w * np.abs(v) ** 2)))

    nrm = wnorm(f)
    if nrm == 0.0:
        raise PreconditionError("mode has zero norm on the measurement window")
    rq = wnorm((x - mode.u) * f) / nrm
    if mode.xi is None:
        rp = float("nan")
    else:
        rp = wnorm(-1j * mode.h * fp - mode.xi * f) / nrm
    rl = wnorm(lh(cf, mode.h, x, f, fp, fpp) - mode.z * f) / nrm
    return rq, rp, rl, nrm


def residual_stencil(mode, cf):
    """rL through the band of discretize instead of analytic derivatives.

    Samples the mode on a uniform 4096-point grid over its span, applies the
    band that discretize builds there, and measures ||L_h f - z f||/||f|| on
    the default ('auto') window of residual_triple, leaving out the bc rows
    and the 2nd-order rows next to them.  Exists purely as a cross-check on
    the analytic path (and vice versa); order fits must not use it, since
    h^(n+2) sits below stencil noise at practical resolutions.
    """
    import scipy.sparse as sp
    m = 4096
    grid = Grid1D(mode.x[0], mode.x[-1], m)
    op = discretize(cf, mode.h, grid, BoundaryCondition("dirichlet"))
    f = mode.evaluate(grid.x)
    r = sp.dia_array((op.band, _OFFSETS), shape=(m, m)) @ f - mode.z * f
    mask = _window_mask(mode, grid.x, "auto")
    mask[:2] = mask[-2:] = False
    # uniform weights cancel in the ratio
    nrm = float(np.linalg.norm(f[mask]))
    if nrm == 0.0:
        raise PreconditionError("mode has zero norm on the measurement window")
    return float(np.linalg.norm(r[mask])) / nrm


def order_fit(h_values, r_values):
    """Least-squares slope of log r against log h; returns (slope, intercept, r2)."""
    h_values = np.asarray(h_values, dtype=float)
    r_values = np.asarray(r_values, dtype=float)
    if np.any(h_values <= 0) or np.any(r_values <= 0):
        raise PreconditionError("order fit needs positive h and residual values")
    return line_fit(np.log(h_values), np.log(r_values))


def line_fit(x, y):
    """Least-squares line y ~ slope x + intercept; returns (slope, intercept, r2)."""
    slope, intercept = np.polyfit(x, y, 1)
    yhat = slope * x + intercept
    ss_res = float(np.sum((y - yhat) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def _band(M, w=None):
    """M as a dia_array with contiguous offsets ku, ..., 0, ..., -kl.

    Its data is then LAPACK's band layout, data[ku + i - j, j] = M[i, j].  M
    is read through scipy.sparse.dia_array: a sparse matrix keeps the
    diagonals it stores, a dense array those holding a nonzero, so it is
    stored at its own bandwidth.  With weights w the band holds
    W^(1/2) M W^(-1/2).
    """
    import scipy.sparse as sp
    D = sp.dia_array(M)
    n = D.shape[0]
    ku = int(np.max(D.offsets, initial=0))
    kl = -int(np.min(D.offsets, initial=0))
    ab = np.zeros((kl + ku + 1, n), dtype=complex)
    ab[ku - D.offsets, :D.data.shape[1]] = D.data[:, :n]
    # ab[r, j] is M[rows[r, j], j]; a dia_array may store values outside M
    rows = np.arange(n)[None, :] + np.arange(kl + ku + 1)[:, None] - ku
    ab[(rows < 0) | (rows >= n)] = 0.0
    if w is not None:
        sw = np.sqrt(np.asarray(w, dtype=float))
        ab = sw[np.clip(rows, 0, n - 1)] * ab / sw[None, :]
    return sp.dia_array((ab, np.arange(ku, -kl - 1, -1)), shape=(n, n))


def smallest_singular_value(B, z=0.0):
    """s_min of B - z I by inverse iteration; returns (value, converged).

    B is a band from _band(): a dia_array whose offsets run ku, ..., -kl with
    no gap, so its data is LAPACK's band layout.  Its data is copied once
    into the zgbtrf work array, z comes off the diagonal row there, and the
    LU of M = B - z I is factored at that bandwidth.  Power iteration on
    (M^-1 M^-H) then runs through zgbtrs, O(m) per step, for at most 500
    steps, until the estimate moves by at most 1e-10 relative.  A singular
    factorization reports s_min = 0.  Offsets with a gap, or without the
    main diagonal, raise PreconditionError.
    """
    from scipy.linalg.lapack import zgbtrf, zgbtrs
    ku, kl = int(B.offsets[0]), -int(B.offsets[-1])
    if min(ku, kl) < 0 or not np.array_equal(B.offsets, np.arange(ku, -kl - 1, -1)):
        raise PreconditionError("smallest_singular_value needs a band from _band()")
    n = B.shape[0]
    ab = np.zeros((2 * kl + ku + 1, n), dtype=complex)  # kl rows for fill-in
    ab[kl:] = B.data
    ab[kl + ku] -= z
    lub, piv, info = zgbtrf(ab, kl, ku, overwrite_ab=True)
    # info > 0 is an exact zero on U's diagonal: M is singular, s_min = 0
    if info != 0 or not np.all(np.isfinite(lub)):
        return 0.0, True
    rng = np.random.default_rng(1234)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam_old = 0.0
    converged = False
    for _ in range(500):
        y, _ = zgbtrs(lub, kl, ku, v, piv, trans=2)  # (M^H)^-1 v
        x, _ = zgbtrs(lub, kl, ku, y, piv, trans=0)  # M^-1 y
        lam = float(np.linalg.norm(x))
        if lam == 0.0 or not np.isfinite(lam):
            return 0.0, True
        v = x / lam
        if abs(lam - lam_old) <= 1e-10 * lam:
            converged = True
            break
        lam_old = lam
    return 1.0 / np.sqrt(lam), converged


def _smin_cells(B, zs):
    """(s_min, converged) arrays of B - z over the shifts zs, B from _band().

    One smallest_singular_value(B, z) call per cell, in the order of zs; the
    band is shared, each call shifts its own copy.
    """
    smin = np.zeros(len(zs))
    ok = np.zeros(len(zs), dtype=bool)
    for k, z in enumerate(zs):
        smin[k], ok[k] = smallest_singular_value(B, z)
    return smin, ok


def resolvent_map(op, z_re, z_im):
    """s_min(L - z) over a complex rectangle grid; flags non-converged cells.

    op is a DenseOperator, measured by its banded reduced operator in the
    interior quadrature geometry.  The weighted band is formed once by
    _band() and every cell factors it with its own shift (_smin_cells).
    Returns (smin, ok) arrays of shape (len(z_re), len(z_im)).
    """
    zr, zi = np.meshgrid(z_re, z_im, indexing="ij")
    smin, ok = _smin_cells(_band(op.banded(), op.w_interior),
                           (zr + 1j * zi).ravel())
    return smin.reshape(zr.shape), ok.reshape(zr.shape)


#: Al-Mohy & Higham (2011), condition (3.13) at scipy's m_max = 55, ell = 2:
#: a step of n0 columns with ||t (A - mu I)||_1 below this / n0 takes its
#: Taylor degree from the exact 1-norm.  A longer step would estimate norms
#: of powers of A with numpy's global random generator, and the last digits
#: of exp(tA) f would change from run to run.
_EXACT_NORM_STEP = 2 * 2 * 8 * (8 + 3) * 9.9 / 55

#: The most steps propagate takes: the tests and the benchmark workloads
#: need at most 62, and one costs about 5 ms on a 60-point grid.
_MAX_STEPS = 10_000


def propagate(A, f, t):
    """exp(t A) f by its action; no matrix exponential is formed.

    Applies scipy.sparse.linalg.expm_multiply (Al-Mohy & Higham 2011) to f,
    a vector or a block of columns, with A dense or scipy.sparse.  Its steps
    are kept short enough for the result to repeat exactly (see
    _EXACT_NORM_STEP); a t that needs more than _MAX_STEPS of them raises
    PreconditionError.
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import expm_multiply
    if not sp.issparse(A):
        A = np.asarray(A)
    f = np.asarray(f, dtype=complex)
    if t == 0:
        return f.copy()
    n = A.shape[0]
    eye = sp.eye_array(n, format="dia") if sp.issparse(A) else np.eye(n)
    norm = float(np.max(abs(A - A.trace() / n * eye).sum(axis=0)))
    cols = f.shape[1] if f.ndim == 2 else 1
    steps = np.ceil(abs(t) * norm * cols / (0.9 * _EXACT_NORM_STEP))
    if not steps <= _MAX_STEPS:
        raise PreconditionError(f"exp(tA) f at t = {t} needs {steps:.3g} "
                                f"steps, more than {_MAX_STEPS}")
    steps = max(1, int(steps))
    for _ in range(steps):
        f = expm_multiply((t / steps) * A, f)
    return f


def filling_probe(cf, points, h_values, grid_factory):
    """s_min(L_h - sigma(u, xi)) across h for in-Omega points, Dirichlet bc.

    grid_factory(h) -> Grid1D lets the resolution track h; returns an array of
    shape (len(points), len(h_values)).  A cell whose inverse iteration did
    not converge falls back to the dense SVD.
    """
    from scipy.linalg import svdvals
    zs = [principal_symbol(cf, u, xi) for u, xi in points]
    out = np.zeros((len(points), len(h_values)))
    for jh, h in enumerate(h_values):
        op = discretize(cf, h, grid_factory(h), BoundaryCondition("dirichlet"))
        B = _band(op.banded(), op.w_interior)
        smin, ok = _smin_cells(B, zs)
        for k in np.flatnonzero(~ok):
            smin[k] = np.min(svdvals(B.toarray() - zs[k] * np.eye(B.shape[0])))
        out[:, jh] = smin
    return out
