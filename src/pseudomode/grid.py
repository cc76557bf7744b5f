"""Grids, banded discretization, residual measurement, resolvent maps, propagation.

Residual orders are always measured through the analytic path (modes carry
exact first and second derivatives): the target orders reach O(h^4), which is
unreachable through stencil noise at practical resolutions.  The stencil
discretization exists for building the operator in frame/pseudospectra work
and for low-order cross-checks.  It is stored by its five diagonals, so
building it, eliminating its boundary rows, factoring a resolvent cell and
applying exp(tA) all cost O(m) per step; dense matrices are built only on
request.
"""

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg.lapack import zgbtrf, zgbtrs
from scipy.sparse.linalg import expm_multiply

from .errors import ConvergenceError, PreconditionError
from .symbol import principal_symbol


@dataclass
class Grid1D:
    """Uniform grid on [lo, hi] with trapezoid quadrature weights."""

    lo: float
    hi: float
    m: int
    x: np.ndarray = field(default=None, repr=False)
    weights: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.m < 8:
            raise ValueError("grid needs at least 8 points")
        if not self.lo < self.hi:
            raise ValueError("grid interval is empty")
        self.x = np.linspace(self.lo, self.hi, self.m)
        dx = self.x[1] - self.x[0]
        w = np.full(self.m, dx)
        w[0] = w[-1] = dx / 2.0
        self.weights = w

    @property
    def dx(self):
        return self.x[1] - self.x[0]


class BoundaryCondition:
    """Descriptor for the two endpoint rows of the stencil discretization."""

    def __init__(self, kind, coef_deriv=None, coef_value=None):
        if kind not in ("dirichlet", "robin"):
            raise ValueError("bc kind must be 'dirichlet' or 'robin'")
        if kind == "robin":
            if coef_deriv is None or coef_value is None:
                raise ValueError("robin bc needs coef_deriv and coef_value")
            if coef_deriv == 0 and coef_value == 0:
                raise PreconditionError("robin coefficients must not both vanish")
        self.kind = kind
        self.coef_deriv = coef_deriv
        self.coef_value = coef_value

    def __repr__(self):
        if self.kind == "dirichlet":
            return "BoundaryCondition(dirichlet)"
        return f"BoundaryCondition(robin, {self.coef_deriv}, {self.coef_value})"


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
        m = self.grid.m
        return sp.dia_array((self.band, _OFFSETS), shape=(m, m)).toarray()

    def banded(self):
        """The reduced operator as a scipy.sparse dia_array of bandwidth 2."""
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

    if bc.kind == "dirichlet":
        band[2, 0] = 1.0
        band[2, -1] = 1.0
    else:
        # one-sided 3-point first derivative in coef_deriv * h * f' + coef_value * f
        cd, cv = bc.coef_deriv, bc.coef_value
        band[2, 0] = cd * h * (-3.0) / (2.0 * dx) + cv
        band[1, 1] = cd * h * 4.0 / (2.0 * dx)
        band[0, 2] = cd * h * (-1.0) / (2.0 * dx)
        band[2, -1] = cd * h * 3.0 / (2.0 * dx) + cv
        band[3, -2] = cd * h * (-4.0) / (2.0 * dx)
        band[4, -3] = cd * h * 1.0 / (2.0 * dx)
    return DenseOperator(band=band, bc=bc, h=h, grid=grid)


def _window_mask(mode, window):
    """Boolean mask of the measurement window on the mode grid.

    'support': the whole sample grid.  'plateau': the inner window where the
    cutoff is identically 1, i.e. the region where the phase expansion alone
    defines the mode.  'auto' resolves to 'plateau' for phase-bearing kinds
    and 'support' for rough packets (whose residual *is* the envelope
    derivative, which lives outside the plateau).
    """
    if window == "auto":
        window = "support" if mode.kind == "rough" else "plateau"
    if window == "support" or mode.cutoff is None:
        return np.ones(mode.x.size, dtype=bool)
    if window != "plateau":
        raise ValueError("window must be 'auto', 'support' or 'plateau'")
    s = mode.x - mode.u
    half = 0.5 * mode.cutoff.delta
    if getattr(mode.cutoff, "one_sided", False):
        return (s >= 0.0) & (s <= half)
    return np.abs(s) <= half


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
    included.  Rough packets are always measured on their support.
    """
    mask = _window_mask(mode, window)
    x = mode.x[mask]
    if x.size < 8:
        raise PreconditionError("measurement window contains too few samples")
    w = np.empty_like(x)
    w[1:-1] = (x[2:] - x[:-2]) / 2.0
    w[0] = (x[1] - x[0]) / 2.0
    w[-1] = (x[-1] - x[-2]) / 2.0
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
    a = cf.a.values(x)
    b = cf.b.values(x)
    c = cf.c.values(x)
    lf = -mode.h ** 2 * a * fpp - 1j * mode.h * b * fp + c * f
    rl = wnorm(lf - mode.z * f) / nrm
    return rq, rp, rl, nrm


def residual_stencil(mode, cf, m=4096, window="auto"):
    """rL recomputed through finite differences instead of analytic derivatives.

    Resamples the mode on a uniform m-point grid over its span, applies the
    4th-order interior stencils, and measures ||L_h f - z f||/||f|| on the
    same window as residual_triple.  Exists purely as a cross-check on the
    analytic path (and vice versa); order fits must not use it, since h^(n+2)
    sits below stencil noise at practical resolutions.
    """
    if m < 64:
        raise PreconditionError("stencil cross-check needs a fine grid")
    x = np.linspace(mode.x[0], mode.x[-1], m)
    dx = x[1] - x[0]
    f = mode.evaluate(x)
    fp = np.empty_like(f)
    fpp = np.empty_like(f)
    fp[2:-2] = (f[:-4] - 8 * f[1:-3] + 8 * f[3:-1] - f[4:]) / (12.0 * dx)
    fpp[2:-2] = (-f[:-4] + 16 * f[1:-3] - 30 * f[2:-2]
                 + 16 * f[3:-1] - f[4:]) / (12.0 * dx ** 2)
    fp[:2] = fp[2]
    fp[-2:] = fp[-3]
    fpp[:2] = fpp[2]
    fpp[-2:] = fpp[-3]
    proxy = type(mode)(
        kind=mode.kind, h=mode.h, n=mode.n, u=mode.u, xi=mode.xi, z=mode.z,
        phase=mode.phase, cutoff=mode.cutoff, x=x, f=f, fp=fp, fpp=fpp,
        weights=np.full(m, dx))
    # drop the edge rows carrying copied derivatives
    mask = _window_mask(proxy, window)
    mask[:2] = mask[-2:] = False
    w = np.full(m, dx)
    fw, fpw, fppw = f[mask], fp[mask], fpp[mask]
    xw, ww = x[mask], w[mask]
    nrm = float(np.sqrt(np.sum(ww * np.abs(fw) ** 2)))
    if nrm == 0.0:
        raise PreconditionError("mode has zero norm on the measurement window")
    lf = (-mode.h ** 2 * cf.a.values(xw) * fppw
          - 1j * mode.h * cf.b.values(xw) * fpw + cf.c.values(xw) * fw)
    return float(np.sqrt(np.sum(ww * np.abs(lf - mode.z * fw) ** 2))) / nrm


def order_fit(h_values, r_values):
    """Least-squares slope of log r against log h; returns (slope, intercept, r2)."""
    h_values = np.asarray(h_values, dtype=float)
    r_values = np.asarray(r_values, dtype=float)
    if np.any(h_values <= 0) or np.any(r_values <= 0):
        raise PreconditionError("order fit needs positive h and residual values")
    x = np.log(h_values)
    y = np.log(r_values)
    slope, intercept = np.polyfit(x, y, 1)
    yhat = slope * x + intercept
    ss_res = float(np.sum((y - yhat) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def _band(M, w=None):
    """M as a dia_array with contiguous offsets ku, ..., 0, ..., -kl.

    Its data is then LAPACK's band layout, data[ku + i - j, j] = M[i, j].  A
    scipy.sparse matrix keeps the diagonals it stores; a dense array is
    stored at its own bandwidth, out to the outermost diagonals holding a
    nonzero.  With weights w the band holds W^(1/2) M W^(-1/2).
    """
    if sp.issparse(M):
        offsets = sp.dia_array(M).offsets
        diagonal = M.diagonal
    else:
        M = np.asarray(M)
        i, j = np.nonzero(M)
        offsets = j - i
        diagonal = functools.partial(np.diagonal, M)
    n = M.shape[0]
    ku = int(np.max(offsets, initial=0))
    kl = -int(np.min(offsets, initial=0))
    ab = np.zeros((kl + ku + 1, n), dtype=complex)
    for d in range(-kl, ku + 1):
        # entry (j - d, j) exists for the columns j in [max(d, 0), n + min(d, 0))
        ab[ku - d, max(d, 0):n + min(d, 0)] = diagonal(d)
    if w is not None:
        sw = np.sqrt(np.asarray(w, dtype=float))
        rows = np.arange(n)[None, :] + np.arange(kl + ku + 1)[:, None] - ku
        ab = sw[np.clip(rows, 0, n - 1)] * ab / sw[None, :]
    return sp.dia_array((ab, np.arange(ku, -kl - 1, -1)), shape=(n, n))


def _shift(B, z):
    """B - z I for a band from _band(), touching only its diagonal."""
    data = B.data.copy()
    data[B.offsets == 0] -= z
    return sp.dia_array((data, B.offsets), shape=B.shape)


def smallest_singular_value(M, w=None, max_iter=500, tol=1e-10):
    """s_min of M (optionally in the weighted geometry) by inverse iteration.

    M is a dense array or a scipy.sparse matrix.  It is factored once by
    banded LU (LAPACK zgbtrf) at its bandwidth: the stored diagonals of a
    sparse matrix, the measured ones of an array.  Power iteration on
    (M^-1 M^-H) then runs through zgbtrs, O(m) per step for a banded
    operator; returns (value, converged).  A singular factorization reports
    s_min = 0.
    """
    B = _band(M, w)
    ku, kl = int(B.offsets[0]), -int(B.offsets[-1])
    n = B.shape[0]
    ab = np.zeros((2 * kl + ku + 1, n), dtype=complex)  # kl rows for fill-in
    ab[kl:] = B.data
    lub, piv, info = zgbtrf(ab, kl, ku, overwrite_ab=True)
    # info > 0 is an exact zero on U's diagonal: M is singular, s_min = 0
    if info != 0 or not np.all(np.isfinite(lub)):
        return 0.0, True
    rng = np.random.default_rng(1234)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam_old = 0.0
    converged = False
    for _ in range(max_iter):
        y, _ = zgbtrs(lub, kl, ku, v, piv, trans=2)  # (M^H)^-1 v
        x, _ = zgbtrs(lub, kl, ku, y, piv, trans=0)  # M^-1 y
        lam = float(np.linalg.norm(x))
        if lam == 0.0 or not np.isfinite(lam):
            return 0.0, True
        v = x / lam
        if abs(lam - lam_old) <= tol * lam:
            converged = True
            break
        lam_old = lam
    return 1.0 / np.sqrt(lam), converged


def resolvent_map(op, z_re, z_im, w=None):
    """s_min(L - z) over a complex rectangle grid; flags non-converged cells.

    op is a DenseOperator (its banded reduced operator, in the interior
    quadrature geometry unless w is given) or a matrix, dense or sparse.  The
    weighted band is formed once; each cell shifts its diagonal and makes one
    smallest_singular_value call.  Returns (smin, ok) arrays of shape
    (len(z_re), len(z_im)).
    """
    if isinstance(op, DenseOperator):
        if w is None:
            w = op.w_interior
        op = op.banded()
    B = _band(op, w)
    smin = np.zeros((len(z_re), len(z_im)))
    ok = np.zeros_like(smin, dtype=bool)
    for i, zr in enumerate(z_re):
        for j, zi in enumerate(z_im):
            s, conv = smallest_singular_value(_shift(B, zr + 1j * zi))
            smin[i, j] = s
            ok[i, j] = conv
    return smin, ok


#: Al-Mohy & Higham (2011), condition (3.13) at scipy's m_max = 55, ell = 2:
#: a step of n0 columns with ||t (A - mu I)||_1 below this / n0 takes its
#: Taylor degree from the exact 1-norm.  A longer step would estimate norms
#: of powers of A with numpy's global random generator, and the last digits
#: of exp(tA) f would change from run to run.
_EXACT_NORM_STEP = 2 * 2 * 8 * (8 + 3) * 9.9 / 55


def propagate(A, f, t, method="expm", tol=1e-10):
    """exp(t A) f by its action, or by Crank-Nicolson with step doubling.

    'expm' applies scipy.sparse.linalg.expm_multiply (Al-Mohy & Higham 2011)
    to f, a vector or a block of columns, with A dense or scipy.sparse; no
    matrix exponential is formed.  Its steps are kept short enough for the
    result to repeat exactly (see _EXACT_NORM_STEP).
    """
    if not sp.issparse(A):
        A = np.asarray(A)
    f = np.asarray(f, dtype=complex)
    if t == 0:
        return f.copy()
    if method == "expm":
        n = A.shape[0]
        eye = sp.eye_array(n, format="dia") if sp.issparse(A) else np.eye(n)
        norm = float(np.max(abs(A - A.trace() / n * eye).sum(axis=0)))
        cols = f.shape[1] if f.ndim == 2 else 1
        steps = max(1, int(np.ceil(
            abs(t) * norm * cols / (0.9 * _EXACT_NORM_STEP))))
        for _ in range(steps):
            f = expm_multiply((t / steps) * A, f)
        return f
    if method == "cn":
        eye = np.eye(A.shape[0])
        prev = None
        nsteps = max(8, int(abs(t) * np.linalg.norm(A, 1) / 4.0) + 1)
        for _ in range(12):
            dt = t / nsteps
            lhs = eye - dt / 2.0 * A
            rhs = eye + dt / 2.0 * A
            lu, piv = sla.lu_factor(lhs)
            g = f.copy()
            for _ in range(nsteps):
                g = sla.lu_solve((lu, piv), rhs @ g)
            if prev is not None:
                scale = max(float(np.linalg.norm(g)), 1e-300)
                if float(np.linalg.norm(g - prev)) <= tol * scale:
                    return g
            prev = g
            nsteps *= 2
        raise ConvergenceError("Crank-Nicolson step doubling did not converge")
    raise ValueError("method must be 'expm' or 'cn'")


def filling_probe(cf, points, h_values, grid_factory, bc=None):
    """s_min(L_h - sigma(u, xi)) across h for in-Omega points.

    grid_factory(h) -> Grid1D lets the resolution track h; returns an array of
    shape (len(points), len(h_values)).
    """
    bc = bc or BoundaryCondition("dirichlet")
    out = np.zeros((len(points), len(h_values)))
    for jh, h in enumerate(h_values):
        grid = grid_factory(h)
        op = discretize(cf, h, grid, bc)
        B = _band(op.banded(), op.w_interior)
        for ip, (u, xi) in enumerate(points):
            cell = _shift(B, principal_symbol(cf, u, xi))
            s, conv = smallest_singular_value(cell)
            if not conv:
                s = float(np.min(sla.svdvals(cell.toarray())))
            out[ip, jh] = s
    return out
