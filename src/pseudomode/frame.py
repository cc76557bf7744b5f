"""Finite frames of pseudomodes: defect, semigroup bounds, regularized
inversion, reconstruction, approximate evolution, quantization.

The Hilbert space is the quadrature-weighted l2 on the sample grid; the
coefficient space C^N carries the plain Euclidean (counting-measure) norm.
Operator norms between the two therefore scale with W^(1/2) on the grid side
only.  Columns need not be independent: overcomplete frames with large
condition numbers are expected and allowed.

FrameMatrix is also the one weighted synthesis type: the phase-space
transforms of the fbi module are frames whose coef_weights hold quadrature
weights, applied by synthesize() and scaled() only.  Every bound here keeps
the counting measure on the coefficients.  No bound forms an m x m array (a
sparse operator stays sparse); the quantization maps and the checks on them
do.  scipy is imported where it is called: importing the package, as every
subcommand does, loads none.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import BoundViolationError, PreconditionError
from .grid import _band, _smin_cells, l2, lh, propagate, trapezoid_weights

#: regularization below which (E*E + delta I) solves turn unreliable in
#: double precision for badly conditioned frames; callers get a warning,
#: not an error
COND_WARN = 1e12

#: relative slack of the semigroup and evolution bounds, covering the
#: propagator's own error
_SLACK = 0.05


@dataclass
class FrameMatrix:
    """Synthesis matrix E whose columns are unit pseudomodes on one grid.

    lam holds the symbol value z per column; provenance records
    (kind, u, xi, h, n) so reports can name their columns.  E maps
    coefficient vectors to weighted-l2 grid functions.  coef_weights
    (default ones) are quadrature weights W_c on the coefficients:
    synthesize() applies them, so a phase-space transform is the sum
    sum_j w_j phi_j e_j, and scaled() returns W^(1/2) E W_c^(1/2).  adjoint()
    is E^H W for either coefficient product.  defect, regularized_inverse,
    the semigroup checks, evolve_approx and the quantizations ignore
    coef_weights: they hold for the counting measure on coefficients.
    """

    E: np.ndarray
    lam: np.ndarray
    x: np.ndarray
    weights: np.ndarray
    provenance: list = field(default_factory=list)
    # normalized=False admits raw matrices (regularized inversion and the
    # quantization maps are well defined for any E, unit columns or not)
    normalized: bool = True
    coef_weights: np.ndarray = None

    def __post_init__(self):
        self.E = np.asarray(self.E, dtype=complex)
        self.lam = np.asarray(self.lam, dtype=complex)
        self.x = np.asarray(self.x, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.E.ndim != 2:
            raise PreconditionError("E must be a matrix")
        if self.lam.shape != (self.E.shape[1],):
            raise PreconditionError("lam length must equal the column count")
        if self.weights.shape != (self.E.shape[0],):
            raise PreconditionError("weights length must equal the row count")
        if self.coef_weights is None:
            self.coef_weights = np.ones(self.E.shape[1])
        self.coef_weights = np.asarray(self.coef_weights, dtype=float)
        if self.coef_weights.shape != (self.E.shape[1],):
            raise PreconditionError(
                "coef_weights length must equal the column count")
        if np.any(self.coef_weights <= 0.0):
            raise PreconditionError("coef_weights must be positive")
        if self.normalized:
            nrm = _column_norms(self.weights, self.E)
            if np.any(np.abs(nrm - 1.0) > 1e-10):
                raise PreconditionError(
                    f"columns must have unit weighted norm (worst |n-1| = "
                    f"{float(np.max(np.abs(nrm - 1.0))):.2e})")

    @property
    def n_cols(self):
        return self.E.shape[1]

    def adjoint(self):
        """Weighted adjoint E* = E^H W, an (N x m) map to coefficients."""
        return self.E.conj().T * self.weights[None, :]

    def scaled(self):
        """W^(1/2) E W_c^(1/2): plain 2-norms of this matrix are operator norms of E."""
        return ((np.sqrt(self.weights)[:, None] * self.E)
                * np.sqrt(self.coef_weights)[None, :])

    def synthesize(self, phi):
        """E W_c phi = sum_j w_j phi_j e_j for finite coefficients phi."""
        phi = np.asarray(phi, dtype=complex)
        if phi.shape != (self.n_cols,):
            raise PreconditionError("phi needs one coefficient per column")
        if not np.all(np.isfinite(phi)):
            raise PreconditionError("phi must be finite")
        return self.E @ (self.coef_weights * phi)

    def grid_norm(self, f):
        return l2(self.weights, f)


def _column_norms(w, M):
    """Weighted l2 norm of each column of M, each by grid.l2."""
    return np.array([l2(w, col) for col in M.T])


def _nonzero_norms(w, M):
    """_column_norms(w, M); a column that vanishes is refused by its index."""
    nrm = _column_norms(w, M)
    if not np.all(nrm):
        raise PreconditionError(
            f"column {int(np.argmin(nrm))} vanishes on the frame grid")
    return nrm


def _op_norm(w, R):
    """Largest singular value of W^(1/2) R: R's operator norm into weighted l2."""
    from scipy.linalg import svdvals
    return float(svdvals(np.sqrt(w)[:, None] * R)[0])


def unit_columns(vectors, w):
    """Columns v / ||v||_w of a matrix, one per sample vector."""
    if not vectors:
        raise PreconditionError("a frame needs at least one column")
    cols = np.column_stack(vectors).astype(complex, copy=False)
    return cols / _nonzero_norms(w, cols)


def build_frame(modes, x, weights=None):
    """Resample pseudomodes on a common grid and normalize the columns.

    Every mode is re-evaluated through its exact closure (no interpolation)
    and divided by its weighted norm on the target grid.  Duplicated or
    linearly dependent modes are fine; nothing here requires independence.
    """
    x = np.asarray(x, dtype=float)
    w = trapezoid_weights(x) if weights is None else np.asarray(weights, float)
    if weights is not None and (w.shape != x.shape or np.any(w <= 0.0)):
        raise PreconditionError("weights must be positive, one per node")
    return FrameMatrix(
        E=unit_columns([mode.evaluate(x) for mode in modes], w),
        lam=[mode.z for mode in modes], x=x, weights=w,
        provenance=[(m.kind, m.u, m.xi, m.h, m.n) for m in modes])


def _check_op(A, F):
    """A as a complex matrix, dense or scipy.sparse, sized to the frame grid."""
    import scipy.sparse as sp
    A = (A.astype(complex, copy=False) if sp.issparse(A)
         else np.asarray(A, dtype=complex))
    if A.shape != (F.E.shape[0], F.E.shape[0]):
        raise PreconditionError(
            f"operator is {A.shape}, frame grid has {F.E.shape[0]} nodes")
    return A


def defect(A, F):
    """epsilon = ||AE - E Lambda||, the one number feeding every bound.

    Largest singular value of W^(1/2)(AE - E diag(lam)): the Euclidean-to-
    weighted-l2 operator norm of the residual map.
    """
    A = _check_op(A, F)
    return _op_norm(F.weights, A @ F.E - F.E * F.lam[None, :])


def analytic_defect(cf, modes, x):
    """||L_h E - E Lambda|| with L_h applied through exact mode derivatives.

    The stencil-free twin of defect(): order fits of the defect against h
    live above stencil noise only on this path.  Columns are normalized as
    build_frame's unit_columns normalizes them, in the trapezoid weights of
    x, and a mode that vanishes on x is refused by its column index.
    """
    if not modes:
        raise PreconditionError("need at least one mode")
    x = np.asarray(x, dtype=float)
    w = trapezoid_weights(x)
    F, R = [], []
    for mode in modes:
        f, fp, fpp = mode.samples(x)
        F.append(f)
        R.append(lh(cf, mode.h, x, f, fp, fpp) - mode.z * f)
    return _op_norm(w, np.column_stack(R)
                    / _nonzero_norms(w, np.column_stack(F)))


def column_residual_max(A, F):
    """max_n ||A e_n - lam_n e_n||: the l1-synthesis defect.

    For coefficients measured in l1 this max *is* the operator norm of
    AE - E Lambda, since the extreme points of the unit ball are the basis
    vectors.
    """
    A = _check_op(A, F)
    R = A @ F.E - F.E * F.lam[None, :]
    return float(np.max(_column_norms(F.weights, R)))


def numerical_abscissa(A, weights):
    """gamma with ||exp(tA)|| <= exp(gamma t) in the weighted norm (M = 1).

    The top eigenvalue of the Hermitian part H of S = W^(1/2) A W^(-1/2).
    grid._band reads S, dense or sparse A, at A's own bandwidth, so H is a
    Hermitian band of width k = max(ku, kl): H[j-d, j] = (S[j-d, j] +
    conj S[j, j-d]) / 2.  eigvals_banded takes its top eigenvalue in O(m k)
    memory; LAPACK's reduction to tridiagonal form is O(m^2 k) in time.
    """
    from scipy.linalg import eigvals_banded
    B = _band(A, weights)
    S, ku, kl = B.data, int(B.offsets[0]), -int(B.offsets[-1])
    n, k = S.shape[1], max(ku, kl)
    H = np.zeros((k + 1, n), dtype=complex)
    H[k - ku:] = S[:ku + 1] / 2.0  # S[j-d, j]; _band zeroes it for j < d
    for d in range(kl + 1):
        H[k - d, d:] += S[ku + d, :n - d].conj() / 2.0
    return float(eigvals_banded(H, select="i", select_range=(n - 1, n - 1))[0])


def _semigroup_setup(A, F, M, gamma):
    """(A, defect) once A fits the frame and M >= 1, max Re(lam) <= gamma hold."""
    A = _check_op(A, F)
    if M < 1.0:
        raise PreconditionError("semigroup constant M must be >= 1")
    worst = float(np.max(F.lam.real))
    if worst > gamma + 1e-12 * max(1.0, abs(gamma)):
        raise PreconditionError(
            f"hypothesis Re(lam) <= gamma fails: max Re(lam) = {worst:.6g} "
            f"> gamma = {gamma:.6g}")
    return A, defect(A, F)


def semigroup_bound_check(A, F, M, gamma, t_list, eprime=None, strict=True):
    """Verify ||T_t E - E exp(Lambda t)|| <= eps t M exp(gamma t) per t.

    T_t E comes from expm_multiply on the frame columns (grid.propagate), so
    a sparse A stays sparse; a relative _SLACK covers the propagator's own
    error.  If eprime (a matrix with ||E - E'|| < eps) is given, the
    perturbed-frame variant <= eps (1 + M + tM) exp(gamma t) is checked too,
    in a row with variant 'eprime' after each t's row.
    Returns a list of report rows (t, lhs, bound, ratio), the ratio 0 where
    lhs and bound are both 0 (as at t = 0); with strict=True a violated row
    raises instead of being returned quietly.
    """
    A, eps = _semigroup_setup(A, F, M, gamma)
    if eprime is not None:
        eprime = np.asarray(eprime, dtype=complex)
        dist = _op_norm(F.weights, F.E - eprime)
        if dist >= eps and dist > 0.0:
            raise PreconditionError(
                f"||E - E'|| = {dist:.3e} is not below the defect {eps:.3e}")
    rows = []
    for t in t_list:
        if t < 0.0:
            raise PreconditionError("semigroup bound holds for t >= 0 only")
        grow = np.exp(F.lam * t)
        cases = [(F.E, eps * t * M, "semigroup", {})]
        if eprime is not None:
            cases.append((eprime, eps * (1.0 + M + t * M), "perturbed-frame",
                          {"variant": "eprime"}))
        for E, bound, what, variant in cases:
            lhs = _op_norm(F.weights, propagate(A, E, t) - E * grow[None, :])
            bound = bound * np.exp(gamma * t)
            ok = lhs <= bound * (1.0 + _SLACK) + 1e-14
            rows.append({"t": t, "lhs": lhs, "bound": bound,
                         "ratio": (lhs / bound if bound > 0.0
                                   else np.inf if lhs > 0.0 else 0.0),
                         "ok": ok, **variant})
            if strict and not ok:
                raise BoundViolationError(
                    f"{what} bound fails at t={t}: lhs={lhs:.6e} > "
                    f"bound={bound:.6e} (+{_SLACK:.0%})")
    return rows


def regularized_inverse(F, delta=1e-6):
    """F_delta = (E*E + delta I)^(-1) E* with the weighted adjoint.

    Computed through the SVD of W^(1/2)E as V s/(s^2+delta) U* W^(1/2): the
    forward error then scales with s_max/sqrt(delta) instead of the squared
    s_max^2/delta an explicit normal-equation solve would pay.  The proved
    norm bounds ||F_delta|| <= delta^(-1/2) and ||E F_delta|| <= 1 are
    re-verified on the result and a violation (beyond 1e-10 slack) raises.
    """
    from scipy.linalg import svd
    if not delta > 0.0:
        raise PreconditionError("regularization delta must be positive")
    m, n = F.E.shape
    sw = np.sqrt(F.weights)
    U, s, Vh = svd(sw[:, None] * F.E, full_matrices=False)
    # Gram eigenvalues are s^2 padded with zeros whenever columns outnumber rows
    top = s[0] ** 2 if s.size else 0.0
    bot = s[-1] ** 2 if (s.size and n <= m) else 0.0
    cond = (top + delta) / (bot + delta)
    if cond > COND_WARN:
        warnings.warn(
            f"(E*E + delta I) condition number {cond:.2e} exceeds "
            f"{COND_WARN:.0e}; results may be unreliable at this delta",
            stacklevel=2)
    Fd = (Vh.conj().T * (s / (s ** 2 + delta))) @ (U.conj().T * sw[None, :])
    nf, nef = frame_bounds(F, Fd)
    if nf > delta ** -0.5 * (1.0 + 1e-10):
        raise BoundViolationError(
            f"||F_delta|| = {nf:.6e} exceeds delta^(-1/2) = {delta ** -0.5:.6e}")
    if nef > 1.0 + 1e-10:
        raise BoundViolationError(f"||E F_delta|| = {nef:.6e} exceeds 1")
    return Fd


def frame_bounds(F, Fd):
    """(||Fd||, ||E Fd||) as weighted operator norms, Fd = F_delta.

    W^(1/2) E Fd W^(-1/2) = (Q1 R1)(Q2 R2)^H from the economic QRs of
    W^(1/2) E and (Fd W^(-1/2))^H, so its norm is that of R1 R2^H, which is
    min(m, N) square.  numpy's qr(mode="r") is economic (scipy's keeps m rows).
    """
    from scipy.linalg import svdvals
    G = Fd * (1.0 / np.sqrt(F.weights))[None, :]
    R1 = np.linalg.qr(np.sqrt(F.weights)[:, None] * F.E, mode="r")
    R2 = np.linalg.qr(G.conj().T, mode="r")
    return float(svdvals(G)[0]), float(svdvals(R1 @ R2.conj().T)[0])


def reconstruct(F, f, delta=1e-6):
    """(phi, ||f - E phi||) for phi = F_delta f.

    For f in the column span the error decreases monotonically along a
    shrinking delta ladder; for f orthogonal to every column E phi = 0 and
    the error equals ||f|| at every delta.
    """
    f = np.asarray(f, dtype=complex)
    phi = regularized_inverse(F, delta) @ f
    err = F.grid_norm(f - F.E @ phi)
    return phi, err


def evolve_approx(A, F, f, ref, phi, t, M, gamma):
    """Approximate T_t f by E exp(Lambda t) phi with an a-priori budget.

    The budget holds for any coefficients phi; cmd_evolve passes F_delta f
    from reconstruct, formed once per delta, and ref = T_t f from
    expm_multiply (grid.propagate), formed once per t.  Returns (state,
    true_err, budget): the true error ||state - ref|| must sit below
    ||f - E phi|| M exp(gamma t) + eps ||phi|| t M exp(gamma t)
    up to the relative _SLACK, or BoundViolationError is raised.
    """
    A, eps = _semigroup_setup(A, F, M, gamma)
    f = np.asarray(f, dtype=complex)
    recon = F.grid_norm(f - F.E @ phi)
    state = F.E @ (np.exp(F.lam * t) * phi)
    true_err = F.grid_norm(state - ref)
    budget = (recon * M * np.exp(gamma * t)
              + eps * float(np.linalg.norm(phi)) * t * M * np.exp(gamma * t))
    if true_err > budget * (1.0 + _SLACK) + 1e-14:
        raise BoundViolationError(
            f"evolution error {true_err:.6e} exceeds budget {budget:.6e} "
            f"(+{_SLACK:.0%}) at t={t}")
    return state, true_err, budget


def pseudospectrum_inclusion(A, F, eps):
    """Per-column report: is lam_n inside the eps-pseudospectrum of A?

    Rows are (lam, smin, eps, ok, converged) with smin the smallest singular
    value of W^(1/2) (A - lam I) W^(-1/2), from inverse iteration on the
    weighted band of A (grid._smin_cells); converged is its flag.  Nothing
    is asserted: with eps at or below the defect the inclusion theorem is
    silent and failures are legitimate data.
    """
    A = _check_op(A, F)
    smin, conv = _smin_cells(_band(A, F.weights), F.lam)
    return [{"lam": lam, "smin": float(s), "eps": eps, "ok": bool(s < eps),
             "converged": bool(c)} for lam, s, c in zip(F.lam, smin, conv)]


def quantize(F, f_vals):
    """Q(f) = E diag(f) E*: the POV-measure quantization of grid symbol values."""
    f_vals = np.asarray(f_vals)
    if f_vals.shape != (F.n_cols,):
        raise PreconditionError("need one value per frame column")
    return F.E @ (f_vals[:, None] * F.adjoint())


def quantize_regularized(F, f_vals, delta=1e-6):
    """S_delta(f) = E diag(f) F_delta, the compromise for E M_f E^(-1)."""
    f_vals = np.asarray(f_vals)
    if f_vals.shape != (F.n_cols,):
        raise PreconditionError("need one value per frame column")
    return F.E @ (f_vals[:, None] * regularized_inverse(F, delta))


def positivity_floor(F, f_vals):
    """Smallest eigenvalue of Q(f) in the weighted inner product.

    Q(f) is similar to the manifestly Hermitian B diag(f) B^H with
    B = W^(1/2) E, so for real f >= 0 the floor is 0 up to roundoff.
    """
    from scipy.linalg import eigvalsh
    f_vals = np.asarray(f_vals)
    if np.iscomplexobj(f_vals) and np.any(np.abs(f_vals.imag) > 0.0):
        raise PreconditionError("positivity is only meaningful for real values")
    B = np.sqrt(F.weights)[:, None] * F.E
    H = B @ (f_vals.real[:, None] * B.conj().T)
    H = (H + H.conj().T) / 2.0
    return float(eigvalsh(H)[0])


def homomorphism_defect(F, f_vals, g_vals, delta=1e-6):
    """||S_delta(fg) - S_delta(f) S_delta(g)|| in the weighted norm.

    The exact E M_f E^(-1) would be multiplicative; this records how far the
    regularized compromise is from that, for whoever wants to tune delta.
    """
    f_vals = np.asarray(f_vals)
    g_vals = np.asarray(g_vals)
    D = (quantize_regularized(F, f_vals * g_vals, delta)
         - quantize_regularized(F, f_vals, delta)
         @ quantize_regularized(F, g_vals, delta))
    return _op_norm(F.weights, D / np.sqrt(F.weights)[None, :])
