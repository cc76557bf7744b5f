"""Phase-space transforms: kernel frames, adjoints, distorted norms, orthogonality."""

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.fft import next_fast_len

import pseudomode as pm
from pseudomode import fbi
from pseudomode.fbi import (DistortedFBI, asymptotic_orthogonality,
                            boundedness_profile, fftconvolve, g_limit,
                            g_profile, gaussian_kernel_compare,
                            gaussian_overlap, generalized_kappa_check,
                            near_isometry_probe, orthogonality_decay,
                            phase_space_grid, scaled_distorted_grids,
                            transform_frame)
from pseudomode.frame import FrameMatrix, _column_norms
from pseudomode.grid import trapezoid_weights


def small_setup(airy, h=2.0 ** -5):
    x = np.linspace(-0.9, 0.9, 601)
    points, weights = phase_space_grid(airy, (-0.3, 0.3), (-1.3, -0.7), 3, 3)
    return transform_frame(airy, "jwkb", h, x, points, weights)


def test_grid_validation(airy):
    x = np.linspace(-1.0, 1.0, 201)
    with pytest.raises(pm.PreconditionError):
        transform_frame(airy, "gaussian", 0.1, x, [[0.0, -1.0]], [1.0, 2.0])
    with pytest.raises(pm.PreconditionError):
        transform_frame(airy, "gaussian", 0.1, x, [[0.0, -1.0]], [0.0])
    with pytest.raises(pm.PreconditionError):
        phase_space_grid(airy, (-0.3, 0.3), (0.5, 1.5), 3, 3)  # outside Omega
    points, weights = phase_space_grid(airy, (-0.3, 0.3), (-1.5, 1.5), 4, 8)
    assert np.all(points[:, 1] < 0.0)   # clip keeps the admissible half
    assert weights.shape == (points.shape[0],)


def test_phase_space_grid_clip_matches_pointwise(davies):
    # Omega = {u xi < 0}: the rectangle straddles both of its edges, and the
    # u = 0 and xi = 0 grid lines sit exactly on them
    us, xis = np.linspace(-0.8, 0.6, 15), np.linspace(-1.2, 0.9, 22)
    points, weights = phase_space_grid(davies, (-0.8, 0.6), (-1.2, 0.9), 15, 22)
    full = np.array([(u, xi) for u in us for xi in xis])
    wfull = np.outer(trapezoid_weights(us), trapezoid_weights(xis)).ravel()
    keep = np.array([pm.in_omega(davies, u, xi) for u, xi in full])
    assert 0 < keep.sum() < keep.size
    np.testing.assert_array_equal(points, full[keep])
    np.testing.assert_array_equal(weights, wfull[keep])


def test_kernel_columns_unit_norm(airy):
    F = small_setup(airy)
    nrm = np.sqrt(F.weights @ np.abs(F.E) ** 2)
    assert np.max(np.abs(nrm - 1.0)) < 1e-12
    assert [p[0] for p in F.provenance] == ["jwkb"] * F.n_cols
    x = np.linspace(-1, 1, 201)
    with pytest.raises(pm.PreconditionError):
        transform_frame(airy, "spline", 0.1, x, [[0.0, -1.0]], [1.0])
    with pytest.raises(pm.PreconditionError):
        transform_frame(airy, "gaussian", 0.1, x, [[0.0, 1.0]], [1.0])  # expanding twist


def test_synthesize_indicator_and_zero(airy):
    F = small_setup(airy)
    phi = np.zeros(F.n_cols)
    assert np.all(F.synthesize(phi) == 0.0)
    phi[2] = 1.0
    _, u, xi, h, _ = F.provenance[2]
    col = transform_frame(airy, "jwkb", h, F.x, [[u, xi]], [1.0]).E[:, 0]
    want = F.coef_weights[2] * col
    np.testing.assert_allclose(F.synthesize(phi), want, atol=1e-15)
    with pytest.raises(pm.PreconditionError):
        F.synthesize(np.zeros(F.n_cols + 1))
    bad = np.zeros(F.n_cols)
    bad[0] = np.inf
    with pytest.raises(pm.PreconditionError):
        F.synthesize(bad)


def adjoint_gap(F, seed):
    """<E W_c phi, f>_x - <phi, E* f>_(W_c) for random phi and f."""
    rng = np.random.default_rng(seed)
    phi = rng.standard_normal(F.n_cols) + 1j * rng.standard_normal(F.n_cols)
    f = rng.standard_normal(F.x.size) + 1j * rng.standard_normal(F.x.size)
    lhs = np.sum(F.weights * np.conj(F.synthesize(phi)) * f)
    rhs = np.sum(F.coef_weights * np.conj(phi) * (F.adjoint() @ f))
    return abs(lhs - rhs) / max(abs(lhs), 1.0)


def test_analyze_is_adjoint_of_synthesize(airy):
    assert adjoint_gap(small_setup(airy), 7) < 1e-12


def test_adjoint_with_nonunit_coef_weights(airy):
    F = small_setup(airy)
    rng = np.random.default_rng(11)
    G = FrameMatrix(E=F.E, lam=F.lam, x=F.x, weights=F.weights,
                    coef_weights=rng.uniform(0.1, 3.0, F.n_cols))
    assert adjoint_gap(G, 7) < 1e-12
    # scaled() is the same map between the plain 2-norms
    phi = rng.standard_normal(G.n_cols) + 1j * rng.standard_normal(G.n_cols)
    got = np.linalg.norm(G.scaled() @ (np.sqrt(G.coef_weights) * phi))
    assert abs(got - G.grid_norm(G.synthesize(phi))) < 1e-12 * got
    with pytest.raises(pm.PreconditionError):
        FrameMatrix(E=F.E, lam=F.lam, x=F.x, weights=F.weights,
                    coef_weights=-np.ones(F.n_cols))


def test_analyze_kills_orthogonal_input(airy):
    F = small_setup(airy)
    col = F.E[:, 0]
    rng = np.random.default_rng(3)
    f = rng.standard_normal(F.x.size) + 0j
    f -= col * np.sum(F.weights * np.conj(col) * f)   # project out the column
    assert abs((F.adjoint() @ f)[0]) < 1e-12 * np.linalg.norm(f)


def test_l2_norm_probe_finite(airy):
    v = np.linalg.svd(small_setup(airy).scaled(), compute_uv=False)[0]
    assert np.isfinite(v) and v > 0.0


def test_fftconvolve_matches_scipy_signal_bitwise():
    from scipy.signal import fftconvolve as oracle
    rng = np.random.default_rng(5)
    sizes = [(2, 2), (2, 97), (97, 2), (128, 128), (1000, 513)]
    sizes += [tuple(rng.integers(2, 700, size=2)) for _ in range(40)]
    for na, nb in sizes:
        a = rng.standard_normal(na) + 1j * rng.standard_normal(na)
        b = rng.standard_normal(nb) + 1j * rng.standard_normal(nb)
        np.testing.assert_array_equal(fftconvolve(a, b), oracle(a, b))


def test_gaussian_overlap_closed_form(airy):
    h = 2.0 ** -6
    for d in (0.1, 0.3, 0.6):
        got = gaussian_overlap(airy, (0.0, -1.0), (d, -1.0), h)
        k = pm.twist_curvature(airy, 0.0, -1.0)      # -1/2
        want = np.exp(-d * d * abs(k) ** 2 / (4.0 * abs(k.real) * h))
        assert abs(got - want) <= 1e-12 * max(want, 1e-30) + 1e-15
    with pytest.raises(pm.PreconditionError):
        gaussian_overlap(airy, (0.0, 1.0), (0.3, 1.0), h)


def test_asymptotic_orthogonality_requires_disjoint_u(airy):
    F = small_setup(airy)
    with pytest.raises(pm.PreconditionError):
        asymptotic_orthogonality(F, F)
    # disjoint, but on two x grids, or with no u to read
    x = np.linspace(-1.5, 1.5, 301)
    FU = transform_frame(airy, "gaussian", 0.1, x, [[-0.5, -1.0]], [1.0])
    FV = transform_frame(airy, "gaussian", 0.1, x[1:], [[0.5, -1.0]], [1.0])
    with pytest.raises(pm.PreconditionError):
        asymptotic_orthogonality(FU, FV)
    bare = FrameMatrix(E=FU.E, lam=FU.lam, x=FU.x, weights=FU.weights)
    with pytest.raises(pm.PreconditionError):
        asymptotic_orthogonality(bare, FU)


def test_orthogonality_decay_decreasing(airy):
    vals = orthogonality_decay(airy, [2.0 ** -4, 2.0 ** -5, 2.0 ** -6])
    assert vals[0] > vals[1] > vals[2] > 0.0


def test_kernel_compare_single_point_rate(airy):
    hs = [2.0 ** -7, 2.0 ** -8, 2.0 ** -9, 2.0 ** -10]
    ds = [gaussian_kernel_compare(airy, [[0.0, -1.0]], h, K=64)
          for h in hs]
    slope, _, _ = pm.order_fit(hs, ds)
    assert 0.35 <= slope <= 0.65                     # the h^(1/2) comparison


def test_kernel_compare_rectangle_decreasing(airy):
    points, _ = phase_space_grid(airy, (-0.5, 0.5), (-1.5, -0.5), 3, 3)
    sups = [gaussian_kernel_compare(airy, points, h)
            for h in (2.0 ** -5, 2.0 ** -7, 2.0 ** -9)]
    assert sups[0] > sups[1] > sups[2] > 0.0


def test_distorted_fbi_validation():
    x = np.linspace(-1.0, 1.0, 65)
    with pytest.raises(pm.PreconditionError):
        DistortedFBI(-1.0 + 0.2j, 0.1, x[:9], np.linspace(0.1, 1.0, 5), x)
    with pytest.raises(pm.PreconditionError):
        DistortedFBI(1.0, 0.1, x[:9], np.linspace(-0.5, 1.0, 5), x)
    with pytest.raises(pm.PreconditionError):
        DistortedFBI(1.0, -0.1, x[:9], np.linspace(0.1, 1.0, 5), x)


@pytest.mark.parametrize("u, x, why", [
    (np.linspace(-0.5, 0.5, 21) + 0.01, np.linspace(-1.0, 1.0, 41),
     "run of the x grid"),                                # u off the x lattice
    (np.linspace(-0.5, 0.0, 6),
     np.r_[np.linspace(-1.0, 0.0, 11), np.linspace(0.05, 1.0, 20)],
     "uniform"),                                          # non-uniform x
    (np.array([0.0]), np.linspace(-1.0, 1.0, 41), "at least"),   # one-point u
    (np.linspace(-0.5, 0.5, 5), np.linspace(-0.75, 0.75, 7), "at least"),
])
def test_distorted_fbi_refuses_grids_the_table_cannot_serve(u, x, why):
    # no dense fallback: a grid the kernel table cannot serve is refused
    with pytest.raises(pm.PreconditionError, match=why):
        DistortedFBI(1.0 + 0.3j, 0.1, u, np.linspace(0.1, 1.0, 5), x)


def column_norm_deviation(T):
    """Max relative deviation of up to 64 seeded column norms of T from 1.

    The sample is restricted to xi >= max(xi)/4: the x-grid resolves the
    Gaussian width sqrt(h xi) only above some xi, and the unresolvable
    low-xi columns are normalized by the closed form anyway.
    """
    rng = np.random.default_rng(0)
    xis = T.xi[T.xi >= 0.25 * T.xi.max()]
    total = T.u.size * xis.size
    j = rng.choice(total, size=min(64, total), replace=False)
    cols = fbi._kernel(T.kappa, T.h, xis[j % xis.size],
                       T.x[:, None] - T.u[j // xis.size])
    return float(np.max(np.abs(_column_norms(T.wx, cols) - 1.0)))


#: most entries dense_map builds (640 MB of complex)
MAX_DENSE = 40_000_000


def dense_map(T):
    """T's S densely: diag(sqrt(wx)) K diag(h^(-1/2) sqrt(w_u w_xi)).

    Its plain 2-norm is the operator norm of T's map.
    """
    assert T.x.size * T.u.size * T.xi.size <= MAX_DENSE
    cols = np.empty((T.x.size, T.u.size, T.xi.size), dtype=complex)
    for i, u in enumerate(T.u):  # one u at a time bounds the temporaries
        cols[:, i] = fbi._kernel(T.kappa, T.h, T.xi, (T.x - u)[:, None])
    cols *= np.sqrt(T.wx)[:, None, None]
    cols *= T.h ** -0.5 * np.sqrt(
        np.outer(trapezoid_weights(T.u), trapezoid_weights(T.xi)))
    return cols.reshape(T.x.size, T.u.size * T.xi.size)


def test_distorted_column_norms_match_closed_form():
    kappa = 1.0 + 0.3j
    u, xi, x = scaled_distorted_grids(kappa, 1e-2)
    T = DistortedFBI(kappa, 1e-2, u, xi, x)
    # x-grid resolves the Gaussian widths above a fixed fraction of xi_max
    assert column_norm_deviation(T) < 1e-8


def assert_gram_matches_dense(T, S, f):
    ref = S @ (S.conj().T @ f)
    assert np.max(np.abs(gram(T, f) - ref)) <= 1e-13 * np.max(np.abs(ref))


def gram(T, f):
    """S S^H f: T._correlate's rows windowed, then convolved back with the table."""
    rows = T._correlate(f)
    rows *= T._window
    rows = np.fft.fft(rows, axis=-1, out=rows)
    rows *= T._table
    total = rows.sum(axis=0)
    return np.sqrt(T.wx) * np.fft.ifft(total, out=total)[:T.x.size]


def lanczos_norm(T):
    """The oracle for T's norm bracket: a seeded ARPACK solve on T's Gram apply."""
    nx = T.x.size
    rng = np.random.default_rng(1234)
    v0 = rng.standard_normal(nx) + 1j * rng.standard_normal(nx)
    # with a dtype, scipy's aslinearoperator (perfbench's matvec counter)
    # needs no probe matvec to find one
    op = SimpleNamespace(shape=(nx, nx), dtype=np.dtype(complex),
                         matvec=lambda f: gram(T, f))
    return float(np.sqrt(max(fbi.eigsh(op, v0), 0.0)))


def assert_dense_norm(T, S, tol):
    """The oracle meets the dense top singular value; the bracket holds it."""
    top = np.linalg.svd(S, compute_uv=False)[0]
    assert abs(lanczos_norm(T) - top) <= tol * top
    assert T.norm_lower() <= top * (1.0 + 1e-13)
    assert top <= T.norm() * (1.0 + 1e-13)


def test_distorted_applies_match_dense_before_norm():
    kappa, h = 1.0 + 0.3j, 1e-2
    u, xi, x = scaled_distorted_grids(kappa, h, nxi=12, osc=2.0, ppw=6.0)
    T = DistortedFBI(kappa, h, u, xi, x)
    S = dense_map(T)
    # the broadcast dense_map() against a column-by-column reference
    wu, wxi = trapezoid_weights(u), trapezoid_weights(xi)
    ref = np.column_stack([np.sqrt(T.wx) * fbi._kernel(kappa, h, xx, x - uu)
                           * h ** -0.5 * np.sqrt(wu[i] * wxi[l])
                           for i, uu in enumerate(u) for l, xx in enumerate(xi)])
    np.testing.assert_allclose(S, ref, rtol=1e-13, atol=0.0)
    rng = np.random.default_rng(2)
    f = rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size)
    assert_gram_matches_dense(T, S, f)
    assert_dense_norm(T, S, 1e-12)


@pytest.mark.parametrize("h, nx, cut", [
    (0.5, 40, (0, None)),     # u is the whole x grid: i0 = 0, nu = nx
    (0.5, 40, (25, None)),    # u flush with the right end of x
    (0.5, 40, (3, 17)),
    (0.9, 12, (0, None)),     # kernels far wider than the grid
    (0.9, 12, (5, None)),
])
def test_distorted_applies_match_dense_where_the_table_could_wrap(h, nx, cut):
    # the kernel tails reach past both ends of x, so a circular embedding
    # that is too short would fold them back onto the grid
    kappa = 1.0 + 0.3j
    x = np.linspace(-1.0, 1.0, nx)
    T = DistortedFBI(kappa, h, x[slice(*cut)], np.linspace(0.2, 2.0, 7), x)
    # taps past nx - 1 never reach the grid, so the table stores none
    assert T._table.shape[1] == next_fast_len(2 * nx - 1)
    S = dense_map(T)
    rng = np.random.default_rng(4)
    f = rng.standard_normal(nx) + 1j * rng.standard_normal(nx)
    assert_gram_matches_dense(T, S, f)
    assert_dense_norm(T, S, 1e-12)


def scaled_dense_case(kappa):
    """The scaled grids at nxi = 32, small enough for a dense S."""
    h = 1e-2
    u, xi, x = scaled_distorted_grids(kappa, h, nxi=32, osc=2.0, ppw=6.0)
    return DistortedFBI(kappa, h, u, xi, x)


@pytest.mark.parametrize("kappa", [1.0 + 0.3j, 0.5 + 0.5j, 2.0 + 1.0j])
def test_gram_norm_matches_the_dense_map(kappa):
    T = scaled_dense_case(kappa)
    S = dense_map(T)
    rng = np.random.default_rng(6)
    f = rng.standard_normal(T.x.size) + 1j * rng.standard_normal(T.x.size)
    assert_gram_matches_dense(T, S, f)
    assert_dense_norm(T, S, 1e-13)


def small_distorted(cut=(0, None)):
    x = np.linspace(-1.0, 1.0, 40)
    return DistortedFBI(1.0 + 0.3j, 0.5, x[slice(*cut)],
                        np.linspace(0.2, 2.0, 7), x)


@pytest.mark.parametrize("make", [
    small_distorted,                              # u is the whole x grid
    lambda: small_distorted(cut=(3, 17)),         # u a run inside x
    lambda: scaled_dense_case(1.0 + 0.3j),
], ids=["small", "u-run", "scaled"])
def test_correlate_rows_are_the_dense_analysis(make):
    # one table row per xi node: row l at column i0 + i, times
    # sqrt(window) = sqrt(w_u/h), is the (u_i, xi_l) entry of S^H f
    T = make()
    assert T._table.shape[0] == T.xi.size
    rng = np.random.default_rng(8)
    f = rng.standard_normal(T.x.size) + 1j * rng.standard_normal(T.x.size)
    ref = (dense_map(T).conj().T @ f).reshape(T.u.size, T.xi.size)
    run = slice(T._i0, T._i0 + T.u.size)
    got = T._correlate(f)[:, run] * np.sqrt(T._window[run])
    assert np.max(np.abs(got.T - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("kappa, nxi", [
    (1.0 + 0.3j, 128),                                   # test_10's grids
    (0.9 - 0.3j, 64), (1.0 + 0.1j, 64), (1.1 + 0.3j, 64),  # the fbi workload's
])
def test_bracket_holds_the_lanczos_norm_within_1e3(kappa, nxi):
    T = DistortedFBI(kappa, 1e-2, *scaled_distorted_grids(kappa, 1e-2, nxi=nxi))
    lower, upper = T.norm_lower(), T.norm()
    oracle = lanczos_norm(T)
    assert lower <= oracle * (1.0 + 1e-13) and oracle <= upper * (1.0 + 1e-13)
    assert (upper - lower) / lower < 1e-3


@pytest.mark.parametrize("kappa", [1.0 + 0.3j, 0.5 + 0.5j, 2.0 + 1.0j])
def test_symbol_is_the_boundedness_profile_at_c6_re_kappa(kappa):
    # the Gaussian kernels' Fourier transforms give, at x-frequency
    # s = theta/dx, sigma dx^2/h = 2 sqrt(pi Re kappa) F(h, s) with
    # c6 = Re kappa, once the xi window holds the profile's mass
    h = 1e-2
    T = DistortedFBI(kappa, h, *scaled_distorted_grids(kappa, h, eta_max=6.0,
                                                       nxi=181))
    sigma = np.sum(np.abs(T._table) ** 2, axis=0)
    dx = T.x[1] - T.x[0]
    s = 2.0 * np.pi * np.arange(sigma.size) / (sigma.size * dx)
    ks = np.flatnonzero((0.25 < s * h ** (2 / 3)) & (s * h ** (2 / 3) < 3.0))
    assert ks.size > 50
    ratio = [sigma[k] * dx ** 2 / h / boundedness_profile(kappa.real, h, s[k])
             for k in ks]
    want = 2.0 * np.sqrt(np.pi * kappa.real)
    assert np.max(np.abs(np.array(ratio) - want)) <= 1e-3 * want


def test_norm_meets_the_kappa_free_sharp_constant():
    # G(t; c) = c^(-1/2) G(ct; 1), so once the xi window holds the profile's
    # mass, ||S||^2 -> 2 sqrt(pi) sup_t G(t; 1) whatever kappa is; the sup
    # is read from a 20-digit quadrature of G(t; 1)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(20):
        def G(t):
            t = mpmath.mpf(t)
            turn = t ** (-mpmath.mpf(1) / 3)
            return mpmath.quad(
                lambda eta: (mpmath.sqrt(eta * t)
                             * mpmath.exp(-(eta - 1) ** 2 * eta * t)),
                [0, 1, 1 + turn, 4 * (1 + turn), mpmath.inf])
        t_star = 10.50027
        top = G(t_star)
        assert top > G(t_star - 0.01) and top > G(t_star + 0.01)
        assert abs(top - mpmath.mpf("1.95745805")) <= 1e-8
        sharp = float(mpmath.sqrt(2 * mpmath.sqrt(mpmath.pi) * top))
    assert abs(sharp - 2.63419971) <= 1e-8
    h = 1e-2
    for kappa in (1.0 + 0.3j, 0.5 + 0.5j, 2.0 + 1.0j):
        T = DistortedFBI(kappa, h, *scaled_distorted_grids(kappa, h, eta_max=6.0,
                                                           nxi=181))
        assert abs(T.norm() - sharp) <= 2e-5 * sharp, kappa
        assert T.norm_lower() <= sharp, kappa


def test_norm_makes_one_lanczos_solve_of_gram_applies(monkeypatch):
    # perfbench's matvec counter wraps fbi.eigsh by its module-level name and
    # hands on aslinearoperator(A) with a counting matvec, as done here
    from scipy.sparse.linalg import LinearOperator, aslinearoperator
    T = small_distorted()
    nx = T.x.size
    real_eigsh = fbi.eigsh
    calls = []

    def counting_eigsh(A, *args, **kwargs):
        op = aslinearoperator(A)
        assert op.shape == (nx, nx)
        calls.append(0)

        def checked(f):
            out = op.matvec(f)
            assert np.array_equal(out, gram(T, f))
            calls[-1] += 1
            return out
        return real_eigsh(LinearOperator(op.shape, matvec=checked,
                                         dtype=op.dtype), *args, **kwargs)

    monkeypatch.setattr(fbi, "eigsh", counting_eigsh)
    first = lanczos_norm(T)
    assert len(calls) == 1 and calls[0] > 0
    # the bracket makes no solve
    assert T.norm_lower() <= first <= T.norm()
    assert len(calls) == 1
    # a fresh transform solves again, to the same count and the same value
    assert lanczos_norm(small_distorted()) == first
    assert len(calls) == 2 and calls[1] == calls[0]


def test_norm_raises_convergence_error_for_a_failed_solve(monkeypatch):
    T = small_distorted()
    # a NaN from the Gram apply ends the solve: ARPACK's error comes out as
    # ConvergenceError, and it is never written as a norm (max(nan, 0.0) is nan)
    monkeypatch.setattr(T, "_correlate", lambda f: np.full_like(T._table, np.nan))
    with pytest.raises(pm.ConvergenceError, match="ARPACK"):
        lanczos_norm(T)
    # a raised solve leaves nothing behind: with the real Gram apply back,
    # the next solve gives a finite norm
    monkeypatch.undo()
    assert math.isfinite(lanczos_norm(T))


def test_bracket_refuses_a_non_finite_symbol_or_quotient(monkeypatch):
    T = small_distorted()
    monkeypatch.setattr(T, "_correlate", lambda f: np.full_like(T._table, np.nan))
    with pytest.raises(pm.ConvergenceError, match="quotient is nan"):
        T.norm_lower()
    assert math.isfinite(T.norm())   # the upper end reads no correlation
    monkeypatch.undo()
    # sigma is kept from the first ask, so the bad table goes to a new transform
    T = small_distorted()
    T._table[0, 3] = np.nan
    for end in (T.norm, T.norm_lower, T.norm):   # a bad sigma is never kept
        with pytest.raises(pm.ConvergenceError, match="symbol is not finite"):
            end()


def test_bracket_sums_the_symbol_once():
    # norm() per h and norm_lower() read one sigma, summed at the first ask
    T = small_distorted()
    assert "_sigma" not in vars(T)
    upper = T.norm()
    sigma = vars(T)["_sigma"]
    lower = T.norm_lower()
    assert vars(T)["_sigma"] is sigma and lower <= upper
    T._table = None   # a later upper end reads the kept sigma, not the table
    assert T.norm() == upper


def test_eigsh_matches_a_dense_eigensolve():
    # a Hermitian matrix whose top eigenvalues cluster within 0.5%, as the
    # distorted Gram's do, and an operator with only .shape and .matvec
    rng = np.random.default_rng(3)
    n = 300
    Q, _ = np.linalg.qr(rng.standard_normal((n, n))
                        + 1j * rng.standard_normal((n, n)))
    lam = np.r_[2.0, 1.999, 1.995, 1.99, rng.uniform(0.0, 1.9, n - 4)]
    M = (Q * lam) @ Q.conj().T
    op = SimpleNamespace(shape=M.shape, matvec=lambda v: M @ v)
    v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    top = np.linalg.eigvalsh(M)[-1]
    assert abs(fbi.eigsh(op, v0) - top) <= 1e-13 * top
    # a small matrix converges within its dimension
    small = SimpleNamespace(shape=(6, 6), matvec=lambda v: M[:6, :6] @ v)
    top6 = np.linalg.eigvalsh(M[:6, :6])[-1]
    assert abs(fbi.eigsh(small, v0[:6]) - top6) <= 1e-13 * abs(top6)
    # a real symmetric operator with no dtype: probed with a real vector it
    # would look real, and ARPACK would drop v0's imaginary part with a
    # ComplexWarning; eigsh declares the operator complex
    R = (M + M.conj()).real / 2.0
    real = SimpleNamespace(shape=R.shape, matvec=lambda v: R @ v)
    topr = np.linalg.eigvalsh(R)[-1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert abs(fbi.eigsh(real, v0) - topr) <= 1e-13 * abs(topr)


def test_eigsh_refuses_an_operator_below_dimension_3(monkeypatch):
    # scipy would leave ARPACK for a dense eig, which a matvec cannot feed
    import scipy.sparse.linalg

    def arpack(*args, **kwargs):
        raise AssertionError("ARPACK was called")
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", arpack)
    op = SimpleNamespace(shape=(2, 2), matvec=lambda v: np.array([2.0, 1.0]) * v)
    with pytest.raises(pm.PreconditionError, match="at least 3, not 2"):
        fbi.eigsh(op, np.ones(2, dtype=complex))


def test_fast_len_is_scipys_complex_next_fast_len():
    assert [fbi._fast_len(n) for n in range(1, 5001)] == [
        next_fast_len(n, False) for n in range(1, 5001)]


def test_distorted_norm_scale_covariance():
    kappa = 1.0 + 0.3j
    # Lanczos norms pinned when every Gram apply ran one FFT row per xi
    # node, and the bracket ends (upper, lower) pinned when they came in
    pinned = {1e-1: (2.6190650566161886, 2.6198222270501503, 2.6187904530532364),
              1e-2: (2.61906505661629, 2.619822227050151, 2.618790453053336),
              1e-3: (2.6190650566164573, 2.6198222270503164, 2.6187904530535)}
    vals = []
    for h, want in pinned.items():
        u, xi, x = scaled_distorted_grids(kappa, h)
        T = DistortedFBI(kappa, h, u, xi, x)
        vals.append(lanczos_norm(T))
        for got, ref in zip((vals[-1], T.norm(), T.norm_lower()), want):
            assert abs(got - ref) <= 1e-12 * ref
    assert abs(vals[1] - vals[2]) <= 1e-10 * vals[1]


@pytest.mark.parametrize("kappa", [1.0 + 0.3j, 0.5 + 0.5j, 2.0 + 1.0j])
def test_distorted_transform_is_one_matrix_at_every_h(kappa):
    # x = h^(2/3) y, u = h^(2/3) v, xi = h^(1/3) eta: the scaled grids, and so
    # the transform built on them, are the same at every h up to rounding
    scaled = []
    for h in np.logspace(-6, 0):
        u, xi, x = scaled_distorted_grids(kappa, h, nxi=64)
        scaled.append((u * h ** (-2 / 3), x * h ** (-2 / 3), xi * h ** (-1 / 3),
                       DistortedFBI(kappa, h, u, xi, x)._table.shape))
    v0, y0, eta0, shape0 = scaled[0]
    for v, y, eta, shape in scaled[1:]:
        assert v.size == v0.size and y.size == y0.size and shape == shape0
        np.testing.assert_allclose(v, v0, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(y, y0, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(eta, eta0, rtol=1e-14, atol=0.0)
    transforms = [DistortedFBI(kappa, h, *scaled_distorted_grids(kappa, h, nxi=64))
                  for h in (1.0, 1e-1, 1e-3, 1e-5)]
    for end in (DistortedFBI.norm, DistortedFBI.norm_lower):
        norms = [end(T) for T in transforms]
        assert max(norms) - min(norms) <= 1e-12 * min(norms)


def test_kernel_table_ceiling_refuses_before_sampling(monkeypatch):
    def sampled(*args):
        raise AssertionError("a kernel was sampled before the size check")
    monkeypatch.setattr(fbi, "_kernel", sampled)
    # the probe's grid grows like h^(-2/3): about 2e5 points at h = 1e-6
    with pytest.raises(pm.PreconditionError, match="kernel table"):
        near_isometry_probe(1.0 + 0.3j, 1e-6)
    x = np.linspace(-1.0, 1.0, 200_001)
    with pytest.raises(pm.PreconditionError, match="kernel table"):
        DistortedFBI(1.0, 0.1, x[:9], np.linspace(0.1, 1.0, 64), x)
    # a huge |kappa| makes the kernels, and so the padded x grid, too wide
    with pytest.raises(pm.PreconditionError, match="kernel table"):
        scaled_distorted_grids(1e300, 0.1)


@pytest.mark.parametrize("kappa, h", [
    (1e-300 + 1e300j, 0.1),   # Re(1/kappa) underflows to 0
    (5e-324 + 1.0j, 0.1),     # Re(1/kappa) is subnormal
    (1.0 + 0.3j, 5e-324),     # h^-2 overflows
])
def test_distorted_entries_refuse_degenerate_parameters(kappa, h):
    for call in (lambda: scaled_distorted_grids(kappa, h),
                 lambda: near_isometry_probe(kappa, h),
                 lambda: DistortedFBI(kappa, h, [0.0, 0.1], [1.0], [0.0, 0.1])):
        with pytest.raises(pm.PreconditionError):
            call()


def test_profile_identity_and_limit():
    c6 = 1.0
    # F(h, s) = G(h^2 s^3) for s > 0 (substitution xi = h s eta)
    for h, s in ((0.1, 2.0), (0.02, 5.0), (0.1, 2e-5)):
        assert abs(boundedness_profile(c6, h, s)
                   - g_profile(c6, h * h * s ** 3)) < 1e-13
    # s = 0 collapses to the t -> 0 limit exactly
    assert abs(boundedness_profile(c6, 0.05, 0.0) - g_limit(c6)) < 1e-13
    assert abs(g_limit(c6) - np.sqrt(np.pi) / 3.0) < 1e-15
    # negative s only lowers the profile
    f0 = boundedness_profile(c6, 0.05, 0.0)
    for s in (-1.0, -5.0):
        assert boundedness_profile(c6, 0.05, s) <= f0
    # small-t profile approaches the limit
    assert abs(g_profile(c6, 1e-7) - g_limit(c6)) < 0.01 * g_limit(c6)
    with pytest.raises(pm.PreconditionError):
        boundedness_profile(-1.0, 0.1, 0.0)
    # t = 0, as an underflowing h^2 s^3 gives, is the limit; t < 0 is refused
    assert g_profile(c6, 0.0) == g_limit(c6)
    with pytest.raises(pm.PreconditionError):
        g_profile(c6, -1e-300)
    # quad hands the integrand Python floats, whose ** raises OverflowError
    # once xi / h passes 1e154
    with pytest.raises(pm.ConvergenceError, match="overflows"):
        boundedness_profile(c6, 1e-300, 0.0)


@pytest.mark.parametrize("c6", [0.5, 1.0, 2.0])
def test_profile_at_small_t_meets_its_limit_expansion(c6):
    # under y = eta t^(1/3), G(t) = G(0+) (1 + 2 Gamma(7/6)/sqrt(pi) (c6 t)^(1/3)
    # + O((c6 t)^(2/3))): the relative term is 2.3e-11 at c6 t = 1e-32 and
    # under eps/2 from c6 t = 1e-48 on, where G is the limit itself
    limit = g_limit(c6)
    t = 1e-32 / c6
    want = 2.0 * math.gamma(7.0 / 6.0) / math.sqrt(math.pi) * 1e-32 ** (1.0 / 3.0)
    h = 0.1
    s = (t / h ** 2) ** (1.0 / 3.0)
    for got in (g_profile(c6, t), boundedness_profile(c6, h, s)):
        assert abs((got - limit) / limit - want) <= 1e-15
    t = 1e-50 / c6
    assert g_profile(c6, t) == limit
    assert boundedness_profile(c6, h, (t / h ** 2) ** (1.0 / 3.0)) == limit


def test_g_profile_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    # an independent 30-digit tanh-sinh quadrature, split at eta = 1 and
    # where exp(-c6 t eta^3) turns over
    with mpmath.workdps(30):
        for c6 in (0.3, 1.0):
            for t in np.logspace(-16, 2, 10):
                ct = mpmath.mpf(c6) * mpmath.mpf(t)
                turn = ct ** (-mpmath.mpf(1) / 3)
                ref = mpmath.quad(
                    lambda eta: (mpmath.sqrt(eta * t)
                                 * mpmath.exp(-ct * (eta - 1) ** 2 * eta)),
                    [0, 1, 1 + turn, 4 * (1 + turn), mpmath.inf])
                assert abs(g_profile(c6, t) - ref) <= 2e-15 * ref, (c6, t)


def test_boundedness_profile_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    # 30-digit tanh-sinh quadrature of the defining integral, split at the
    # cubic decay scale (h/c6)^(1/3) and, for s > 0, at the centre xi = h s
    # of the Gaussian factor and 10 of its widths (h/(c6 h s))^(1/2) around it
    with mpmath.workdps(30):
        for c6 in (0.5, 0.917, 2.0):
            for h in (1e-1, 1e-2, 1e-3):
                for s in (-2.0, -0.5, 0.0, 0.5, 3.0, 100.0):
                    C, H, S = (mpmath.mpf(v) for v in (c6, h, s))
                    cubic = (H / C) ** (mpmath.mpf(1) / 3)
                    pts = [0, cubic, 4 * cubic]
                    if s > 0:
                        width = mpmath.sqrt(H / (C * H * S))
                        pts += [H * S - 10 * width, H * S, H * S + 10 * width]
                    ref = mpmath.quad(
                        lambda xi: (mpmath.sqrt(xi / H)
                                    * mpmath.exp(-C * (xi / H - S) ** 2 * H * xi)),
                        sorted(p for p in set(pts) if p >= 0) + [mpmath.inf])
                    got = boundedness_profile(c6, h, s)
                    assert abs(got - ref) <= 1e-13 * ref, (c6, h, s)


def test_profile_at_large_t_meets_its_laplace_limit():
    # G(t) = sqrt(pi/c6) (1 + 1/(c6 t) + O(t^-2)) as t -> inf: Laplace's
    # method at the Gaussian of width (c6 t)^(-1/2) at eta = 1 gives the 1
    # and half the 1/(c6 t), the end eta -> 0 (decay length 1/(c6 t)) the
    # other half; a rule without panel ends at both scales misses them
    for c6 in (0.5, 1.0):
        for t in (1e6, 1e10, 1e14):
            ref = np.sqrt(np.pi / c6) * (1.0 + 1.0 / (c6 * t))
            assert abs(g_profile(c6, t) - ref) <= 1e-9 * ref, (c6, t)
            h = 0.1
            s = (t / h ** 2) ** (1.0 / 3.0)
            assert abs(boundedness_profile(c6, h, s) - ref) <= 1e-9 * ref
    # from c6 t = 1e9 on both are the expansion itself, out to where the
    # quadrature's Gaussian factor would leave float arithmetic and beyond
    for c6, t in ((1.0, 1e20), (0.5, 1e300)):
        ref = np.sqrt(np.pi / c6) * (1.0 + 1.0 / (c6 * t))
        assert g_profile(c6, t) == ref
        assert boundedness_profile(c6, 0.1, (t / 0.01) ** (1.0 / 3.0)) == ref
    # the generalized profile has no expansion: past 1e6 eps of its peak the
    # Gaussian's argument has no digits left
    with pytest.raises(pm.ConvergenceError, match="too narrow"):
        generalized_kappa_check(lambda xi: xi, 1.0, 1.0, 1.0, 1.0, 0.05,
                                s_probes=(1e14,))


@pytest.mark.parametrize("c6", [0.5, 1.0, 2.0])
def test_profile_expansion_meets_the_quadrature_below_its_switch(c6):
    # at c6 t = 1e8, a decade below the switch, the neglected 7.5/(c6 t)^2
    # is 7.5e-16 and the rule is good to about 2e-13
    t = 1e8 / c6
    ref = np.sqrt(np.pi / c6) * (1.0 + 1.0 / (c6 * t))
    assert abs(g_profile(c6, t) - ref) <= 1e-12 * ref
    h = 0.1
    s = (t / h ** 2) ** (1.0 / 3.0)
    assert abs(boundedness_profile(c6, h, s) - ref) <= 1e-12 * ref


def test_profile_rule_refuses_mass_past_its_cut():
    # exp(-eta) still holds e^-0.8 of its mass past 8 knees of 0.1
    with pytest.raises(pm.ConvergenceError, match="past its cut"):
        fbi._split_quad(lambda eta: np.exp(-eta), 0.0, np.inf, np.inf, 0.1,
                        "test")


@pytest.mark.parametrize("kappa", [1.0 + 0.3j, 0.5 + 0.5j, 2.0 + 1.0j])
def test_near_isometry_concentration(kappa):
    # ||E*f||^2 / ||f||^2 -> 2 sqrt(pi Re kappa) G(0+) = 2 pi/3 as h -> 0
    limit = np.sqrt(2.0 * np.pi / 3.0)
    spreads, gaps = [], []
    for h in (1e-2, 1e-3):
        r = near_isometry_probe(kappa, h)
        spreads.append((r.max() - r.min()) / r.mean())
        gaps.append(abs(r.mean() - limit))
    assert spreads[0] > spreads[1]
    assert spreads[1] < 0.05
    assert gaps[1] < gaps[0]
    assert np.all(np.abs(r - limit) <= 0.02 * limit)   # r is h = 1e-3's


def test_near_isometry_probe_draws_the_same_sample_every_call():
    # seeded draws: two calls give bit-identical ratios
    first = near_isometry_probe(1.0 + 0.3j, 1e-1)
    assert first.shape == (20,)
    assert first.tobytes() == near_isometry_probe(1.0 + 0.3j, 1e-1).tobytes()


def test_generalized_kappa_identity_matches_profile():
    h = 0.05
    probes = (-2.0, 0.0, 1.0, 10.0, 100.0)
    ok, sup = generalized_kappa_check(lambda xi: xi, 1.0, 1.0, 1.0, 1.0, h,
                                      s_probes=probes)
    assert ok
    ref = max(boundedness_profile(1.0, h, s) for s in probes)
    assert abs(sup - ref) <= 1e-12 * ref


def test_generalized_kappa_saturating_width():
    ok, sup = generalized_kappa_check(lambda xi: xi / (1.0 + xi), 1.0, 0.0,
                                      2.0, 2.0, 0.05)
    assert ok and np.isfinite(sup) and sup > 0.0


def test_generalized_kappa_constant_width_closed_form():
    # Re kappa = r: the profile is sqrt(pi)/2 erfc(-s sqrt(h r)), largest at
    # the top probe; its mass reaches far past F's knee at h = 0.5
    from math import erfc
    h, r = 0.5, 1e-3
    ok, sup = generalized_kappa_check(lambda xi: r + 0.0 * xi, 0.0, 0.0,
                                      1.0 / r, 1.0 / r, h)
    ref = 0.5 * np.sqrt(np.pi) * erfc(-100.0 * np.sqrt(h * r))
    assert ok and abs(sup - ref) <= 1e-13 * ref


def test_generalized_kappa_rejects_imaginary_width():
    with pytest.raises(pm.PreconditionError):
        generalized_kappa_check(lambda xi: 1j * xi, 1.0, 1.0, 1.0, 1.0, 0.05)
