"""Mode frames: defect, semigroup bounds, regularized inversion, quantization."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

import pseudomode as pm
from pseudomode.frame import (FrameMatrix, analytic_defect, build_frame,
                              column_residual_max, defect, evolve_approx,
                              frame_bounds, homomorphism_defect,
                              numerical_abscissa, positivity_floor,
                              pseudospectrum_inclusion, quantize,
                              quantize_regularized, reconstruct,
                              regularized_inverse, semigroup_bound_check)


def random_frame(rng, m=40, N=12, normalized=True):
    """Random frame with positive weights; columns unit in the weighted norm."""
    E = rng.standard_normal((m, N)) + 1j * rng.standard_normal((m, N))
    w = rng.uniform(0.5, 2.0, m)
    if normalized:
        E = E / np.sqrt(w @ (np.abs(E) ** 2))
    lam = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    return FrameMatrix(E=E, lam=lam, x=np.arange(m, dtype=float), weights=w,
                       normalized=normalized)


def weighted_op_norm(M, w):
    sw = np.sqrt(w)
    return float(sla.svdvals(sw[:, None] * M / sw[None, :])[0])


def test_frame_matrix_validation():
    w = np.ones(4)
    x = np.arange(4.0)
    E = np.eye(4)[:, :2]
    FrameMatrix(E=E, lam=[0.0, 1.0], x=x, weights=w)
    with pytest.raises(pm.PreconditionError):
        FrameMatrix(E=2.0 * E, lam=[0.0, 1.0], x=x, weights=w)  # not unit
    FrameMatrix(E=2.0 * E, lam=[0.0, 1.0], x=x, weights=w, normalized=False)
    with pytest.raises(pm.PreconditionError):
        FrameMatrix(E=E, lam=[0.0], x=x, weights=w)
    with pytest.raises(pm.PreconditionError):
        FrameMatrix(E=E, lam=[0.0, 1.0], x=x, weights=np.ones(5))
    with pytest.raises(pm.PreconditionError):
        build_frame([], np.linspace(-1, 1, 32))


def test_build_frame_columns(airy):
    h = 2.0 ** -5
    x = np.linspace(-1.0, 1.0, 400)
    modes = [pm.assemble_mode(airy, u, -1.0, h, n=1) for u in (-0.2, 0.0, 0.2)]
    F = build_frame(modes + [modes[0]], x)       # duplicates are allowed
    assert F.n_cols == 4
    np.testing.assert_array_equal(F.E[:, 0], F.E[:, 3])
    nrm = np.sqrt(F.weights @ np.abs(F.E) ** 2)
    np.testing.assert_allclose(nrm, 1.0, atol=1e-12)
    assert F.lam[1] == pm.principal_symbol(airy, 0.0, -1.0)
    assert F.provenance[1][0] == "interior"


def test_regularized_inverse_minimizes_penalized_residual():
    rng = np.random.default_rng(42)
    F = random_frame(rng, m=40, N=12)
    delta = 1e-3
    Fd = regularized_inverse(F, delta)
    f = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    phi = Fd @ f

    # route 2: stacked least squares for the same quadratic
    sw = np.sqrt(F.weights)
    top = sw[:, None] * F.E
    A = np.vstack([top, np.sqrt(delta) * np.eye(12)])
    b = np.concatenate([sw * f, np.zeros(12)])
    phi_ls, *_ = np.linalg.lstsq(A, b, rcond=None)
    assert np.linalg.norm(phi - phi_ls) <= 1e-10 * np.linalg.norm(phi)

    # route 3: perturbation minimality of J(phi) = ||f - E phi||_W^2 + d||phi||^2
    def J(p):
        r = f - F.E @ p
        return float(np.sum(F.weights * np.abs(r) ** 2)
                     + delta * np.sum(np.abs(p) ** 2))

    J0 = J(phi)
    for _ in range(30):
        d = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        assert J0 <= J(phi + 1e-4 * d) + 1e-14
    with pytest.raises(pm.PreconditionError):
        regularized_inverse(F, 0.0)


def test_frame_bounds_hold_for_random_frames():
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = int(rng.integers(8, 30))
        N = int(rng.integers(2, 40))
        F = random_frame(rng, m=m, N=N, normalized=False)
        delta = float(10.0 ** rng.uniform(-6, 0))
        nf, nef = frame_bounds(F, regularized_inverse(F, delta))
        assert nf <= delta ** -0.5 * (1.0 + 1e-10)
        assert nef <= 1.0 + 1e-10


def test_frame_bounds_match_the_dense_product():
    # the m x m product the QR factors stand in for, on tall and wide frames
    rng = np.random.default_rng(12)
    for m, N in [(40, 7), (25, 25), (9, 31), (3, 50)]:
        F = random_frame(rng, m=m, N=N, normalized=False)
        Fd = rng.standard_normal((N, m)) + 1j * rng.standard_normal((N, m))
        sw = np.sqrt(F.weights)
        nf, nef = frame_bounds(F, Fd)
        ref = float(sla.svdvals(Fd / sw[None, :])[0])
        assert abs(nf - ref) <= 1e-12 * ref
        ref = float(sla.svdvals(sw[:, None] * (F.E @ Fd) / sw[None, :])[0])
        assert abs(nef - ref) <= 1e-12 * ref


def test_reconstruct_span_and_orthogonal():
    rng = np.random.default_rng(17)
    F = random_frame(rng, m=30, N=6)
    f_in = F.E @ (rng.standard_normal(6) + 1j * rng.standard_normal(6))
    errs = [reconstruct(F, f_in, d)[1] for d in (1e-2, 1e-4, 1e-6)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 1e-4 * F.grid_norm(f_in)
    # an f orthogonal to every column reconstructs to zero: error = ||f||
    f = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    proj = F.E @ np.linalg.solve((F.adjoint() @ F.E), F.adjoint() @ f)
    f_perp = f - proj
    for d in (1e-2, 1e-6):
        phi, err = reconstruct(F, f_perp, d)
        assert abs(err - F.grid_norm(f_perp)) <= 1e-8 * F.grid_norm(f_perp)


def test_condition_warning_for_tiny_delta():
    E = np.column_stack([np.ones(6), np.ones(6)]) / np.sqrt(6.0)
    F = FrameMatrix(E=E, lam=[0.0, 0.0], x=np.arange(6.0), weights=np.ones(6))
    with pytest.warns(UserWarning):
        regularized_inverse(F, 1e-13)


def test_defect_is_operator_norm():
    rng = np.random.default_rng(4)
    F = random_frame(rng, m=25, N=8)
    A = rng.standard_normal((25, 25)) + 1j * rng.standard_normal((25, 25))
    eps = defect(A, F)
    R = A @ F.E - F.E * F.lam[None, :]
    for _ in range(100):
        phi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        assert F.grid_norm(R @ phi) <= eps * np.linalg.norm(phi) * (1 + 1e-12)
    # the top right singular vector achieves the norm
    S = np.sqrt(F.weights)[:, None] * R
    _, _, Vh = np.linalg.svd(S)
    v = Vh[0].conj()
    assert F.grid_norm(R @ v) >= eps * (1.0 - 1e-12)
    cmax = column_residual_max(A, F)
    assert cmax <= eps * (1.0 + 1e-12)
    for _ in range(50):
        phi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        l1 = float(np.sum(np.abs(phi)))
        assert F.grid_norm(R @ phi) <= cmax * l1 * (1 + 1e-12)


def test_analytic_defect_order(airy):
    x = np.linspace(-1.0, 1.0, 300)
    hs = [2.0 ** -5, 2.0 ** -6, 2.0 ** -7]
    ds = []
    for h in hs:
        modes = [pm.assemble_mode(airy, u, -1.0, h, n=1, K=48, delta0=0.5)
                 for u in np.linspace(-0.45, 0.45, 16)]
        ds.append(analytic_defect(airy, modes, x))
    slope, _, _ = pm.order_fit(hs, ds)
    assert 2.5 <= slope <= 3.5           # O(h^(n+2)) with n = 1


def test_numerical_abscissa_bounds_propagator():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
    w = rng.uniform(0.5, 2.0, 20)
    g = numerical_abscissa(A, w)
    sw = np.sqrt(w)
    S = sw[:, None] * A / sw[None, :]
    ref = float(sla.eigvalsh((S + S.conj().T) / 2.0)[-1])
    assert abs(g - ref) < 1e-12
    for t in (0.1, 0.5, 1.0):
        nt = weighted_op_norm(sla.expm(t * A), w)
        assert nt <= np.exp(g * t) * (1.0 + 1e-8)


@pytest.mark.parametrize("offsets", [[1, 0], [1, 0, -1, -2, -3], [2, 0, -3]])
def test_numerical_abscissa_matches_dense_eigvalsh_on_bands(offsets):
    # upper bidiagonal, one upper and three lower diagonals, and a sparse A
    # whose stored offsets skip the diagonals between them
    rng = np.random.default_rng(40)
    n = 60
    data = rng.standard_normal((len(offsets), n)) \
        + 1j * rng.standard_normal((len(offsets), n))
    A = sp.dia_array((data, offsets), shape=(n, n))
    w = rng.uniform(0.5, 2.0, n)
    sw = np.sqrt(w)
    S = sw[:, None] * A.toarray() / sw[None, :]
    eigs = sla.eigvalsh((S + S.conj().T) / 2.0)
    scale = np.max(np.abs(eigs))
    for op in (A, A.toarray()):
        assert abs(numerical_abscissa(op, w) - eigs[-1]) <= 1e-12 * scale


def test_airy_band_at_20000_nodes_stays_linear_in_memory(airy):
    # gamma and F_delta at m = 20,000: one dense complex m x m array would be
    # 6.4 GB; the band, the frame and F_delta take a few MB
    h = 2.0 ** -5
    op = pm.discretize(airy, h, pm.Grid1D(-1.0, 1.0, 20_002),
                       pm.BoundaryCondition("dirichlet"))
    modes = [pm.assemble_mode(airy, u, -1.0, h, n=1, K=24, delta0=0.5)
             for u in (-0.3, 0.0, 0.3)]
    tracemalloc.start()
    try:
        gamma = numerical_abscissa(-op.banded(), op.w_interior)
        F = build_frame(modes, op.x_interior, op.w_interior)
        Fd = regularized_inverse(F, 1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert -3e-3 < gamma < -2e-3
    assert Fd.shape == (3, 20_000)
    assert peak < 64e6  # 1% of one dense m x m array


def test_semigroup_bound_jordan_tightness():
    # nilpotent 2x2: lhs = t exactly, bound = t exp(t/2) at the abscissa 1/2
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    F = FrameMatrix(E=np.array([[0.0], [1.0]]), lam=[0.0],
                    x=np.array([0.0, 1.0]), weights=np.ones(2))
    g = numerical_abscissa(A, F.weights)
    assert abs(g - 0.5) < 1e-14
    assert abs(defect(A, F) - 1.0) < 1e-14
    rows = semigroup_bound_check(A, F, 1.0, g, [0.0, 0.5, 1.0], strict=True)
    for row in rows:
        assert abs(row["lhs"] - row["t"]) < 1e-12
        assert abs(row["bound"] - row["t"] * np.exp(0.5 * row["t"])) < 1e-12
    assert abs(rows[2]["bound"] - 1.6487212707001282) < 1e-12
    # at t = 0 both sides vanish: the ratio is 0, not inf
    assert (rows[0]["lhs"], rows[0]["bound"], rows[0]["ratio"]) == (0.0, 0.0, 0.0)


def test_semigroup_bound_detects_false_hypothesis():
    # A^2 != 0 re-amplifies the residual; claiming M=1, gamma=0 is false
    A = np.array([[0.0, 5.0, 0.0], [0.0, 0.0, 5.0], [0.0, 0.0, 0.0]])
    F = FrameMatrix(E=np.array([[0.0], [0.0], [1.0]]), lam=[0.0],
                    x=np.arange(3.0), weights=np.ones(3))
    with pytest.raises(pm.BoundViolationError):
        semigroup_bound_check(A, F, 1.0, 0.0, [1.0], strict=True)
    rows = semigroup_bound_check(A, F, 1.0, 0.0, [1.0], strict=False)
    assert not rows[0]["ok"] and rows[0]["ratio"] > 1.0
    with pytest.raises(pm.PreconditionError):
        semigroup_bound_check(A, F, 0.5, 0.0, [1.0])        # M < 1
    with pytest.raises(pm.PreconditionError):
        semigroup_bound_check(A, F, 1.0, -1.0, [1.0])       # Re lam > gamma


def synthetic_evolution_setup(seed=21):
    """Operator + frame with honestly certified (M, gamma) = (1, abscissa)."""
    rng = np.random.default_rng(seed)
    m, N = 24, 6
    A = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / 6.0
    w = rng.uniform(0.5, 2.0, m)
    E = rng.standard_normal((m, N)) + 1j * rng.standard_normal((m, N))
    E = E / np.sqrt(w @ (np.abs(E) ** 2))
    # Rayleigh quotients lie in the numerical range: Re(lam) <= abscissa
    lam = np.array([w @ (np.conj(E[:, j]) * (A @ E[:, j])) for j in range(N)])
    F = FrameMatrix(E=E, lam=lam, x=np.arange(m, dtype=float), weights=w)
    gamma = numerical_abscissa(A, w)
    return A, F, gamma, rng


def test_evolution_error_within_budget():
    A, F, gamma, rng = synthetic_evolution_setup()
    f = F.E @ (rng.standard_normal(6) + 1j * rng.standard_normal(6))
    for t in (0.2, 1.0):
        state, true_err, budget = evolve_approx(
            A, F, f, pm.propagate(A, f, t), reconstruct(F, f, 1e-8)[0], t,
            1.0, gamma)
        assert true_err <= budget * (1.0 + 0.05) + 1e-14
        assert state.shape == f.shape


def test_semigroup_bound_with_certified_constants():
    A, F, gamma, _ = synthetic_evolution_setup(seed=33)
    rows = semigroup_bound_check(A, F, 1.0, gamma, [0.1, 0.5, 1.0],
                                 strict=True)
    assert all(row["ok"] for row in rows)


def test_banded_propagation_matches_dense_expm(airy):
    # the operator and frame of the acceptance checks 08 and 09 (m = 300),
    # with the generator kept sparse
    h = 2.0 ** -6
    op = pm.discretize(airy, h, pm.Grid1D(-1.0, 1.0, 300),
                       pm.BoundaryCondition("dirichlet"))
    A = -op.banded()
    modes = [pm.assemble_mode(airy, u, -1.0, h, n=1, K=48, delta0=0.5)
             for u in np.linspace(-0.45, 0.45, 16)]
    F0 = build_frame(modes, op.x_interior, op.w_interior)
    F = FrameMatrix(E=F0.E, lam=-F0.lam, x=F0.x, weights=F0.weights)
    Ad = A.toarray()
    gamma = numerical_abscissa(A, F.weights)
    assert gamma == numerical_abscissa(Ad, F.weights)
    assert abs(defect(A, F) - defect(Ad, F)) <= 1e-14 * defect(Ad, F)
    t_list = [0.1, 0.5, 1.0]
    eprime = F.E * (1.0 + 1e-3 * defect(Ad, F))  # ||E - E'|| below the defect
    rows = semigroup_bound_check(A, F, 1.0, gamma, t_list, eprime=eprime)
    assert [r.get("variant") for r in rows] == [None, "eprime"] * len(t_list)
    sw = np.sqrt(F.weights)
    f = F.E @ np.full(F.n_cols, 0.25)
    for k, t in enumerate(t_list):
        T = sla.expm(t * Ad)
        grow = np.exp(F.lam * t)
        for row, E in zip(rows[2 * k:2 * k + 2], (F.E, eprime)):
            R = T @ E - E * grow[None, :]
            lhs = float(sla.svdvals(sw[:, None] * R)[0])
            assert abs(row["lhs"] - lhs) <= 1e-10 * lhs
        state, true_err, _ = evolve_approx(A, F, f, pm.propagate(A, f, t),
                                           reconstruct(F, f, 1e-6)[0], t, 1.0,
                                           gamma)
        ref = F.grid_norm(state - T @ f)
        assert abs(true_err - ref) <= 1e-10 * ref


def test_pseudospectrum_inclusion_rows():
    A, F, gamma, _ = synthetic_evolution_setup(seed=5)
    cmax = column_residual_max(A, F)
    rows = pseudospectrum_inclusion(A, F, 2.0 * cmax)
    assert len(rows) == F.n_cols
    sw = np.sqrt(F.weights)
    for row, lam in zip(rows, F.lam):
        assert row["lam"] == lam
        assert row["ok"] and row["converged"]  # smin <= column residual < eps
        assert row["smin"] <= cmax * (1.0 + 1e-10)
        # the dense SVD in the weighted geometry is the oracle
        S = sw[:, None] * (A - lam * np.eye(A.shape[0])) / sw[None, :]
        assert abs(row["smin"] - sla.svdvals(S)[-1]) <= 1e-8 * row["smin"]


def test_quantize_identity_frame_exact():
    m = 8
    F = FrameMatrix(E=np.eye(m), lam=np.zeros(m), x=np.arange(float(m)),
                    weights=np.ones(m))
    f = np.linspace(0.0, 2.0, m)
    np.testing.assert_allclose(quantize(F, f), np.diag(f), atol=1e-15)
    delta = 1e-3
    Sf = quantize_regularized(F, f, delta)
    np.testing.assert_allclose(Sf, np.diag(f) / (1.0 + delta), atol=1e-13)
    # closed-form homomorphism defect: max|fg| * delta / (1+delta)^2
    g = np.linspace(1.0, 3.0, m)
    want = np.max(np.abs(f * g)) * delta / (1.0 + delta) ** 2
    assert abs(homomorphism_defect(F, f, g, delta) - want) < 1e-12
    with pytest.raises(pm.PreconditionError):
        quantize(F, f[:-1])


def test_quantization_positivity():
    rng = np.random.default_rng(2)
    F = random_frame(rng, m=20, N=30)
    for _ in range(10):
        f = rng.uniform(0.0, 3.0, 30)
        assert positivity_floor(F, f) >= -1e-12
    Q = quantize(F, rng.uniform(0.0, 1.0, 30))
    WQ = F.weights[:, None] * Q
    assert np.max(np.abs(WQ - WQ.conj().T)) < 1e-13   # weighted-Hermitian
    with pytest.raises(pm.PreconditionError):
        positivity_floor(F, np.full(30, 1.0 + 0.2j))
