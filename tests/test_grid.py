"""Banded discretization, singular values, propagation, resolvent maps."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

import pseudomode as pm
from pseudomode import grid as gd
from pseudomode.grid import (BoundaryCondition, DenseOperator, Grid1D, _band,
                             _shift, discretize, filling_probe, propagate,
                             resolvent_map, residual_stencil,
                             smallest_singular_value, trapezoid_weights)


def test_grid1d_basics():
    g = Grid1D(-1.0, 1.0, 101)
    assert g.x[0] == -1.0 and g.x[-1] == 1.0
    assert abs(g.dx - 0.02) < 1e-15
    w = trapezoid_weights(g.x)
    assert abs(np.sum(w) - 2.0) < 1e-12      # trapezoid total mass
    assert w[0] == w[-1] == g.dx / 2.0
    with pytest.raises(pm.PreconditionError):
        Grid1D(-1.0, 1.0, 4)
    with pytest.raises(pm.PreconditionError):
        Grid1D(1.0, -1.0, 50)


def test_trapezoid_weights_of_one_node():
    assert trapezoid_weights([0.3]).tolist() == [1.0]


def test_boundary_condition_validation():
    BoundaryCondition("dirichlet")
    BoundaryCondition("robin", coef_deriv=1.0, coef_value=2.0)
    with pytest.raises(pm.PreconditionError):
        BoundaryCondition("neumann")
    with pytest.raises(pm.PreconditionError):
        BoundaryCondition("robin", coef_deriv=1.0)
    with pytest.raises(pm.PreconditionError):
        BoundaryCondition("robin", coef_deriv=0.0, coef_value=0.0)


def test_discretize_guards(airy):
    g = Grid1D(-1.0, 1.0, 64)
    with pytest.raises(pm.PreconditionError):
        discretize(airy, 2.0, g, BoundaryCondition("dirichlet"))
    with pytest.raises(pm.DomainError):
        discretize(airy, 0.1, Grid1D(-9.0, 9.0, 64),
                   BoundaryCondition("dirichlet"))


def test_dirichlet_rows_and_reduction(airy):
    g = Grid1D(-1.0, 1.0, 64)
    op = discretize(airy, 0.1, g, BoundaryCondition("dirichlet"))
    A = op.matrix
    assert A[0, 0] == 1.0 and np.all(A[0, 1:] == 0.0)
    assert A[-1, -1] == 1.0 and np.all(A[-1, :-1] == 0.0)
    R = op.reduced()
    assert R.shape == (62, 62)
    # Dirichlet elimination is plain deletion of the boundary rows/columns
    np.testing.assert_array_equal(R, A[1:-1, 1:-1])


def test_robin_rows(airy):
    g = Grid1D(-1.0, 1.0, 64)
    h, cd, cv = 0.1, 1.0, 2.0
    op = discretize(airy, h, g, BoundaryCondition("robin", cd, cv))
    A, dx = op.matrix, g.dx
    np.testing.assert_allclose(
        A[0, :3],
        [cd * h * -3.0 / (2 * dx) + cv, cd * h * 4.0 / (2 * dx),
         cd * h * -1.0 / (2 * dx)])
    assert op.reduced().shape == (62, 62)


def stencil_loop_reference(cf, h, grid, bc):
    """(matrix, reduced) assembled row by row, reduced by a dense solve."""
    m, dx = grid.m, grid.dx
    a, b, c = (f.values(grid.x) for f in (cf.a, cf.b, cf.c))
    A = np.zeros((m, m), dtype=complex)
    d1_4 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * dx)
    d2_4 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * dx ** 2)
    d1_2 = np.array([-1.0, 0.0, 1.0]) / (2.0 * dx)
    d2_2 = np.array([1.0, -2.0, 1.0]) / dx ** 2
    for i in range(1, m - 1):
        if 2 <= i <= m - 3:
            sl, s1, s2 = slice(i - 2, i + 3), d1_4, d2_4
        else:
            sl, s1, s2 = slice(i - 1, i + 2), d1_2, d2_2
        A[i, sl] += -h ** 2 * a[i] * s2 - 1j * h * b[i] * s1
        A[i, i] += c[i]
    if bc.kind == "dirichlet":
        A[0, 0] = A[-1, -1] = 1.0
    else:
        cd, cv = bc.coef_deriv, bc.coef_value
        A[0, :3] = [cd * h * (-3.0) / (2.0 * dx) + cv, cd * h * 4.0 / (2.0 * dx),
                    cd * h * (-1.0) / (2.0 * dx)]
        A[-1, -3:] = [cd * h * 1.0 / (2.0 * dx), cd * h * (-4.0) / (2.0 * dx),
                      cd * h * 3.0 / (2.0 * dx) + cv]
    bidx, iidx = [0, m - 1], np.arange(1, m - 1)
    elim = -np.linalg.solve(A[np.ix_(bidx, bidx)], A[np.ix_(bidx, iidx)])
    return A, A[np.ix_(iidx, iidx)] + A[np.ix_(iidx, bidx)] @ elim


# one Dirichlet and one Robin operator at m = 300; four cells of the
# Dirichlet window sit below the roundoff floor
ORACLE_CASES = {
    "dirichlet": ("airy", 2.0 ** -7, (-1.0, 1.0), BoundaryCondition("dirichlet"),
                  np.linspace(0.2, 1.2, 3), np.linspace(-0.5, 0.5, 4)),
    "robin": ("adv", 2.0 ** -4, (0.0, 2.0), BoundaryCondition("robin", 1.0, 0.8),
              np.linspace(0.1, 1.0, 3), np.linspace(0.05, 0.6, 4)),
}


def oracle_operator(request, kind):
    name, h, (lo, hi), bc, z_re, z_im = ORACLE_CASES[kind]
    cf = request.getfixturevalue(name)
    return cf, h, Grid1D(lo, hi, 300), bc, z_re, z_im


@pytest.mark.parametrize("kind", sorted(ORACLE_CASES))
def test_band_matches_stencil_loop_reference(request, kind):
    cf, h, grid, bc, _, _ = oracle_operator(request, kind)
    op = discretize(cf, h, grid, bc)
    A, R = stencil_loop_reference(cf, h, grid, bc)
    np.testing.assert_allclose(op.matrix, A, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(op.reduced(), R, rtol=1e-14, atol=0.0)
    assert op.banded().offsets.tolist() == [2, 1, 0, -1, -2]


def test_band_reads_dense_csr_and_dia_alike():
    # offsets 2, 0, -1 with the inner diagonal 1 all zero
    rng = np.random.default_rng(3)
    n = 7
    M = sum(np.diag(rng.standard_normal(n - abs(d))
                    + 1j * rng.standard_normal(n - abs(d)), d)
            for d in (2, 0, -1))
    # a dia_array may hold values in the slots that fall outside M
    stored = np.array([np.concatenate([[9.0, 9.0], np.diag(M, 2)]),
                       np.diag(M), np.concatenate([np.diag(M, -1), [9.0]])])
    dia = sp.dia_array((stored, [2, 0, -1]), shape=(n, n))
    np.testing.assert_array_equal(dia.toarray(), M)
    w = rng.uniform(0.5, 2.0, n)
    for weights in (None, w):
        ref = _band(M, weights)
        assert ref.offsets.tolist() == [2, 1, 0, -1]
        assert np.all(ref.data[1] == 0.0)
        sw = np.ones(n) if weights is None else np.sqrt(weights)
        np.testing.assert_allclose(ref.toarray(), sw[:, None] * M / sw[None, :],
                                   rtol=1e-15, atol=0.0)
        for form in (sp.csr_array(M), dia):
            B = _band(form, weights)
            assert B.offsets.tolist() == ref.offsets.tolist()
            np.testing.assert_array_equal(B.data, ref.data)
    zero = _band(np.zeros((n, n)))
    assert zero.offsets.tolist() == [0]
    np.testing.assert_array_equal(zero.data, np.zeros((1, n)))


@pytest.mark.parametrize("kind", sorted(ORACLE_CASES))
def test_resolvent_map_matches_svdvals(request, kind):
    cf, h, grid, bc, z_re, z_im = oracle_operator(request, kind)
    op = discretize(cf, h, grid, bc)
    smin, ok = resolvent_map(op, z_re, z_im)
    assert ok.all()
    M = op.reduced()
    sw = np.sqrt(op.w_interior)
    eps = np.finfo(float).eps
    above = 0
    for i, zr in enumerate(z_re):
        for j, zi in enumerate(z_im):
            S = M - (zr + 1j * zi) * np.eye(M.shape[0])
            sv = sla.svdvals(sw[:, None] * S / sw[None, :])
            norm, ref = sv[0], sv[-1]
            if ref < eps * norm:
                continue  # below the roundoff floor both values are noise
            above += 1
            assert abs(smin[i, j] - ref) <= 1e-6 * ref + 10.0 * eps * norm
    assert above > 0


def test_resolvent_map_at_ten_thousand_points(airy):
    # one dense 10^4 x 10^4 complex matrix alone would take 1.6 GB
    tracemalloc.start()
    try:
        op = discretize(airy, 2.0 ** -7, Grid1D(-1.0, 1.0, 10 ** 4),
                        BoundaryCondition("dirichlet"))
        smin, ok = resolvent_map(op, [0.2, 1.2], [-0.5, 0.5])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok.all() and np.all(np.isfinite(smin)) and np.all(smin >= 0.0)
    assert peak < 100 * 2 ** 20


def test_interior_stencil_order(airy):
    # smooth test function vanishing at both Dirichlet endpoints
    h = 0.5

    def worst_row_error(m):
        g = Grid1D(-1.0, 1.0, m)
        op = discretize(airy, h, g, BoundaryCondition("dirichlet"))
        x = g.x
        e = np.exp(1j * x)
        f = np.cos(np.pi * x / 2.0) ** 2 * e
        fpp = (-np.pi ** 2 / 2.0 * np.cos(np.pi * x)
               - 1j * np.pi * np.sin(np.pi * x)
               - np.cos(np.pi * x / 2.0) ** 2) * e
        lf = -h ** 2 * fpp + 1j * x * f
        return np.max(np.abs((op.matrix @ f)[1:-1] - lf[1:-1]))

    errs = [worst_row_error(m) for m in (200, 400, 800)]
    orders = np.log2(np.array(errs[:-1]) / errs[1:])
    assert np.all(orders > 1.8) and np.all(orders < 2.2)


def test_residual_stencil_cross_checks_analytic_path(airy):
    mode = pm.assemble_mode(airy, 0.0, -1.0, 2.0 ** -4, n=1, K=48)
    rl = pm.residual_triple(mode, airy)[2]
    rs = residual_stencil(mode, airy)
    assert abs(rs - rl) <= 1e-3 * rl


@pytest.mark.parametrize("u, xi", [(0.0, -1.0), (0.3, -0.8), (-0.4, -1.2)])
def test_mode_residual_certifies_discrete_smin(airy, u, xi):
    # f sampled on the interior nodes is a test vector of W^(1/2)(A - z)W^(-1/2),
    # so its band residual bounds the s_min psgrid reports at z: the
    # "pseudomode implies pseudospectrum" step on the discrete side
    for k in range(4, 8):
        h = 2.0 ** -k
        op = discretize(airy, h, Grid1D(-1.0, 1.0, 400),
                        BoundaryCondition("dirichlet"))
        mode = pm.assemble_mode(airy, u, xi, h)
        w = op.w_interior
        f = mode.evaluate(op.x_interior)
        r = np.sqrt(w @ np.abs(op.banded() @ f - mode.z * f) ** 2
                    / (w @ np.abs(f) ** 2))
        smin, ok = resolvent_map(op, [mode.z.real], [mode.z.imag])
        assert ok[0, 0]
        assert smin[0, 0] <= r * (1.0 + 1e-8), (u, xi, h)
        # the analytic support residual measures the same quantity
        if h >= 2.0 ** -6:
            rl = pm.residual_triple(mode, airy, window="support")[2]
            assert abs(r - rl) <= 0.02 * rl, (u, xi, h)


def test_order_fit_recovers_exact_monomial():
    hs = np.array([0.1, 0.05, 0.025, 0.0125])
    slope, intercept, r2 = pm.order_fit(hs, 3.0 * hs ** 2.5)
    assert abs(slope - 2.5) < 1e-12
    assert abs(np.exp(intercept) - 3.0) < 1e-12
    assert abs(r2 - 1.0) < 1e-12
    with pytest.raises(pm.PreconditionError):
        pm.order_fit(hs, 0.0 * hs)
    with pytest.raises(pm.PreconditionError):
        pm.order_fit(-hs, 3.0 * hs)


def test_smallest_singular_value_matches_svd():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    w = rng.uniform(0.5, 2.0, 40)
    got, conv = smallest_singular_value(M, w=w)
    sw = np.sqrt(w)
    ref = float(np.min(sla.svdvals(sw[:, None] * M / sw[None, :])))
    assert conv
    assert abs(got - ref) <= 1e-10 * ref
    sing = np.zeros((5, 5))
    assert smallest_singular_value(sing) == (0.0, True)



def test_smallest_singular_value_reports_an_overflowing_solve_as_zero():
    # zgbtrf finds no zero pivot, but M^-1 M^-H v overflows to inf
    assert smallest_singular_value(np.diag([1e-200, 1.0, 1.0, 1.0])) == (0.0, True)

def test_smin_is_lipschitz_in_z():
    rng = np.random.default_rng(8)
    M = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
    eye = np.eye(30)
    for _ in range(5):
        z1 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        z2 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        s1, _ = smallest_singular_value(M - z1 * eye)
        s2, _ = smallest_singular_value(M - z2 * eye)
        assert abs(s1 - s2) <= abs(z1 - z2) * (1.0 + 1e-8) + 1e-12


def test_propagate_methods_agree():
    # expm_multiply against the dense matrix exponential
    rng = np.random.default_rng(2)
    A = (rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))) / 40.0
    f = rng.standard_normal(24) + 1j * rng.standard_normal(24)
    t = 0.7
    ge = propagate(A, f, t)
    ref = sla.expm(t * A) @ f
    assert np.linalg.norm(ge - ref) <= 1e-12 * np.linalg.norm(ref)
    # semigroup property of the dense exponential
    g2 = propagate(A, propagate(A, f, 0.3), 0.4)
    assert np.linalg.norm(g2 - ge) <= 1e-12 * np.linalg.norm(ge)
    # a block of columns and a sparse generator give the same action
    block = propagate(sp.csr_array(A), np.stack([f, 2.0 * f], axis=1), t)
    np.testing.assert_allclose(block, np.stack([ge, 2.0 * ge], axis=1),
                               rtol=1e-12)
    g0 = propagate(A, f, 0.0)
    assert np.array_equal(g0, f) and g0 is not f


def test_propagate_never_estimates_norms(monkeypatch):
    # the 1-norm estimator draws from numpy's global generator; a step that
    # needed it would make exp(tA) f differ in its last digits between runs
    expm_multiply_module = pytest.importorskip(
        "scipy.sparse.linalg._expm_multiply")

    def refuse(*args, **kwargs):
        raise AssertionError("expm_multiply fell back to norm estimation")

    monkeypatch.setattr(expm_multiply_module, "onenormest", refuse)
    monkeypatch.setattr(expm_multiply_module, "_onenormest_matrix_power", refuse)
    rng = np.random.default_rng(4)
    A = 3.0 * (rng.standard_normal((50, 50))
               + 1j * rng.standard_normal((50, 50)))
    for t in (0.5, -2.0):
        for f in (np.ones(50), np.ones((50, 8))):
            got = propagate(A, f, t)
            ref = sla.expm(t * A) @ f
            assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)


def test_propagate_refuses_endless_step_counts():
    # t = 1e300 would need about 1e300 short expm_multiply steps; an
    # infinite or NaN t is refused the same way, before any step
    A = np.array([[-1.0, 1.0], [0.0, -2.0]])
    for t in (1e300, np.inf, np.nan):
        with pytest.raises(pm.PreconditionError, match="steps"):
            propagate(A, np.ones(2), t)


def test_resolvent_map_shapes(airy):
    g = Grid1D(-1.0, 1.0, 80)
    op = discretize(airy, 2.0 ** -4, g, BoundaryCondition("dirichlet"))
    z_re = np.linspace(0.1, 0.5, 3)
    z_im = np.linspace(-0.3, 0.3, 4)
    smin, ok = resolvent_map(op, z_re, z_im)
    assert smin.shape == (3, 4) and ok.shape == (3, 4)
    assert ok.all() and np.all(smin > 0.0)
    # spot check one cell against the dense decomposition
    M = op.reduced() - (z_re[1] + 1j * z_im[2]) * np.eye(78)
    sw = np.sqrt(op.w_interior)
    ref = float(np.min(sla.svdvals(sw[:, None] * M / sw[None, :])))
    assert abs(smin[1, 2] - ref) <= 1e-8 * ref


def test_filling_probe_decreases_with_h(airy):
    pts = [(0.0, -0.35), (0.3, -0.40)]
    out = filling_probe(airy, pts, [2.0 ** -4, 2.0 ** -5],
                        lambda h: Grid1D(-1.0, 1.0, 160))
    assert out.shape == (2, 2)
    assert np.all(out[:, 0] > out[:, 1])
    assert np.all(out > 0.0)


def test_filling_probe_takes_the_dense_svd_where_a_cell_did_not_converge(
        airy, monkeypatch):
    real = gd._smin_cells
    seen = []

    def one_unconverged(B, zs):
        smin, ok = real(B, zs)
        seen.append((B, zs[1], smin[1]))
        ok[1] = False
        return smin, ok
    monkeypatch.setattr(gd, "_smin_cells", one_unconverged)
    pts = [(0.0, -0.35), (0.3, -0.40)]
    out = filling_probe(airy, pts, [2.0 ** -4, 2.0 ** -5],
                        lambda h: Grid1D(-1.0, 1.0, 160))
    assert len(seen) == 2
    for jh, (B, z, iterated) in enumerate(seen):
        dense = np.min(sla.svdvals(_shift(B, z).toarray()))
        assert out[1, jh] == dense
        assert abs(dense - iterated) <= 1e-8 * dense
