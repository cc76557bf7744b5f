"""Truncated Taylor-series arithmetic: ring ops, square root, calculus, tails."""

from math import factorial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pseudomode._series import Series
from pseudomode.errors import BranchPointError, PreconditionError


def rand_series(rng, K, c0=None):
    c = rng.standard_normal(K + 1) + 1j * rng.standard_normal(K + 1)
    if c0 is not None:
        c[0] = c0
    return Series(c)


def seeded_series(seed, count, K, c0=None):
    """The first `count` rand_series draws of one seeded generator."""
    rng = np.random.default_rng(seed)
    return [rand_series(rng, K, c0) for _ in range(count)]


def series(K, bound, c0=None):
    """Degree-K series with coefficient parts in [-bound, bound], c0 pinned if given.

    Parts below 1e-150 in modulus are drawn as 0: integ() would take them
    into the subnormal range, where c / k * k loses bits.
    """
    part = st.floats(-bound, bound).map(lambda v: v if abs(v) > 1e-150 else 0.0)
    coeff = st.builds(complex, part, part)
    lists = st.lists(coeff, min_size=K + 1, max_size=K + 1)
    return lists.map(lambda c: Series(c if c0 is None else [c0] + c[1:]))


def examples(*cases):
    """One hypothesis @example per argument tuple."""
    def decorate(test):
        for case in reversed(cases):
            test = example(*case)(test)
        return test
    return decorate


_RING = seeded_series(11, 20, 12)


def test_constructors():
    s = Series.constant(3.0 + 1j, 5)
    assert s.degree == 5
    assert s.c[0] == 3.0 + 1j and np.all(s.c[1:] == 0)
    v = Series.variable(4)
    assert v.c[1] == 1.0 and v.c[0] == 0 and np.all(v.c[2:] == 0)
    t = s.truncated(2)
    assert t.degree == 2 and t.c[0] == s.c[0]
    with pytest.raises(PreconditionError):
        Series(np.empty(0))


@settings(deadline=None)
@given(p=series(12, 1e3), q=series(12, 1e3))
@examples(*zip(_RING[0::2], _RING[1::2]))
def test_ring_ops_match_polynomial_arithmetic(p, q):
    K = 12
    np.testing.assert_allclose((p + q).c, p.c + q.c, rtol=1e-15)
    np.testing.assert_allclose((p - q).c, p.c - q.c, rtol=1e-15)
    full = np.convolve(p.c, q.c)
    np.testing.assert_allclose((p * q).c, full[: K + 1], rtol=1e-13)
    np.testing.assert_allclose((-p).c, -p.c, rtol=1e-15)
    assert (p + 1.0).c[0] == p.c[0] + 1.0
    assert (1.0 - p).c[0] == 1.0 - p.c[0]


def test_division_round_trip():
    rng = np.random.default_rng(12)
    p = rand_series(rng, 10)
    q = rand_series(rng, 10, c0=1.5 - 0.5j)
    np.testing.assert_allclose(((p * q) / q).c, p.c, rtol=1e-12, atol=1e-12)
    r = 1.0 / q
    np.testing.assert_allclose((q * r).c[0], 1.0, rtol=1e-14)
    assert np.max(np.abs((q * r).c[1:])) < 1e-12


def test_division_by_zero_constant_term():
    p = Series.variable(5)
    with pytest.raises(ZeroDivisionError):
        Series.constant(1.0, 5) / p


def test_sqrt_branch_pinning():
    # (1 + x)^2 has the two square roots +-(1 + x); the constant root selects
    sq = Series(np.array([1.0, 2.0, 1.0, 0.0, 0.0], dtype=complex))
    r = sq.sqrt(1.0)
    np.testing.assert_allclose(r.c[:2], [1.0, 1.0], rtol=1e-14)
    assert np.max(np.abs(r.c[2:])) < 1e-14
    r2 = sq.sqrt(-1.0)
    np.testing.assert_allclose(r2.c[:2], [-1.0, -1.0], rtol=1e-14)
    # a wrong branch root is rejected, a vanishing radicand is a branch point
    with pytest.raises(PreconditionError):
        sq.sqrt(2.0)
    with pytest.raises(BranchPointError):
        Series.variable(4).sqrt(0.0)


@settings(deadline=None)
@given(w=series(14, 1.0, c0=2.0 + 1.0j))
@example(*seeded_series(13, 1, 14, c0=2.0 + 1.0j))
def test_sqrt_squares_back(w):
    root = np.sqrt(complex(w.c[0]))
    r = w.sqrt(root)
    np.testing.assert_allclose((r * r).c, w.c, rtol=1e-12, atol=1e-12)


@settings(deadline=None)
@given(p=series(9, 1e3))
@example(*seeded_series(15, 1, 9))
def test_deriv_integ_inverse(p):
    q = p.integ().deriv()
    np.testing.assert_allclose(q.c[: p.degree + 1], p.c, rtol=1e-14)
    assert p.integ().c[0] == 0.0


def test_horner_evaluation():
    rng = np.random.default_rng(16)
    p = rand_series(rng, 8)
    s = rng.uniform(-0.5, 0.5, size=7)
    ref = np.polyval(p.c[::-1], s)
    np.testing.assert_allclose(p(s), ref, rtol=1e-13)


def test_horner_in_place_is_bitwise_the_allocating_form():
    def allocating(c, s):
        s = np.asarray(s, dtype=complex)
        out = np.full(s.shape, c[-1], dtype=complex)
        for ck in c[-2::-1]:
            out = out * s + ck
        return out

    rng = np.random.default_rng(30)
    p = rand_series(rng, 30)
    points = [rng.uniform(-0.6, 0.6, 2048) + 1j * rng.uniform(-0.6, 0.6, 2048),
              np.array([0.0, -0.0, 0.25, -0.5]),  # real: cast to complex
              np.asarray(0.3 - 0.2j), -0.0, 0.45 + 0.1j]
    for s in points:
        got, ref = p(s), allocating(p.c, s)
        assert np.asarray(got).tobytes() == ref.tobytes()
        if ref.ndim == 0:
            assert type(got) is complex


def test_scalar_division_and_constant_derivative():
    p = rand_series(np.random.default_rng(8), 6)
    z = 1.5 - 0.5j
    assert np.array_equal((p / z).c, p.c / z)
    assert np.array_equal((p / 2).c, p.c / 2.0)
    d = Series([3.0 - 1.0j]).deriv()
    assert d.degree == 0 and d.c[0] == 0.0


def test_tail_bound_dominates_truncation_error():
    # exp(x) truncated at K: the tail bound at radius r must cover e^r - p(r)
    p = Series([1.0 / factorial(k) for k in range(24)])
    for r in (0.3, 0.5):
        actual = abs(np.exp(r) - p(r))
        assert p.tail_bound(r) >= actual
    assert Series.constant(1.0, 4).tail_bound(0.5) == 0.0
