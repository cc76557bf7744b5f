"""Truncated Taylor series with complex coefficients.

A ``Series`` holds coefficients ``c[0..K]`` of ``sum_j c[j] s**j`` and supports
the ring operations plus division, square root with an explicitly pinned
branch, differentiation, integration from 0, and evaluation on scalars or
arrays.  All operations truncate to the shorter operand, so a computation
carried out at a padded degree stays internally consistent and can be
truncated at the end.

The square root deserves a comment: for the phase constructions the branch at
s = 0 is part of the mathematical definition (it selects the decaying mode),
so ``sqrt`` takes the value of the root at 0 as an argument instead of picking
one silently.
"""

import numpy as np

from .errors import BranchPointError, PreconditionError


class Series:
    """Truncated complex Taylor series in one variable."""

    __slots__ = ("c",)

    def __init__(self, coeffs):
        self.c = np.array(coeffs, dtype=complex)
        if self.c.ndim != 1 or self.c.size == 0:
            raise PreconditionError("series coefficients must be a non-empty 1-D array")

    # -- constructors -----------------------------------------------------

    @classmethod
    def constant(cls, value, degree):
        c = np.zeros(degree + 1, dtype=complex)
        c[0] = value
        return cls(c)

    @classmethod
    def variable(cls, degree):
        c = np.zeros(degree + 1, dtype=complex)
        if degree >= 1:
            c[1] = 1.0
        return cls(c)

    # -- basic properties -------------------------------------------------

    @property
    def degree(self):
        return self.c.size - 1

    def truncated(self, degree):
        """Copy truncated (or zero-padded) to the given degree."""
        n = degree + 1
        c = np.zeros(n, dtype=complex)
        m = min(n, self.c.size)
        c[:m] = self.c[:m]
        return Series(c)

    def __repr__(self):
        return f"Series(deg={self.degree}, c0={self.c[0]:.6g})"

    # -- ring operations --------------------------------------------------

    @staticmethod
    def _coerce(other, degree):
        if isinstance(other, Series):
            return other
        return Series.constant(other, degree)

    def __add__(self, other):
        other = self._coerce(other, self.degree)
        n = min(self.c.size, other.c.size)
        return Series(self.c[:n] + other.c[:n])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other, self.degree)
        n = min(self.c.size, other.c.size)
        return Series(self.c[:n] - other.c[:n])

    def __rsub__(self, other):
        other = self._coerce(other, self.degree)
        n = min(self.c.size, other.c.size)
        return Series(other.c[:n] - self.c[:n])

    def __neg__(self):
        return Series(-self.c)

    def __mul__(self, other):
        if isinstance(other, Series):
            n = min(self.c.size, other.c.size)
            out = np.convolve(self.c[:n], other.c[:n])[:n]
            return Series(out)
        return Series(self.c * complex(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Series):
            n = min(self.c.size, other.c.size)
            a, b = self.c[:n], other.c[:n]
            if b[0] == 0:
                raise ZeroDivisionError("series division by a series with zero constant term")
            q = np.zeros(n, dtype=complex)
            for k in range(n):
                acc = a[k]
                if k:
                    acc = acc - np.dot(q[:k], b[k:0:-1])
                q[k] = acc / b[0]
            return Series(q)
        return Series(self.c / complex(other))

    def __rtruediv__(self, other):
        return Series.constant(other, self.degree) / self

    # -- analytic operations ----------------------------------------------

    def sqrt(self, branch_root):
        """Series square root whose value at 0 is ``branch_root``.

        ``branch_root**2`` must reproduce the constant term to 1e-9 relative;
        a vanishing constant term means a branch point at the expansion point.
        """
        a = self.c
        scale = float(np.max(np.abs(a))) or 1.0
        if abs(a[0]) <= 1e-14 * scale:
            raise BranchPointError("radicand vanishes at the expansion point")
        if abs(branch_root * branch_root - a[0]) > 1e-9 * abs(a[0]):
            raise PreconditionError(
                "branch_root**2 does not match the constant term of the radicand"
            )
        n = a.size
        r = np.zeros(n, dtype=complex)
        r[0] = branch_root
        for k in range(1, n):
            acc = a[k]
            if k >= 2:
                acc = acc - np.dot(r[1:k], r[k - 1:0:-1])
            r[k] = acc / (2.0 * r[0])
        return Series(r)

    def deriv(self):
        if self.degree == 0:
            return Series([0.0])
        k = np.arange(1, self.c.size)
        return Series(self.c[1:] * k)

    def integ(self):
        """Antiderivative vanishing at 0; degree grows by one."""
        k = np.arange(1, self.c.size + 1)
        return Series(np.concatenate(([0.0], self.c / k)))

    # -- evaluation -------------------------------------------------------

    def __call__(self, s):
        s = np.asarray(s, dtype=complex)
        out = np.full(s.shape, self.c[-1], dtype=complex)
        for ck in self.c[-2::-1]:
            out *= s
            out += ck
        if out.ndim == 0:
            return complex(out)
        return out

    def tail_bound(self, radius):
        """Crude truncation-tail estimate: max |c_j| r^j over the last 3 terms."""
        j = np.arange(self.c.size)[-3:]
        return float(np.max(np.abs(self.c[j]) * radius ** j))
