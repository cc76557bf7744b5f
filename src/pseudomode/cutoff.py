"""Smooth plateau cutoffs built from the bump exp(-lambda/(1-t^2)).

``CutoffSpec(delta)`` is 1 on |s| <= delta/2, 0 on |s| >= delta, and in
between follows the integrated bump step.  ``jet(s)`` returns the triple
(chi, chi', chi''): chi' and chi'' have closed forms (the bump and its
derivative, from one exponential) while chi itself uses a precomputed high
resolution antiderivative table.  ``sharpness`` scales the exponent lambda:
larger values push the transition mass harder toward the middle of the
transition band, which suppresses the cutoff's exponentially small residual
contribution at moderate h.  ``one_sided=True`` gives the boundary-layer
version supported on [0, delta].  The cutoff owns a mode's footprint in
offsets s from its anchor: ``span`` is the sampled interval, ``live(s)`` the
open support, and ``plateau(s)`` the set where chi is 1 and the residual
orders of the expansion hold.
"""

from functools import cache

import numpy as np

from .errors import PreconditionError

_TABLE_N = 16385


@cache
def _step_table(lam):
    """Antiderivative table of the normalized bump on [-1, 1]."""
    t = np.linspace(-1.0, 1.0, _TABLE_N)
    inner = t[1:-1]
    bump = np.zeros_like(t)
    bump[1:-1] = np.exp(-lam / (1.0 - inner ** 2))
    # cumulative trapezoid rule, as scipy's cumulative_trapezoid forms it
    cum = np.concatenate(
        ([0.0], np.cumsum(np.diff(t) * (bump[1:] + bump[:-1]) / 2.0)))
    Z = cum[-1]
    return t, 1.0 - cum / Z, Z


class CutoffSpec:
    """Plateau cutoff with closed-form first and second derivatives."""

    def __init__(self, delta, sharpness=1.0, one_sided=False):
        if delta <= 0:
            raise PreconditionError("cutoff width delta must be positive")
        if sharpness <= 0:
            raise PreconditionError("cutoff sharpness must be positive")
        self.delta = float(delta)
        self.sharpness = float(sharpness)
        self.one_sided = bool(one_sided)
        self._t, self._step, self._Z = _step_table(self.sharpness)

    def _tau(self, r):
        # map radius in [delta/2, delta] to the step variable in [-1, 1]
        return (4.0 * r - 3.0 * self.delta) / self.delta

    @property
    def span(self):
        """Support offsets (lo, hi): (0, delta) one-sided, else (-delta, delta)."""
        return (0.0 if self.one_sided else -self.delta, self.delta)

    def _side(self, s, mask):
        return mask & (np.asarray(s) >= 0.0) if self.one_sided else mask

    def live(self, s):
        """Mask of the open support, the offsets s where chi may be non-zero."""
        return self._side(s, np.abs(s) < self.delta)

    def plateau(self, s):
        """Mask of the offsets s where chi is identically 1."""
        return self._side(s, np.abs(s) <= 0.5 * self.delta)

    def jet(self, s):
        """(chi, chi', chi'') at s from one pass over the transition band."""
        s = np.asarray(s, dtype=float)
        plateau = self.plateau(s)
        trans = self.live(s) & ~plateau
        chi, dchi, d2chi = (np.zeros(s.shape, dtype=float) for _ in range(3))
        chi[plateau] = 1.0
        if trans.any():
            tau = self._tau(np.abs(s[trans]))
            bump = np.exp(-self.sharpness / (1.0 - tau ** 2))
            dbump = bump * (-2.0 * self.sharpness * tau / (1.0 - tau ** 2) ** 2)
            chi[trans] = np.interp(tau, self._t, self._step)
            dchi[trans] = -bump / self._Z * (4.0 / self.delta) * np.sign(s[trans])
            d2chi[trans] = -dbump / self._Z * (16.0 / self.delta ** 2)
        return chi, dchi, d2chi
