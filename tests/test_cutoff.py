"""CutoffSpec owns a mode's footprint: span, live set and plateau."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pseudomode as pm


@settings(max_examples=200, deadline=None)
@given(delta=st.floats(1e-3, 4.0), sharpness=st.floats(0.1, 5.0),
       one_sided=st.booleans(),
       frac=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=40))
def test_jet_is_flat_on_the_plateau_and_zero_off_the_support(delta, sharpness,
                                                             one_sided, frac):
    cut = pm.CutoffSpec(delta, sharpness=sharpness, one_sided=one_sided)
    # the band edges themselves, then offsets drawn across twice the support
    s = np.concatenate(([0.0, -0.0], np.array([-1.0, -0.5, 0.5, 1.0]) * delta,
                        np.array(frac) * delta))
    chi, dchi, d2chi = cut.jet(s)
    flat, live = cut.plateau(s), cut.live(s)
    assert np.all(live[flat])
    assert np.all(chi[flat] == 1.0)
    assert np.all(dchi[flat] == 0.0) and np.all(d2chi[flat] == 0.0)
    for v in (chi, dchi, d2chi):
        assert np.all(v[~live] == 0.0)
    lo, hi = cut.span
    assert hi == delta and lo == (0.0 if one_sided else -delta)
    assert np.all(live <= ((s >= lo) & (s <= hi)))


_H = 2.0 ** -6
_BUILD = {
    "interior": lambda airy, adv: pm.assemble_mode(airy, 0.2, -1.0, _H, npts=300),
    "rough": lambda airy, adv: pm.rough_mode(airy, 0.2, -1.0, 0.01, npts=301),
    "gaussian": lambda airy, adv: pm.gaussian_mode(airy, 0.2, -1.0, _H, delta=0.3),
    "boundary": lambda airy, adv: pm.boundary_mode(adv, 0.3j, _H),
    "robin": lambda airy, adv: pm.robin_combination(
        adv, pm.BoundaryCondition("dirichlet"), 0.2, _H),
}


@pytest.mark.parametrize("kind", sorted(_BUILD))
def test_every_mode_is_sampled_across_its_cutoff_span(airy, adv, kind):
    mode = _BUILD[kind](airy, adv)
    x = mode.u + np.linspace(*mode.cutoff.span, mode.x.size)
    assert np.array_equal(mode.x, x)
    # the mode vanishes exactly where its cutoff is not live
    assert np.all(mode.f[~mode.cutoff.live(mode.x - mode.u)] == 0.0)
