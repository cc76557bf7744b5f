"""Symbol geometry walk-through.

For L_h f = -h^2 a f'' - i h b f' + c f the principal symbol is
sigma(u, xi) = a xi^2 + b xi + c, and the bracket {Re sigma, Im sigma}
= Im(conj(d_u sigma) d_xi sigma) marks the admissible region Omega where
localized quasimodes contract.  This script maps Omega for the two interior
model fields, prints the twist k = -i sigma_u / sigma_xi at a few points,
and writes the symbol-image cloud (the candidate pseudospectrum) as CSV.
"""

import os

import numpy as np

import pseudomode as pm
from pseudomode import serialize as ser

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
os.makedirs(OUT, exist_ok=True)


def ascii_mask(mask, rows=12, cols=48):
    """Coarse picture of in_omega: u left-to-right, xi bottom-to-top."""
    iu = np.linspace(0, mask.u.size - 1, cols).astype(int)
    ix = np.linspace(0, mask.xi.size - 1, rows).astype(int)
    lines = []
    for j in ix[::-1]:
        lines.append("".join("#" if mask.in_omega[i, j] else "." for i in iu))
    return "\n".join(lines)


def describe(name, cf, u_range, xi_range):
    u = np.linspace(*u_range, 121)
    xi = np.linspace(*xi_range, 121)
    mask = pm.region_mask(cf, u, xi)
    frac = mask.in_omega.mean()
    print(f"\n== {name}: {frac:.1%} of the rectangle lies in Omega")
    print(ascii_mask(mask))

    su, sxi, sigma = pm.symbol_image(mask)
    path = ser.write_csv(os.path.join(OUT, f"{name}_symbol_cloud.csv"),
                         ["u", "xi", "re_sigma", "im_sigma"],
                         [su, sxi, sigma.real, sigma.imag])
    print(f"   symbol image: {sigma.size} points -> {path}")
    return mask


airy = pm.complex_airy()
mask = describe("complex_airy", airy, (-2.0, 2.0), (-2.0, 2.0))

# twist curvature: Re k < 0 is exactly the contraction condition
for u0, xi0 in ((0.0, -1.0), (1.0, -0.5), (0.0, 1.0)):
    br = pm.poisson_bracket(airy, u0, xi0)
    tag = "in Omega " if br > 0 else "outside  "
    k = pm.twist_curvature(airy, u0, xi0) if br > 0 else None
    print(f"   ({u0:+.1f},{xi0:+.1f}) {tag} bracket {br:+.2f}"
          + (f"  twist k = {k:.4f}" if k is not None else ""))

davies = pm.davies_rotated()
describe("davies_rotated", davies, (-2.0, 2.0), (-2.0, 2.0))

# a z value can be hit by several disjoint patches of Omega: count them
z = pm.principal_symbol(davies, 1.0, -1.0)
u = np.linspace(-2.0, 2.0, 241)
xi = np.linspace(-2.0, 2.0, 241)
mult = pm.multiplicity(pm.region_mask(davies, u, xi), z, tol=0.05)
print(f"\nmultiplicity of z = {z:.3f} under the rotated-parabola symbol: {mult}")
