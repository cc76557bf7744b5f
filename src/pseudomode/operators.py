"""Built-in operator library and the custom polynomial constructor.

Named fields:
    complex-airy     a=1, b=0,  c(u) = i u        (interior model, Omega = {xi < 0})
    davies-rotated   a=1, b=0,  c(u) = i u^2      (Omega = 2nd/4th quadrants)
    advection-exit   a=1, b=-i, c = 0 on [0, 2]   (boundary model; exit condition holds)
"""

import sys

import numpy as np

from .errors import ConfigError
from .symbol import CoefficientField, PolynomialJet


def complex_airy():
    return CoefficientField(1.0, 0.0, PolynomialJet([0.0, 1j]), (-4.0, 4.0))


def davies_rotated():
    return CoefficientField(1.0, 0.0, PolynomialJet([0.0, 0.0, 1j]), (-4.0, 4.0))


def advection_exit():
    return CoefficientField(1.0, -1j, 0.0, (0.0, 2.0))


def polynomial_field(a_coeffs, b_coeffs, c_coeffs, domain):
    return CoefficientField(
        PolynomialJet(a_coeffs), PolynomialJet(b_coeffs), PolynomialJet(c_coeffs), domain
    )


_BUILTINS = {
    "complex-airy": complex_airy,
    "davies-rotated": davies_rotated,
    "advection-exit": advection_exit,
}


def parse_real(v, name):
    """A finite JSON number; bools, strings, NaN and infinities are config errors."""
    if (isinstance(v, bool) or not isinstance(v, (int, float))
            or not abs(v) <= sys.float_info.max):
        raise ConfigError(f"'{name}' must be a finite number, got {v!r}")
    return float(v)


def parse_complex(v, name):
    """JSON complex: a finite number, an [re, im] pair or {"re": .., "im": ..}."""
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(parse_real(v[0], f"{name}[0]"), parse_real(v[1], f"{name}[1]"))
    if isinstance(v, dict) and set(v) <= {"re", "im"}:
        return complex(parse_real(v.get("re", 0.0), f"{name}.re"),
                       parse_real(v.get("im", 0.0), f"{name}.im"))
    return complex(parse_real(v, name))


def get_operator(spec):
    """Resolve an operator spec: a built-in name or a polynomial triple.

    The dict form is {"a": [...], "b": [...], "c": [...], "domain": [lo, hi]}
    with coefficients low-to-high degree, each parsed by parse_complex; a
    single entry stands for a constant.
    """
    if isinstance(spec, str):
        if spec not in _BUILTINS:
            raise ConfigError(
                f"unknown operator {spec!r}; built-ins: {sorted(_BUILTINS)}"
            )
        return _BUILTINS[spec]()
    if isinstance(spec, dict):
        unknown = set(spec) - {"a", "b", "c", "domain"}
        if unknown:
            raise ConfigError(f"unknown operator keys: {sorted(unknown)}")
        coeffs = {}
        for key in ("a", "b", "c"):
            entries = spec.get(key, [0.0])
            if not isinstance(entries, list):
                entries = [entries]
            coeffs[key] = np.array([parse_complex(e, f"operator.{key}[{k}]")
                                    for k, e in enumerate(entries)])
        dom = spec.get("domain", [-4.0, 4.0])
        if not (isinstance(dom, (list, tuple)) and len(dom) == 2):
            raise ConfigError(f"'operator.domain' must be [lo, hi], got {dom!r}")
        lo, hi = (parse_real(e, f"operator.domain[{k}]") for k, e in enumerate(dom))
        if not lo < hi:
            raise ConfigError(f"'operator.domain' needs lo < hi, got {dom!r}")
        return polynomial_field(coeffs["a"], coeffs["b"], coeffs["c"], (lo, hi))
    raise ConfigError(f"operator spec must be a name or a dict, got {type(spec)!r}")
