"""Deterministic CSV/JSON/gnuplot emission.

Data files never contain timestamps or environment details, so identical
inputs give byte-identical outputs.  write_csv takes one equal-length 1-D
column per header name and formats each column by its dtype kind: floats with
%.17g (lossless; nan, inf, -inf and -0 as such), bools and integers with %d
(bools as 1 and 0), strings with %s; any other column raises
PreconditionError.  Complex values appear as two columns (re, im) in CSV and
as [re, im] pairs in JSON.
"""

import itertools
import json

import numpy as np

from .errors import PreconditionError

_CONVERSION = {"f": "%.17g", "b": "%d", "i": "%d", "u": "%d", "U": "%s"}


def write_csv(path, header, columns):
    """One table from equal-length 1-D columns, formatted by one % operation."""
    cols = [np.asarray(c) for c in columns]
    if len(cols) != len(header):
        raise PreconditionError(f"{len(header)} names for {len(cols)} columns")
    n = cols[0].size if cols else 0
    for name, c in zip(header, cols):
        if c.ndim != 1 or c.size != n or c.dtype.kind not in _CONVERSION:
            raise PreconditionError(
                f"column '{name}' must be 1-D of length {n} with a float, bool,"
                f" integer or str dtype, not {c.dtype} of shape {c.shape}")
    row = ",".join(_CONVERSION[c.dtype.kind] for c in cols)
    values = tuple(itertools.chain.from_iterable(
        zip(*(c.tolist() for c in cols))))
    body = ("\n".join([row] * n) + "\n") % values if n else ""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n" + body)
    return path


def _finite(v):
    # strict JSON has no NaN/Infinity tokens; use the names the CSV tables use
    if np.isnan(v):
        return "nan"
    if np.isinf(v):
        return "inf" if v > 0 else "-inf"
    return v


def _jsonable(obj):
    if isinstance(obj, complex) or isinstance(obj, np.complexfloating):
        return [_finite(float(obj.real)), _finite(float(obj.imag))]
    if isinstance(obj, float) or isinstance(obj, np.floating):
        return _finite(float(obj))
    if isinstance(obj, (np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return [_jsonable(complex(v)) for v in obj.ravel()] \
                if obj.ndim == 1 else [_jsonable(r) for r in obj]
        return obj.tolist()
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(_jsonable(obj), fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def mode_to_csv(path, mode):
    """Samples x, f, f' of a pseudomode (complex split into re/im)."""
    return write_csv(path, ["x", "re_f", "im_f", "re_fp", "im_fp"],
                     [mode.x, mode.f.real, mode.f.imag, mode.fp.real,
                      mode.fp.imag])


def report_to_csv(path, rows):
    """Bound-check rows (t, lhs, bound, ratio) as emitted by the frame module."""
    header = ["t", "lhs", "bound", "ratio"]
    return write_csv(path, header, [[r[k] for r in rows] for k in header])


def resolvent_to_csv(path, z_re, z_im, smin, ok):
    """One row per cell (re z, im z, s_min, converged), re z outermost."""
    zr, zi = np.meshgrid(z_re, z_im, indexing="ij")
    return write_csv(path, ["re_z", "im_z", "s_min", "converged"],
                     [zr.ravel(), zi.ravel(), np.asarray(smin).ravel(),
                      np.asarray(ok, dtype=bool).ravel()])


def gnuplot_contour(path, csv_path, title, extra_files=()):
    """Contour script over a resolvent CSV; overlays are extra (re, im) CSVs."""
    lines = [
        "set datafile separator ','",
        f"set title '{title}'",
        "set xlabel 're z'",
        "set ylabel 'im z'",
        "set view map",
        "set contour base",
        "set cntrparam levels auto 12",
        "unset surface",
        "set logscale z",
        f"splot '{csv_path}' skip 1 using 1:2:3 with lines notitle",
    ]
    for extra in extra_files:
        lines.append(
            f"replot '{extra}' skip 1 using 1:2:(1) with points pt 7 ps 0.3 notitle")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path
