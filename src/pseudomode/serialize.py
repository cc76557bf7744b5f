"""Deterministic CSV/JSON/gnuplot emission.

Data files never contain timestamps or environment details, so identical
inputs give byte-identical outputs.  A CSV table takes one equal-length 1-D
column per header name and formats each column by its dtype kind: floats with
%.17g (lossless; nan, inf, -inf and -0 as such), bools and integers with %d
(bools as 1 and 0), strings with %s; any other column raises
PreconditionError.  write_csv writes a whole table; a CsvTable appends checked
rows to a table open in a file, which is how write_csv writes too.  Either way
the rows go out in blocks of _BLOCK, each distinct value of a block's column
formatted once (grouped by bit pattern, floats after a cast to float64, so
0.0 and -0.0 stay apart and NaNs of any payload read nan), so the writer holds
O(_BLOCK) text beyond the columns, however many rows are appended.  Complex
values appear as two columns (re, im) in CSV and as [re, im] pairs in JSON.
"""

import json

import numpy as np

from .errors import PreconditionError

_CONVERSION = {"f": "%.17g", "b": "%d", "i": "%d", "u": "%d", "U": "%s"}
_BLOCK = 4096   # rows formatted and written at a time


def write_csv(path, header, columns):
    """One table from equal-length 1-D columns: check, open, header, append."""
    cols = _checked(header, columns)
    with open(path, "w") as fh:
        CsvTable(fh, header).append(cols)
    return path


class CsvTable:
    """The table open in fh: construction writes the header, and append checks
    its columns as write_csv does and writes their rows, reusing a column's text
    from its previous block when that held the same distinct values."""

    def __init__(self, fh, header):
        self.fh, self.header, self._last = fh, header, {}
        fh.write(",".join(header) + "\n")

    def append(self, columns):
        cols = _checked(self.header, columns)
        n, k = (cols[0].size if cols else 0), 2 * len(cols)
        for start in range(0, n, _BLOCK):
            m = min(_BLOCK, n - start)
            # the block's pieces in order: entry, ",", entry, ..., entry, "\n"
            cells = [","] * (k * m)
            for j, c in enumerate(cols):
                self._last[j], cells[2 * j::k] = _formatted(c[start:start + m],
                                                            self._last.get(j))
            cells[k - 1::k] = ["\n"] * m
            self.fh.write("".join(cells))


def _checked(header, columns):
    """The columns as arrays; PreconditionError unless each fits the header."""
    cols = [np.asarray(c) for c in columns]
    if len(cols) != len(header):
        raise PreconditionError(f"{len(header)} names for {len(cols)} columns")
    n = cols[0].size if cols else 0
    for name, c in zip(header, cols):
        if c.ndim != 1 or c.size != n or c.dtype.kind not in _CONVERSION:
            raise PreconditionError(
                f"column '{name}' must be 1-D of length {n} with a float, bool,"
                f" integer or str dtype, not {c.dtype} of shape {c.shape}")
    return cols


def _formatted(c, last):
    """(memo, text of each entry) of a column block, each distinct value formatted
    once or, when last (the previous block's memo) holds the same ones, reused."""
    kind = c.dtype.kind
    if kind == "f":
        c = c.astype(np.float64)
    key = c if kind == "U" else c.view(f"u{c.dtype.itemsize}")
    distinct, inverse = np.unique(key, return_inverse=True)
    if last is not None and last[0] == c.dtype and np.array_equal(last[1], distinct):
        text = last[2]
    else:
        values = distinct.view(c.dtype).tolist()
        if kind != "U":  # "%s" % s is s
            # numbers print no newline, so one % formats them all
            values = ("\n".join([_CONVERSION[kind]] * len(values))
                      % tuple(values)).split("\n")
        text = np.array(values, dtype=object)
    return (c.dtype, distinct, text), text[inverse].tolist()


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
