"""Size the numeric drift between two tools/cli_outputs.py trees.

    python3 tools/cli_drift.py OLD NEW

Byte-identical files are skipped.  In a CSV file each column whose numeric
cells changed gets one row; in a JSON file each numeric scalar that changed
gets one row, named by its path (a JSON scalar is a column of one entry).
A cell is numeric when float() reads it as a number other than NaN; NaN
cells and JSON booleans compare as text.  A row gives

    max|d|/max|col|   the largest change over the largest finite |value| of
                      OLD's column,
    max|d|/|entry|    the largest change relative to its own OLD entry,
    max|d|            the largest absolute change.

A file whose bytes differ but whose cells read the same gets one all-zero
row, "(text only)".

Exits 1, after the table, if the file sets, a CSV header, row count or row
width, a JSON structure or any non-numeric cell differ, or if a file that is
neither CSV nor JSON (stdout, stderr) is not byte-identical.
"""

import csv
import io
import json
import math
import sys
from pathlib import Path


def _number(v):
    """v as a float, or None when it is not numeric."""
    if isinstance(v, bool) or not isinstance(v, (int, float, str)):
        return None
    try:
        x = float(v)
    except ValueError:
        return None
    return None if math.isnan(x) else x


def _ratio(d, scale):
    if d == 0.0:
        return 0.0
    return d / scale if scale > 0.0 else math.inf


def drift(pairs):
    """(max|d|/max|col|, max|d|/|entry|, max|d|) over (old, new) floats."""
    scale = max((abs(a) for a, _ in pairs if math.isfinite(a)), default=0.0)
    changes = [(abs(a - b) if a != b else 0.0, abs(a)) for a, b in pairs]
    big = max(d for d, _ in changes)
    return (_ratio(big, scale), max(_ratio(d, e) for d, e in changes), big)


def _csv_columns(old, new, problems):
    rows_a = list(csv.reader(io.StringIO(old)))
    rows_b = list(csv.reader(io.StringIO(new)))
    if not rows_a or not rows_b or rows_a[0] != rows_b[0]:
        problems.append("header differs")
        return {}
    if len(rows_a) != len(rows_b):
        problems.append(f"row count {len(rows_a) - 1} -> {len(rows_b) - 1}")
        return {}
    cols = {name: [] for name in rows_a[0]}
    for k, (ra, rb) in enumerate(zip(rows_a[1:], rows_b[1:]), start=1):
        if len(ra) != len(rb) or len(ra) != len(rows_a[0]):
            problems.append(f"row {k} width differs")
            continue
        for name, a, b in zip(rows_a[0], ra, rb):
            x, y = _number(a), _number(b)
            if x is None or y is None:
                if a != b:
                    problems.append(f"row {k} column {name}: {a!r} -> {b!r}")
            else:
                cols[name].append((x, y))
    return cols


def _json_scalars(a, b, path, out, problems):
    if isinstance(a, dict) and isinstance(b, dict):
        if sorted(a) != sorted(b):
            problems.append(f"{path or '/'}: keys differ")
            return
        for key in sorted(a):
            _json_scalars(a[key], b[key], f"{path}/{key}", out, problems)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            problems.append(f"{path or '/'}: length {len(a)} -> {len(b)}")
            return
        for k, (x, y) in enumerate(zip(a, b)):
            _json_scalars(x, y, f"{path}/{k}", out, problems)
    else:
        x, y = _number(a), _number(b)
        if x is None or y is None:
            if str(a) != str(b):
                problems.append(f"{path or '/'}: {a!r} -> {b!r}")
        else:
            out[path] = [(x, y)]


def compare_file(old, new, suffix):
    """({column: drift row} for the changed columns, [problem, ...])."""
    problems = []
    if suffix == ".csv":
        cols = _csv_columns(old, new, problems)
    elif suffix == ".json":
        cols = {}
        _json_scalars(json.loads(old), json.loads(new), "", cols, problems)
    else:
        return {}, ["not byte-identical"]
    rows = {name: drift(pairs) for name, pairs in cols.items() if pairs}
    return {name: row for name, row in rows.items() if row[2] > 0.0}, problems


def compare_trees(old_root, new_root):
    """(table rows (file, column, *drift), problem lines, identical count)."""
    old_root, new_root = Path(old_root), Path(new_root)
    names_a = {p.relative_to(old_root) for p in old_root.rglob("*") if p.is_file()}
    names_b = {p.relative_to(new_root) for p in new_root.rglob("*") if p.is_file()}
    problems = [f"{p}: only in OLD" for p in sorted(names_a - names_b)]
    problems += [f"{p}: only in NEW" for p in sorted(names_b - names_a)]
    table, same = [], 0
    for rel in sorted(names_a & names_b):
        a, b = (old_root / rel).read_bytes(), (new_root / rel).read_bytes()
        if a == b:
            same += 1
            continue
        rows, bad = compare_file(a.decode(), b.decode(), rel.suffix)
        table += [(str(rel), col, *row) for col, row in rows.items()]
        problems += [f"{rel}: {p}" for p in bad]
        if not rows and not bad:
            table.append((str(rel), "(text only)", 0.0, 0.0, 0.0))
    return table, problems, same


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    table, problems, same = compare_trees(*argv)
    width = max([len(f) + len(c) + 1 for f, c, *_ in table] + [11])
    print(f"{'file:column':<{width}}  {'max|d|/max|col|':>15}  "
          f"{'max|d|/|entry|':>14}  {'max|d|':>9}")
    for f, c, scaled, entry, big in table:
        print(f"{f + ':' + c:<{width}}  {scaled:15.2e}  {entry:14.2e}  {big:9.2e}")
    print(f"{same} files identical, {len({f for f, *_ in table})} in the table")
    for p in problems:
        print(f"DIFFERS {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
