"""Deterministic emission: column CSV writer, JSON writer, table helpers."""

import json
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pseudomode import serialize as ser
from pseudomode.errors import PreconditionError


def read_lines(path):
    with open(path) as fh:
        return fh.read().splitlines()


def fmt(v):
    """Reference: one value at a time, as the CSV tables were first written."""
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    v = float(v)
    if np.isnan(v):
        return "nan"
    if np.isinf(v):
        return "inf" if v > 0 else "-inf"
    return f"{v:.17g}"


def reference_csv(header, columns):
    rows = zip(*columns)
    return "\n".join([",".join(header)]
                     + [",".join(fmt(v) for v in row) for row in rows]) + "\n"


def test_fmt_scalar_families(tmp_path):
    cases = [("already-a-string", "already-a-string"), (True, "1"),
             (False, "0"), (np.bool_(True), "1"), (7, "7"),
             (np.int64(-3), "-3"), (np.nan, "nan"), (np.inf, "inf"),
             (-np.inf, "-inf"), (0.1, "0.10000000000000001")]
    path = str(tmp_path / "s.csv")
    for v, want in cases:
        assert fmt(v) == want
        assert read_lines(ser.write_csv(path, ["v"], [[v]])) == ["v", want]


def test_fmt_floats_round_trip(tmp_path):
    # %.17g is lossless for doubles: the written column must parse back to
    # the same bits
    rng = np.random.default_rng(7)
    xs = np.concatenate([
        rng.standard_normal(50),
        rng.standard_normal(10) * 1e300,
        rng.standard_normal(10) * 1e-300,
        [0.0, -0.0, 1.0, 2.0 ** -52, np.pi],
    ])
    path = ser.write_csv(str(tmp_path / "x.csv"), ["x"], [xs])
    back = np.array([float(v) for v in read_lines(path)[1:]])
    assert back.tobytes() == xs.tobytes()
    assert [float(fmt(x)) for x in xs] == list(xs)


def test_write_csv_layout(tmp_path):
    path = tmp_path / "t.csv"
    columns = [[1.5, np.nan], [True, False], [3, -2]]
    out = ser.write_csv(str(path), ["a", "b", "c"], columns)
    assert out == str(path)
    lines = read_lines(path)
    assert lines[0] == "a,b,c"
    assert lines[1] == "1.5,1,3"
    assert lines[2] == "nan,0,-2"
    with open(path) as fh:
        assert fh.read().endswith("\n")
    empty = ser.write_csv(str(tmp_path / "e.csv"), ["a", "b"], [[], []])
    assert open(empty).read() == "a,b\n"


_SPECIAL = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.5e-310,
            2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308]
_FLOAT = st.one_of(st.sampled_from(_SPECIAL),
                   st.floats(allow_nan=True, allow_infinity=True))
_OTHER = {"b": st.booleans(), "i": st.integers(-2 ** 63, 2 ** 63 - 1),
          "U": st.text(st.characters(blacklist_characters=",\n\r",
                                     blacklist_categories=("Cs",)),
                       min_size=1, max_size=5)}


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kinds=st.lists(st.sampled_from("ffbiU"), min_size=1, max_size=5),
       n=st.integers(0, 6), data=st.data())
def test_write_csv_matches_reference_formatter(tmp_path, kinds, n, data):
    columns = []
    for kind in kinds:
        draw = _FLOAT if kind == "f" else _OTHER[kind]
        values = data.draw(st.lists(draw, min_size=n, max_size=n))
        dtype = {"f": np.float64, "b": bool, "i": np.int64, "U": str}[kind]
        columns.append(np.array(values, dtype=dtype))
    header = [f"c{k}" for k in range(len(columns))]
    path = ser.write_csv(str(tmp_path / "h.csv"), header, columns)
    with open(path) as fh:
        assert fh.read() == reference_csv(header, columns)


@pytest.mark.parametrize("columns", [
    [np.arange(3.0), np.arange(2.0)],            # ragged
    [np.ones((2, 2)), np.ones(2)],               # 2-D
    [np.ones(2, dtype=complex), np.ones(2)],     # complex
    [np.ones(2), np.array([1.0, "a"], dtype=object)],
    [np.ones(2)],                                # one column short
])
def test_write_csv_rejects_bad_columns(tmp_path, columns):
    path = tmp_path / "r.csv"
    with pytest.raises(PreconditionError):
        ser.write_csv(str(path), ["a", "b"], columns)
    assert not path.exists()


def test_write_json_value_mapping(tmp_path):
    path = tmp_path / "t.json"
    obj = {
        "flt": 0.25,
        "bad": np.nan,
        "plus": np.inf,
        "minus": -np.inf,
        "cx": 1.0 - 2.0j,
        "arr": np.arange(3.0),
        "carr": np.array([1j, 2.0 + 0.5j]),
        "flag": np.bool_(True),
        "count": np.int32(4),
        "nested": [{"x": np.float64(1.5)}],
    }
    ser.write_json(str(path), obj)
    with open(path) as fh:
        back = json.load(fh)  # strict parser: would choke on bare NaN tokens
    assert back["flt"] == 0.25
    assert back["bad"] == "nan"
    assert back["plus"] == "inf"
    assert back["minus"] == "-inf"
    assert back["cx"] == [1.0, -2.0]
    assert back["arr"] == [0.0, 1.0, 2.0]
    assert back["carr"] == [[0.0, 1.0], [2.0, 0.5]]
    assert back["flag"] is True
    assert back["count"] == 4
    assert back["nested"] == [{"x": 1.5}]


def test_write_json_sorted_and_deterministic(tmp_path):
    obj = {"zebra": 1, "alpha": [2.0, np.pi], "mid": {"b": 1, "a": 2}}
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    ser.write_json(str(p1), obj)
    ser.write_json(str(p2), dict(obj))
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    text = b1.decode()
    assert text.index('"alpha"') < text.index('"mid"') < text.index('"zebra"')


def test_mode_to_csv_columns(tmp_path):
    x = np.linspace(0.0, 1.0, 5)
    mode = types.SimpleNamespace(
        x=x, f=np.exp(1j * x), fp=1j * np.exp(1j * x))
    path = ser.mode_to_csv(str(tmp_path / "m.csv"), mode)
    lines = read_lines(path)
    assert lines[0] == "x,re_f,im_f,re_fp,im_fp"
    assert len(lines) == 6
    vals = [float(v) for v in lines[3].split(",")]
    assert vals[0] == x[2]
    assert vals[1] == np.exp(1j * x[2]).real
    assert vals[4] == np.exp(1j * x[2]).real  # fp = i f, so im_fp = re_f


def test_mode_to_csv_values_exact(tmp_path):
    rng = np.random.default_rng(3)
    x = np.sort(rng.uniform(-1, 1, 7))
    f = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    fp = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    mode = types.SimpleNamespace(x=x, f=f, fp=fp)
    path = ser.mode_to_csv(str(tmp_path / "m.csv"), mode)
    lines = read_lines(path)
    for k, line in enumerate(lines[1:]):
        vals = [float(v) for v in line.split(",")]
        assert vals == [x[k], f[k].real, f[k].imag, fp[k].real, fp[k].imag]


def test_report_to_csv(tmp_path):
    rows = [{"t": 0.1, "lhs": 0.5, "bound": 1.0, "ratio": 0.5, "ok": True},
            {"t": 1.0, "lhs": 2.0, "bound": 4.0, "ratio": 0.5, "ok": True}]
    path = ser.report_to_csv(str(tmp_path / "r.csv"), rows)
    lines = read_lines(path)
    assert lines[0] == "t,lhs,bound,ratio"
    assert [float(v) for v in lines[1].split(",")] == [0.1, 0.5, 1.0, 0.5]
    assert len(lines) == 3


def test_resolvent_to_csv(tmp_path):
    z_re = np.array([0.0, 1.0])
    z_im = np.array([-0.5, 0.5, 1.5])
    smin = np.arange(6.0).reshape(2, 3)
    ok = np.array([[True, True, False], [True, False, True]])
    path = ser.resolvent_to_csv(str(tmp_path / "s.csv"), z_re, z_im, smin, ok)
    lines = read_lines(path)
    assert lines[0] == "re_z,im_z,s_min,converged"
    assert len(lines) == 7
    assert lines[3].split(",") == ["0", "1.5", "2", "0"]


def test_gnuplot_contour(tmp_path):
    path = ser.gnuplot_contour(str(tmp_path / "c.gp"), "map.csv",
                               "resolvent norm map",
                               ["cloud.csv", "parabola.csv"])
    text = open(path).read()
    assert "splot 'map.csv'" in text
    assert "replot 'cloud.csv'" in text
    assert "replot 'parabola.csv'" in text
    assert "set title 'resolvent norm map'" in text
    assert text.endswith("\n")


def test_write_csv_accepts_iterators(tmp_path):
    # the columns may come from any iterable, e.g. zip(*rows) transposing a
    # list of row tuples, and each column may be a tuple
    rows = [(1.0, 3.0, "x"), (2.0, 4.0, "y")]
    path = ser.write_csv(str(tmp_path / "z.csv"), ["a", "b", "c"], zip(*rows))
    assert read_lines(path) == ["a,b,c", "1,3,x", "2,4,y"]
    path = ser.write_csv(str(tmp_path / "g.csv"), ["a", "b"],
                         (np.arange(3) * k for k in (1, 2)))
    assert read_lines(path) == ["a,b", "0,0", "1,2", "2,4"]
