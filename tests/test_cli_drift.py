"""tools/cli_drift.py: the drift table and its exit code on two tiny trees."""

import importlib.util
import json
import math
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "cli_drift.py"


def load_drift():
    spec = importlib.util.spec_from_file_location("cli_drift", _TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def write_tree(root, files):
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


_OLD = {
    "w_0/a.csv": "kind,x,y\nint,1.0,-4.0\nint,2.0,0.0\n",
    "w_0/a.json": json.dumps({"rq": 0.5, "rp": "nan", "z": [1.0, 2.0],
                              "ok": True}),
    "w_0/a.stdout": '{"outputs": ["./a.csv"]}\n',
    "w_0/same.csv": "u\n1\n",
}


def test_drift_rows_for_changed_columns_and_scalars(tmp_path, capsys):
    drift = load_drift()
    new = dict(_OLD)
    new["w_0/a.csv"] = "kind,x,y\nint,1.0,-4.0\nint,2.0,1e-3\n"
    new["w_0/a.json"] = json.dumps({"rq": 0.5000005, "rp": "nan",
                                    "z": [1.0, 2.0], "ok": True})
    old_root = write_tree(tmp_path / "old", _OLD)
    new_root = write_tree(tmp_path / "new", new)
    table, problems, same = drift.compare_trees(old_root, new_root)
    assert problems == [] and same == 2
    rows = {(f, c): r for f, c, *r in table}
    assert set(rows) == {("w_0/a.csv", "y"), ("w_0/a.json", "/rq")}
    scaled, entry, big = rows["w_0/a.csv", "y"]
    assert (scaled, entry, big) == (1e-3 / 4.0, math.inf, 1e-3)
    scaled, entry, big = rows["w_0/a.json", "/rq"]
    assert math.isclose(scaled, 1e-6) and scaled == entry
    assert drift.main([str(old_root), str(new_root)]) == 0
    out = capsys.readouterr().out
    assert "w_0/a.csv:y" in out and "2 files identical, 2 in the table" in out


def test_drift_exits_1_on_structure_or_text(tmp_path, capsys):
    drift = load_drift()
    cases = [
        ("w_0/a.csv", "kind,x,z\nint,1.0,-4.0\nint,2.0,0.0\n"),      # header
        ("w_0/a.csv", "kind,x,y\nint,1.0,-4.0\nbnd,2.0,0.0\n"),      # a cell
        ("w_0/a.json", json.dumps({"rq": 0.5, "rp": 1.0, "z": [1.0, 2.0],
                                   "ok": True})),                  # "nan" -> 1.0
        ("w_0/a.stdout", '{"outputs": ["./b.csv"]}\n'),            # text
    ]
    old_root = write_tree(tmp_path / "old", _OLD)
    for k, (rel, text) in enumerate(cases):
        new_root = write_tree(tmp_path / f"new{k}", {**_OLD, rel: text})
        _, problems, _ = drift.compare_trees(old_root, new_root)
        assert len(problems) == 1 and problems[0].startswith(rel)
        assert drift.main([str(old_root), str(new_root)]) == 1
    rows = _OLD["w_0/a.csv"] + "int,3.0,1.0\n"
    new_root = write_tree(tmp_path / "rows", {**_OLD, "w_0/a.csv": rows})
    assert drift.compare_trees(old_root, new_root)[1] == ["w_0/a.csv: row count 2 -> 3"]
    (new_root / "w_0" / "same.csv").unlink()
    assert "w_0/same.csv: only in OLD" in drift.compare_trees(old_root, new_root)[1]
    capsys.readouterr()


def test_drift_names_json_keys_on_one_side_and_sizes_the_rest(tmp_path, capsys):
    drift = load_drift()
    # "rp" leaves, "width" arrives, and the shared "rq" still moves
    new = {**_OLD, "w_0/a.json": json.dumps({"rq": 0.5000005, "width": 1e-4,
                                             "z": [1.0, 2.0], "ok": True})}
    old_root = write_tree(tmp_path / "old", _OLD)
    new_root = write_tree(tmp_path / "new", new)
    table, problems, _ = drift.compare_trees(old_root, new_root)
    assert problems == ["w_0/a.json: /rp: only in OLD",
                        "w_0/a.json: /width: only in NEW"]
    assert [(f, c) for f, c, *_ in table] == [("w_0/a.json", "/rq")]
    assert drift.main([str(old_root), str(new_root)]) == 1
    out = capsys.readouterr().out
    assert "w_0/a.json:/rq" in out
    assert "DIFFERS w_0/a.json: /width: only in NEW" in out
