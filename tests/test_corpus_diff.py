"""scripts/corpus_diff.py: two corpus trees may differ in floats alone."""
import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "corpus_diff.py"
spec = importlib.util.spec_from_file_location("corpus_diff", SCRIPT)
corpus_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(corpus_diff)

BASE = {"summary.txt": "2 runs; exit codes: 2 x 0\n",
        "runs/a.txt": "argv: eval\nexit: 0\n",
        "reports/a.json": '{"status":"ok","iterations":3,"colligation":{"A":[[1,0.5]]},'
                          '"values":[0.25,-0]}'}


def trees(tmp_path, changed=None):
    """An old tree of BASE and a new one with the files in `changed` replaced,
    or removed where the value is None."""
    roots = []
    for name, files in (("old", BASE), ("new", {**BASE, **(changed or {})})):
        root = tmp_path / name
        for rel, text in files.items():
            if text is not None:
                (root / rel).parent.mkdir(parents=True, exist_ok=True)
                (root / rel).write_text(text)
        roots.append(root)
    return roots


def test_identical_trees_agree(tmp_path, capsys):
    assert corpus_diff.main([str(p) for p in trees(tmp_path)]) == 0
    assert "0 differences other than floats" in capsys.readouterr().out


def test_floats_that_move_are_counted_by_field(tmp_path, capsys):
    # 1 printed as an integer moves to a float; 0.5 moves by 2^-50
    new = '{"status":"ok","iterations":3,"colligation":{"A":[[1.0000000000000002,' \
          '0.5000000000000009]]},"values":[0.25,-0]}'
    assert corpus_diff.main([str(p) for p in trees(tmp_path, {"reports/a.json": new})]) == 0
    out = capsys.readouterr().out
    assert "floats differ in 1 of the 2 fields" in out
    assert out.splitlines()[-1] == ("  colligation.A: 2 of 2 floats differ, largest 8.882e-16 "
                                    "at reports/a.json:$.colligation.A[0][1]")


@pytest.mark.parametrize("changed", [
    {"summary.txt": "2 runs; exit codes: 1 x 0, 1 x 1\n"},
    {"runs/a.txt": "argv: eval\nexit: 1\n"},
    {"runs/a.txt": None},
    {"reports/a.json": '{"status":"refused","iterations":3,"colligation":{"A":[[1,0.5]]},'
                       '"values":[0.25,-0]}'},
    {"reports/a.json": '{"status":"ok","iterations":4,"colligation":{"A":[[1,0.5]]},'
                       '"values":[0.25,-0]}'},
    {"reports/a.json": '{"status":"ok","iterations":3,"colligation":{"A":[[1,0.5,0]]},'
                       '"values":[0.25,-0]}'},
    {"reports/a.json": '{"status":"ok","iterations":3,"colligation":{"B":[[1,0.5]]},'
                       '"values":[0.25,-0]}'},
    {"reports/a.json": '{"status":"ok","iterations":3,"colligation":{"A":[[1,0.5]]},'
                       '"values":[0.25,0]}'},
], ids=["summary", "run-text", "missing-file", "string", "int", "length", "key", "bytes"])
def test_any_other_difference_fails(tmp_path, capsys, changed):
    assert corpus_diff.main([str(p) for p in trees(tmp_path, changed)]) == 1
    assert "DIFFERS" in capsys.readouterr().out
