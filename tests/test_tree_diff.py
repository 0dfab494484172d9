"""`tools/tree_diff.py` names every difference between two output trees
and exits 1 on any."""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

from excel.blobio import save_tensors

TOOL = Path(__file__).resolve().parent.parent / "tools" / "tree_diff.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("tree_diff", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _tree(root: Path, files: dict) -> Path:
    for name, data in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_bytes(data)
    return root


def test_identical_trees_exit_0(tmp_path, capsys):
    files = {"a.json": b'{"x": 1}\n', "sub/b.bin": b"\x00\x01"}
    old, new = _tree(tmp_path / "old", files), _tree(tmp_path / "new", files)
    assert _load_tool().main([str(old), str(new)]) == 0
    assert "2 files in both trees, 0 differ; 0 in one tree only" in capsys.readouterr().out


def test_every_difference_is_named(tmp_path, capsys):
    old = _tree(
        tmp_path / "old",
        {
            "m.json": json.dumps({"format": "v1", "sum_a": "1", "t": [{"n": 1}], "same": 0}).encode(),
            "same-pixels.pgm": b"P5\n# old\n2 1\n255\n\x01\x02",
            "other-pixels.pgm": b"P5 2 1 255\n\x01\x02",
            "same-pixels.ppm": b"P6\n# old\n1 1\n255\n\x01\x02\x03",
            "other-pixels.ppm": b"P6\n1 1\n255\n\x01\x02\x03",
            "x.bin": b"\x00",
            "gone.csv": b"",
        },
    )
    new = _tree(
        tmp_path / "new",
        {
            "m.json": json.dumps({"format": "v2", "sum_b": "1", "t": [{"n": 1.0}], "same": 0}).encode(),
            "same-pixels.pgm": b"P5\n# new\n2 1\n255\n\x01\x02",
            "other-pixels.pgm": b"P5 2 1 255\n\x01\x03",
            "same-pixels.ppm": b"P6\n# a longer new comment\n1 1\n255\n\x01\x02\x03",
            "other-pixels.ppm": b"P6\n1 1\n255\n\x01\x02\x04",
            "x.bin": b"\x01",
            "added.log": b"",
        },
    )
    assert _load_tool().main([str(old), str(new)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "only in OLD: gone.csv" in out and "only in NEW: added.log" in out
    assert "differs: m.json: keys format, sum_a (only in OLD), sum_b (only in NEW), t.0.n" in out
    assert "differs: same-pixels.pgm: pixels identical, header differs" in out
    assert "differs: other-pixels.pgm: pixels differ" in out
    assert "differs: same-pixels.ppm: pixels identical, header differs" in out
    assert "differs: other-pixels.ppm: pixels differ" in out
    assert "differs: x.bin: bytes differ (1 -> 1 bytes)" in out
    assert "JSON key path format: differs in 1 files" in out


def test_a_tensor_file_diff_names_its_tensors(tmp_path, capsys):
    # each tensor is compared by its shape and its bytes in the blob, not by
    # its offset, so one the other tree does not hold moves nothing else
    values = np.arange(6, dtype=np.float32)
    old = {"templates": values, "enriched": values.reshape(2, 3), "v": values.reshape(2, 3), "w": values}
    new = {"enriched": values.reshape(2, 3), "v": values.reshape(3, 2), "w": values + 1, "added": values}
    save_tensors(tmp_path / "old" / "bank.json", old, meta={"lambda": 0.5})
    save_tensors(tmp_path / "new" / "bank.json", new, meta={})
    assert _load_tool().main([str(tmp_path / "old"), str(tmp_path / "new")]) == 1
    line = next(line for line in capsys.readouterr().out.splitlines() if line.startswith("differs: bank.json"))
    assert line.endswith(
        "; tensors added (only in NEW), enriched identical, templates (only in OLD), v differs, w differs"
    )
    assert "meta.lambda (only in OLD)" in line


def test_deviation_mode_says_by_how_much(tmp_path, capsys):
    # each differing tensor by its largest absolute difference, each image
    # by its differing pixels, each CSV of numbers by its largest field
    # difference; the exit code and every difference stay as without it
    values = np.arange(6, dtype=np.float32)
    save_tensors(tmp_path / "old" / "run" / "train" / "c.json", {"w": values, "s": values}, meta={})
    moved = values + np.array([0, 0.5, 0, -2, 0, 0], np.float32)
    save_tensors(tmp_path / "new" / "run" / "train" / "c.json", {"w": moved, "s": values[:3]}, meta={})
    save_tensors(tmp_path / "old" / "run" / "dynamic" / "a.json", {"cam": values}, meta={})
    save_tensors(tmp_path / "new" / "run" / "dynamic" / "a.json", {"cam": values + 0.25}, meta={})
    _tree(tmp_path / "old", {
        "a.pgm": b"P5 4 1 255\n\x01\x02\x03\x04",
        "b.ppm": b"P6 2 1 255\n\x01\x02\x03\x04\x05\x06",
        "loss.csv": b"iteration,div\r\n0,0.5\r\n1,0.25\r\n",
        "notes.csv": b"a\r\nx\r\n",
    })
    _tree(tmp_path / "new", {
        "a.pgm": b"P5 4 1 255\n\x00\x02\x03\x00",
        "b.ppm": b"P6 2 1 255\n\x01\x02\x03\x04\x05\x07",
        "loss.csv": b"iteration,div\r\n0,0.5\r\n1,0.125\r\n",
        "notes.csv": b"a\r\ny\r\n",
    })
    assert _load_tool().main(["--deviation", str(tmp_path / "old"), str(tmp_path / "new")]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "differs: a.pgm: pixels differ (2 of 4)" in out
    assert "differs: b.ppm: pixels differ (1 of 2)" in out
    assert "differs: loss.csv: bytes differ (30 -> 31 bytes); largest |difference| of a field 0.125" in out
    assert "differs: notes.csv: bytes differ (6 -> 6 bytes)" in out
    assert any(line.startswith("differs: run/train/c.json:") and line.endswith(
        "; tensors s differs, w differs (largest |difference| 2)") for line in out)
    assert any(line.startswith("differs: run/dynamic/a.json:") and line.endswith(
        "; tensors cam differs (largest |difference| 0.25)") for line in out)
    assert out[-4:] == [
        "largest |difference| of a tensor under dynamic/: 0.25 (run/dynamic/a.json cam)",
        "largest |difference| of a tensor under train/: 2 (run/train/c.json w)",
        "largest |difference| of a CSV field: 0.125 (loss.csv)",
        "pixels differing: 3 in 2 images",
    ]
