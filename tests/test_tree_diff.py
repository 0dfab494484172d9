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
