import json

import numpy as np
import pytest

from excel.blobio import load_tensors, save_tensors
from excel.errors import ChecksumError, DataError, MissingTensorError, NumericError, ShapeError
from excel.hashing import fnv1a64
from excel.numerics import Rng


def test_fnv1a64_known_vectors():
    # published FNV-1a 64-bit test values
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64(b"foobar") == 0x85944171F73967E8


def _sample_tensors():
    gen = Rng(3).generator()
    return {
        "alpha": gen.standard_normal((4, 5)).astype(np.float32),
        "beta": gen.standard_normal(7).astype(np.float32),
    }


def test_round_trip_bitwise(tmp_path):
    tensors = _sample_tensors()
    path = save_tensors(tmp_path / "t.json", tensors, meta={"k": 1}, provenance={"stage": "x"})
    tf = load_tensors(path)
    assert tf.meta == {"k": 1}
    assert tf.provenance == {"stage": "x"}
    for name, arr in tensors.items():
        assert tf.require(name).tobytes() == arr.tobytes()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_tensor_is_refused_at_load(tmp_path, value):
    tensors = _sample_tensors()
    tensors["beta"][3] = value
    path = save_tensors(tmp_path / "t.json", tensors)
    with pytest.raises(NumericError, match=r"tensor 'beta' in .*t\.json contains non-finite values"):
        load_tensors(path)


def test_save_twice_identical_bytes(tmp_path):
    tensors = _sample_tensors()
    p1 = save_tensors(tmp_path / "a.json", tensors, meta={"m": [1, 2]})
    p2 = save_tensors(tmp_path / "b.json", tensors, meta={"m": [1, 2]})
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
    assert p1.read_text().replace("a.bin", "b.bin") == p2.read_text()


def test_truncated_blob_is_checksum_error(tmp_path):
    path = save_tensors(tmp_path / "t.json", _sample_tensors())
    blob = tmp_path / "t.bin"
    blob.write_bytes(blob.read_bytes()[:-4])
    with pytest.raises(ChecksumError):
        load_tensors(path)


def test_missing_tensor_error(tmp_path):
    path = save_tensors(tmp_path / "t.json", _sample_tensors())
    tf = load_tensors(path)
    with pytest.raises(MissingTensorError, match="gamma"):
        tf.require("gamma")


def test_required_shape_mismatch(tmp_path):
    path = save_tensors(tmp_path / "t.json", _sample_tensors())
    tf = load_tensors(path)
    with pytest.raises(ShapeError, match="alpha"):
        tf.require("alpha", (5, 4))


def test_manifest_blob_size_disagreement(tmp_path):
    path = save_tensors(tmp_path / "t.json", _sample_tensors())
    manifest = json.loads(path.read_text())
    manifest["tensors"][0]["shape"] = [4, 4]  # undersells the packed bytes
    path.write_text(json.dumps(manifest))
    with pytest.raises(ShapeError):
        load_tensors(path)


def test_overlapping_entries_rejected(tmp_path):
    # beta moved onto alpha's first bytes leaves its own bytes unclaimed:
    # the sizes still add up to the blob, but the tensors do not tile it
    path = save_tensors(tmp_path / "t.json", _sample_tensors())
    manifest = json.loads(path.read_text())
    manifest["tensors"][1]["offset"] = 0
    path.write_text(json.dumps(manifest))
    with pytest.raises(ShapeError, match="starts at byte"):
        load_tensors(path)


def test_entry_past_blob_end(tmp_path):
    path = save_tensors(tmp_path / "t.json", _sample_tensors())
    manifest = json.loads(path.read_text())
    manifest["tensors"][0]["shape"] = [400, 500]
    path.write_text(json.dumps(manifest))
    with pytest.raises(ShapeError, match="extends past"):
        load_tensors(path)


def test_unknown_format_tag(tmp_path):
    path = save_tensors(tmp_path / "t.json", _sample_tensors())
    manifest = json.loads(path.read_text())
    manifest["format"] = "something-else"
    path.write_text(json.dumps(manifest))
    with pytest.raises(DataError, match="format tag"):
        load_tensors(path)


def test_missing_files(tmp_path):
    with pytest.raises(DataError, match="manifest not found"):
        load_tensors(tmp_path / "nope.json")
    path = save_tensors(tmp_path / "t.json", _sample_tensors())
    (tmp_path / "t.bin").unlink()
    with pytest.raises(DataError, match="blob not found"):
        load_tensors(path)
