import hashlib
import json
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from excel.blobio import load_tensors, save_tensors, write_file
from excel.errors import ChecksumError, DataError, MissingTensorError, NumericError, ShapeError
from excel.hashing import fnv1a64
from excel.numerics import Rng
from conftest import save_non_finite


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


def test_seed_derivation_is_pinned():
    # Rng.child derives every seed with fnv1a64: a changed digest there
    # would change every output of the package
    assert Rng(7).child("attributes").seed == 657384251398013429


def test_round_trip_bitwise(tmp_path):
    tensors = _sample_tensors()
    path = save_tensors(tmp_path / "t.json", tensors, meta={"k": 1}, provenance={"stage": "x"})
    manifest = json.loads(path.read_text())
    assert manifest["format"] == "excel-tensors-v2" and "checksum_fnv1a64" not in manifest
    assert manifest["checksum_sha256"] == hashlib.sha256((tmp_path / "t.bin").read_bytes()).hexdigest()
    tf = load_tensors(path)
    assert tf.meta == {"k": 1}
    assert tf.provenance == {"stage": "x"}
    for name, arr in tensors.items():
        assert tf.require(name).tobytes() == arr.tobytes()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_tensor_is_refused_at_load(tmp_path, value):
    tensors = _sample_tensors()
    tensors["beta"][3] = value
    path = save_non_finite(tmp_path / "t.json", tensors)
    with pytest.raises(NumericError, match=r"tensor 'beta' in .*t\.json contains non-finite values"):
        load_tensors(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, 1e300], ids=["nan", "inf", "past-float32"])
def test_non_finite_tensor_is_refused_at_save(tmp_path, value):
    # a float64 value past the float32 range is stored as inf: refused too,
    # and neither file is written
    tensors = {**_sample_tensors(), "beta": np.full(4, value)}
    with pytest.raises(NumericError, match=r"tensor 'beta' for .*t\.json contains non-finite values"):
        save_tensors(tmp_path / "t.json", tensors)
    assert list(tmp_path.iterdir()) == []


def test_load_peak_is_one_blob_of_writable_views(tmp_path):
    # an 8 MiB blob in 16 tensors: the finiteness check's per-tensor
    # temporaries stay small next to the blob
    gen = Rng(5).generator()
    tensors = {f"t{i:02d}": gen.standard_normal((256, 512)).astype(np.float32) for i in range(16)}
    path = save_tensors(tmp_path / "big.json", tensors)
    blob_bytes = (tmp_path / "big.bin").stat().st_size
    tracemalloc.start()
    try:
        tf = load_tensors(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * blob_bytes, f"load peaked at {peak / blob_bytes:.2f}x the blob"
    for name, arr in tensors.items():
        loaded = tf.require(name, arr.shape)
        assert loaded.dtype == np.float32 and loaded.flags.writeable and loaded.flags.c_contiguous
        assert loaded.tobytes() == arr.tobytes()


def test_write_file_replaces_a_temp_file_left_by_a_killed_run(tmp_path):
    (tmp_path / "c.json.tmp").write_bytes(b"partial")
    write_file(tmp_path / "c.json", b"{}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]
    assert (tmp_path / "c.json").read_bytes() == b"{}\n"


@pytest.mark.parametrize("existing", [None, b"old"], ids=["new", "over-old"])
def test_write_file_failure_keeps_the_old_file_and_no_temp(monkeypatch, tmp_path, existing):
    target = tmp_path / "c.bin"
    if existing is not None:
        target.write_bytes(existing)

    def failing_replace(src, dst):
        assert Path(src).read_bytes() == b"new"  # the temp file is whole before the rename
        raise OSError("injected")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="injected"):
        write_file(target, b"new")
    assert sorted(p.name for p in tmp_path.iterdir()) == ([] if existing is None else ["c.bin"])
    assert existing is None or target.read_bytes() == existing


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


def test_corrupted_blob_is_checksum_error(tmp_path):
    path = save_tensors(tmp_path / "t.json", _sample_tensors())
    blob = tmp_path / "t.bin"
    raw = bytearray(blob.read_bytes())
    raw[5] ^= 0x01
    blob.write_bytes(bytes(raw))
    with pytest.raises(ChecksumError, match="does not match"):
        load_tensors(path)


NEEDS_SHA256 = "of format excel-tensors-v2 needs a string 'checksum_sha256'"
# excel-tensors-v1, whose checksum was "checksum_fnv1a64", is no longer read
UNKNOWN_V1 = "has unknown format tag 'excel-tensors-v1'"


@pytest.mark.parametrize(
    "tag, members, expected",
    [
        ("excel-tensors-v2", {}, NEEDS_SHA256),
        ("excel-tensors-v2", {"checksum_fnv1a64": "0x0123456789abcdef"}, NEEDS_SHA256),
        ("excel-tensors-v1", {"checksum_sha256": "00" * 32}, UNKNOWN_V1),
        ("excel-tensors-v2", {"checksum_sha256": 12345}, NEEDS_SHA256),
        ("excel-tensors-v1", {"checksum_fnv1a64": None}, UNKNOWN_V1),
    ],
    ids=["v2-none", "v2-with-v1-key", "v1-with-v2-key", "v2-not-a-string", "v1-null"],
)
def test_checksum_key_must_match_format_tag(tmp_path, tag, members, expected):
    path = save_tensors(tmp_path / "t.json", _sample_tensors())
    manifest = json.loads(path.read_text())
    del manifest["checksum_sha256"]
    path.write_text(json.dumps({**manifest, "format": tag, **members}))
    with pytest.raises(DataError, match=rf"^manifest .*t\.json {expected}"):
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


@pytest.mark.parametrize("tag", [["excel-tensors-v2"], {"v": 2}, None, 2])
def test_format_tag_not_a_string(tmp_path, tag):
    path = save_tensors(tmp_path / "t.json", _sample_tensors())
    manifest = json.loads(path.read_text())
    manifest["format"] = tag
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
