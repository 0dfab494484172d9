import hashlib
import json

import numpy as np
import pytest

from excel.dataset import load_dataset, save_dataset
from excel.errors import DataError
from excel.images import _parse_netpbm, read_pgm, read_ppm, rgb_to_chw, write_pgm, write_ppm
from excel.numerics import Rng


# --------------------------------------------------------------------------
# netpbm round trips


def test_ppm_round_trip(tmp_path):
    gen = Rng(1).generator()
    rgb = gen.integers(0, 256, size=(5, 7, 3)).astype(np.uint8)
    path = tmp_path / "x.ppm"
    write_ppm(path, rgb, comment="hello world")
    back = read_ppm(path)
    assert np.array_equal(back, rgb)
    assert _parse_netpbm(path, b"P6")[3] == ["hello world"]


def test_pgm_round_trip(tmp_path):
    gen = Rng(2).generator()
    gray = gen.integers(0, 256, size=(4, 9)).astype(np.uint8)
    path = tmp_path / "x.pgm"
    write_pgm(path, gray, comment="provenance stage=test seed=1 config=abc")
    assert np.array_equal(read_pgm(path), gray)
    assert "provenance" in _parse_netpbm(path, b"P5")[3][0]


def test_write_twice_identical_bytes(tmp_path):
    gray = np.arange(12, dtype=np.uint8).reshape(3, 4)
    write_pgm(tmp_path / "a.pgm", gray, comment="c")
    write_pgm(tmp_path / "b.pgm", gray, comment="c")
    assert (tmp_path / "a.pgm").read_bytes() == (tmp_path / "b.pgm").read_bytes()


def test_pgm_truncated_payload(tmp_path):
    path = tmp_path / "x.pgm"
    write_pgm(path, np.zeros((4, 4), np.uint8))
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(DataError, match="pixel bytes"):
        read_pgm(path)


@pytest.mark.parametrize("dims", [b"-1 -3", b"0 4", b"4 -2"])
def test_pgm_non_positive_dimensions(tmp_path, dims):
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P5\n" + dims + b"\n255\nabc")
    with pytest.raises(DataError, match="dimensions must be positive"):
        read_pgm(path)


def test_wrong_magic(tmp_path):
    path = tmp_path / "x.pgm"
    write_ppm(tmp_path / "x.ppm", np.zeros((2, 2, 3), np.uint8))
    with pytest.raises(DataError, match="expected P5"):
        read_pgm(tmp_path / "x.ppm")


def test_unsupported_maxval(tmp_path):
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(DataError, match="maxval"):
        read_pgm(path)


# --------------------------------------------------------------------------
# dataset loading


def toy_records(classes=2, n=4, size=8):
    gen = Rng(3).generator()
    records = []
    for i in range(n):
        cid = (i % classes) + 1
        rgb = gen.integers(0, 40, size=(size, size, 3)).astype(np.uint8)
        mask = np.zeros((size, size), np.uint8)
        mask[2:6, 2:6] = cid
        rgb[2:6, 2:6] = (200, 30, 30)
        records.append((f"img_{i:04d}", rgb, mask, [cid]))
    return records


def test_dataset_round_trip(tmp_path):
    names = ["background", "red", "green"]
    save_dataset(tmp_path / "ds", names, toy_records())
    ds = load_dataset(tmp_path / "ds", image_size=(8, 8))
    assert ds.class_names == names
    assert len(ds.images) == 4
    assert ds.images[0].name == "img_0000"
    # a record keeps the uint8 pixels it read; the float32 image is made on each read
    rgb = toy_records()[0][1]
    assert ds.images[0].pixels.dtype == np.uint8 and ds.images[0].pixels.tobytes() == rgb.tobytes()
    assert ds.images[0].image.shape == (3, 8, 8)
    assert ds.images[0].image.tobytes() == rgb_to_chw(rgb).tobytes()
    assert ds.images[0].image is not ds.images[0].image
    assert ds.images[0].labels == [1]
    # lexicographic order
    assert [r.name for r in ds.images] == sorted(r.name for r in ds.images)


def test_dataset_digest_covers_every_file_it_reads(tmp_path):
    # one line per file read, "<path under the root> <its SHA-256>", in load
    # order; a change to any one file's bytes, a comment included, changes it
    names = ["background", "red", "green"]
    root = save_dataset(tmp_path / "ds", names, toy_records())
    files = ["classes.json", "labels.json"]
    files += [f"{kind}/img_{i:04d}.{ext}" for i in range(4) for kind, ext in (("images", "ppm"), ("masks", "pgm"))]
    lines = "".join(f"{name} {hashlib.sha256((root / name).read_bytes()).hexdigest()}\n" for name in files)
    digest = load_dataset(root).digest
    assert digest == hashlib.sha256(lines.encode()).hexdigest()
    same = save_dataset(tmp_path / "same", names, toy_records())
    assert load_dataset(same).digest == digest
    for i, name in enumerate(files):
        changed = save_dataset(tmp_path / f"changed{i}", names, toy_records())
        if name.endswith("json"):
            (changed / name).write_bytes((changed / name).read_bytes() + b" ")
        else:
            write = write_ppm if name.endswith("ppm") else write_pgm
            write(changed / name, (read_ppm if name.endswith("ppm") else read_pgm)(changed / name), comment="x")
        assert load_dataset(changed).digest != digest, name


def test_dataset_missing_mask(tmp_path):
    save_dataset(tmp_path / "ds", ["background", "red", "green"], toy_records())
    (tmp_path / "ds" / "masks" / "img_0002.pgm").unlink()
    with pytest.raises(DataError, match="img_0002"):
        load_dataset(tmp_path / "ds")


def test_dataset_missing_label_entry(tmp_path):
    save_dataset(tmp_path / "ds", ["background", "red", "green"], toy_records())
    labels_path = tmp_path / "ds" / "labels.json"
    table = json.loads(labels_path.read_text())
    del table["img_0001"]
    labels_path.write_text(json.dumps(table))
    with pytest.raises(DataError, match="img_0001"):
        load_dataset(tmp_path / "ds")


def test_dataset_label_entry_without_image(tmp_path):
    save_dataset(tmp_path / "ds", ["background", "red", "green"], toy_records())
    labels_path = tmp_path / "ds" / "labels.json"
    table = json.loads(labels_path.read_text())
    table["ghost"] = [1]
    labels_path.write_text(json.dumps(table))
    with pytest.raises(DataError, match="ghost"):
        load_dataset(tmp_path / "ds")


def test_dataset_empty_label_list(tmp_path):
    records = toy_records()
    name, rgb, mask, _ = records[0]
    records[0] = (name, rgb, np.zeros_like(mask), [])
    save_dataset(tmp_path / "ds", ["background", "red", "green"], records)
    with pytest.raises(DataError, match=f"'{name}' is empty"):
        load_dataset(tmp_path / "ds")


def test_dataset_out_of_range_class(tmp_path):
    records = toy_records()
    name, rgb, mask, labels = records[0]
    mask = mask.copy()
    mask[0, 0] = 9
    records[0] = (name, rgb, mask, labels)
    save_dataset(tmp_path / "ds", ["background", "red", "green"], records)
    with pytest.raises(DataError, match="outside"):
        load_dataset(tmp_path / "ds")


def test_dataset_label_mask_inconsistency(tmp_path):
    save_dataset(tmp_path / "ds", ["background", "red", "green"], toy_records())
    labels_path = tmp_path / "ds" / "labels.json"
    table = json.loads(labels_path.read_text())
    table["img_0000"] = [2]  # mask holds class 1
    labels_path.write_text(json.dumps(table))
    with pytest.raises(DataError, match="img_0000"):
        load_dataset(tmp_path / "ds")


def test_dataset_image_size_differs_from_weights(tmp_path):
    # the size the encoder weights take, (height, width), must match exactly,
    # not only divide into patches
    save_dataset(tmp_path / "ds", ["background", "red", "green"], toy_records(size=8))
    with pytest.raises(DataError, match=r"img_0000\.ppm is 8x8, but the encoder weights take 16x8 images"):
        load_dataset(tmp_path / "ds", image_size=(8, 16))
    assert len(load_dataset(tmp_path / "ds", image_size=(8, 8)).images) == 4


def test_dataset_size_mismatch(tmp_path):
    save_dataset(tmp_path / "ds", ["background", "red", "green"], toy_records())
    bad_mask = np.zeros((4, 4), np.uint8)
    write_pgm(tmp_path / "ds" / "masks" / "img_0000.pgm", bad_mask)
    with pytest.raises(DataError, match="img_0000"):
        load_dataset(tmp_path / "ds")
