"""Toy dataset on disk: PPM images, PGM class-index masks, JSON label lists.

Layout under a root directory:
    classes.json   {"classes": ["background", <foreground names>...]}
    labels.json    {"<image stem>": [<present foreground class ids>], ...}
    images/<stem>.ppm
    masks/<stem>.pgm    values: class id, 0 background, 255 ignore

Images load in lexicographic stem order so every traversal is
reproducible. For synthetic data the label list of an image is exactly
the set of foreground ids present in its mask, and the loader enforces
that; every image needs a non-empty list, and `labels.json` names
exactly the images under `images/`.
"""

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .blobio import read_json_object, write_json
from .errors import DataError
from .images import read_pgm, read_ppm, rgb_to_chw, write_pgm, write_ppm
from .static_calibration import IGNORE_LABEL


@dataclass
class ImageRecord:
    name: str
    pixels: np.ndarray  # (H, W, 3) uint8, as read and checked
    mask: np.ndarray | None  # (H, W) uint8; None for an `excel cam` image
    labels: list[int]  # present foreground class ids, ascending

    @property
    def image(self) -> np.ndarray:
        """The encoder's (3, H, W) float32 image in [0, 1], converted from
        `pixels` on each read, so no record holds it."""
        return rgb_to_chw(self.pixels)


@dataclass
class ToyDataset:
    root: Path
    class_names: list[str]  # index 0 is background
    images: list[ImageRecord]
    digest: str  # SHA-256 hex of a "<path under root> <SHA-256 of its bytes>" line per file, in load order


def load_class_names(path) -> list[str]:
    """The class names of a `classes.json`, background first."""
    path = Path(path)
    names = read_json_object(path, "class list", DataError).get("classes")
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise DataError(f'{path} must hold {{"classes": [<class names>...]}}')
    if not names or names[0] != "background":
        raise DataError(f"{path} must start with 'background', got {names[:1]}")
    return names


def _load_label_table(path: Path) -> dict:
    table = read_json_object(path, "label table", DataError)
    if not all(
        isinstance(ids, list) and all(type(v) is int for v in ids) for ids in table.values()
    ):
        raise DataError(f"{path} must map each image stem to a list of integer class ids")
    return table


def load_dataset(root, image_size: tuple[int, int] | None = None) -> ToyDataset:
    """The dataset under `root`; with `image_size` (height, width), every
    image must have exactly that size. Its `digest` covers the bytes of
    `classes.json`, `labels.json` and each image and mask."""
    root = Path(root)
    digest = hashlib.sha256()

    def read(path: Path) -> bytes:
        if not path.is_file():
            raise DataError(f"{path}: no such file")
        data = path.read_bytes()
        digest.update(f"{path.relative_to(root).as_posix()} {hashlib.sha256(data).hexdigest()}\n".encode())
        return data

    classes_path = root / "classes.json"
    labels_path = root / "labels.json"
    for req in (classes_path, labels_path, root / "images", root / "masks"):
        if not req.exists():
            raise DataError(f"dataset root {root} lacks {req.name}")
    class_names = load_class_names(classes_path)
    num_fg = len(class_names) - 1
    label_table = _load_label_table(labels_path)
    for path in (classes_path, labels_path):
        read(path)
    image_paths = sorted((root / "images").glob("*.ppm"))
    orphans = sorted(set(label_table) - {p.stem for p in image_paths})
    if orphans:
        raise DataError(f"labels.json lists image '{orphans[0]}', but {root / 'images'} has no {orphans[0]}.ppm")
    records = []
    for image_path in image_paths:
        stem = image_path.stem
        mask_path = root / "masks" / f"{stem}.pgm"
        if not mask_path.exists():
            raise DataError(f"missing mask for image '{stem}': {mask_path}")
        if stem not in label_table:
            raise DataError(f"missing label list for image '{stem}' in labels.json")
        rgb = read_ppm(image_path, read(image_path))
        mask = read_pgm(mask_path, read(mask_path))
        if rgb.shape[:2] != mask.shape:
            raise DataError(
                f"image '{stem}' is {rgb.shape[1]}x{rgb.shape[0]} but its mask "
                f"is {mask.shape[1]}x{mask.shape[0]}"
            )
        if image_size and rgb.shape[:2] != image_size:
            raise DataError(
                f"image {image_path} is {rgb.shape[1]}x{rgb.shape[0]}, but the encoder "
                f"weights take {image_size[1]}x{image_size[0]} images"
            )
        mask_ids = set(int(v) for v in np.unique(mask)) - {0, IGNORE_LABEL}
        if any(v > num_fg for v in mask_ids):
            raise DataError(
                f"mask for '{stem}' contains class id {max(mask_ids)} outside 1..{num_fg}"
            )
        labels = sorted(label_table[stem])
        if not labels:
            raise DataError(f"label list for '{stem}' is empty: each image needs at least one foreground class")
        if any(not 1 <= v <= num_fg for v in labels):
            raise DataError(f"label list for '{stem}' contains ids outside 1..{num_fg}")
        if set(labels) != mask_ids:
            raise DataError(
                f"label list for '{stem}' is {labels} but its mask contains {sorted(mask_ids)}"
            )
        records.append(ImageRecord(name=stem, pixels=rgb, mask=mask, labels=labels))
    if not records:
        raise DataError(f"dataset root {root} contains no images")
    return ToyDataset(root=root, class_names=class_names, images=records, digest=digest.hexdigest())


def save_dataset(root, class_names, records, comment: str | None = None):
    """Write a dataset tree; `records` is an iterable of (name, rgb_uint8,
    mask_uint8, labels)."""
    root = Path(root)
    label_table = {}
    for name, rgb, mask, labels in records:
        write_ppm(root / "images" / f"{name}.ppm", rgb, comment=comment)
        write_pgm(root / "masks" / f"{name}.pgm", mask, comment=comment)
        label_table[name] = sorted(int(v) for v in labels)
    write_json(root / "classes.json", {"classes": list(class_names)})
    write_json(root / "labels.json", label_table)
    return root
