#!/usr/bin/env python3
"""Byte-compare two output trees of `tools/equivalence.sh`.

    python3 tools/tree_diff.py [--deviation] OLD NEW

Every file is compared byte for byte. A file that differs is named, with
what differs in it: for a JSON file, the dotted key paths whose values
differ (list items by index), and for a tensor-file manifest also each
tensor, by name, as identical, differing in shape or bytes, or found in one
tree only; for a `.pgm` or `.ppm` file, whether its pixel payload differs
or only its header. The last lines count each JSON key path over all
files, so a change confined to a few keys reads at a glance. Exits 0 when
the trees are identical and 1 on any difference; no difference is
accepted or filtered.

`--deviation` also says by how much: each differing tensor of one shape
in both trees with the largest absolute difference of its elements, each
`.pgm` or `.ppm` file whose pixels differ with the count of pixels that
do, and each `.csv` file of numbers with the largest absolute difference
of its fields. Its last lines give the largest of those differences over
the tensors of each directory name (such as `dynamic` or `train`) and over
the CSV files, and the differing pixels over all images.
"""

import argparse
import csv
import io
import json
import math
import re
import sys
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

MISSING = object()


def json_diff(old, new, prefix=""):
    """Dotted key paths at which two JSON values differ."""
    if isinstance(old, dict) and isinstance(new, dict):
        paths = []
        for key in sorted(old.keys() | new.keys()):
            paths += json_diff(old.get(key, MISSING), new.get(key, MISSING), f"{prefix}{key}.")
        return paths
    if isinstance(old, list) and isinstance(new, list):
        paths = []
        for i in range(max(len(old), len(new))):
            old_item = old[i] if i < len(old) else MISSING
            new_item = new[i] if i < len(new) else MISSING
            paths += json_diff(old_item, new_item, f"{prefix}{i}.")
        return paths
    if old == new and type(old) is type(new):
        return []
    path = prefix.rstrip(".") or "<root>"
    if old is MISSING:
        return [f"{path} (only in NEW)"]
    if new is MISSING:
        return [f"{path} (only in OLD)"]
    return [path]


# a header token of a netpbm file, after whitespace and `#` comments
HEADER_TOKEN = re.compile(rb"(?:\s|#[^\n]*\n)*[^\s#]+")


def netpbm_payload(raw: bytes) -> bytes | None:
    """The pixel bytes of a binary PGM or PPM: what follows the whitespace byte
    after its four header tokens (magic, width, height, maxval). None
    when the header is malformed."""
    pos = 0
    for _ in range(4):
        token = HEADER_TOKEN.match(raw, pos)
        if token is None:
            return None
        pos = token.end()
    return raw[pos + 1 :]


def tensors(manifest_path: Path, manifest) -> dict | None:
    """name -> (shape, float32 bytes) of each tensor a tensor-file manifest
    declares, sliced from its blob; None when the JSON value is no manifest
    or its blob is not beside it."""
    if not isinstance(manifest, dict) or not isinstance(manifest.get("blob"), str):
        return None
    blob_path = manifest_path.parent / manifest["blob"]
    if not blob_path.is_file():
        return None
    blob = blob_path.read_bytes()
    try:
        return {
            entry["name"]: (entry["shape"], blob[entry["offset"] : entry["offset"] + 4 * math.prod(entry["shape"])])
            for entry in manifest["tensors"]
        }
    except (KeyError, TypeError):
        return None


def exceeds(largest: float, seen: tuple[float, str]) -> bool:
    """Whether `largest` replaces the (largest, where) seen so far: the
    first one does, and a NaN stays."""
    return not seen[1] or not (largest <= seen[0] or math.isnan(seen[0]))


class Deviations:
    """The largest absolute differences and the differing pixels that a
    `--deviation` comparison has seen, for its last lines."""

    def __init__(self, root: Path):
        self.root = root  # the NEW tree, which `where` is relative to
        self.tensors = defaultdict(lambda: (0.0, ""))  # directory name -> (largest, where)
        self.csv = (0.0, "")
        self.pixels = self.images = 0

    def tensor(self, path: Path, name: str, old: bytes, new: bytes) -> str:
        a, b = (np.frombuffer(raw, "<f4").astype(np.float64) for raw in (old, new))
        largest = float(np.abs(a - b).max(initial=0.0))
        if exceeds(largest, self.tensors[path.parent.name]):
            self.tensors[path.parent.name] = (largest, f"{path.relative_to(self.root)} {name}")
        return f" (largest |difference| {largest:.3g})"

    def table(self, path: Path, old: bytes, new: bytes) -> str:
        """The largest absolute difference of two CSV files' fields; empty
        when they are not the same grid of numbers."""
        try:
            rows = [list(csv.reader(io.StringIO(raw.decode("ascii")))) for raw in (old, new)]
            values = [[float(field) for row in table[1:] for field in row] for table in rows]
        except (UnicodeDecodeError, ValueError):
            return ""
        if [len(row) for row in rows[0]] != [len(row) for row in rows[1]]:
            return ""
        largest = float(np.abs(np.subtract(*values)).max(initial=0.0))
        if exceeds(largest, self.csv):
            self.csv = (largest, str(path.relative_to(self.root)))
        return f"; largest |difference| of a field {largest:.3g}"

    def image(self, old: bytes, new: bytes, channels: int) -> str:
        if len(old) != len(new):
            return " (pixel counts differ)"
        a, b = (np.frombuffer(raw, np.uint8).reshape(-1, channels) for raw in (old, new))
        count = int((a != b).any(axis=1).sum())
        self.pixels += count
        self.images += 1
        return f" ({count} of {len(a)})"

    def summary(self) -> list[str]:
        lines = [
            f"largest |difference| of a tensor under {directory}/: {largest:.3g} ({where})"
            for directory, (largest, where) in sorted(self.tensors.items())
        ]
        if self.csv[1]:
            lines.append(f"largest |difference| of a CSV field: {self.csv[0]:.3g} ({self.csv[1]})")
        lines.append(f"pixels differing: {self.pixels} in {self.images} images")
        return lines


def tensor_diff(old: dict, new: dict, deviations: Deviations | None = None, path: Path | None = None) -> list[str]:
    """Each tensor of two manifests, by name, as identical, differing, or
    in one tree only; with `deviations`, a differing tensor of one shape
    also by its largest absolute difference."""
    parts = []
    for name in sorted(old.keys() | new.keys()):
        if name not in new:
            parts.append(f"{name} (only in OLD)")
        elif name not in old:
            parts.append(f"{name} (only in NEW)")
        elif old[name] == new[name]:
            parts.append(f"{name} identical")
        elif deviations is not None and old[name][0] == new[name][0] and len(old[name][1]) == len(new[name][1]):
            parts.append(f"{name} differs" + deviations.tensor(path, name, old[name][1], new[name][1]))
        else:
            parts.append(f"{name} differs")
    return parts


def describe(old_path: Path, new_path: Path, deviations: Deviations | None = None) -> tuple[str, list[str]]:
    """What differs between two files whose bytes differ, and the JSON key
    paths that differ when both are JSON; with `deviations`, by how much."""
    old, new = old_path.read_bytes(), new_path.read_bytes()
    if old_path.suffix == ".json":
        try:
            old_value, new_value = json.loads(old), json.loads(new)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return f"not JSON ({exc})", []
        paths = json_diff(old_value, new_value)
        what = "keys " + ", ".join(paths) if paths else "same JSON value, different bytes"
        old_tensors, new_tensors = tensors(old_path, old_value), tensors(new_path, new_value)
        if old_tensors is not None and new_tensors is not None:
            what += "; tensors " + ", ".join(tensor_diff(old_tensors, new_tensors, deviations, new_path))
        return what, paths
    if old_path.suffix in (".pgm", ".ppm"):
        old_px, new_px = netpbm_payload(old), netpbm_payload(new)
        if old_px is None or new_px is None:
            return f"not a binary {old_path.suffix[1:].upper()}", []
        if old_px == new_px:
            return "pixels identical, header differs", []
        channels = 3 if old_path.suffix == ".ppm" else 1
        return "pixels differ" + (deviations.image(old_px, new_px, channels) if deviations else ""), []
    what = f"bytes differ ({len(old)} -> {len(new)} bytes)"
    if deviations is not None and old_path.suffix == ".csv":
        what += deviations.table(new_path, old, new)
    return what, []


def files(root: Path) -> set[str]:
    return {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--deviation", action="store_true", help="say by how much tensors, pixels and CSVs differ")
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    for root in (args.old, args.new):
        if not root.is_dir():
            parser.error(f"not a directory: {root}")
    old_files, new_files = files(args.old), files(args.new)
    differing = 0
    key_counts = Counter()
    deviations = Deviations(args.new) if args.deviation else None
    for name in sorted(old_files - new_files):
        print(f"only in OLD: {name}")
    for name in sorted(new_files - old_files):
        print(f"only in NEW: {name}")
    common = sorted(old_files & new_files)
    for name in common:
        old_path, new_path = args.old / name, args.new / name
        if old_path.read_bytes() == new_path.read_bytes():
            continue
        differing += 1
        what, paths = describe(old_path, new_path, deviations)
        key_counts.update(paths)
        print(f"differs: {name}: {what}")
    only = len(old_files ^ new_files)
    print(f"{len(common)} files in both trees, {differing} differ; {only} in one tree only")
    for path, count in sorted(key_counts.items()):
        print(f"JSON key path {path}: differs in {count} files")
    for line in deviations.summary() if deviations else []:
        print(line)
    return 1 if differing or only else 0


if __name__ == "__main__":
    sys.exit(main())
