#!/usr/bin/env python3
"""Byte-compare two output trees of `tools/equivalence.sh`.

    python3 tools/tree_diff.py OLD NEW

Every file is compared byte for byte. A file that differs is named, with
what differs in it: for a JSON file, the dotted key paths whose values
differ (list items by index), and for a tensor-file manifest also each
tensor, by name, as identical, differing in shape or bytes, or found in one
tree only; for a `.pgm` or `.ppm` file, whether its pixel payload differs
or only its header. The last lines count each JSON key path over all
files, so a change confined to a few keys reads at a glance. Exits 0 when
the trees are identical and 1 on any difference; no difference is
accepted or filtered.
"""

import argparse
import json
import math
import re
import sys
from collections import Counter
from pathlib import Path

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


def tensor_diff(old: dict, new: dict) -> list[str]:
    """Each tensor of two manifests, by name, as identical, differing, or
    in one tree only."""
    parts = []
    for name in sorted(old.keys() | new.keys()):
        if name not in new:
            parts.append(f"{name} (only in OLD)")
        elif name not in old:
            parts.append(f"{name} (only in NEW)")
        else:
            parts.append(f"{name} {'identical' if old[name] == new[name] else 'differs'}")
    return parts


def describe(old_path: Path, new_path: Path) -> tuple[str, list[str]]:
    """What differs between two files whose bytes differ, and the JSON key
    paths that differ when both are JSON."""
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
            what += "; tensors " + ", ".join(tensor_diff(old_tensors, new_tensors))
        return what, paths
    if old_path.suffix in (".pgm", ".ppm"):
        old_px, new_px = netpbm_payload(old), netpbm_payload(new)
        if old_px is None or new_px is None:
            return f"not a binary {old_path.suffix[1:].upper()}", []
        return ("pixels differ" if old_px != new_px else "pixels identical, header differs"), []
    return f"bytes differ ({len(old)} -> {len(new)} bytes)", []


def files(root: Path) -> set[str]:
    return {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    for root in (args.old, args.new):
        if not root.is_dir():
            parser.error(f"not a directory: {root}")
    old_files, new_files = files(args.old), files(args.new)
    differing = 0
    key_counts = Counter()
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
        what, paths = describe(old_path, new_path)
        key_counts.update(paths)
        print(f"differs: {name}: {what}")
    only = len(old_files ^ new_files)
    print(f"{len(common)} files in both trees, {differing} differ; {only} in one tree only")
    for path, count in sorted(key_counts.items()):
        print(f"JSON key path {path}: differs in {count} files")
    return 1 if differing or only else 0


if __name__ == "__main__":
    sys.exit(main())
