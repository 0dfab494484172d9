"""Tensor files: a JSON manifest next to a packed float32 blob.

Manifest (UTF-8, JSON):
    {
      "format": "excel-tensors-v2",
      "blob": "<filename relative to the manifest>",
      "checksum_sha256": "<64 lowercase hex digits: SHA-256 of the entire blob file>",
      "tensors": [{"name": str, "shape": [int, ...], "offset": int}, ...],
      "meta": {...},          # free-form, format-specific
      "provenance": {...}     # optional: stage, seed, config hash
    }

This is the one format: `load_tensors` refuses any other tag, the older
"excel-tensors-v1" included, before it reads the blob.

Blob: little-endian IEEE-754 binary32 values, row-major, packed back to
back at the declared byte offsets with no gaps. Loading validates the
manifest's structure, then verifies the checksum, then that the declared
tensors tile the blob exactly, then that every value is finite, in one
pass over the blob; only when that fails are the tensors searched, in
manifest order, for the one to name. The blob is read once into one
writable buffer, and every loaded tensor is a float32 view of it, so a
load peaks near the blob's size.

Every file the package writes goes through `write_file`: it makes the
parent directory, writes `<name>.tmp` beside the target and renames it
over the target, so a killed process leaves the old file or the new one,
never a part. There is no fsync: this guards against a killed process,
not a power cut. `save_tensors` lands the blob before its manifest, so a
manifest on disk has its blob. Every JSON file, manifests included, goes
through `write_json` (2-space indent, sorted keys, trailing newline), and
every JSON object the package reads goes through `read_json_object`.

Inside `writes_behind`, which `pipeline.run_pipeline` wraps a run in,
`write_file` hands each file's finished bytes to one writer thread, which
lands them with `write_file` in the order they were written, while the
caller goes on computing: a run's files land in the order a serial run
lands them. At most QUEUE_FILES files wait. The first failed landing stops
the writer and drops the files queued after it; its error is raised in
the caller at the next `write_file` or when the block ends, ahead of any
error the block raised meanwhile, so a failed run leaves the files and
the error a serial run leaves. The block ends once every queued file has
landed, and its thread with it. The writer is held in a context
variable, so neither another thread nor another run sees it.
"""

import contextlib
import contextvars
import hashlib
import json
import math
import os
import queue
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ChecksumError, DataError, ExcelError, MissingTensorError, NumericError, ShapeError

FORMAT_TAG = "excel-tensors-v2"
CHECKSUM_KEY = "checksum_sha256"

# the files a `writes_behind` block may have queued and not yet landed, so
# the bytes held for writing do not grow with the image count
QUEUE_FILES = 128

# values per slice of a load's finiteness pass: its mask (64 KiB) stays in
# cache, and the pass over the 2.6 MB fixture weights takes about as long as
# one whole-blob `np.isfinite` (0.11 ms against 0.37 ms tensor by tensor)
FINITE_SLICE = 1 << 16


@dataclass
class TensorFile:
    path: Path
    tensors: dict[str, np.ndarray]
    meta: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    def require(self, name: str, shape: tuple | None = None) -> np.ndarray:
        if name not in self.tensors:
            raise MissingTensorError(f"missing tensor '{name}' in {self.path}")
        arr = self.tensors[name]
        if shape is not None and tuple(arr.shape) != tuple(shape):
            raise ShapeError(
                f"tensor '{name}' in {self.path} has shape {tuple(arr.shape)}, "
                f"expected {tuple(shape)}"
            )
        return arr

    def meta_value(self, key: str, valid, expected: str):
        """Meta value `key`; a DataError naming the file when it is absent
        or fails `valid`, a predicate described by `expected`."""
        if key not in self.meta:
            raise DataError(f"manifest {self.path} lacks meta key '{key}'")
        value = self.meta[key]
        if not valid(value):
            raise DataError(f"manifest {self.path} meta '{key}' must be {expected}, got {value!r}")
        return value


def is_positive_int(value) -> bool:
    return type(value) is int and value >= 1


def is_grid(value) -> bool:
    """A meta `grid`: the (h, w) token grid as a list of 2 positive ints."""
    return isinstance(value, list) and len(value) == 2 and all(map(is_positive_int, value))


def is_finite_number(value) -> bool:
    return type(value) in (int, float) and math.isfinite(value)


class _Writer:
    """One thread that lands queued (path, bytes) pairs with `write_file`,
    first in first out; after its first failed landing it drops the rest."""

    def __init__(self):
        self.pending = queue.Queue(QUEUE_FILES)
        self.failure = None
        # an empty context, whatever a new thread inherits: `write_file` on
        # the thread lands the file, where queueing it would wait on itself
        self.thread = threading.Thread(target=contextvars.Context().run, args=(self._land,), name="excel-writer")
        self.thread.start()

    def _land(self):
        while (item := self.pending.get()) is not None:
            if self.failure is None:
                try:
                    write_file(*item)
                except BaseException as exc:
                    self.failure = exc

    def put(self, path: Path, data: bytes):
        """Queue `data` for `path`, once no landing has failed; waits while
        QUEUE_FILES files are queued."""
        if self.failure is not None:
            raise self.failure
        self.pending.put((path, data))

    def close(self):
        """Land every queued file, end the thread, then raise the first
        failed landing's error, if any."""
        self.pending.put(None)
        self.thread.join()
        if self.failure is not None:
            raise self.failure


_WRITER: contextvars.ContextVar[_Writer | None] = contextvars.ContextVar("excel_writer", default=None)


@contextlib.contextmanager
def writes_behind():
    """Inside the block, `write_file` queues each file for one writer
    thread (see the module docstring); the block ends once all landed."""
    writer = _Writer()
    token = _WRITER.set(writer)
    try:
        yield
    finally:
        _WRITER.reset(token)
        writer.close()


def write_file(path, data: bytes) -> Path:
    """`data` at `path`, landed whole: written to `<name>.tmp` in the same
    directory, made if missing, then renamed over `path`. On any error the
    temp file is removed and the error re-raised. The temp name is fixed,
    so a rewrite also replaces one that a killed run left behind. Inside
    `writes_behind` the file is queued and `path` returned at once."""
    path = Path(path)
    writer = _WRITER.get()
    if writer is not None:
        writer.put(path, data)
        return path
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def write_json(path, value) -> Path:
    """`value` as JSON: 2-space indent, sorted keys, one trailing newline."""
    return write_file(path, (json.dumps(value, indent=2, sort_keys=True) + "\n").encode("utf-8"))


def read_json_object(path, what: str, error: type[ExcelError]) -> dict:
    """The JSON object in `path`, else `error` naming `what` and the path:
    a missing file, bytes that are not UTF-8 JSON, or another JSON value."""
    path = Path(path)
    if not path.is_file():
        raise error(f"{what} not found: {path}")
    try:
        value = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise error(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(value, dict):
        raise error(f"{what} {path} is not a JSON object")
    return value


def save_tensors(path, tensors, meta=None, provenance=None) -> Path:
    """Write manifest + blob. `tensors` is an ordered name -> array mapping.
    A tensor that is not finite as float32 raises NumericError before
    either file is written."""
    path = Path(path)
    blob_path = path.with_suffix(".bin")
    if blob_path == path:
        raise DataError(f"manifest path {path} is its own blob's name: use another suffix than .bin")
    entries = []
    chunks = []
    offset = 0
    for name, arr in tensors.items():
        with np.errstate(over="ignore"):  # a value past the float32 range casts to inf, refused below
            arr = np.ascontiguousarray(arr, dtype="<f4")
        if not np.isfinite(arr).all():
            raise NumericError(f"tensor '{name}' for {path} contains non-finite values")
        raw = arr.tobytes()
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset})
        chunks.append(raw)
        offset += len(raw)
    blob = b"".join(chunks)
    manifest = {
        "format": FORMAT_TAG,
        "blob": blob_path.name,
        CHECKSUM_KEY: hashlib.sha256(blob).hexdigest(),
        "tensors": entries,
        "meta": meta or {},
        "provenance": provenance or {},
    }
    write_file(blob_path, blob)
    return write_json(path, manifest)


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _parse_entries(path: Path, entries) -> list[tuple[str, tuple[int, ...], int]]:
    """(name, shape, offset) per declared tensor; rejects malformed entries."""
    if not isinstance(entries, list):
        raise DataError(f"manifest {path} has no 'tensors' list")
    parsed, seen = [], set()
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise DataError(f"manifest {path} tensor entry {i} is not an object")
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            raise DataError(f"manifest {path} tensor entry {i} has no name")
        if name in seen:
            raise DataError(f"manifest {path} declares tensor '{name}' twice")
        seen.add(name)
        shape = entry.get("shape")
        if not isinstance(shape, list) or not all(_is_count(s) for s in shape):
            raise ShapeError(f"tensor '{name}' in {path} has shape {shape!r}, not a list of counts")
        offset = entry.get("offset")
        if not _is_count(offset):
            raise ShapeError(f"tensor '{name}' in {path} has offset {offset!r}, not a byte count")
        parsed.append((name, tuple(shape), offset))
    return parsed


def _all_finite(values: np.ndarray) -> bool:
    """Whether every value is finite: one pass, FINITE_SLICE values at a
    time, so the check adds no blob-sized mask."""
    starts = range(0, values.size, FINITE_SLICE)
    return all(np.isfinite(values[start : start + FINITE_SLICE]).all() for start in starts)


def load_tensors(path) -> TensorFile:
    path = Path(path)
    manifest = read_json_object(path, "manifest", DataError)
    tag = manifest.get("format")
    if tag != FORMAT_TAG:
        raise DataError(f"manifest {path} has unknown format tag {tag!r}")
    declared = manifest.get(CHECKSUM_KEY)
    if not isinstance(declared, str):
        raise DataError(f"manifest {path} of format {tag} needs a string '{CHECKSUM_KEY}', got {declared!r}")
    blob_name = manifest.get("blob")
    if not isinstance(blob_name, str) or not blob_name or Path(blob_name).name != blob_name:
        raise DataError(f"manifest {path} has blob {blob_name!r}, not a file name next to it")
    for key in ("meta", "provenance"):
        if not isinstance(manifest.get(key, {}), dict):
            raise DataError(f"manifest {path} has a '{key}' that is not an object")
    entries = _parse_entries(path, manifest.get("tensors"))
    blob_path = path.parent / blob_name
    if not blob_path.is_file():
        raise DataError(f"blob not found: {blob_path}")
    # one read into one writable buffer; every tensor is a view of it. A
    # file that changes size meanwhile fails the checksum below.
    blob = bytearray(blob_path.stat().st_size)
    with blob_path.open("rb") as f:
        f.readinto(blob)
    actual = hashlib.sha256(blob).hexdigest()
    if declared != actual:
        raise ChecksumError(
            f"blob {blob_path} checksum {actual} does not match manifest {declared}"
        )
    spans = []
    for name, shape, offset in entries:
        nbytes = 4 * math.prod(shape)
        if offset + nbytes > len(blob):
            raise ShapeError(
                f"tensor '{name}' ({shape} at offset {offset}) extends past "
                f"blob end ({len(blob)} bytes)"
            )
        spans.append((offset, offset + nbytes, name))
    end = 0
    for start, stop, name in sorted(spans):
        if start != end:
            raise ShapeError(
                f"tensor '{name}' in {path} starts at byte {start}, but the tensors "
                f"before it end at byte {end}"
            )
        end = stop
    if end != len(blob):
        raise ShapeError(
            f"manifest {path} declares {end} bytes of tensors but blob "
            f"holds {len(blob)}"
        )
    # the tensors tile the blob, so it holds whole values and each tensor
    # is a slice of them
    values = np.frombuffer(blob, dtype="<f4")
    tensors = {}
    for name, shape, offset in entries:
        start = offset // 4
        tensors[name] = values[start : start + math.prod(shape)].reshape(shape)
    if not _all_finite(values):
        for name, arr in tensors.items():  # the first culprit in manifest order
            if not np.isfinite(arr).all():
                raise NumericError(f"tensor '{name}' in {path} contains non-finite values")
    return TensorFile(
        path=path,
        tensors=tensors,
        meta=manifest.get("meta", {}),
        provenance=manifest.get("provenance", {}),
    )
