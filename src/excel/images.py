"""Binary PPM (P6) and PGM (P5) readers and writers, maxval 255.

Comment lines (starting '#') after the magic number are preserved on
write via the `comment` argument and skipped on read, which is where
artifact provenance lives for image-shaped outputs.
"""

from pathlib import Path

import numpy as np

from .blobio import write_file
from .errors import DataError


def _write_netpbm(path, pixels: np.ndarray, comment: str | None):
    """The uint8 `pixels` as P6 when (H, W, 3), as P5 when (H, W)."""
    height, width = pixels.shape[:2]
    head = [b"P6" if pixels.ndim == 3 else b"P5"]
    if comment:
        for line in comment.splitlines():
            head.append(b"# " + line.encode("utf-8"))
    head.append(f"{width} {height}".encode())
    head.append(b"255")
    write_file(path, b"\n".join(head) + b"\n" + pixels.tobytes())


def _parse_netpbm(path, expected_magic: bytes, data: bytes | None = None):
    if data is None:
        if not Path(path).is_file():
            raise DataError(f"{path}: no such file")
        data = Path(path).read_bytes()
    if not data.startswith(expected_magic):
        raise DataError(f"{path}: expected {expected_magic.decode()} file")
    pos = len(expected_magic)
    fields = []
    comments = []
    while len(fields) < 3:
        if pos >= len(data):
            raise DataError(f"{path}: truncated header")
        ch = data[pos : pos + 1]
        if ch == b"#":
            end = data.find(b"\n", pos)
            if end < 0:
                raise DataError(f"{path}: unterminated comment")
            comments.append(data[pos + 1 : end].decode("utf-8", "replace").strip())
            pos = end + 1
        elif ch.isspace():
            pos += 1
        else:
            end = pos
            while end < len(data) and not data[end : end + 1].isspace():
                end += 1
            fields.append(data[pos:end])
            pos = end
    pos += 1  # single whitespace after maxval
    try:
        width, height, maxval = (int(f) for f in fields)
    except ValueError as exc:
        raise DataError(f"{path}: bad header fields {fields}") from exc
    if width < 1 or height < 1:
        raise DataError(f"{path}: image dimensions must be positive, got {width}x{height}")
    if maxval != 255:
        raise DataError(f"{path}: only maxval 255 supported, got {maxval}")
    return width, height, data[pos:], comments


def _read_netpbm(path, channels: int, data: bytes | None):
    """The uint8 pixels of a P5 file as (H, W) when `channels` is 1, of a
    P6 file as (H, W, 3) when it is 3."""
    width, height, payload, _ = _parse_netpbm(path, b"P5" if channels == 1 else b"P6", data)
    need = width * height * channels
    if len(payload) != need:
        raise DataError(f"{path}: expected {need} pixel bytes, found {len(payload)}")
    shape = (height, width) if channels == 1 else (height, width, channels)
    return np.frombuffer(payload, dtype=np.uint8).reshape(shape).copy()


def rgb_to_chw(rgb: np.ndarray) -> np.ndarray:
    """(H, W, 3) uint8 pixels -> the encoder's (3, H, W) float32 image in [0, 1]."""
    return np.ascontiguousarray(rgb.transpose(2, 0, 1).astype(np.float32) / 255.0)


def write_ppm(path, rgb: np.ndarray, comment: str | None = None):
    """rgb is (H, W, 3) uint8."""
    rgb = np.ascontiguousarray(rgb, dtype=np.uint8)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise DataError(f"PPM payload must be (H, W, 3), got {rgb.shape}")
    _write_netpbm(path, rgb, comment)


def read_ppm(path, data: bytes | None = None) -> np.ndarray:
    """The (H, W, 3) uint8 pixels of the PPM at `path`, parsed from `data`
    when the caller has read its bytes already."""
    return _read_netpbm(path, 3, data)


def write_pgm(path, gray: np.ndarray, comment: str | None = None):
    """gray is (H, W) uint8."""
    gray = np.ascontiguousarray(gray, dtype=np.uint8)
    if gray.ndim != 2:
        raise DataError(f"PGM payload must be (H, W), got {gray.shape}")
    _write_netpbm(path, gray, comment)


def read_pgm(path, data: bytes | None = None) -> np.ndarray:
    """The (H, W) uint8 pixels of the PGM at `path`, parsed from `data`
    when the caller has read its bytes already."""
    return _read_netpbm(path, 1, data)
