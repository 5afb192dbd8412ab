"""Minimal Netpbm readers and writer.

Supported formats:

* P1 -- ASCII bitmap. Pixel tokens are the digits 0/1 and may appear with or
  without separating whitespace; 1 means ink.
* P2 -- ASCII graymap. Whitespace-separated decimal samples in 0..maxval.
* P5 -- binary graymap. One byte per sample for maxval < 256, two bytes
  big-endian otherwise.

Header grammar (shared by all three): magic, whitespace, width, height and,
for graymaps, maxval, each separated by whitespace. A ``#`` starts a comment
that runs to end of line and counts as whitespace. In P5 exactly one
whitespace byte separates the maxval from the raster.

The writer emits P2 with maxval 255, LF line endings and at most 16 samples
per line (the format caps text lines at 70 characters).
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionZero, MalformedHeader, NonFiniteValue, ShapeMismatch
from .tensorio import replacing


def _read_tokens(data: bytes, count: int, start: int) -> tuple[list[int], int]:
    """Read `count` whitespace/comment-separated ASCII integers from `data`."""
    tokens: list[int] = []
    i = start
    n = len(data)
    while len(tokens) < count:
        while i < n and (data[i : i + 1].isspace() or data[i] == ord("#")):
            if data[i] == ord("#"):
                while i < n and data[i] not in (0x0A, 0x0D):
                    i += 1
            else:
                i += 1
        j = i
        while j < n and not data[j : j + 1].isspace() and data[j] != ord("#"):
            j += 1
        if j == i:
            raise MalformedHeader("unexpected end of file while reading header")
        token = data[i:j]
        if not token.isdigit():
            raise MalformedHeader(f"expected unsigned integer, got {token!r}")
        try:
            tokens.append(int(token))
        except ValueError as exc:  # more digits than int() will convert
            raise MalformedHeader(f"integer of {len(token)} digits") from exc
        i = j
    return tokens, i


def _read_bits(data: bytes, count: int, start: int) -> list[int]:
    """P1 raster: digits 0/1, whitespace and comments permitted anywhere."""
    bits: list[int] = []
    i = start
    n = len(data)
    while len(bits) < count and i < n:
        c = data[i]
        if c == ord("#"):
            while i < n and data[i] not in (0x0A, 0x0D):
                i += 1
        elif data[i : i + 1].isspace():
            i += 1
        elif c in (ord("0"), ord("1")):
            bits.append(c - ord("0"))
            i += 1
        else:
            raise MalformedHeader(f"invalid bitmap character {chr(c)!r}")
    if len(bits) < count:
        raise MalformedHeader("bitmap raster truncated")
    return bits


def read_netpbm(path) -> np.ndarray:
    """Decode a P1/P2/P5 file to a float64 array in [0, 1], shape (H, W).

    For P1 an ink bit (1) maps to 1.0. For graymaps the value is
    sample/maxval, so maxval maps to 1.0.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 2:
        raise MalformedHeader("file shorter than a magic number")
    magic = data[:2]
    if magic not in (b"P1", b"P2", b"P5"):
        raise MalformedHeader(f"unsupported magic {magic!r}")

    if magic == b"P1":
        (width, height), pos = _read_tokens(data, 2, 2)
        if width == 0 or height == 0:
            raise DimensionZero(f"{width}x{height} bitmap")
        bits = _read_bits(data, width * height, pos)
        return np.array(bits, dtype=np.float64).reshape(height, width)

    (width, height, maxval), pos = _read_tokens(data, 3, 2)
    if width == 0 or height == 0:
        raise DimensionZero(f"{width}x{height} graymap")
    if maxval == 0 or maxval > 65535:
        raise MalformedHeader(f"maxval {maxval} out of range 1..65535")

    if magic == b"P2":
        samples, _ = _read_tokens(data, width * height, pos)
        values = np.array(samples, dtype=np.float64)
    else:
        # P5: exactly one whitespace byte after maxval, then raw samples.
        if pos >= len(data) or not data[pos : pos + 1].isspace():
            raise MalformedHeader("missing whitespace before P5 raster")
        raster = data[pos + 1 :]
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        need = width * height * dtype.itemsize
        if len(raster) < need:
            raise MalformedHeader("P5 raster truncated")
        values = np.frombuffer(raster[:need], dtype=dtype).astype(np.float64)

    if values.max(initial=0.0) > maxval:
        raise MalformedHeader("sample exceeds declared maxval")
    return (values / maxval).reshape(height, width)


def write_pgm(path, pixels: np.ndarray) -> None:
    """Write a [0, 1] float array as an ASCII P2 graymap with maxval 255.

    Quantization is round-half-to-even of 255 * value after clamping, so a
    given array always produces byte-identical files. NaN and infinite
    pixels have no gray level and are rejected before the file is opened.
    """
    arr = np.asarray(pixels, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeMismatch(f"expected 2-D pixel array, got shape {arr.shape}")
    height, width = arr.shape
    if width == 0 or height == 0:
        raise DimensionZero(f"{width}x{height} graymap")
    if not np.isfinite(arr).all():
        raise NonFiniteValue("pixels must be finite")
    levels = np.rint(np.clip(arr, 0.0, 1.0) * 255.0).astype(np.int64)
    lines = ["P2", f"{width} {height}", "255"]
    flat = levels.ravel()
    for i in range(0, flat.size, 16):
        lines.append(" ".join(str(v) for v in flat[i : i + 16]))
    with replacing(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
