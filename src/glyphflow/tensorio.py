"""Named-tensor file format: text header plus little-endian flat payload.

Layout, all header lines LF-terminated ASCII:

    tensordump 1 <tensor-count>
    meta <key> <value ...>                  zero or more
    tensor <name> <dtype> <d0,d1,...> <byte-offset>
    end
    <payload>

dtype is one of ``f8`` (little-endian float64) or ``i8`` (little-endian
int64). Offsets index into the payload, which holds each tensor's C-order
bytes back to back. Reading a dump returns arrays bit-identical to the ones
written.

No tensor's bytes are copied on the way through: writing and hashing hand
each array's own memory to the file and to sha256, and reading returns
writable views of one uninitialised uint8 array that holds the whole payload.

The checksum of named tensors and string meta is one sha256 over:

    meta <key> <value>                      one LF-terminated line per meta
                                            key, in sorted key order
    tensor <name> <dtype> <d0,d1,...>       per tensor, in sorted name order,
    <32-byte digest> ...                    an LF-terminated line, then the
                                            raw sha256 digest of each 8 MiB
                                            chunk of the tensor's bytes

A tensor's bytes are the ones a dump would hold (dtype token as above,
little-endian, C order); its last chunk may be shorter, and an empty tensor
adds no digest. The chunk size is a constant, so a checksum depends on
neither the machine nor the thread count; the chunk digests are computed on
one thread per core the process may use.
"""

from __future__ import annotations

import hashlib
import math
import os

import numpy as np

from .errors import ConfigError, MalformedHeader

_MAGIC = "tensordump 1"
_END = b"\nend\n"
_DTYPES = {"f8": np.dtype("<f8"), "i8": np.dtype("<i8")}
_MAX_NBYTES = np.iinfo(np.int64).max
_HEADER_CHUNK = 1 << 16
# part of the checksum's definition: changing it changes every checksum
_CHECKSUM_CHUNK = 8 << 20


def _canonical(arr: np.ndarray) -> tuple[str, np.ndarray]:
    """Map an array to (dtype token, little-endian contiguous array)."""
    if arr.dtype == np.bool_:
        arr = arr.astype(np.int64)
    if np.issubdtype(arr.dtype, np.floating):
        token = "f8"
    elif np.issubdtype(arr.dtype, np.integer):
        token = "i8"
    else:
        raise ConfigError(f"unsupported tensor dtype {arr.dtype}")
    return token, np.ascontiguousarray(arr, dtype=_DTYPES[token])


def _raw_bytes(canon: np.ndarray) -> np.ndarray:
    """The C-order bytes of a canonical array, as a view rather than a copy.

    reshape(-1) keeps zero-size arrays working, which a memoryview cast
    would reject.
    """
    return canon.reshape(-1).view(np.uint8)


def write_tensors(path, tensors: dict[str, np.ndarray], meta: dict[str, str] | None = None):
    """Write named tensors (and string metadata) to `path`.

    Every name and meta entry is checked before the file is opened. Tensor
    bytes go to the file straight from the arrays, without a copy unless a
    tensor first needs a dtype, byte-order or layout conversion.
    """
    lines = [f"{_MAGIC} {len(tensors)}"]
    for key, value in (meta or {}).items():
        if any(c.isspace() for c in key) or not key:
            raise ConfigError(f"bad meta key {key!r}")
        value = str(value)
        if "\n" in value:
            raise ConfigError(f"meta value for {key!r} contains a newline")
        lines.append(f"meta {key} {value}")

    arrays: list[np.ndarray] = []
    offset = 0
    for name, arr in tensors.items():
        if any(c.isspace() for c in name) or not name:
            raise ConfigError(f"bad tensor name {name!r}")
        arr = np.asarray(arr)
        if arr.ndim < 1:
            arr = arr.reshape(1)
        token, canon = _canonical(arr)
        shape = ",".join(str(d) for d in canon.shape)
        lines.append(f"tensor {name} {token} {shape} {offset}")
        arrays.append(canon)
        offset += canon.nbytes
    lines.append("end")

    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode("ascii"))
        for canon in arrays:
            fh.write(_raw_bytes(canon))


def _read_header(fh) -> tuple[str, int]:
    """The ASCII header before the end marker, and the payload's file offset."""
    head = bytearray()
    while (cut := head.find(_END)) < 0:
        chunk = fh.read(_HEADER_CHUNK)
        if not chunk:
            raise MalformedHeader("missing end marker")
        head += chunk
    try:
        return head[:cut].decode("ascii"), cut + len(_END)
    except UnicodeDecodeError as exc:
        raise MalformedHeader("header is not ASCII") from exc


def _parse_header(header: str, payload_size: int):
    """Check the header against the payload size; returns (spans, meta).

    A span is (dtype, shape, byte offset, element count) per tensor name.
    """
    header_lines = header.split("\n")
    first = header_lines[0].split()
    if len(first) != 3 or " ".join(first[:2]) != _MAGIC:
        raise MalformedHeader(f"bad magic line {header_lines[0]!r}")
    try:
        count = int(first[2])
    except ValueError as exc:
        raise MalformedHeader("bad tensor count") from exc

    meta: dict[str, str] = {}
    spans: dict[str, tuple[np.dtype, tuple[int, ...], int, int]] = {}
    for line in header_lines[1:]:
        fields = line.split(" ")
        if fields[0] == "meta":
            if len(fields) < 3:
                raise MalformedHeader(f"bad meta line {line!r}")
            meta[fields[1]] = " ".join(fields[2:])
        elif fields[0] == "tensor":
            if len(fields) != 5:
                raise MalformedHeader(f"bad tensor line {line!r}")
            _, name, token, shape_s, offset_s = fields
            if name in spans:
                raise MalformedHeader(f"tensor {name!r} declared twice")
            dtype = _DTYPES.get(token)
            if dtype is None:
                raise MalformedHeader(f"unknown dtype {token!r}")
            try:
                shape = tuple(int(d) for d in shape_s.split(","))
                offset = int(offset_s)
            except ValueError as exc:
                raise MalformedHeader(f"bad tensor line {line!r}") from exc
            if any(d < 0 for d in shape) or offset < 0:
                raise MalformedHeader(f"bad tensor line {line!r}")
            if math.prod(d for d in shape if d) * dtype.itemsize > _MAX_NBYTES:
                raise MalformedHeader(f"tensor {name!r} shape {shape_s} overflows int64")
            n = math.prod(shape)
            if offset + n * dtype.itemsize > payload_size:
                raise MalformedHeader(f"tensor {name!r} exceeds payload")
            spans[name] = (dtype, shape, offset, n)
        else:
            raise MalformedHeader(f"unknown header line {line!r}")
    if len(spans) != count:
        raise MalformedHeader(f"header declares {count} tensors, found {len(spans)}")
    ranges = sorted(
        (offset, offset + n * dtype.itemsize, name)
        for name, (dtype, _, offset, n) in spans.items()
        if n
    )
    for (_, end, prev), (start, _, name) in zip(ranges, ranges[1:]):
        if start < end:
            raise MalformedHeader(f"tensors {prev!r} and {name!r} overlap in the payload")
    return spans, meta


def read_tensors(path) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    """Read a tensor dump; returns (tensors, meta) in header order.

    The header is checked against the file size before any payload byte is
    read. The payload is then read once into one uint8 array, which numpy
    allocates without zero-filling it, and every tensor is a writable view
    of it; no two views share a byte, because overlapping payload ranges
    are rejected.
    """
    with open(path, "rb") as fh:
        header, payload_start = _read_header(fh)
        payload_size = os.fstat(fh.fileno()).st_size - payload_start
        spans, meta = _parse_header(header, payload_size)
        payload = np.empty(payload_size, dtype=np.uint8)
        fh.seek(payload_start)
        if fh.readinto(memoryview(payload)) != payload_size:
            raise MalformedHeader("file ended before its payload")
    tensors = {}
    for name, (dtype, shape, offset, n) in spans.items():
        try:
            arr = np.frombuffer(payload, dtype=dtype, count=n, offset=offset)
            tensors[name] = arr.reshape(shape)
        except ValueError as exc:
            raise MalformedHeader(f"tensor {name!r} shape is not representable: {exc}") from exc
    return tensors, meta


def _digest(chunk: np.ndarray) -> bytes:
    return hashlib.sha256(chunk).digest()


def _sha256_digests(chunks: list[np.ndarray]) -> list[bytes]:
    """sha256 digest of each chunk, hashed on up to one thread per core.

    hashlib releases the GIL while it hashes a large buffer, so the threads
    run in parallel. With one core or one chunk everything runs on the
    calling thread.
    """
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:  # no affinity mask on this platform
        cores = os.cpu_count() or 1
    workers = min(cores, len(chunks))
    if workers <= 1:
        return list(map(_digest, chunks))
    # imported here so that an import of glyphflow does not pay for it
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_digest, chunks))


def tensors_checksum(tensors: dict[str, np.ndarray], meta: dict[str, str] | None = None) -> str:
    """sha256 over sorted meta lines and, per sorted tensor name, its header
    line and the digests of its 8 MiB chunks (the module docstring gives
    the exact encoding)."""
    h = hashlib.sha256()
    for key in sorted(meta or {}):
        h.update(f"meta {key} {(meta or {})[key]}\n".encode())
    headers: list[bytes] = []
    spans: list[tuple[int, int]] = []
    chunks: list[np.ndarray] = []
    for name in sorted(tensors):
        arr = np.asarray(tensors[name])
        if arr.ndim < 1:
            arr = arr.reshape(1)
        token, canon = _canonical(arr)
        shape = ",".join(str(d) for d in canon.shape)
        headers.append(f"tensor {name} {token} {shape}\n".encode())
        raw = _raw_bytes(canon)
        first = len(chunks)
        chunks += [raw[i : i + _CHECKSUM_CHUNK] for i in range(0, raw.size, _CHECKSUM_CHUNK)]
        spans.append((first, len(chunks)))
    digests = _sha256_digests(chunks)
    for header, (first, stop) in zip(headers, spans):
        h.update(header)
        h.update(b"".join(digests[first:stop]))
    return h.hexdigest()


def file_checksum(path) -> str:
    """sha256 hex digest of a file's bytes."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
