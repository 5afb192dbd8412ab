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
neither the machine nor the thread count, nor on how a tensor's bytes are
split into the pieces a `ChecksumStream` is fed; the chunk digests are
computed on the process's worker pool (`worker_pool`).
"""

from __future__ import annotations

import hashlib
import math
import os
import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, MalformedHeader, ShapeMismatch

if TYPE_CHECKING:
    from concurrent.futures import Future, ThreadPoolExecutor

_MAGIC = "tensordump 1"
_END = b"\nend\n"
_DTYPES = {"f8": np.dtype("<f8"), "i8": np.dtype("<i8")}
_MAX_NBYTES = np.iinfo(np.int64).max
_HEADER_CHUNK = 1 << 16
# the longest header, in bytes before the end marker, that is written or read
_MAX_HEADER = 16 << 20
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


@contextmanager
def replacing(path, mode: str = "w", **kwargs):
    """open(path, mode) for writing, through a new file beside `path` that
    replaces it whole on a clean exit and is removed on an error: `path`
    never holds part of a write. A replaced file's permission bits carry
    over to the new one; a new path gets the umask's."""
    part = f"{path}.{os.getpid()}-{threading.get_ident()}.part"
    try:
        with open(part, mode, **kwargs) as fh:
            yield fh
        try:
            os.chmod(part, os.stat(path).st_mode & 0o7777)
        except FileNotFoundError:  # nothing to replace
            pass
        os.replace(part, path)
    finally:
        if os.path.exists(part):  # the write failed
            os.remove(part)


def write_tensors(path, tensors: dict[str, np.ndarray], meta: dict[str, str] | None = None):
    """Write named tensors (and string metadata) to `path`.

    Every name and meta entry is checked before the file is opened (through
    `replacing`). Tensor bytes go to the file straight from the arrays,
    without a copy unless a tensor first needs a dtype, byte-order or layout
    conversion.
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
    header = "\n".join(lines).encode("ascii")
    if len(header) > _MAX_HEADER:
        raise ConfigError(f"header of {len(header)} bytes exceeds {_MAX_HEADER}")

    with replacing(path, "wb") as fh:
        fh.write(header + _END)
        for canon in arrays:
            fh.write(_raw_bytes(canon))


def _read_header(fh) -> tuple[str, int]:
    """The ASCII header before the end marker, and the payload's file offset.

    Each block is searched once, together with the last len(_END) - 1 bytes
    of the one before, and no more than `_MAX_HEADER` header bytes and the
    marker are read; the header itself is read again once the marker is found.
    """
    tail, read = b"", 0
    while True:
        block = fh.read(min(_HEADER_CHUNK, _MAX_HEADER + len(_END) - read))
        if not block:
            raise MalformedHeader(f"missing end marker within {_MAX_HEADER} header bytes")
        window = tail + block
        hit = window.find(_END)
        if hit >= 0:
            break
        read += len(block)
        tail = window[-(len(_END) - 1) :]
    cut = read - len(tail) + hit
    fh.seek(0)
    try:
        return fh.read(cut).decode("ascii"), cut + len(_END)
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
            if len(fields) < 3 or fields[1] in meta:
                raise MalformedHeader(f"bad or repeated meta line {line!r}")
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
    # the non-empty tensors must tile the payload: no overlap, gap or trailing byte
    ranges = sorted(
        (offset, offset + n * dtype.itemsize, name)
        for name, (dtype, _, offset, n) in spans.items()
        if n
    )
    end, prev = 0, None
    for start, stop, name in ranges:
        if start < end:
            raise MalformedHeader(f"tensors {prev!r} and {name!r} overlap in the payload")
        if start > end:
            raise MalformedHeader(
                f"{start - end} payload bytes before tensor {name!r} belong to no tensor"
            )
        end, prev = stop, name
    if end != payload_size:
        raise MalformedHeader(f"{payload_size - end} trailing payload bytes belong to no tensor")
    return spans, meta


def read_tensors(path) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    """Read a tensor dump; returns (tensors, meta) in header order.

    The header is checked against the file size before any payload byte is
    read: the non-empty tensors must tile the payload exactly, so no byte
    that no tensor declares is read or allocated. The payload is then read
    once into one uint8 array, which numpy allocates without zero-filling
    it, and every tensor is a writable view of it; no two views share a
    byte.
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


def _hash(task: tuple) -> bytes | None:
    """Feed one run of bytes to its chunk's sha256. The run ends that chunk
    when the task names the chunk's tensor; then the digest is returned."""
    hasher, run, tensor = task
    hasher.update(run)
    return None if tensor is None else hasher.digest()


# the pid the worker pool was made under, the pool and its thread count; made
# by the first call that has work for it, and made again in a forked child
_POOL: tuple[int, "ThreadPoolExecutor", int] | None = None
_POOL_LOCK = threading.Lock()


def worker_pool() -> tuple["ThreadPoolExecutor", int]:
    """The process's one worker pool, one thread per core it may use, and its
    thread count. `ChecksumStream` hashes on it, and `model.forward` runs a
    pair's branch 1 on it. No task on it waits for another task on it: a
    forward called on a pool thread runs on that thread alone. The
    one task that waits at all is the branch 1 of a pair with a sink, which
    waits for the thread that made the pair, never a pool thread, to pass
    each layer to the sink; meanwhile any forward that thread runs stays on it.

    A pool's threads do not survive a fork, so a pool made under another pid
    is dropped and a new one sized for this process.
    """
    global _POOL
    with _POOL_LOCK:
        if _POOL is None or _POOL[0] != os.getpid():
            if hasattr(os, "sched_getaffinity"):
                cores = len(os.sched_getaffinity(0))
            else:  # no affinity mask on this platform
                cores = os.cpu_count() or 1
            # imported here so that an import of glyphflow does not pay for it
            from concurrent.futures import ThreadPoolExecutor

            _POOL = (os.getpid(), ThreadPoolExecutor(cores, "glyphflow-worker"), cores)
        return _POOL[1], _POOL[2]


class ChecksumStream:
    """`tensors_checksum` of tensors whose bytes arrive piece by piece.

    Each tensor is declared up front by name, dtype token and shape, and
    `update` submits the next C-order piece of any of them to the worker
    pool and returns, so the hashing runs beside the caller's own work (hashlib
    releases the GIL); `wait` waits for it, and the next `update` and
    `hexdigest` call it first. A piece is read until `wait` returns, so the
    caller may overwrite it only after that. Between updates only the sha256
    state of a chunk that a piece left unfinished is kept, never the bytes.
    """

    def __init__(self, tensors: dict[str, tuple[str, tuple[int, ...]]]):
        self._chunk = _CHECKSUM_CHUNK
        self._heads = dict(tensors)
        self._fed = dict.fromkeys(tensors, 0)
        self._digests: dict[str, list[bytes]] = {name: [] for name in tensors}
        self._open: dict[str, object] = {}  # sha256 of each unfinished chunk
        self._hashing: list[tuple[str | None, "Future"]] = []

    def update(self, pieces: dict[str, np.ndarray]):
        """Submit the next bytes of each named tensor to the worker pool,
        once the last update's hashing is done. No two runs share a hasher."""
        self.wait()
        tasks = []
        for name, piece in pieces.items():
            token, canon = _canonical(np.asarray(piece))
            if token != self._heads[name][0]:
                raise ConfigError(f"tensor {name!r} declared {self._heads[name][0]}, fed {token}")
            raw, fed, start = _raw_bytes(canon), self._fed[name], 0
            while start < raw.size:
                # the run up to the end of the chunk that byte `fed + start` is in
                stop = min(raw.size, start + self._chunk - (fed + start) % self._chunk)
                hasher = self._open.pop(name, None) or hashlib.sha256()
                if (fed + stop) % self._chunk:
                    self._open[name] = hasher
                tasks.append((hasher, raw[start:stop], None if name in self._open else name))
                start = stop
            self._fed[name] = fed + raw.size
        pool = worker_pool()[0] if tasks else None
        self._hashing = [(task[2], pool.submit(_hash, task)) for task in tasks]

    def wait(self):
        """Wait for the last update's hashing; after this its pieces are never read."""
        hashing, self._hashing = self._hashing, []
        for name, future in hashing:
            digest = future.result()
            if name is not None:
                self._digests[name].append(digest)

    def hexdigest(self, meta: dict[str, str] | None = None) -> str:
        """The checksum of the declared tensors and `meta`; a tensor that did
        not get exactly its declared bytes is refused."""
        self.wait()
        meta = meta or {}
        h = hashlib.sha256()
        for key in sorted(meta):
            h.update(f"meta {key} {meta[key]}\n".encode())
        for name in sorted(self._heads):
            token, shape = self._heads[name]
            nbytes = math.prod(shape) * _DTYPES[token].itemsize
            if self._fed[name] != nbytes:
                raise ShapeMismatch(f"tensor {name!r} got {self._fed[name]} of {nbytes} bytes")
            h.update(f"tensor {name} {token} {','.join(str(d) for d in shape)}\n".encode())
            h.update(b"".join(self._digests[name]))
            if name in self._open:
                h.update(self._open[name].digest())
        return h.hexdigest()


def tensors_checksum(tensors: dict[str, np.ndarray], meta: dict[str, str] | None = None) -> str:
    """sha256 over sorted meta lines and, per sorted tensor name, its header
    line and the digests of its 8 MiB chunks (the module docstring gives
    the exact encoding): a `ChecksumStream` fed each whole tensor."""
    canon = {}
    for name, arr in tensors.items():
        arr = np.asarray(arr)
        canon[name] = _canonical(arr.reshape(1) if arr.ndim < 1 else arr)
    stream = ChecksumStream({name: (token, c.shape) for name, (token, c) in canon.items()})
    stream.update({name: c for name, (_, c) in canon.items()})
    return stream.hexdigest(meta)


def file_checksum(path) -> str:
    """sha256 hex digest of a file's bytes."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
