import hashlib
import os
import select
import signal
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from glyphflow import (
    ConfigError,
    GlyphFlowError,
    MalformedHeader,
    file_checksum,
    read_tensors,
    tensors_checksum,
    write_tensors,
)
from glyphflow import tensorio


def test_round_trip_bit_exact(tmp_path, rng):
    path = tmp_path / "dump.bin"
    tensors = {
        "a": rng.standard_normal((3, 4)),
        "b": np.arange(6, dtype=np.int64).reshape(2, 3),
        "flags": np.array([True, False, True]),
        "scalarish": np.float64(2.5),
    }
    write_tensors(path, tensors, meta={"word": "logo", "steps": "28"})
    back, meta = read_tensors(path)
    assert meta == {"word": "logo", "steps": "28"}
    assert list(back) == ["a", "b", "flags", "scalarish"]
    assert back["a"].dtype == np.dtype("<f8")
    assert back["a"].tobytes() == tensors["a"].astype("<f8").tobytes()
    assert np.array_equal(back["b"], tensors["b"])
    assert back["b"].dtype == np.dtype("<i8")
    assert np.array_equal(back["flags"], [1, 0, 1])
    assert back["scalarish"].shape == (1,)


def test_special_float_values_survive(tmp_path):
    path = tmp_path / "dump.bin"
    vals = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, np.nextafter(0.0, 1.0)])
    write_tensors(path, {"v": vals})
    back, _ = read_tensors(path)
    assert back["v"].tobytes() == vals.tobytes()


def test_empty_dump(tmp_path):
    path = tmp_path / "dump.bin"
    write_tensors(path, {})
    back, meta = read_tensors(path)
    assert back == {} and meta == {}


def test_meta_value_may_contain_spaces(tmp_path):
    path = tmp_path / "dump.bin"
    write_tensors(path, {}, meta={"style": "bold geometric strokes"})
    _, meta = read_tensors(path)
    assert meta["style"] == "bold geometric strokes"


def test_bad_names_rejected(tmp_path):
    path = tmp_path / "dump.bin"
    with pytest.raises(ConfigError):
        write_tensors(path, {"has space": np.zeros(1)})
    with pytest.raises(ConfigError):
        write_tensors(path, {}, meta={"k": "line\nbreak"})
    with pytest.raises(ConfigError):
        write_tensors(path, {"c": np.array(["text"])})


def test_malformed_files(tmp_path):
    path = tmp_path / "dump.bin"
    cases = [
        b"tensordump 2 1\nend\n",                     # wrong version
        b"tensordump 1 1\n",                           # no end marker
        b"tensordump 1 1\ntensor a f4 1 0\nend\n" + b"\x00" * 8,   # unknown dtype
        b"tensordump 1 1\ntensor a f8 4 0\nend\n" + b"\x00" * 8,   # payload too short
        b"tensordump 1 2\ntensor a f8 1 0\nend\n" + b"\x00" * 8,   # count mismatch
        b"tensordump 1 0\nbogus line\nend\n",          # unknown directive
        b"tensordump 1 1\ntensor a f8 -1 0\nend\n",    # negative dim
        b"tensordump 1 0\nmeta a 1\nmeta a 2\nend\n",  # repeated meta key
    ]
    for raw in cases:
        path.write_bytes(raw)
        with pytest.raises(MalformedHeader):
            read_tensors(path)


@pytest.mark.parametrize("block", [1, 2, 3, 4, 5, 7, 64])
def test_end_marker_found_across_block_boundaries(monkeypatch, tmp_path, block):
    path = tmp_path / "dump.bin"
    write_tensors(path, {"a": np.arange(3.0)}, meta={"k": "x" * 40})
    monkeypatch.setattr(tensorio, "_HEADER_CHUNK", block)
    tensors, meta = read_tensors(path)
    assert tensors["a"].tolist() == [0.0, 1.0, 2.0] and meta == {"k": "x" * 40}


def test_header_without_end_marker_is_refused_in_bounded_memory(monkeypatch, tmp_path):
    bound = 4 * tensorio._HEADER_CHUNK
    monkeypatch.setattr(tensorio, "_MAX_HEADER", bound)
    path = tmp_path / "zeros.bin"
    path.write_bytes(bytes(2 * bound))
    tracemalloc.start()
    try:
        with pytest.raises(MalformedHeader, match="missing end marker"):
            read_tensors(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound + tensorio._HEADER_CHUNK


def test_header_bound_is_the_same_for_write_and_read(monkeypatch, tmp_path):
    path = tmp_path / "dump.bin"
    tensors, meta = {"a": np.zeros(2)}, {"k": "v" * 100}
    write_tensors(path, tensors, meta=meta)
    header_len = path.read_bytes().index(b"\nend\n")
    monkeypatch.setattr(tensorio, "_MAX_HEADER", header_len)
    write_tensors(path, tensors, meta=meta)
    assert read_tensors(path)[1] == meta
    monkeypatch.setattr(tensorio, "_MAX_HEADER", header_len - 1)
    with pytest.raises(MalformedHeader, match="missing end marker"):
        read_tensors(path)
    with pytest.raises(ConfigError, match="exceeds"):
        write_tensors(path, tensors, meta=meta)


def test_checksum_insensitive_to_insertion_order(rng):
    a = rng.standard_normal(4)
    b = rng.standard_normal((2, 2))
    assert tensors_checksum({"a": a, "b": b}) == tensors_checksum({"b": b, "a": a})


def test_checksum_sensitive_to_content(rng):
    a = rng.standard_normal(4)
    base = tensors_checksum({"a": a})
    bumped = a.copy()
    bumped[0] = np.nextafter(bumped[0], np.inf)
    assert tensors_checksum({"a": bumped}) != base
    assert tensors_checksum({"renamed": a}) != base
    assert tensors_checksum({"a": a.reshape(2, 2)}) != base
    assert tensors_checksum({"a": a}, meta={"k": "v"}) != base


def test_file_checksum(tmp_path):
    p = tmp_path / "f.bin"
    p.write_bytes(b"abc")
    # sha256("abc")
    assert file_checksum(p) == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"


def test_malformed_shape_name_and_range(tmp_path):
    path = tmp_path / "dump.bin"
    cases = [
        # element count wraps to 0 in int64 arithmetic
        b"tensordump 1 1\ntensor a f8 4294967296,4294967296 0\nend\n",
        # zero-size, but no array can have that shape
        b"tensordump 1 1\ntensor a f8 0,4294967296,4294967296 0\nend\n",
        # more dimensions than numpy supports
        b"tensordump 1 1\ntensor a f8 " + b",".join([b"1"] * 65) + b" 0\nend\n" + b"\x00" * 8,
        # the same name twice
        b"tensordump 1 2\ntensor a f8 1 0\ntensor a f8 1 8\nend\n" + b"\x00" * 16,
        b"tensordump 1 1\ntensor a f8 1 0\ntensor a f8 1 8\nend\n" + b"\x00" * 16,
        # payload ranges that overlap
        b"tensordump 1 2\ntensor a f8 2 0\ntensor b i8 1 8\nend\n" + b"\x00" * 16,
        b"tensordump 1 2\ntensor a f8 1 8\ntensor b f8 3 0\nend\n" + b"\x00" * 24,
    ]
    for raw in cases:
        path.write_bytes(raw)
        with pytest.raises(MalformedHeader):
            read_tensors(path)


def test_adjacent_and_zero_size_ranges_are_accepted(tmp_path):
    path = tmp_path / "dump.bin"
    path.write_bytes(
        b"tensordump 1 3\ntensor a f8 1 8\ntensor b i8 1 0\ntensor e f8 0,3 8\nend\n"
        + b"\x01" * 16
    )
    back, _ = read_tensors(path)
    assert back["e"].shape == (0, 3)
    assert back["b"].tolist() == [0x0101010101010101]


@pytest.mark.parametrize("layout", ["trailing", "gap"])
def test_undeclared_payload_bytes_are_refused_before_allocation(tmp_path, layout):
    """A dump whose tensors leave payload bytes to no tensor is refused from
    its header: the 256 MiB region after them, sparse on disk, is neither
    read nor allocated."""
    path = tmp_path / "dump.bin"
    if layout == "trailing":
        header = b"tensordump 1 1\ntensor a f8 3 0\nend\n"
    else:  # b starts 256 MiB after a ends
        header = b"tensordump 1 2\ntensor a f8 3 0\ntensor b f8 1 %d\nend\n" % (24 + (256 << 20))
    with open(path, "wb") as fh:
        fh.write(header + b"\x00" * 24)
        fh.truncate(len(header) + 24 + (256 << 20) + (8 if layout == "gap" else 0))
    tracemalloc.start()
    try:
        with pytest.raises(MalformedHeader, match="belong to no tensor"):
            read_tensors(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_zero_size_round_trip_and_checksum(tmp_path):
    path = tmp_path / "dump.bin"
    tensors = {"empty": np.zeros((0, 3)), "ids": np.zeros(0, dtype=np.int64), "x": np.ones(2)}
    write_tensors(path, tensors, meta={"k": "v"})
    back, meta = read_tensors(path)
    assert back["empty"].shape == (0, 3) and back["empty"].dtype == np.dtype("<f8")
    assert back["ids"].shape == (0,) and back["ids"].dtype == np.dtype("<i8")
    assert tensors_checksum(back, meta) == tensors_checksum(tensors, {"k": "v"})


def test_read_returns_writable_views_that_never_alias(tmp_path, rng):
    path = tmp_path / "dump.bin"
    tensors = {"a": rng.standard_normal((3, 4)), "b": np.arange(5), "c": rng.standard_normal(2)}
    write_tensors(path, tensors)
    back, _ = read_tensors(path)
    for name, arr in back.items():
        assert arr.flags.writeable and arr.flags.aligned and arr.flags.c_contiguous
        for other in back:
            assert other == name or not np.shares_memory(arr, back[other])
    back["a"][...] = 0.0
    assert np.array_equal(back["c"], tensors["c"])


# ---------------------------------------------------------------- properties

_CHUNK = tensorio._CHECKSUM_CHUNK


def _tobytes_checksum(tensors, meta=None, chunk=_CHUNK):
    """The checksum's definition, computed the slow way: each canonical array
    copied with tobytes(), then one sha256 per `chunk` bytes in order."""
    h = hashlib.sha256()
    for key in sorted(meta or {}):
        h.update(f"meta {key} {meta[key]}\n".encode())
    for name in sorted(tensors):
        arr = np.asarray(tensors[name])
        if arr.ndim < 1:
            arr = arr.reshape(1)
        if arr.dtype == np.bool_:
            arr = arr.astype(np.int64)
        token = "f8" if np.issubdtype(arr.dtype, np.floating) else "i8"
        canon = np.ascontiguousarray(arr, dtype="<" + token)
        shape = ",".join(str(d) for d in canon.shape)
        h.update(f"tensor {name} {token} {shape}\n".encode())
        raw = canon.tobytes(order="C")
        for i in range(0, len(raw), chunk):
            h.update(hashlib.sha256(raw[i : i + chunk]).digest())
    return h.hexdigest()


_DTYPES = st.sampled_from(["?", "<i4", ">i4", "<i8", ">i8", "<f8", ">f8", "<f4"])


@st.composite
def _arrays(draw):
    arr = draw(hnp.arrays(_DTYPES, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5)))
    view = draw(st.sampled_from(["plain", "transpose", "reverse", "stride"]))
    if view == "transpose":
        arr = arr.T
    elif view == "reverse" and arr.ndim:
        arr = arr[::-1]
    elif view == "stride" and arr.ndim:
        arr = arr[::2]
    return arr


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(st.sampled_from(["a", "b", "logits", "x.y"]), _arrays(), max_size=3),
    st.dictionaries(st.sampled_from(["k", "steps"]), st.text("ab c,.0", max_size=6), max_size=2),
    st.sampled_from([1, 7, 8, 64, _CHUNK]),
)
def test_checksum_equals_tobytes_formula(tensors, meta, chunk):
    # small chunks make the drawn arrays (up to 1000 bytes) span many chunks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensorio, "_CHECKSUM_CHUNK", chunk)
        got = tensors_checksum(tensors, meta)
    assert got == _tobytes_checksum(tensors, meta, chunk)


@pytest.mark.parametrize(
    "chunk, nbytes, n_digests",
    [
        (7, 0, 0),  # an empty tensor adds no digest
        (7, 8, 2),  # 1 chunk and 1 byte
        (7, 56, 8),  # exactly 8 chunks
        (7, 64, 10),  # 9 chunks and 1 byte
        (_CHUNK, 0, 0),
        (_CHUNK, 2 * _CHUNK, 2),  # exactly 2 chunks
        (_CHUNK, 2 * _CHUNK + 8, 3),  # one float past 2 chunks
    ],
)
def test_checksum_at_chunk_boundaries(monkeypatch, chunk, nbytes, n_digests):
    monkeypatch.setattr(tensorio, "_CHECKSUM_CHUNK", chunk)
    values = np.arange(nbytes // 8, dtype=np.float64)
    raw = values.tobytes()
    digests = [hashlib.sha256(raw[i * chunk : (i + 1) * chunk]).digest() for i in range(n_digests)]
    want = hashlib.sha256(f"tensor a f8 {values.size}\n".encode() + b"".join(digests))
    assert tensors_checksum({"a": values}) == want.hexdigest()


def _stream(tensors, meta, feeds):
    """ChecksumStream of `tensors`, fed the (name, start, stop) element ranges
    of their flat arrays, one update per inner list."""
    stream = tensorio.ChecksumStream({name: ("f8", arr.shape) for name, arr in tensors.items()})
    for feed in feeds:
        stream.update({name: tensors[name].reshape(-1)[a:b] for name, a, b in feed})
    return stream.hexdigest(meta)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 4),
    st.sampled_from([8, 24, 40, 64]),
    st.lists(st.integers(0, 60), max_size=12),
    st.lists(st.integers(0, 60), max_size=12),
)
def test_streamed_checksum_equals_tensors_checksum(steps, chunk, cuts_a, cuts_b):
    """Random split points, repeated points (zero-length pieces) and steps=0
    (empty tensors); each update carries one piece of each tensor, as a
    capture step does, and pieces straddle chunks of 1, 3, 5 or 8 floats."""
    rng = np.random.default_rng(steps)
    tensors = {"logits": rng.standard_normal((steps, 3, 5)), "probs": rng.random((steps, 3, 5))}
    meta = {"steps": str(steps)}
    size = steps * 15

    def ranges(cuts):
        points = [0] + sorted(min(c, size) for c in cuts) + [size]
        return list(zip(points, points[1:]))

    a, b = ranges(cuts_a), ranges(cuts_b)
    feeds = []
    for i in range(max(len(a), len(b))):
        feeds.append([("logits", *a[i])] if i < len(a) else [])
        feeds[-1] += [("probs", *b[i])] if i < len(b) else []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensorio, "_CHECKSUM_CHUNK", chunk)
        want = tensors_checksum(tensors, meta)
        assert _stream(tensors, meta, feeds) == want
    assert want == _tobytes_checksum(tensors, meta, chunk)


def test_streamed_checksum_pieces_straddle_chunks(monkeypatch, rng):
    monkeypatch.setattr(tensorio, "_CHECKSUM_CHUNK", 16)  # 2 floats
    tensors = {"a": rng.standard_normal(11), "b": rng.standard_normal(4)}
    want = tensors_checksum(tensors)
    # 3-float pieces start inside a chunk from the second one on; empty pieces in between
    feeds = [[("a", i, min(i + 3, 11))] for i in range(0, 11, 3)]
    feeds += [[("a", 11, 11), ("b", 0, 0)], [("b", 0, 1)], [("b", 1, 4)]]
    assert _stream(tensors, None, feeds) == want
    # the empty (0-step) tensor: declared, never fed, or fed only empty pieces
    empty = {"a": np.empty((0, 2, 3))}
    assert _stream(empty, None, []) == _stream(empty, None, [[("a", 0, 0)]])
    assert _stream(empty, None, []) == tensors_checksum(empty)


def test_streamed_checksum_refuses_wrong_bytes():
    stream = tensorio.ChecksumStream({"a": ("f8", (2, 3))})
    with pytest.raises(ConfigError):
        stream.update({"a": np.zeros(3, dtype=np.int64)})
    stream.update({"a": np.zeros(4)})
    with pytest.raises(GlyphFlowError, match="32 of 48 bytes"):
        stream.hexdigest()
    stream.update({"a": np.zeros(3)})
    with pytest.raises(GlyphFlowError, match="56 of 48 bytes"):
        stream.hexdigest()


_ONE_CPU_CHECKSUM = """
import os
import numpy as np
from glyphflow import tensorio
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
tensorio._CHECKSUM_CHUNK = 64
values = np.arange(10_000, dtype=np.float64)
print(len(os.sched_getaffinity(0)), tensorio.tensors_checksum({"a": values, "b": values[::-1]}))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_checksum_independent_of_worker_count(monkeypatch):
    # the child hashes the 2500 chunks on one thread, this process on one per core
    monkeypatch.setattr(tensorio, "_CHECKSUM_CHUNK", 64)
    values = np.arange(10_000, dtype=np.float64)
    here = tensors_checksum({"a": values, "b": values[::-1]})
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    child = subprocess.run(
        [sys.executable, "-c", _ONE_CPU_CHECKSUM],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    assert child.stdout.split() == ["1", here]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_hashes_with_its_own_pool(monkeypatch):
    """The parent's hashing threads do not exist in a forked child; the child
    makes its own pool and gets the parent's digest."""
    monkeypatch.setattr(tensorio, "_CHECKSUM_CHUNK", 64)
    values = np.arange(10_000, dtype=np.float64)
    here = tensors_checksum({"a": values, "b": values[::-1]})
    parent_pool = tensorio.worker_pool()[0]
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: report its digest and whether its pool is new, then exit
        try:
            os.close(read_end)
            digest = tensors_checksum({"a": values, "b": values[::-1]})
            fresh = tensorio.worker_pool()[0] is not parent_pool
            os.write(write_end, f"{digest} {fresh}".encode())
        finally:
            os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as fh:
        ready, _, _ = select.select([fh], [], [], 60)
        if not ready:  # a child stuck on the parent's dead threads
            os.kill(pid, signal.SIGKILL)
        reply = fh.read().decode() if ready else "timed out"
    _, status = os.waitpid(pid, 0)
    assert status == 0
    assert reply == f"{here} True"
    assert tensorio.worker_pool()[0] is parent_pool


def test_every_chunk_is_hashed_on_the_pool(monkeypatch):
    """No run is hashed on the calling thread, whatever the core count: the
    pool holds one thread per core, and the caller only waits for it."""
    monkeypatch.setattr(tensorio, "_CHECKSUM_CHUNK", 64)
    hash_run, threads = tensorio._hash, []

    def recording_hash(task):
        threads.append(threading.current_thread().name)
        return hash_run(task)

    monkeypatch.setattr(tensorio, "_hash", recording_hash)
    values = np.arange(10_000, dtype=np.float64)
    tensors_checksum({"a": values, "b": values[::-1]})
    assert len(threads) == 2 * 1250
    assert all(name.startswith("glyphflow-worker") for name in threads)
    pool, workers = tensorio.worker_pool()
    assert tensorio.worker_pool() == (pool, workers)
    assert pool._max_workers == workers
    if hasattr(os, "sched_getaffinity"):
        assert workers == len(os.sched_getaffinity(0))


_NUM = st.one_of(st.integers(-2, 40), st.sampled_from([0, 1 << 32, 1 << 62, 1 << 70]))


@st.composite
def _dump_bytes(draw):
    """Bytes near the tensordump grammar: real directives with odd fields."""
    magic = draw(st.sampled_from(["tensordump 1"] * 4 + ["tensordump 2", "tensordump", ""]))
    lines = [magic + " " + draw(st.sampled_from(["0", "1", "2", "x", "-1"]))]
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["tensor", "meta", "junk"]))
        if kind == "tensor":
            shape = ",".join(str(d) for d in draw(st.lists(_NUM, min_size=0, max_size=3)))
            name = draw(st.sampled_from(["a", "b"]))
            token = draw(st.sampled_from(["f8", "i8", "f4"]))
            lines.append(f"tensor {name} {token} {shape} {draw(_NUM)}")
        elif kind == "meta":
            lines.append("meta " + draw(st.text("ab ", max_size=5)))
        else:
            lines.append(draw(st.text(max_size=8)))
    header = "\n".join(lines) + draw(st.sampled_from(["\nend\n"] * 4 + ["\nend", "\n"]))
    return header.encode("utf-8") + draw(st.binary(max_size=64))


@pytest.fixture(scope="module")
def dump_path(tmp_path_factory):
    return tmp_path_factory.mktemp("hypothesis") / "dump.bin"


@settings(max_examples=400, deadline=None)
@given(raw=st.one_of(st.binary(max_size=128), _dump_bytes()))
def test_read_any_bytes_gives_tensors_or_a_package_error(dump_path, raw):
    dump_path.write_bytes(raw)
    try:
        tensors, meta = read_tensors(dump_path)
    except GlyphFlowError:
        return
    assert isinstance(meta, dict)
    arrays = list(tensors.values())
    for i, arr in enumerate(arrays):
        assert arr.dtype in (np.dtype("<f8"), np.dtype("<i8"))
        assert not any(np.shares_memory(arr, other) for other in arrays[i + 1 :])
