import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from glyphflow import (
    DimensionZero,
    GlyphFlowError,
    MalformedHeader,
    NonFiniteValue,
    read_netpbm,
    write_pgm,
)


def test_p1_basic(tmp_path):
    p = tmp_path / "a.pbm"
    p.write_bytes(b"P1\n2 2\n1 0\n0 1\n")
    arr = read_netpbm(p)
    assert arr.dtype == np.float64
    assert np.array_equal(arr, [[1.0, 0.0], [0.0, 1.0]])


def test_p1_packed_digits_and_comments(tmp_path):
    p = tmp_path / "a.pbm"
    p.write_bytes(b"P1 # comment\n# another\n 3 1\n101")
    assert np.array_equal(read_netpbm(p), [[1.0, 0.0, 1.0]])


def test_p2_maxval_normalization(tmp_path):
    p = tmp_path / "a.pgm"
    p.write_bytes(b"P2\n2 1\n4\n0 4\n")
    assert np.array_equal(read_netpbm(p), [[0.0, 1.0]])
    p.write_bytes(b"P2\n2 1\n255\n51 255\n")
    assert np.allclose(read_netpbm(p), [[0.2, 1.0]])


def test_p5_single_byte(tmp_path):
    p = tmp_path / "a.pgm"
    p.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 128, 255, 64]))
    arr = read_netpbm(p)
    assert np.allclose(arr, np.array([[0, 128], [255, 64]]) / 255.0)


def test_p5_two_byte_big_endian(tmp_path):
    p = tmp_path / "a.pgm"
    p.write_bytes(b"P5\n1 1\n65535\n" + (32768).to_bytes(2, "big"))
    assert np.allclose(read_netpbm(p), [[32768 / 65535]])


def test_malformed_cases(tmp_path):
    p = tmp_path / "a.pgm"
    cases = [
        b"P9\n1 1\n255\n\x00",          # unknown magic
        b"P2\n1 1\n255\n",               # truncated raster
        b"P2\n1\n",                      # truncated header
        b"P2\n1 1\n0\n0\n",              # maxval zero
        b"P2\n1 1\n255\n300\n",          # sample above maxval
        b"P5\n1 1\n255",                 # no whitespace before raster
        b"P1\n2 1\n12\n",                # bad bitmap digit
        b"P2\n-1 1\n255\n0\n",           # signed dimension token
    ]
    for raw in cases:
        p.write_bytes(raw)
        with pytest.raises(MalformedHeader):
            read_netpbm(p)


def test_zero_dimension(tmp_path):
    p = tmp_path / "a.pgm"
    p.write_bytes(b"P2\n0 1\n255\n")
    with pytest.raises(DimensionZero):
        read_netpbm(p)
    with pytest.raises(DimensionZero):
        write_pgm(p, np.zeros((0, 3)))


def test_write_pgm_format(tmp_path):
    p = tmp_path / "out.pgm"
    write_pgm(p, np.array([[0.0, 0.5, 1.0, 0.25]]))
    raw = p.read_bytes()
    assert raw == b"P2\n4 1\n255\n0 128 255 64\n"


def test_write_pgm_line_length(tmp_path, rng):
    p = tmp_path / "out.pgm"
    write_pgm(p, rng.random((8, 8)))
    for line in p.read_text().splitlines():
        assert len(line) <= 70
        assert len(line.split()) <= 16


def test_write_read_round_trip(tmp_path, rng):
    p = tmp_path / "out.pgm"
    quantized = np.rint(rng.random((5, 7)) * 255.0) / 255.0
    write_pgm(p, quantized)
    back = read_netpbm(p)
    assert np.allclose(back, quantized, atol=1e-12)
    # a second write of the same array is byte-identical
    q = tmp_path / "out2.pgm"
    write_pgm(q, quantized)
    assert p.read_bytes() == q.read_bytes()


def test_write_pgm_clamps(tmp_path):
    p = tmp_path / "out.pgm"
    write_pgm(p, np.array([[-0.5, 1.5]]))
    assert np.array_equal(read_netpbm(p), [[0.0, 1.0]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_write_pgm_rejects_non_finite(tmp_path, bad):
    p = tmp_path / "out.pgm"
    with pytest.raises(NonFiniteValue):
        write_pgm(p, np.array([[0.0, bad]]))
    assert not p.exists()


# ---------------------------------------------------------------- properties

_TOKEN = st.sampled_from(
    [b"0", b"1", b"2", b"255", b"256", b"65535", b"65536", b"99999999999", b"9" * 5000,
     b"-1", b"x", b"#c\n", b"10", b"01"]
)


@st.composite
def _netpbm_bytes(draw):
    """Bytes near the Netpbm grammar: real magics, header tokens, a short raster."""
    magic = draw(st.sampled_from([b"P1", b"P2", b"P5", b"P3", b"P", b""]))
    sep = draw(st.sampled_from([b" ", b"\n", b"\t", b"", b"#\n"]))
    tokens = draw(st.lists(_TOKEN, max_size=8))
    tail = draw(st.sampled_from([b" ", b"\n", b""]))
    return magic + sep + sep.join(tokens) + tail + draw(st.binary(max_size=16))


@settings(max_examples=300, deadline=None)
@given(data=st.one_of(st.binary(max_size=64), _netpbm_bytes()))
@example(data=b"P2 " + b"1" * 5000 + b" 1 255\n1")
def test_read_netpbm_gives_pixels_or_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.pnm"
    path.write_bytes(data)
    try:
        arr = read_netpbm(path)
    except GlyphFlowError:
        return
    assert arr.dtype == np.float64 and arr.ndim == 2 and arr.size > 0
    assert arr.min() >= 0.0 and arr.max() <= 1.0
