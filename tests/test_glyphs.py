import hashlib

import numpy as np
import pytest

from glyphflow import (
    ConfigError,
    GlyphImage,
    Layout,
    NonFiniteValue,
    ShapeMismatch,
    TextOverflow,
    fallback_warnings,
    glyph,
    glyph_mask_patches,
    load_glyph_bitmap,
    rasterize_text,
)
from glyphflow.font8 import BITMAPS


def test_single_glyph_centered():
    g = rasterize_text("A", width=16, height=16, scale=1, patch=4)
    bitmap, known = glyph("A")
    assert known
    # 8x8 glyph on a 16x16 canvas sits at offset (4, 4)
    assert np.array_equal(g.mask[4:12, 4:12], bitmap)
    outside = g.mask.copy()
    outside[4:12, 4:12] = False
    assert not outside.any()
    assert g.mask.sum() == bitmap.sum()


def test_pixels_binary_and_match_mask():
    g = rasterize_text("Ab", width=32, height=32, scale=1, patch=8)
    assert set(np.unique(g.pixels)) <= {0.0, 1.0}
    assert np.array_equal(g.mask, g.pixels >= 0.5)
    assert fallback_warnings("Ab") == ()


def test_scale_multiplies_ink():
    base = rasterize_text("R", width=32, height=32, scale=1, patch=8)
    big = rasterize_text("R", width=32, height=32, scale=3, patch=8)
    assert big.mask.sum() == 9 * base.mask.sum()


def test_horizontal_advance():
    g = rasterize_text("AB", width=32, height=16, scale=1, patch=4)
    a, _ = glyph("A")
    b, _ = glyph("B")
    # run is 16x8, so origin is (8, 4); B starts one cell to the right
    assert np.array_equal(g.mask[4:12, 8:16], a)
    assert np.array_equal(g.mask[4:12, 16:24], b)


def test_vertical_advance():
    g = rasterize_text("AB", layout=Layout.VERTICAL, width=16, height=32, scale=1, patch=4)
    a, _ = glyph("A")
    b, _ = glyph("B")
    assert np.array_equal(g.mask[8:16, 4:12], a)
    assert np.array_equal(g.mask[16:24, 4:12], b)


def test_diagonal_advance():
    g = rasterize_text("AB", layout=Layout.DIAGONAL, width=32, height=32, scale=1, patch=4)
    a, _ = glyph("A")
    b, _ = glyph("B")
    # run is 16x16 so origin is (8, 8); B sits 8 right and 8 down from A
    assert np.array_equal(g.mask[8:16, 8:16], a)
    assert np.array_equal(g.mask[16:24, 16:24], b)


def test_empty_text_rejected():
    with pytest.raises(ConfigError):
        rasterize_text("", width=16, height=16, patch=4)
    with pytest.raises(ConfigError, match="no ink"):
        rasterize_text("  ", width=16, height=16, patch=4)


def test_overflow():
    with pytest.raises(TextOverflow):
        rasterize_text("toolong", width=16, height=16, scale=1, patch=4)
    with pytest.raises(TextOverflow):
        rasterize_text("AB", layout=Layout.VERTICAL, width=16, height=8, scale=1, patch=4)
    # measured before any bitmap is scaled: one scaled glyph would take 58 TiB
    with pytest.raises(TextOverflow):
        rasterize_text("a", width=128, height=128, scale=10**6, patch=8)


def test_canvas_patch_divisibility():
    with pytest.raises(ConfigError):
        rasterize_text("A", width=20, height=16, scale=1, patch=8)


def test_unknown_codepoint_falls_back_with_warning():
    g = rasterize_text("A☃", width=32, height=16, scale=1, patch=4)
    warnings = fallback_warnings("A☃")
    assert len(warnings) == 1
    assert "U+2603" in warnings[0]
    fallback, known = glyph("☃")
    assert not known
    assert np.array_equal(g.mask[4:12, 16:24], fallback)


def test_rasterize_deterministic():
    a = rasterize_text("logo", width=64, height=64, scale=2, patch=8)
    b = rasterize_text("logo", width=64, height=64, scale=2, patch=8)
    assert np.array_equal(a.pixels, b.pixels)
    assert np.array_equal(a.mask, b.mask)


def test_font_covers_printable_ascii():
    for cp in range(32, 127):
        bitmap, known = glyph(chr(cp))
        assert known, chr(cp)
        assert bitmap.shape == (8, 8)
        assert bitmap.dtype == np.bool_
        assert not bitmap.flags.writeable
    # space renders no ink but still advances
    space, _ = glyph(" ")
    assert space.sum() == 0
    for ch in ("\x1f", "\x7f", "é"):
        bitmap, known = glyph(ch)
        assert not known
        assert np.array_equal(bitmap, BITMAPS[95])


def test_font_table_bits_are_pinned():
    # codepoints 32..126 then the fallback box: any changed pixel moves the digest
    bits = np.stack([glyph(chr(cp))[0] for cp in range(32, 127)] + [glyph("é")[0]])
    assert np.array_equal(bits, BITMAPS)
    assert hashlib.sha256(np.packbits(BITMAPS).tobytes()).hexdigest() == (
        "54c9434c1ac0894020c47ce969647dc7ef7792add8644aac7f8e17922a70dc88"
    )


def test_glyph_image_validation(rng):
    pix = rng.random((8, 16))
    g = GlyphImage(pixels=pix)
    assert (g.height, g.width) == (8, 16)
    assert np.array_equal(g.mask, pix >= 0.5)
    with pytest.raises(ShapeMismatch):
        GlyphImage(pixels=pix.reshape(-1))
    with pytest.raises(ShapeMismatch):
        GlyphImage(pixels=pix.reshape(2, 4, 16))
    with pytest.raises(ConfigError):
        GlyphImage(pixels=np.zeros((0, 8)))
    with pytest.raises(ConfigError):
        GlyphImage(pixels=pix * 2.0)
    with pytest.raises(ConfigError):
        GlyphImage(pixels=-pix)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_glyph_image_rejects_non_finite_pixels(bad):
    pix = np.full((8, 8), 0.5)
    pix[3, 4] = bad
    with pytest.raises(NonFiniteValue):
        GlyphImage(pixels=pix)
    with pytest.raises(NonFiniteValue):
        GlyphImage(pixels=np.full((8, 8), bad))


def test_load_glyph_bitmap_threshold_and_padding(tmp_path):
    p = tmp_path / "g.pgm"
    p.write_bytes(b"P2\n3 2\n255\n0 127 128\n255 0 255\n")
    g = load_glyph_bitmap(p, patch=4)
    assert (g.width, g.height) == (4, 4)
    # 127/255 < 0.5 <= 128/255
    assert np.array_equal(g.mask[:2, :3], [[False, False, True], [True, False, True]])
    assert not g.mask[2:].any() and not g.mask[:, 3].any()
    assert np.allclose(g.pixels[0, :3], np.array([0, 127, 128]) / 255.0)


def test_load_glyph_bitmap_exact_multiple_not_padded(tmp_path):
    p = tmp_path / "g.pbm"
    p.write_bytes(b"P1\n4 4\n" + b"1" * 16)
    g = load_glyph_bitmap(p, patch=4)
    assert (g.width, g.height) == (4, 4)
    assert g.mask.all()


def test_patch_counts_hand_case():
    pix = np.zeros((8, 8))
    pix[0, 0] = 1.0   # patch 0
    pix[1, 5] = 1.0   # patch 1
    pix[5, 6] = 1.0   # patch 3
    pix[6, 7] = 1.0   # patch 3
    g = GlyphImage(pixels=pix)
    assert np.array_equal(glyph_mask_patches(g, 4) * 16, [1, 1, 0, 2])
    assert np.allclose(glyph_mask_patches(g, 4), [1 / 16, 1 / 16, 0.0, 2 / 16])


def test_patch_counts_row_major_and_total(rng):
    pix = (rng.random((16, 16)) > 0.5).astype(np.float64)
    g = GlyphImage(pixels=pix)
    counts = glyph_mask_patches(g, 8) * 64
    assert counts.shape == (4,)
    assert counts.sum() == g.mask.sum()
    assert counts[1] == g.mask[0:8, 8:16].sum()  # index 1 is row 0, col 1
    full = GlyphImage(pixels=np.ones((8, 8)))
    assert np.array_equal(glyph_mask_patches(full, 4), [1.0, 1.0, 1.0, 1.0])
    with pytest.raises(ShapeMismatch):
        glyph_mask_patches(g, 5)
