"""Glyph canvases: rasterize target text into binary images with ink masks.

The canvas is the model's pixel space, so its dimensions must be multiples of
the patch size. Rendering is binary (pixels exactly 0 or 1) and deterministic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NonFiniteValue, ShapeMismatch, TextOverflow
from .font8 import builtin_font
from .netpbm import read_netpbm

INK_THRESHOLD = 0.5


class Layout(str, enum.Enum):
    HORIZONTAL = "horizontal"
    VERTICAL = "vertical"
    DIAGONAL = "diagonal"


@dataclass
class GlyphImage:
    """Grayscale (height, width) canvas in [0,1], plus the rasterizer's warnings.

    `width` and `height` are read from `pixels.shape`, and the binary ink
    `mask` is computed from the pixels on each access: pixels >= INK_THRESHOLD.
    """

    pixels: np.ndarray = field(repr=False)
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=np.float64)
        if self.pixels.ndim != 2:
            raise ShapeMismatch(f"pixels must be (height, width), got shape {self.pixels.shape}")
        if self.pixels.size == 0:
            raise ConfigError("canvas dimensions must be positive")
        # NaN compares False against both bounds, so it needs its own check
        if not np.isfinite(self.pixels).all():
            raise NonFiniteValue("pixel intensities must be finite")
        if self.pixels.min() < 0.0 or self.pixels.max() > 1.0:
            raise ConfigError("pixel intensities must lie in [0,1]")

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def mask(self) -> np.ndarray:
        return self.pixels >= INK_THRESHOLD


def _scaled(bitmap: np.ndarray, scale: int) -> np.ndarray:
    if scale == 1:
        return bitmap
    return np.repeat(np.repeat(bitmap, scale, axis=0), scale, axis=1)


def fallback_warnings(text: str) -> tuple[str, ...]:
    """What `rasterize_text` warns of: one line per codepoint the built-in font lacks."""
    font = builtin_font()
    return tuple(
        f"codepoint U+{ord(ch):04X} not in font, fallback glyph used"
        for ch in text
        if not font.glyph(ch)[1]
    )


def rasterize_text(
    text: str,
    layout: Layout = Layout.HORIZONTAL,
    width: int = 128,
    height: int = 128,
    scale: int = 1,
    patch: int = 8,
) -> GlyphImage:
    """Render `text` in the built-in 8x8 font, centered on a width x height canvas.

    Successive glyphs advance by their own scaled width: rightward for
    Horizontal, downward by the scaled cell height for Vertical, and equally
    right and down for Diagonal. Unknown codepoints render as the fallback box
    and are recorded in the result's warning list, never raised. A run larger
    than the canvas raises TextOverflow before any glyph is scaled up; text
    that renders no ink, such as only spaces, raises ConfigError.
    """
    if not text:
        raise ConfigError("text must be nonempty")
    if scale < 1:
        raise ConfigError("scale must be >= 1")
    if patch < 1 or width % patch or height % patch:
        raise ConfigError(f"canvas {width}x{height} must be a positive multiple of patch {patch}")
    font = builtin_font()
    bitmaps = [font.glyph(ch)[0] for ch in text]

    # the run is sized from the bitmap shapes times scale: an oversized run is
    # refused before any bitmap is scaled up
    cell_h = font.glyph_height * scale
    advances = [b.shape[1] * scale for b in bitmaps]
    heights = [b.shape[0] * scale for b in bitmaps]

    # glyph origin offsets inside the run's bounding box
    if layout is Layout.HORIZONTAL:
        xs = np.concatenate([[0], np.cumsum(advances[:-1])]).astype(int)
        ys = np.zeros(len(bitmaps), dtype=int)
    elif layout is Layout.VERTICAL:
        xs = np.zeros(len(bitmaps), dtype=int)
        ys = np.arange(len(bitmaps)) * cell_h
    elif layout is Layout.DIAGONAL:
        xs = np.concatenate([[0], np.cumsum(advances[:-1])]).astype(int)
        ys = xs.copy()
    else:
        raise ConfigError(f"unknown layout {layout!r}")

    run_w = int(max(x + w for x, w in zip(xs, advances)))
    run_h = int(max(y + h for y, h in zip(ys, heights)))
    if run_w > width or run_h > height:
        raise TextOverflow(
            f"rendered run {run_w}x{run_h} exceeds canvas {width}x{height}"
        )

    ox = (width - run_w) // 2
    oy = (height - run_h) // 2
    canvas = np.zeros((height, width), dtype=bool)
    for bitmap, x, y in zip(bitmaps, xs, ys):
        g = _scaled(bitmap, scale)
        gh, gw = g.shape
        canvas[oy + y : oy + y + gh, ox + x : ox + x + gw] |= g
    if not canvas.any():
        raise ConfigError(f"text {text!r} renders no ink")

    return GlyphImage(pixels=canvas.astype(np.float64), warnings=fallback_warnings(text))


def load_glyph_bitmap(path, patch: int = 8) -> GlyphImage:
    """Load a PBM/PGM file as a glyph image, padded up to a patch multiple.

    Grayscale is normalized to [0,1]; the mask is intensity >= 0.5. Padding is
    background (0) on the bottom and right so pixel (0,0) stays top-left.
    """
    if patch < 1:
        raise ConfigError("patch must be >= 1")
    arr = read_netpbm(path)
    h, w = arr.shape
    pad_h = (-h) % patch
    pad_w = (-w) % patch
    if pad_h or pad_w:
        arr = np.pad(arr, ((0, pad_h), (0, pad_w)), mode="constant")
    return GlyphImage(pixels=arr)


def glyph_mask_patch_counts(g: GlyphImage, patch: int) -> np.ndarray:
    """Integer count of set mask cells per patch, row-major over the patch grid."""
    if patch < 1:
        raise ConfigError("patch must be >= 1")
    if g.height % patch or g.width % patch:
        raise ShapeMismatch(f"image {g.width}x{g.height} not divisible by patch {patch}")
    gh = g.height // patch
    gw = g.width // patch
    blocks = g.mask.astype(np.int64).reshape(gh, patch, gw, patch)
    return blocks.sum(axis=(1, 3)).reshape(gh * gw)


def glyph_mask_patches(g: GlyphImage, patch: int) -> np.ndarray:
    """Fraction of mask cells set per patch, in [0,1], row-major."""
    counts = glyph_mask_patch_counts(g, patch)
    return counts.astype(np.float64) / float(patch * patch)
