"""Glyph canvases: rasterize target text into binary images with ink masks.

The canvas is the model's pixel space, so its dimensions must be multiples of
the patch size. Rendering is binary (pixels exactly 0 or 1) and deterministic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NonFiniteValue, ShapeMismatch, TextOverflow
from .font8 import glyph
from .netpbm import read_netpbm

INK_THRESHOLD = 0.5


class Layout(str, enum.Enum):
    HORIZONTAL = "horizontal"
    VERTICAL = "vertical"
    DIAGONAL = "diagonal"


@dataclass
class GlyphImage:
    """Grayscale (height, width) canvas in [0,1].

    `width` and `height` are read from `pixels.shape`, and the binary ink
    `mask` is computed from the pixels on each access: pixels >= INK_THRESHOLD.
    """

    pixels: np.ndarray = field(repr=False)

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


def fallback_warnings(text: str) -> tuple[str, ...]:
    """One line per codepoint of `text` that the built-in font lacks."""
    return tuple(
        f"codepoint U+{ord(ch):04X} not in font, fallback glyph used"
        for ch in text
        if not glyph(ch)[1]
    )


# (right, down) cells that each successive glyph moves by
_ADVANCE = {Layout.HORIZONTAL: (1, 0), Layout.VERTICAL: (0, 1), Layout.DIAGONAL: (1, 1)}


def rasterize_text(
    text: str,
    layout: Layout = Layout.HORIZONTAL,
    width: int = 128,
    height: int = 128,
    scale: int = 1,
    patch: int = 8,
) -> GlyphImage:
    """Render `text` in the built-in 8x8 font, centered on a width x height canvas.

    Every glyph fills one fixed cell of 8*scale pixels. Successive cells
    advance rightward for Horizontal, downward for Vertical, and equally
    right and down for Diagonal. Unknown codepoints render as the fallback
    box without an error; `fallback_warnings(text)` names them. A run larger
    than the canvas raises TextOverflow before anything is scaled up; text
    that renders no ink, such as only spaces, raises ConfigError.
    """
    if not text:
        raise ConfigError("text must be nonempty")
    if scale < 1:
        raise ConfigError("scale must be >= 1")
    if patch < 1 or width % patch or height % patch:
        raise ConfigError(f"canvas {width}x{height} must be a positive multiple of patch {patch}")
    if layout not in _ADVANCE:
        raise ConfigError(f"unknown layout {layout!r}")
    dx, dy = _ADVANCE[layout]
    cols = 1 + dx * (len(text) - 1)
    rows = 1 + dy * (len(text) - 1)
    run_w, run_h = 8 * scale * cols, 8 * scale * rows
    if run_w > width or run_h > height:
        raise TextOverflow(
            f"rendered run {run_w}x{run_h} exceeds canvas {width}x{height}"
        )

    run = np.zeros((8 * rows, 8 * cols), dtype=bool)
    for i, ch in enumerate(text):
        run[8 * dy * i : 8 * dy * i + 8, 8 * dx * i : 8 * dx * i + 8] = glyph(ch)[0]
    if not run.any():
        raise ConfigError(f"text {text!r} renders no ink")
    ox = (width - run_w) // 2
    oy = (height - run_h) // 2
    canvas = np.zeros((height, width), dtype=np.float64)
    canvas[oy : oy + run_h, ox : ox + run_w] = run.repeat(scale, axis=0).repeat(scale, axis=1)
    return GlyphImage(pixels=canvas)


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


def glyph_mask_patches(g: GlyphImage, patch: int) -> np.ndarray:
    """Fraction of mask cells set per patch, in [0,1], row-major over the patch grid."""
    if patch < 1:
        raise ConfigError("patch must be >= 1")
    if g.height % patch or g.width % patch:
        raise ShapeMismatch(f"image {g.width}x{g.height} not divisible by patch {patch}")
    gh = g.height // patch
    gw = g.width // patch
    blocks = g.mask.astype(np.int64).reshape(gh, patch, gw, patch)
    counts = blocks.sum(axis=(1, 3)).reshape(gh * gw)
    return counts.astype(np.float64) / float(patch * patch)
