"""Core-token machinery: score image tokens from I2I attention, average scores
across layers, select top-k sets, build row-replacement plans, and measure how
much core-token attention falls off the glyph mask.

Scores always come from head-averaged statistics of I2I probability maps; the
same selected set drives every head during injection.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import (
    ConfigError,
    EmptyTrace,
    FewerThanTwoLayers,
    IndexOutOfRange,
    ModeMismatch,
    ShapeMismatch,
    TraceMismatch,
)
from .metrics import MASK_THRESHOLD, row_fraction, row_masses
from .tensorio import write_tensors

if TYPE_CHECKING:
    from .sampler import AttentionTrace


class ScoreMode(str, enum.Enum):
    ROW_MASS = "row_mass"
    ROW_MAX = "row_max"
    COLUMN_MASS = "column_mass"
    LAYER_VARIANCE = "layer_variance"


@dataclass
class ScoreVector:
    """Per-image-token attention statistic for one (step, layer)."""

    scores: np.ndarray
    layer: int
    step: int
    mode: ScoreMode

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.scores.ndim != 1:
            raise ShapeMismatch("scores must be 1-D")
        if not np.isfinite(self.scores).all():
            raise ConfigError("scores must be finite")
        if self.scores.size and self.scores.min() < 0.0:
            raise ConfigError("scores must be nonnegative")

    @property
    def n_img(self) -> int:
        return self.scores.shape[0]


@dataclass
class CumulativeScore:
    """Running mean of ScoreVectors over layers 1..L within one step."""

    mean: np.ndarray
    layers_absorbed: int
    mode: ScoreMode

    @classmethod
    def empty(cls, n_img: int, mode: ScoreMode) -> "CumulativeScore":
        return cls(mean=np.zeros(n_img, dtype=np.float64), layers_absorbed=0, mode=mode)

    def to_score_vector(self, layer: int, step: int) -> ScoreVector:
        return ScoreVector(scores=self.mean.copy(), layer=layer, step=step, mode=self.mode)


@dataclass(frozen=True)
class SelectionSource:
    step: int
    layer: int
    mode: ScoreMode
    averaged: bool


@dataclass(frozen=True)
class CoreTokenSet:
    """Top-k token indices, ascending and distinct; size == ceil(ratio * n_img)."""

    indices: tuple[int, ...]
    ratio: float
    n_img: int
    source: SelectionSource

    def __post_init__(self):
        if not 0.0 <= self.ratio <= 1.0:
            raise ConfigError(f"ratio {self.ratio} outside [0,1]")
        expect = math.ceil(self.ratio * self.n_img)
        if len(self.indices) != expect:
            raise ConfigError(
                f"{len(self.indices)} indices but ceil({self.ratio}*{self.n_img}) = {expect}"
            )
        if list(self.indices) != sorted(set(self.indices)):
            raise ConfigError("indices must be ascending and distinct")
        if self.indices and not (0 <= self.indices[0] and self.indices[-1] < self.n_img):
            raise IndexOutOfRange(f"indices outside [0, {self.n_img})")

    def rows(self) -> np.ndarray:
        return np.asarray(self.indices, dtype=np.int64)


def _as_headset(i2i: np.ndarray) -> np.ndarray:
    maps = np.asarray(i2i, dtype=np.float64)
    if maps.ndim == 2:
        maps = maps[None]
    if maps.ndim != 3 or maps.shape[1] != maps.shape[2]:
        raise ShapeMismatch(f"expected (heads, N, N) I2I maps, got {maps.shape}")
    return maps


def token_scores(
    i2i: np.ndarray, mode: ScoreMode = ScoreMode.ROW_MASS, layer: int = 0, step: int = 0
) -> ScoreVector:
    """Head-averaged per-token statistic of one layer's I2I probability maps.

    row_mass: sum of token j's row. row_max: max of the row. column_mass: sum
    of column j divided by N. layer_variance is not a per-layer statistic; use
    variance_scores.
    """
    if mode == ScoreMode.LAYER_VARIANCE:
        raise ModeMismatch("layer_variance requires variance_scores over per-layer vectors")
    maps = _as_headset(i2i)
    n = maps.shape[1]
    if mode == ScoreMode.ROW_MASS:
        per_head = maps.sum(axis=2)
    elif mode == ScoreMode.ROW_MAX:
        per_head = maps.max(axis=2)
    elif mode == ScoreMode.COLUMN_MASS:
        per_head = maps.sum(axis=1) / float(n)
    else:
        raise ConfigError(f"unknown scoring mode {mode!r}")
    return ScoreVector(scores=per_head.mean(axis=0), layer=layer, step=step, mode=mode)


def variance_scores(per_layer: Sequence[ScoreVector]) -> ScoreVector:
    """Per-token population variance of scores across layers."""
    if len(per_layer) < 2:
        raise FewerThanTwoLayers(f"variance needs >= 2 layers, got {len(per_layer)}")
    mode = per_layer[0].mode
    n = per_layer[0].n_img
    for s in per_layer:
        if s.mode != mode:
            raise ModeMismatch(f"mixed modes {mode} and {s.mode}")
        if s.n_img != n:
            raise ShapeMismatch("score vectors differ in length")
    stacked = np.stack([s.scores for s in per_layer])
    var = np.maximum(stacked.var(axis=0), 0.0)
    return ScoreVector(
        scores=var, layer=per_layer[-1].layer, step=per_layer[0].step, mode=ScoreMode.LAYER_VARIANCE
    )


def cumulative_update(state: CumulativeScore, s: ScoreVector) -> CumulativeScore:
    """Absorb one layer: mean' = mean + (s - mean)/(L+1). Pure; returns a new state."""
    if state.mode != s.mode:
        raise ModeMismatch(f"state mode {state.mode} != vector mode {s.mode}")
    if state.mean.shape != s.scores.shape:
        raise ShapeMismatch("state length differs from vector length")
    count = state.layers_absorbed + 1
    mean = state.mean + (s.scores - state.mean) / count
    return CumulativeScore(mean=mean, layers_absorbed=count, mode=state.mode)


def select_core_tokens(s: ScoreVector, ratio: float, averaged: bool = False) -> CoreTokenSet:
    """Top-k by score, k = ceil(ratio * N); ties keep the lower index."""
    if not 0.0 < ratio <= 1.0:
        raise ConfigError(f"ratio {ratio} outside (0,1]")
    k = math.ceil(ratio * s.n_img)
    order = np.argsort(-s.scores, kind="stable")[:k]
    return CoreTokenSet(
        indices=tuple(int(i) for i in np.sort(order)),
        ratio=ratio,
        n_img=s.n_img,
        source=SelectionSource(step=s.step, layer=s.layer, mode=s.mode, averaged=averaged),
    )


def _empty_set(n_img: int, step: int, layer: int, mode: ScoreMode, averaged: bool) -> CoreTokenSet:
    return CoreTokenSet(
        indices=(),
        ratio=0.0,
        n_img=n_img,
        source=SelectionSource(step=step, layer=layer, mode=mode, averaged=averaged),
    )


@dataclass
class InjectionPlan:
    """One CoreTokenSet per (step <= cutoff, layer), tied to the trace it was built from.

    `trace` is that trace itself, held by reference; plan equality ignores it.
    """

    trace: "AttentionTrace" = field(repr=False, compare=False)
    cutoff_step: int
    n_layers: int
    n_img: int
    ratio: float
    mode: ScoreMode
    averaging: bool
    sets: dict[tuple[int, int], CoreTokenSet]

    def __post_init__(self):
        want = {(s, l) for s in range(1, self.cutoff_step + 1) for l in range(self.n_layers)}
        have = set(self.sets)
        if want != have:
            raise ConfigError("plan must hold exactly one set per (step <= cutoff, layer)")
        for core in self.sets.values():
            if core.n_img != self.n_img:
                raise ShapeMismatch("core set length differs from plan n_img")

    def rows(self, step: int, layer: int) -> np.ndarray:
        return self.sets[(step, layer)].rows()


def build_injection(
    trace: "AttentionTrace",
    ratio: float,
    cutoff_step: int | None = None,
    mode: ScoreMode = ScoreMode.ROW_MASS,
    averaging: bool = True,
) -> InjectionPlan:
    """Score the trace and select one core set per (step, layer).

    With averaging on, layer L's selection uses the running mean of layers
    1..L, reset at each step. In layer_variance mode one variance vector per
    step (over the layers' row-mass scores) drives every layer's selection,
    and the averaging flag has no effect.
    """
    if not 0.0 <= ratio <= 1.0:
        raise ConfigError(f"ratio {ratio} outside [0,1]")
    cutoff = trace.steps if cutoff_step is None else cutoff_step
    if cutoff < 0:
        raise ConfigError("cutoff_step must be >= 0")
    if cutoff > 0 and trace.steps == 0:
        raise EmptyTrace("trace holds no captured steps")
    if cutoff > trace.steps:
        raise TraceMismatch(f"trace covers {trace.steps} steps, cutoff {cutoff} requested")

    n_layers = trace.n_layers
    n_img = trace.n_img
    sets: dict[tuple[int, int], CoreTokenSet] = {}
    for step in range(1, cutoff + 1):
        if ratio == 0.0:
            for layer in range(n_layers):
                sets[(step, layer)] = _empty_set(n_img, step, layer, mode, averaging)
            continue
        if mode == ScoreMode.LAYER_VARIANCE:
            per_layer = [
                token_scores(trace.step_probs(step, layer), ScoreMode.ROW_MASS, layer, step)
                for layer in range(n_layers)
            ]
            var = variance_scores(per_layer)
            for layer in range(n_layers):
                chosen = select_core_tokens(replace(var, layer=layer), ratio)
                sets[(step, layer)] = chosen
            continue
        state = CumulativeScore.empty(n_img, mode)
        for layer in range(n_layers):
            s = token_scores(trace.step_probs(step, layer), mode, layer, step)
            if averaging:
                state = cumulative_update(state, s)
                basis = state.to_score_vector(layer, step)
            else:
                basis = s
            sets[(step, layer)] = select_core_tokens(basis, ratio, averaged=averaging)

    return InjectionPlan(
        trace=trace,
        cutoff_step=cutoff,
        n_layers=n_layers,
        n_img=n_img,
        ratio=ratio,
        mode=mode,
        averaging=averaging,
        sets=sets,
    )


def apply_injection(
    gen_logits_i2i: np.ndarray, trace_logits_i2i: np.ndarray, core: CoreTokenSet
) -> np.ndarray:
    """Replace the core rows of the generation logits with the trace rows."""
    gen = np.asarray(gen_logits_i2i, dtype=np.float64)
    src = np.asarray(trace_logits_i2i, dtype=np.float64)
    if gen.shape != src.shape or gen.ndim != 2 or gen.shape[0] != gen.shape[1]:
        raise ShapeMismatch(f"logit blocks {gen.shape} vs {src.shape} must be equal squares")
    if core.indices and core.indices[-1] >= gen.shape[0]:
        raise IndexOutOfRange(f"core index {core.indices[-1]} >= {gen.shape[0]}")
    out = gen.copy()
    if core.indices:
        idx = core.rows()
        out[idx, :] = src[idx, :]
    return out


def attention_shift(
    maps_per_layer: Sequence[np.ndarray],
    mask_frac: np.ndarray,
    core: CoreTokenSet,
    threshold: float = MASK_THRESHOLD,
) -> np.ndarray:
    """Per layer: mean over core rows of the attention fraction on off-mask patches.

    A patch counts as off-mask when its mask fraction is strictly below the
    threshold. Row fractions are normalized by the row's own I2I mass.
    """
    mask_frac = np.asarray(mask_frac, dtype=np.float64)
    if mask_frac.ndim != 1:
        raise ShapeMismatch("mask fractions must be 1-D")
    if not core.indices:
        raise ConfigError("attention_shift needs a nonempty core set")
    idx = core.rows()
    out = np.empty(len(maps_per_layer), dtype=np.float64)
    for i, maps in enumerate(maps_per_layer):
        mean_map = _as_headset(maps).mean(axis=0)
        if mean_map.shape[1] != mask_frac.shape[0]:
            raise ShapeMismatch("map width differs from mask fraction length")
        masses = row_masses(mean_map, mask_frac, threshold)
        out[i] = row_fraction(masses.off, masses.total, idx)
    return out


# ---------------------------------------------------------------- serialization


def save_scores(path, vectors: Sequence[ScoreVector]):
    tensors = {}
    meta = {}
    for s in vectors:
        name = f"scores.s{s.step:02d}.l{s.layer:02d}"
        tensors[name] = s.scores
        meta[f"{name}.mode"] = s.mode.value
    write_tensors(path, tensors, meta=meta)
