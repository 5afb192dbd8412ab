"""Core-token machinery: score image tokens from I2I attention, average scores
across layers, select top-k sets, and build row-replacement plans.

Scores always come from head-averaged statistics of I2I probability maps; the
same selected set drives every head during injection. `StepScorer` is the one
scoring and averaging path and `select_layer` the one selection path. A full
trace goes through `step_scores` and `select_step`, which wrap them;
`pipeline.StreamedTrace` calls them as the capture produces each layer; and
`pipeline.run_analyze` reports the scores. The coverage and shift of the
selected rows are measured by `metrics.row_masses` and `metrics.row_fraction`.
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
from .tensorio import write_tensors

if TYPE_CHECKING:
    from .pipeline import StreamedTrace
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


class StepScorer:
    """One captured step's scores, folded layer by layer as the layers arrive.

    `add` scores the next layer's (n_heads, n_img, n_img) I2I probabilities
    with `token_scores` (row_mass in layer_variance mode) and returns the
    vector that ranks that layer: the running mean of layers 1..L through
    `cumulative_update` (averaging on) or the raw vector (averaging off). In
    layer_variance mode it returns None, because the step's one variance
    vector exists only once every layer is in; `ranked` then gives it.
    """

    def __init__(self, step: int, mode: ScoreMode, averaging: bool):
        self.step, self.mode, self.averaging = step, mode, averaging
        self.raw: list[ScoreVector] = []
        self._means: list[ScoreVector] = []
        self._state: CumulativeScore | None = None

    def add(self, probs: np.ndarray) -> ScoreVector | None:
        base = ScoreMode.ROW_MASS if self.mode == ScoreMode.LAYER_VARIANCE else self.mode
        s = token_scores(probs, base, len(self.raw), self.step)
        self.raw.append(s)
        if self.mode == ScoreMode.LAYER_VARIANCE:
            return None
        if not self.averaging:
            return s
        self._state = cumulative_update(self._state or CumulativeScore.empty(s.n_img, self.mode), s)
        self._means.append(self._state.to_score_vector(s.layer, self.step))
        return self._means[-1]

    def ranked(self) -> list[ScoreVector]:
        """The vectors selection ranks, over the layers added so far."""
        if self.mode == ScoreMode.LAYER_VARIANCE:
            return [variance_scores(self.raw)]
        return self._means if self.averaging else self.raw


def step_scores(
    probs: np.ndarray, step: int, mode: ScoreMode, averaging: bool
) -> tuple[list[ScoreVector], list[ScoreVector]]:
    """Per-layer raw scores of one captured step, and the vectors selection ranks.

    `probs` is the step's (n_layers, n_heads, n_img, n_img) I2I probability
    block, fed to a `StepScorer` one layer at a time. Raw scores are
    row_mass in layer_variance mode. The ranked vectors are the running
    means of layers 1..L (averaging on), the raw vectors (averaging off), or
    the single per-step variance vector (layer_variance mode, where
    averaging has no effect).
    """
    scorer = StepScorer(step, mode, averaging)
    for maps in probs:
        scorer.add(maps)
    return scorer.raw, scorer.ranked()


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


def select_layer(
    ranked: ScoreVector, ratio: float, layer: int, mode: ScoreMode, averaging: bool
) -> CoreTokenSet:
    """Layer `layer`'s core set from the vector that ranks it: the layer's own
    vector, or in layer_variance mode the step's one variance vector."""
    if mode == ScoreMode.LAYER_VARIANCE:
        return select_core_tokens(replace(ranked, layer=layer), ratio)
    return select_core_tokens(ranked, ratio, averaged=averaging)


def select_step(
    ranked: Sequence[ScoreVector], ratio: float, n_layers: int, mode: ScoreMode, averaging: bool
) -> list[CoreTokenSet]:
    """One step's core set per layer, from the vectors `step_scores` ranks.

    In layer_variance mode the step's one variance vector drives every
    layer's selection.
    """
    if mode == ScoreMode.LAYER_VARIANCE:
        ranked = list(ranked) * n_layers
    return [select_layer(ranked[l], ratio, l, mode, averaging) for l in range(n_layers)]


@dataclass
class InjectionPlan:
    """One CoreTokenSet per (step <= cutoff, layer), tied to the trace it was built from.

    `trace` is that trace itself, an `AttentionTrace` or a
    `pipeline.StreamedTrace`, held by reference; plan equality ignores it.
    The plan's layer count and n_img are the trace's, and its cutoff is at
    most the trace's step count. The scoring mode and averaging flag that
    chose each set are in that set's `source`.
    """

    trace: "AttentionTrace | StreamedTrace" = field(repr=False, compare=False)
    cutoff_step: int
    ratio: float
    sets: dict[tuple[int, int], CoreTokenSet]

    def __post_init__(self):
        if self.cutoff_step > self.trace.steps:
            raise TraceMismatch(
                f"plan cutoff {self.cutoff_step} exceeds trace steps {self.trace.steps}"
            )
        layers = range(self.trace.n_layers)
        want = {(s, l) for s in range(1, self.cutoff_step + 1) for l in layers}
        have = set(self.sets)
        if want != have:
            raise ConfigError("plan must hold exactly one set per (step <= cutoff, layer)")
        for core in self.sets.values():
            if core.n_img != self.trace.n_img:
                raise ShapeMismatch("core set length differs from the trace's n_img")


def build_injection(
    trace: "AttentionTrace | StreamedTrace",
    ratio: float,
    cutoff_step: int | None = None,
    mode: ScoreMode = ScoreMode.ROW_MASS,
    averaging: bool = True,
) -> InjectionPlan:
    """Select one core set per (step, layer) from each step's ranked vectors.

    `trace.ranked_scores(step, mode, averaging)` gives those vectors: a full
    trace scores the step with `step_scores`, a streamed one returns what it
    scored while it captured. With averaging on, layer L's selection uses
    the running mean of layers 1..L, reset at each step. In layer_variance
    mode the step's one variance vector drives every layer's selection.
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
    sets: dict[tuple[int, int], CoreTokenSet] = {}
    for step in range(1, cutoff + 1):
        if ratio == 0.0:
            chosen = [_empty_set(trace.n_img, step, l, mode, averaging) for l in range(n_layers)]
        else:
            ranked = trace.ranked_scores(step, mode, averaging)
            chosen = select_step(ranked, ratio, n_layers, mode, averaging)
        for layer, core in enumerate(chosen):
            sets[(step, layer)] = core

    return InjectionPlan(trace=trace, cutoff_step=cutoff, ratio=ratio, sets=sets)


def apply_injection(
    gen_logits_i2i: np.ndarray, core_rows: np.ndarray, core: CoreTokenSet
) -> np.ndarray:
    """Replace the core rows of the generation logits with the trace's rows.

    `core_rows` holds the trace's logit row of each core index, in the
    set's ascending order: shape (len(core.indices), n_img). The rows are
    replaced in place: `gen_logits_i2i` is written and returned.
    """
    gen = gen_logits_i2i
    if gen.ndim != 2 or gen.shape[0] != gen.shape[1]:
        raise ShapeMismatch(f"generation logit block {gen.shape} must be square")
    if core_rows.shape != (len(core.indices), gen.shape[1]):
        raise ShapeMismatch(
            f"{core_rows.shape} trace rows for {len(core.indices)} core rows of {gen.shape}"
        )
    if core.indices and core.indices[-1] >= gen.shape[0]:
        raise IndexOutOfRange(f"core index {core.indices[-1]} >= {gen.shape[0]}")
    if core.indices:
        gen[core.rows(), :] = core_rows
    return gen


# ---------------------------------------------------------------- serialization


def save_scores(path, vectors: Sequence[ScoreVector]):
    tensors = {}
    meta = {}
    for s in vectors:
        name = f"scores.s{s.step:02d}.l{s.layer:02d}"
        tensors[name] = s.scores
        meta[f"{name}.mode"] = s.mode.value
    write_tensors(path, tensors, meta=meta)
