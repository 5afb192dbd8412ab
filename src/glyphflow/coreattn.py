"""Core-token machinery: score image tokens from I2I attention, average scores
across layers, select top-k sets, build row-replacement plans, and reduce a
reconstruction capture to what those plans read.

Scores always come from head-averaged statistics of I2I probability maps; the
same selected set drives every head during injection. `StepScorer` is the one
scoring, averaging and selection path: one scorer per captured step is fed
each layer in turn and picks every layer's core set. `build_injection` asks a
trace for each step's scorer: a `ScoreReducer` keeps the ones it fed as the
capture produced each layer, so generate, sweep and analyze score each
captured (step, layer) once; a full trace, which only direct callers pass,
feeds its stored step into a new one. A scorer builds each (layer, ratio)
set once, so plans that share a scorer share its sets. The reducer that
planned also keeps the core logit rows injection writes and measures the
coverage and shift of the selected rows, from `metrics.row_masses` through
`metrics.row_fraction`.
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
    GlyphFlowError,
    IndexOutOfRange,
    ModeMismatch,
    ShapeMismatch,
    TraceMismatch,
)
from .metrics import RowMasses, row_fraction, row_masses
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


class StepScorer:
    """One captured step's scores and core sets, folded layer by layer as the
    layers arrive.

    `add` scores the next layer's (n_heads, n_img, n_img) I2I probabilities
    with `token_scores` (row_mass in layer_variance mode) and keeps the
    vector that ranks that layer: the running mean of layers 1..L through
    `cumulative_update` (averaging on) or the raw vector (averaging off). It
    returns whether that layer's core set is known now. In layer_variance
    mode it is not: every layer ranks by the step's one variance vector,
    which exists only once the step's last layer is in. `core_set` picks a
    layer's set and `ranked` lists the vectors selection ranks.

    Each (layer, ratio) set is built once and handed out again on every
    later call, so a sweep's cells share them. In layer_variance mode `add`
    drops the variance vector and the sets built from it, since the next
    layer changes them.
    """

    def __init__(self, step: int, mode: ScoreMode, averaging: bool):
        self.step, self.mode, self.averaging = step, mode, averaging
        self.raw: list[ScoreVector] = []
        self._ranked: list[ScoreVector] = []
        self._state: CumulativeScore | None = None
        self._variance: ScoreVector | None = None
        self._sets: dict[tuple[int, float], CoreTokenSet] = {}

    def add(self, probs: np.ndarray) -> bool:
        variance = self.mode == ScoreMode.LAYER_VARIANCE
        base = ScoreMode.ROW_MASS if variance else self.mode
        s = token_scores(probs, base, len(self.raw), self.step)
        self.raw.append(s)
        if variance:
            self._variance = None
            self._sets.clear()
            return False
        if self.averaging:
            state = self._state or CumulativeScore.empty(s.n_img, self.mode)
            self._state = cumulative_update(state, s)
            s = self._state.to_score_vector(s.layer, self.step)
        self._ranked.append(s)
        return True

    def ranked(self) -> list[ScoreVector]:
        """The vectors selection ranks, over the layers added so far: one per
        layer, or the step's one variance vector in layer_variance mode."""
        if self.mode == ScoreMode.LAYER_VARIANCE:
            if self._variance is None:
                self._variance = variance_scores(self.raw)
            return [self._variance]
        return self._ranked

    def core_set(self, layer: int, ratio: float) -> CoreTokenSet:
        """Layer `layer`'s core set: the top ceil(ratio * n_img) tokens of the
        vector that ranks it. A repeated call returns the same object."""
        core = self._sets.get((layer, ratio))
        if core is None:
            variance = self.mode == ScoreMode.LAYER_VARIANCE
            s = self.ranked()[0 if variance else layer]
            if variance:
                s = replace(s, layer=layer)
            averaged = self.averaging and not variance
            core = self._sets[(layer, ratio)] = select_core_tokens(s, ratio, averaged)
        return core


def select_core_tokens(s: ScoreVector, ratio: float, averaged: bool = False) -> CoreTokenSet:
    """Top-k by score, k = ceil(ratio * N); ties keep the lower index."""
    if not 0.0 < ratio <= 1.0:
        raise ConfigError(f"ratio {ratio} outside (0,1]")
    order = np.argsort(-s.scores, kind="stable")
    k = math.ceil(ratio * s.n_img)
    return CoreTokenSet(
        indices=tuple(np.sort(order[:k]).tolist()),
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

    `trace` is that trace itself, an `AttentionTrace` or a `ScoreReducer`,
    held by reference; plan equality ignores it. The plan's layer count and
    n_img are the trace's, and its cutoff is at most the trace's step count. The scoring mode and averaging flag that
    chose each set are in that set's `source`.
    """

    trace: "AttentionTrace | ScoreReducer" = field(repr=False, compare=False)
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
    trace: "AttentionTrace | ScoreReducer",
    ratio: float,
    cutoff_step: int | None = None,
    mode: ScoreMode = ScoreMode.ROW_MASS,
    averaging: bool = True,
) -> InjectionPlan:
    """Select one core set per (step, layer) through each step's `StepScorer`.

    `trace.step_scorer(step, mode, averaging)` gives it: a `ScoreReducer`
    returns the scorer it fed as it captured or replayed; a full trace,
    which only direct callers pass, feeds the step's layers into a new
    scorer. With averaging on, layer L's selection uses
    the running mean of layers 1..L, reset at each step; in layer_variance
    mode the step's one variance vector drives every layer's selection. At
    ratio 0 every set is empty and nothing is scored.
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

    sets: dict[tuple[int, int], CoreTokenSet] = {}
    for step in range(1, cutoff + 1):
        scorer = trace.step_scorer(step, mode, averaging) if ratio > 0.0 else None
        for layer in range(trace.n_layers):
            if scorer is None:
                sets[(step, layer)] = _empty_set(trace.n_img, step, layer, mode, averaging)
            else:
                sets[(step, layer)] = scorer.core_set(layer, ratio)

    return InjectionPlan(trace=trace, cutoff_step=cutoff, ratio=ratio, sets=sets)


class ScoreReducer:
    """What a pipeline run reads of a reconstruction capture, reduced layer
    by layer instead of kept as an `AttentionTrace`.

    `reconstruct_capture` calls it as `on_layer` while forward still holds
    each layer's I2I views; `replay` feeds it a full trace's layers in
    capture order. Steps may arrive in any order and interleaved, as a
    paired capture gives them, as long as each step's layers come in layer
    order: all it holds is keyed by step. Each layer's probabilities are
    scored once, through the step's one `StepScorer`, and their head-mean
    row masses fill `masses`, the (steps, n_layers, n_img) table
    `shift_rows` and `coverage` measure its plans from. Once the scorer
    knows a layer's core set at ratio `keep` (the widest any plan injects;
    0 keeps none), its (n_heads, k, n_img) logit rows are kept, in
    layer_variance mode only after the step's last layer, so each layer's
    logits are copied until then; a set that raises keeps none, as each
    plan needing it raises too. It reads logits only when `keep` > 0
    (`reads_logits`); otherwise forward may hand it None for them. Like a
    full trace it answers `step_scorer` and `core_rows`, so plans are built
    and injected from it.
    """

    def __init__(
        self, steps: int, n_layers: int, n_heads: int, n_img: int, mode: ScoreMode,
        averaging: bool, mask_frac: np.ndarray, keep: float = 0.0,
    ):
        self.steps, self.n_layers, self.n_heads, self.n_img = steps, n_layers, n_heads, n_img
        self.mode, self.averaging, self.keep = mode, averaging, keep
        self.masses = RowMasses(*(np.empty((steps, n_layers, n_img)) for _ in RowMasses._fields))
        self._mask_frac = mask_frac
        self._scorers: dict[int, StepScorer] = {}
        self._rows: dict[tuple[int, int], tuple[tuple[int, ...], np.ndarray]] = {}
        self._measured: dict[tuple[int, int, float], tuple[float, float]] = {}
        self._pending: dict[int, list[np.ndarray]] = {}  # layer_variance: each step's logits so far

    @property
    def reads_logits(self) -> bool:
        return self.keep > 0

    @classmethod
    def replay(
        cls, trace: AttentionTrace, mask_frac: np.ndarray, mode: ScoreMode, averaging: bool
    ) -> "ScoreReducer":
        """A reducer fed every (step, layer) of a full trace in capture order."""
        reducer = cls(*trace.probs.shape[:4], mode, averaging, mask_frac)
        for step, (logits, probs) in enumerate(zip(trace.logits, trace.probs), start=1):
            for layer in range(trace.n_layers):
                reducer(step, layer, logits[layer], probs[layer])
        return reducer

    def __call__(self, step: int, layer: int, logits: np.ndarray | None, probs: np.ndarray):
        """Score one layer, fill its row masses and keep its core rows."""
        if layer == 0:
            self._scorers[step] = StepScorer(step, self.mode, self.averaging)
        for dst, src in zip(self.masses, row_masses(probs.mean(axis=0), self._mask_frac)):
            dst[step - 1, layer] = src
        scorer = self._scorers[step]
        if not scorer.add(probs) and self.keep:
            self._pending.setdefault(step, []).append(logits.copy())
        elif self.keep:
            self._keep_rows(scorer, layer, logits)
        if layer == self.n_layers - 1:
            for held, held_logits in enumerate(self._pending.pop(step, [])):
                self._keep_rows(scorer, held, held_logits)

    def _keep_rows(self, scorer: StepScorer, layer: int, logits: np.ndarray):
        try:
            core = scorer.core_set(layer, self.keep)
        except GlyphFlowError:
            return
        self._rows[(scorer.step, layer)] = (core.indices, logits[:, core.rows(), :])

    def step_scorer(self, step: int, mode: ScoreMode, averaging: bool) -> StepScorer:
        if (mode, averaging) != (self.mode, self.averaging) or step not in self._scorers:
            raise TraceMismatch(f"reducer kept no {mode.value} scores for step {step}")
        return self._scorers[step]

    def core_rows(self, step: int, layer: int, core: CoreTokenSet) -> np.ndarray:
        """The (n_heads, k, n_img) logit rows of a core set at most `keep`
        wide. A narrower set is a prefix of the same ranking, so a subset of
        the kept one; the kept set itself gets the kept array, not a copy."""
        if not core.indices:
            return np.empty((self.n_heads, 0, self.n_img))
        kept, rows = self._rows.get((step, layer), ((), None))
        hit = np.isin(kept, core.rows())
        if np.count_nonzero(hit) != len(core.indices):
            raise TraceMismatch(f"reducer kept no such rows at step {step} layer {layer}")
        return rows if hit.all() else rows[:, hit, :]

    def shift_rows(self, plan: InjectionPlan) -> list[tuple[int, int, float, float]]:
        """(step, layer, attention shift, mask coverage) of each core set of
        a plan built from this reducer; any other plan raises `TraceMismatch`.
        Each (step, layer, ratio) pair is measured once, so a sweep's cells
        share them; a row that raises is not kept, so each plan reaching it
        raises."""
        if plan.trace is not self:
            raise TraceMismatch("plan was not built from this reducer")
        rows = []
        for (step, layer), core in sorted(plan.sets.items()):
            pair = self._measured.get((step, layer, core.ratio))
            if pair is None:
                idx, total = core.rows(), self.masses.total[step - 1, layer]
                pair = self._measured[(step, layer, core.ratio)] = (
                    row_fraction(self.masses.off[step - 1, layer], total, idx),
                    row_fraction(self.masses.on[step - 1, layer], total, idx),
                )
            rows.append((step, layer, *pair))
        return rows

    def coverage(self, plan: InjectionPlan) -> dict[str, float]:
        """Mean mask coverage and attention shift over a plan's core rows."""
        rows = self.shift_rows(plan)
        if not rows:
            raise ShapeMismatch("at least one row required")
        return {
            "mask_coverage_mean": float(np.mean([cov for _, _, _, cov in rows])),
            "attention_shift_mean": float(np.mean([shift for _, _, shift, _ in rows])),
        }


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
