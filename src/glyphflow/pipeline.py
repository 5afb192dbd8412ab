"""End-to-end runs: rasterize, reconstruct, plan, generate, measure, record.

This is the layer the CLI calls. Every artifact a run writes is listed in its
manifest together with checksums of all inputs that influence output bytes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace

import numpy as np

from .coreattn import (
    CoreTokenSet,
    InjectionPlan,
    ScoreMode,
    StepScorer,
    build_injection,
)
from .errors import (
    ConfigError,
    DuplicateCell,
    EmptyWord,
    GlyphFlowError,
    NonFiniteValue,
    ShapeMismatch,
    TraceMismatch,
    read_text,
)
from .glyphs import GlyphImage, glyph_mask_patches, load_glyph_bitmap, rasterize_text
from .manifest import RunManifest
from .metrics import (
    RowMasses,
    char_f1,
    exact_match,
    render_sweep_csv,
    row_fraction,
    row_masses,
)
from .model import SinkFn, init_model
from .netpbm import write_pgm
from .runconfig import RunConfig, config_hash
from .sampler import (
    AttentionTrace,
    ProbeFn,
    generate_with_injection,
    reconstruct_capture,
    trace_meta,
)
from .tensorio import ChecksumStream, file_checksum, tensors_checksum

PROMPT_PREFIX = "A text "
PROMPT_MIDDLE = " logo decorated with "


@dataclass(frozen=True)
class PromptRecord:
    word: str
    style: str

    @property
    def prompt(self) -> str:
        """The fixed logo prompt template, instantiated with word and style."""
        return f"{PROMPT_PREFIX}{self.word}{PROMPT_MIDDLE}{self.style}."


def build_prompt(word: str, style: str) -> PromptRecord:
    """Instantiate the fixed logo prompt template."""
    if not word:
        raise EmptyWord("word must be nonempty")
    return PromptRecord(word=word, style=style)


def load_dataset(path) -> list[PromptRecord]:
    """JSON array of {word, style} objects with string values; other keys are ignored."""
    text = read_text(path, "dataset")
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"cannot read dataset {path}: {exc}") from exc
    if not isinstance(doc, list):
        raise ConfigError("dataset must be a JSON array")
    records = []
    for i, item in enumerate(doc):
        if not isinstance(item, dict) or not all(
            isinstance(item.get(key), str) for key in ("word", "style")
        ):
            raise ConfigError(f"dataset entry {i} needs a string word and style")
        records.append(build_prompt(item["word"], item["style"]))
    return records


def prepare_glyph(config: RunConfig) -> GlyphImage:
    """Rasterize io.word, or load io.glyph_path when set; canvas = model canvas."""
    mcfg = config.model
    if config.io.glyph_path:
        glyph = load_glyph_bitmap(config.io.glyph_path, patch=mcfg.patch)
        if (glyph.height, glyph.width) != (mcfg.canvas, mcfg.canvas):
            raise ShapeMismatch(
                f"glyph file is {glyph.width}x{glyph.height}, model canvas is "
                f"{mcfg.canvas}x{mcfg.canvas}"
            )
        return glyph
    return rasterize_text(
        config.io.word,
        layout=config.io.layout,
        width=mcfg.canvas,
        height=mcfg.canvas,
        scale=config.io.scale,
        patch=mcfg.patch,
    )


def _glyph_checksum(glyph: GlyphImage) -> str:
    return tensors_checksum({"pixels": glyph.pixels, "mask": glyph.mask})


class ScoreReducer:
    """What selection and the coverage metrics read of a reconstruction
    capture, reduced layer by layer instead of kept as an `AttentionTrace`.

    `reconstruct_capture` calls it as `on_layer` while forward still holds
    each layer's I2I views; `replay` feeds it a full trace's layers in the
    same order. Each layer's probabilities are scored once, through the
    step's one `StepScorer`, and their head-mean row masses fill `masses`,
    the (steps, n_layers, n_img) table behind every plan's coverage and
    shift. Like a full trace it answers `steps`, `n_layers`, `n_img` and
    `step_scorer`, so `build_injection` plans from it.
    """

    def __init__(
        self, steps: int, n_layers: int, n_img: int, mode: ScoreMode, averaging: bool,
        mask_frac: np.ndarray,
    ):
        self.steps, self.n_layers, self.n_img = steps, n_layers, n_img
        self.mode, self.averaging = mode, averaging
        self.masses = RowMasses(*(np.empty((steps, n_layers, n_img)) for _ in RowMasses._fields))
        self._mask_frac = mask_frac
        self._scorers: list[StepScorer] = []

    @classmethod
    def replay(
        cls, trace: AttentionTrace, mask_frac: np.ndarray, mode: ScoreMode, averaging: bool
    ) -> "ScoreReducer":
        """A reducer fed every (step, layer) of a full trace in capture order."""
        reducer = cls(trace.steps, trace.n_layers, trace.n_img, mode, averaging, mask_frac)
        for step, (logits, probs) in enumerate(zip(trace.logits, trace.probs), start=1):
            for layer in range(trace.n_layers):
                reducer(step, layer, logits[layer], probs[layer])
        return reducer

    def __call__(self, step: int, layer: int, logits: np.ndarray, probs: np.ndarray) -> bool:
        """Score one layer and fill its row masses; returns whether the
        layer's core set is known now (`StepScorer.add`)."""
        if layer == 0:
            self._scorers.append(StepScorer(step, self.mode, self.averaging))
        for dst, src in zip(self.masses, row_masses(probs.mean(axis=0), self._mask_frac)):
            dst[step - 1, layer] = src
        return self._scorers[-1].add(probs)

    def step_scorer(self, step: int, mode: ScoreMode, averaging: bool) -> StepScorer:
        if (mode, averaging) != (self.mode, self.averaging) or step > len(self._scorers):
            raise TraceMismatch(f"reducer kept no {mode.value} scores for step {step}")
        return self._scorers[step - 1]


def _tee(*reducers: SinkFn) -> SinkFn:
    """One layer sink that hands each layer to every reducer in turn."""

    def on_layer(step: int, layer: int, logits: np.ndarray, probs: np.ndarray):
        for reduce in reducers:
            reduce(step, layer, logits, probs)

    return on_layer


class StreamedTrace(ScoreReducer):
    """What an injected generate reads of its reconstruction capture: a
    `ScoreReducer` plus the logit rows of the core sets and the trace checksum.

    Every injected `run_generate` passes it to `reconstruct_capture` as
    `on_layer` and plans from it. It copies each layer's I2I views into one
    reused (n_heads, n_img, n_img) logits/probs pair, laid out as a full
    trace's (step, layer) block, and feeds that pair to the trace checksum's
    `ChecksumStream` (which hashes it while forward goes on; the next layer
    waits for it), to the reducer, and, once the scorer knows the layer's
    core set, to the (n_heads, k, n_img) rows kept for injection. In
    layer_variance mode that is only after the step's last layer, so each
    layer's logits are copied until the end of the step. At ratio 0 only the
    checksum is fed. `core_rows` and `checksum` give what a full trace of the
    same capture would; its t values are `SamplerConfig.captured_t_values`.
    """

    def __init__(self, config: RunConfig, mask_frac: np.ndarray):
        mcfg, inj = config.model, config.injection
        self.t_values = config.sampler.captured_t_values()
        super().__init__(
            len(self.t_values), mcfg.n_layers, mcfg.n_img, inj.mode, inj.averaging, mask_frac
        )
        self.n_heads, self.ratio = mcfg.n_heads, inj.ratio
        self._rows: dict[tuple[int, int], tuple[tuple[int, ...], np.ndarray]] = {}
        block = (self.n_heads, self.n_img, self.n_img)
        self._logits, self._probs = np.empty(block), np.empty(block)
        self._pending: list[np.ndarray] = []  # layer_variance: the step's logits so far
        shape = (self.steps, self.n_layers, *block)
        self._hash = ChecksumStream({"logits": ("f8", shape), "probs": ("f8", shape)})

    def __call__(self, step: int, layer: int, logits: np.ndarray, probs: np.ndarray):
        self._hash.wait()
        np.copyto(self._logits, logits)
        np.copyto(self._probs, probs)
        self._hash.update({"logits": self._logits, "probs": self._probs})
        if self.ratio == 0.0:
            return
        scorer_knows = super().__call__(step, layer, self._logits, self._probs)
        scorer = self._scorers[-1]
        if scorer_knows:
            self._keep_rows(scorer, layer, self._logits)
        else:
            self._pending.append(self._logits.copy())
        if layer == self.n_layers - 1:
            for held, held_logits in enumerate(self._pending):
                self._keep_rows(scorer, held, held_logits)
            self._pending = []

    def _keep_rows(self, scorer: StepScorer, layer: int, logits: np.ndarray):
        core = scorer.core_set(layer, self.ratio)
        self._rows[(scorer.step, layer)] = (core.indices, logits[:, core.rows(), :])

    def core_rows(self, step: int, layer: int, core: CoreTokenSet) -> np.ndarray:
        if not core.indices:
            return np.empty((self.n_heads, 0, self.n_img))
        indices, rows = self._rows.get((step, layer), ((), None))
        if indices != core.indices:
            raise TraceMismatch(f"streamed trace kept other rows at step {step} layer {layer}")
        return rows

    def checksum(self) -> str:
        """The checksum the full trace of the same capture would have."""
        dims = (self.steps, self.n_layers, self.n_heads, self.n_img)
        return self._hash.hexdigest(trace_meta(self.t_values, dims))


def _core_shift_rows(
    masses: RowMasses, plan: InjectionPlan
) -> list[tuple[int, int, float, float]]:
    """(step, layer, attention shift, mask coverage) of every planned core set."""
    rows = []
    for (step, layer), core in sorted(plan.sets.items()):
        idx = core.rows()
        total = masses.total[step - 1, layer]
        shift = row_fraction(masses.off[step - 1, layer], total, idx)
        cov = row_fraction(masses.on[step - 1, layer], total, idx)
        rows.append((step, layer, shift, cov))
    return rows


def _coverage_metrics(masses: RowMasses, plan: InjectionPlan) -> dict[str, float]:
    """Mean on/off-mask attention of the planned core rows over all (step, layer).

    A plan that covers no (step, layer) has no rows to average and raises.
    """
    rows = _core_shift_rows(masses, plan)
    if not rows:
        raise ShapeMismatch("at least one row required")
    return {
        "mask_coverage_mean": float(np.mean([cov for _, _, _, cov in rows])),
        "attention_shift_mean": float(np.mean([shift for _, _, shift, _ in rows])),
    }


def run_generate(
    config: RunConfig,
    out_dir: str | None = None,
    baseline: bool = False,
    probe: ProbeFn | None = None,
    write_outputs: bool = True,
) -> tuple[RunManifest, np.ndarray]:
    """Full pipeline: rasterize, reconstruct, plan, generate, measure, write.

    baseline=True runs the config with injection.enabled = False, so the
    manifest's config hash is that of the run that happened. An injected
    run has one capture path: a `StreamedTrace` reduces the reconstruction
    layer by layer, and the plan, the injected rows, the coverage metrics
    and the trace checksum all come from it. io.save_trace only adds an
    `AttentionTrace` fed by the same capture and written to trace.bin.
    """
    if baseline:
        config = replace(config, injection=replace(config.injection, enabled=False))
    out_dir = out_dir if out_dir is not None else config.io.out_dir
    prompt = build_prompt(config.io.word, config.io.style).prompt
    glyph = prepare_glyph(config)
    weights = init_model(config.model)

    mask_frac = glyph_mask_patches(glyph, config.model.patch)
    trace = plan = saved = None
    if config.injection.enabled:
        on_layer = trace = StreamedTrace(config, mask_frac)
        if config.io.save_trace:
            saved = AttentionTrace.empty(config.sampler, config.model)
            on_layer = _tee(trace, saved)
        reconstruct_capture(
            weights, glyph, config.io.recon_prompt, config.sampler, probe=probe, on_layer=on_layer
        )
        plan = build_injection(
            trace,
            config.injection.ratio,
            cutoff_step=config.sampler.cutoff_step,
            mode=config.injection.mode,
            averaging=config.injection.averaging,
        )

    image, manifest = generate_with_injection(
        weights, prompt, trace, plan, config.sampler, probe=probe
    )

    predicted = config.io.predicted or config.io.word
    f1 = char_f1(predicted, config.io.word)
    manifest.metrics["exact_match"] = 1.0 if exact_match(predicted, config.io.word) else 0.0
    manifest.metrics["char_precision"] = f1.precision
    manifest.metrics["char_recall"] = f1.recall
    manifest.metrics["char_f1"] = f1.f1
    if plan is not None and plan.ratio > 0.0 and plan.cutoff_step > 0:
        manifest.metrics.update(_coverage_metrics(trace.masses, plan))

    manifest.checksums["weights"] = weights.checksum()
    if trace is not None:
        manifest.checksums["trace"] = trace.checksum()
    manifest.checksums["glyph"] = _glyph_checksum(glyph)
    manifest.config_hash = config_hash(
        config, inputs={"glyph": manifest.checksums["glyph"]}
    )

    if write_outputs:
        os.makedirs(out_dir, exist_ok=True)
        image_path = os.path.join(out_dir, "output.pgm")
        write_pgm(image_path, image)
        manifest.outputs["image"] = image_path
        manifest.checksums["image"] = file_checksum(image_path)
        if saved is not None:
            trace_path = os.path.join(out_dir, "trace.bin")
            saved.save(trace_path)
            manifest.outputs["trace"] = trace_path
        manifest_path = os.path.join(out_dir, "manifest.json")
        manifest.outputs["manifest"] = manifest_path
        manifest.save(manifest_path)
    return manifest, image


def write_error_manifest(out_dir: str, config: RunConfig, exc: Exception) -> str | None:
    """Best-effort machine-readable failure record; returns the path if written."""
    try:
        os.makedirs(out_dir, exist_ok=True)
        manifest = RunManifest(
            config_hash=config_hash(config),
            error={"type": type(exc).__name__, "message": str(exc)},
        )
        path = os.path.join(out_dir, "manifest.json")
        manifest.save(path)
        return path
    except OSError:
        return None


@dataclass
class SweepResult:
    tables: dict[str, dict[tuple[float, int], float | None]]
    failures: list[tuple[float, int, str]]
    csv_paths: dict[str, str]


def run_sweep(config: RunConfig, out_dir: str | None = None) -> SweepResult:
    """Evaluate the (top-k ratio x injection-cutoff) grid from one shared capture.

    One reconstruction capture at the largest grid cutoff feeds a
    `ScoreReducer`, which scores each (step, layer) once and keeps the row
    masses; each cell builds its own plan and fills its planned core rows'
    mask coverage and attention shift, read from those masses, into the two
    grids. With sweep.full_runs the same capture also fills a full
    `AttentionTrace`, the cells plan from it, and each cell runs generation
    with its logit rows and writes its image. A failed cell is recorded and
    stays None, written as NA, so a sweep whose every cell fails still
    writes both CSVs.
    """
    out_dir = out_dir if out_dir is not None else config.io.out_dir
    ratios = config.sweep.ratios
    steps = config.sweep.steps
    if not ratios or not steps:
        raise ConfigError("sweep grid must be nonempty")
    if len(set(ratios)) != len(ratios) or len(set(steps)) != len(steps):
        raise DuplicateCell("sweep grid repeats a ratio or step")
    max_cutoff = max(steps)
    if max_cutoff > config.sampler.steps:
        raise ConfigError(
            f"sweep cutoff {max_cutoff} exceeds sampler steps {config.sampler.steps}"
        )

    glyph = prepare_glyph(config)
    weights = init_model(config.model)
    prompt = build_prompt(config.io.word, config.io.style).prompt
    mask_frac = glyph_mask_patches(glyph, config.model.patch)
    trace_cfg = replace(config.sampler, cutoff_step=max_cutoff)
    mcfg, inj, full_runs = config.model, config.injection, config.sweep.full_runs
    on_layer = trace = scores = ScoreReducer(
        max_cutoff, mcfg.n_layers, mcfg.n_img, inj.mode, inj.averaging, mask_frac
    )
    if full_runs:
        trace = AttentionTrace.empty(trace_cfg, mcfg)
        on_layer = _tee(scores, trace)
    reconstruct_capture(weights, glyph, config.io.recon_prompt, trace_cfg, on_layer=on_layer)

    os.makedirs(out_dir, exist_ok=True)
    tables: dict[str, dict[tuple[float, int], float | None]] = {
        metric: {(r, s): None for r in sorted(ratios) for s in sorted(steps)}
        for metric in ("attention_shift", "mask_coverage")
    }
    failures: list[tuple[float, int, str]] = []
    for ratio in ratios:
        for step in steps:
            try:
                plan = build_injection(
                    trace, ratio, cutoff_step=step, mode=inj.mode, averaging=inj.averaging
                )
                stats = _coverage_metrics(scores.masses, plan)
                if full_runs:
                    cell_cfg = replace(config.sampler, cutoff_step=step)
                    image, _ = generate_with_injection(weights, prompt, trace, plan, cell_cfg)
                    write_pgm(os.path.join(out_dir, f"cell_r{ratio!r}_s{step}.pgm"), image)
                tables["mask_coverage"][(ratio, step)] = stats["mask_coverage_mean"]
                tables["attention_shift"][(ratio, step)] = stats["attention_shift_mean"]
            except GlyphFlowError as exc:
                failures.append((ratio, step, f"{type(exc).__name__}: {exc}"))

    csv_paths: dict[str, str] = {}
    for metric, table in tables.items():
        path = os.path.join(out_dir, f"sweep_{metric}.csv")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(render_sweep_csv(table, metric))
        csv_paths[metric] = path
    return SweepResult(tables=tables, failures=failures, csv_paths=csv_paths)


@dataclass
class AnalyzeResult:
    shift_csv: str
    raw_scores: list
    selection_scores: list


def run_analyze(
    trace: AttentionTrace,
    mask_frac: np.ndarray,
    ratio: float,
    mode: ScoreMode = ScoreMode.ROW_MASS,
    averaging: bool = True,
) -> AnalyzeResult:
    """Score every captured (step, layer) once, select core sets, measure the shift.

    The trace is replayed layer by layer into a `ScoreReducer`, which plans.
    raw_scores holds the per-layer statistics; selection_scores holds what
    selection actually ranked (running means, raw scores, or the per-step
    variance vector in layer_variance mode), both from the step scorers
    that picked the plan's sets. The CSV has one row per (step, layer) with
    the attention shift and mask coverage of that pair's core rows.
    """
    if not 0.0 < ratio <= 1.0:
        raise ConfigError(f"ratio {ratio} outside (0,1]")
    scores = ScoreReducer.replay(trace, mask_frac, mode, averaging)
    plan = build_injection(scores, ratio, mode=mode, averaging=averaging)
    raw_scores = []
    selection_scores = []
    for step in range(1, trace.steps + 1):
        scorer = scores.step_scorer(step, mode, averaging)
        raw_scores.extend(scorer.raw)
        selection_scores.extend(scorer.ranked())

    rows = _core_shift_rows(scores.masses, plan)
    lines = ["step,layer,attention_shift,mask_coverage"]
    lines += [f"{step},{layer},{shift!r},{cov!r}" for step, layer, shift, cov in rows]
    return AnalyzeResult(
        shift_csv="\n".join(lines) + "\n",
        raw_scores=raw_scores,
        selection_scores=selection_scores,
    )


def export_heatmap(scores: np.ndarray, grid: int, path):
    """Min-max normalize a grid^2 vector and write it as one PGM heatmap.

    Constant input normalizes to all zeros. NaN or infinite scores have no
    place on the scale and are rejected.
    """
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    if grid < 1:
        raise ShapeMismatch(f"heatmap grid {grid} must be >= 1")
    if scores.shape[0] != grid * grid:
        raise ShapeMismatch(f"{scores.shape[0]} values cannot fill a {grid}x{grid} grid")
    if not np.isfinite(scores).all():
        raise NonFiniteValue("scores must be finite to scale into a heatmap")
    lo = scores.min()
    hi = scores.max()
    if hi > lo:
        norm = (scores - lo) / (hi - lo)
    else:
        norm = np.zeros_like(scores)
    write_pgm(path, norm.reshape(grid, grid))
