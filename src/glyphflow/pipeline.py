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
    ScoreVector,
    StepScorer,
    build_injection,
    select_layer,
    step_scores,
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
from .model import init_model
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


def _empty_row_masses(steps: int, n_layers: int, n_img: int) -> RowMasses:
    return RowMasses(*(np.empty((steps, n_layers, n_img)) for _ in RowMasses._fields))


def _fill_row_masses(table: RowMasses, step: int, layer: int, maps: np.ndarray, mask_frac):
    """Write the head-mean row masses of one layer's (n_heads, n_img, n_img)
    probs into the table's (1-based step, layer) slot."""
    for dst, src in zip(table, row_masses(maps.mean(axis=0), mask_frac)):
        dst[step - 1, layer] = src


def _trace_row_masses(trace: AttentionTrace, mask_frac: np.ndarray) -> RowMasses:
    """`_fill_row_masses` of every captured (step, layer), as one table.

    Each field has shape (steps, n_layers, n_img); every plan over the trace
    reads its core rows' coverage and shift from this one table.
    """
    table = _empty_row_masses(trace.steps, trace.n_layers, trace.n_img)
    for step, probs in enumerate(trace.probs, start=1):
        for layer, maps in enumerate(probs):
            _fill_row_masses(table, step, layer, maps, mask_frac)
    return table


class StreamedTrace:
    """What an injected generate reads of its reconstruction capture, kept
    layer by layer instead of as an `AttentionTrace`.

    Every injected `run_generate` passes it to `reconstruct_capture` as
    `on_layer` and plans from it; it reduces each layer's I2I views while
    forward still holds them. It copies them into one reused
    (n_heads, n_img, n_img) logits/probs pair, laid out as a full trace's
    (step, layer) block, and applies to that pair the operations a full
    trace would see:
    - the layer's bytes, fed to the trace checksum's `ChecksumStream`, which
      hashes them while forward goes on; the next layer waits for it before
      it overwrites the pair;
    - a `StepScorer` per step for the ranked vectors of `step_scores`, and
      `select_layer` for the core sets `build_injection` picks from them;
    - the (n_heads, k, n_img) logit rows of the layer's core set;
    - `_fill_row_masses`, behind coverage and shift.
    A layer's core set is picked as soon as its ranked vector exists. In
    layer_variance mode that is only after the step's last layer, so each
    layer's logits are copied until the end of the step. At ratio 0 nothing
    is selected, so only the checksum is fed. Like a full trace it answers
    `ranked_scores` (for `build_injection`), `core_rows` (for
    `generate_with_injection`) and `checksum`, with the same results; its
    t values are `SamplerConfig.captured_t_values`, as a full trace's are.
    """

    def __init__(self, config: RunConfig, mask_frac: np.ndarray):
        mcfg, inj = config.model, config.injection
        self.t_values = config.sampler.captured_t_values()
        self.steps = len(self.t_values)
        self.n_layers, self.n_heads, self.n_img = mcfg.n_layers, mcfg.n_heads, mcfg.n_img
        self.ratio, self.mode, self.averaging = inj.ratio, inj.mode, inj.averaging
        self.masses = _empty_row_masses(self.steps, self.n_layers, self.n_img)
        self._mask_frac = mask_frac
        self._ranked: list[list[ScoreVector]] = []
        self._rows: dict[tuple[int, int], tuple[tuple[int, ...], np.ndarray]] = {}
        block = (self.n_heads, self.n_img, self.n_img)
        self._logits, self._probs = np.empty(block), np.empty(block)
        self._scorer: StepScorer | None = None
        self._pending: list[np.ndarray] = []  # layer_variance: the step's logits so far
        shape = (self.steps, self.n_layers, *block)
        self._hash = ChecksumStream({"logits": ("f8", shape), "probs": ("f8", shape)})

    def __call__(self, step: int, layer: int, logits: np.ndarray, probs: np.ndarray):
        self._hash.wait()
        np.copyto(self._logits, logits)
        np.copyto(self._probs, probs)
        if layer == 0:
            self._scorer = StepScorer(step, self.mode, self.averaging)
        self._hash.update({"logits": self._logits, "probs": self._probs})
        if self.ratio == 0.0:
            return
        ranked = self._scorer.add(self._probs)
        _fill_row_masses(self.masses, step, layer, self._probs, self._mask_frac)
        if ranked is not None:
            self._keep_rows(step, layer, ranked, self._logits)
        else:
            self._pending.append(self._logits.copy())
        if layer == self.n_layers - 1:
            self._ranked.append(self._scorer.ranked())
            for held, held_logits in enumerate(self._pending):
                self._keep_rows(step, held, self._ranked[-1][0], held_logits)
            self._pending = []

    def _keep_rows(self, step: int, layer: int, ranked: ScoreVector, logits: np.ndarray):
        core = select_layer(ranked, self.ratio, layer, self.mode, self.averaging)
        self._rows[(step, layer)] = (core.indices, logits[:, core.rows(), :])

    def ranked_scores(self, step: int, mode: ScoreMode, averaging: bool) -> list[ScoreVector]:
        if (mode, averaging) != (self.mode, self.averaging) or step > len(self._ranked):
            raise TraceMismatch(f"streamed trace kept no {mode.value} scores for step {step}")
        return self._ranked[step - 1]

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

            def on_layer(*layer):
                trace(*layer)
                saved(*layer)

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
    """Evaluate the (top-k ratio x injection-cutoff) grid from one shared trace.

    One reconstruction capture at the largest grid cutoff serves every cell;
    each cell builds its own plan and fills its planned core rows' mask
    coverage and attention shift into the two grids. With sweep.full_runs
    each cell also runs generation and writes its image; only then does the
    trace keep logits, since selection and the metrics read probabilities
    alone. A failed cell is recorded and stays None, written as NA, so a
    sweep whose every cell fails still writes both CSVs.
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
    full_runs = config.sweep.full_runs
    trace = reconstruct_capture(
        weights, glyph, config.io.recon_prompt, trace_cfg,
        on_layer=AttentionTrace.empty(trace_cfg, config.model, logits=full_runs),
    )
    masses = _trace_row_masses(trace, mask_frac)

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
                    trace,
                    ratio,
                    cutoff_step=step,
                    mode=config.injection.mode,
                    averaging=config.injection.averaging,
                )
                stats = _coverage_metrics(masses, plan)
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
    """Score every captured (step, layer), select core sets, measure the shift.

    raw_scores holds the per-layer statistics; selection_scores holds what
    selection actually ranked (running means, raw scores, or the per-step
    variance vector in layer_variance mode), both from `step_scores`. The CSV
    has one row per (step, layer) with the attention shift and mask coverage
    of that pair's core rows.
    """
    if not 0.0 < ratio <= 1.0:
        raise ConfigError(f"ratio {ratio} outside (0,1]")
    plan = build_injection(trace, ratio, mode=mode, averaging=averaging)
    raw_scores = []
    selection_scores = []
    for step in range(1, trace.steps + 1):
        raw, ranked = step_scores(trace.probs[step - 1], step, mode, averaging)
        raw_scores.extend(raw)
        selection_scores.extend(ranked)

    rows = _core_shift_rows(_trace_row_masses(trace, mask_frac), plan)
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
