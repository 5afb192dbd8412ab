"""End-to-end runs: rasterize, reconstruct, plan, generate, measure, record.

This is the layer the CLI calls. It builds each run's layer sinks from the
run's config (`coreattn.ScoreReducer`, `sampler.TraceChecksum`,
`sampler.AttentionTrace`) and feeds them one capture. Every artifact a run
writes is listed in its manifest together with checksums of all inputs that
influence output bytes.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass, replace

import numpy as np

from .coreattn import ScoreMode, ScoreReducer, build_injection
from .errors import (
    ConfigError,
    DuplicateCell,
    EmptyWord,
    GlyphFlowError,
    NonFiniteValue,
    ShapeMismatch,
    read_text,
)
from .glyphs import GlyphImage, glyph_mask_patches, load_glyph_bitmap, rasterize_text
from .manifest import RunManifest
from .metrics import char_f1, exact_match, render_sweep_csv
from .model import init_model
from .netpbm import write_pgm
from .runconfig import RunConfig, config_hash
from .sampler import (
    AttentionTrace,
    ProbeFn,
    TraceChecksum,
    generate_with_injection,
    reconstruct_capture,
)
from .tensorio import file_checksum, replacing, tensors_checksum

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


def _score_reducer(
    config: RunConfig, steps: int, mask_frac: np.ndarray, keep: float
) -> ScoreReducer:
    """A reducer of a `steps`-step capture at the config's model dims, scoring
    as its injection section says and keeping core rows at ratio `keep`."""
    mcfg, inj = config.model, config.injection
    return ScoreReducer(
        steps, mcfg.n_layers, mcfg.n_heads, mcfg.n_img, inj.mode, inj.averaging,
        mask_frac, keep=keep,
    )


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
    run's capture feeds each layer to its sinks in turn: a `TraceChecksum`
    gives the trace checksum; above ratio 0 a `ScoreReducer` gives the
    plan, the injected rows and the coverage metrics (at ratio 0 every set
    is empty and the reducer is never fed); io.save_trace adds an
    `AttentionTrace`, written to trace.bin.
    """
    if baseline:
        config = replace(config, injection=replace(config.injection, enabled=False))
    out_dir = out_dir if out_dir is not None else config.io.out_dir
    prompt = build_prompt(config.io.word, config.io.style).prompt
    glyph = prepare_glyph(config)
    weights = init_model(config.model)

    mask_frac = glyph_mask_patches(glyph, config.model.patch)
    scores = plan = checksum = saved = None
    if config.injection.enabled:
        inj = config.injection
        checksum = TraceChecksum(config.sampler, config.model)
        scores = _score_reducer(config, config.sampler.cutoff_step, mask_frac, inj.ratio)
        sinks = [checksum, scores] if inj.ratio > 0.0 else [checksum]
        if config.io.save_trace:
            saved = AttentionTrace.empty(config.sampler, config.model)
            sinks.append(saved)

        def on_layer(step: int, layer: int, logits: np.ndarray, probs: np.ndarray):
            for sink in sinks:  # the checksum first: it hashes while the others run
                sink(step, layer, logits, probs)

        reconstruct_capture(
            weights, glyph, config.io.recon_prompt, config.sampler, probe=probe, on_layer=on_layer
        )
        plan = build_injection(
            scores, inj.ratio, cutoff_step=config.sampler.cutoff_step, mode=inj.mode,
            averaging=inj.averaging,
        )

    image, manifest = generate_with_injection(
        weights, prompt, scores, plan, config.sampler, probe=probe
    )

    predicted = config.io.predicted or config.io.word
    f1 = char_f1(predicted, config.io.word)
    manifest.metrics["exact_match"] = 1.0 if exact_match(predicted, config.io.word) else 0.0
    manifest.metrics["char_precision"] = f1.precision
    manifest.metrics["char_recall"] = f1.recall
    manifest.metrics["char_f1"] = f1.f1
    if plan is not None and plan.ratio > 0.0 and plan.cutoff_step > 0:
        manifest.metrics.update(scores.coverage(plan))

    manifest.checksums["weights"] = weights.checksum()
    if checksum is not None:
        manifest.checksums["trace"] = checksum.hexdigest()
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
    """Best-effort machine-readable failure record; returns the path if written.
    Generate's fixed-name outputs go first, so none is left beside the record."""
    try:
        os.makedirs(out_dir, exist_ok=True)
        for name in ("output.pgm", "trace.bin"):
            with contextlib.suppress(OSError):
                os.remove(os.path.join(out_dir, name))
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
    masses. Each cell plans from it and fills the mask coverage and
    attention shift of its core rows, which the reducer measures, into the
    two grids. The cells share the scorers' core sets, and each set is
    measured once for every cell whose cutoff reaches it; each cell still
    averages its own rows. With sweep.full_runs the reducer also keeps the
    logit rows of the core sets at the grid's largest ratio, and each cell
    runs generation with its own subset of them and writes its image. No
    full trace is built either way. A failed cell is recorded and stays
    None, written as NA, so a sweep whose every cell fails still writes
    both CSVs.
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
    inj, full_runs = config.injection, config.sweep.full_runs
    scores = _score_reducer(config, max_cutoff, mask_frac, max(ratios) if full_runs else 0.0)
    reconstruct_capture(weights, glyph, config.io.recon_prompt, trace_cfg, on_layer=scores)

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
                    scores, ratio, cutoff_step=step, mode=inj.mode, averaging=inj.averaging
                )
                stats = scores.coverage(plan)
                if full_runs:
                    cell_cfg = replace(config.sampler, cutoff_step=step)
                    image, _ = generate_with_injection(weights, prompt, scores, plan, cell_cfg)
                    write_pgm(os.path.join(out_dir, f"cell_r{ratio!r}_s{step}.pgm"), image)
                tables["mask_coverage"][(ratio, step)] = stats["mask_coverage_mean"]
                tables["attention_shift"][(ratio, step)] = stats["attention_shift_mean"]
            except GlyphFlowError as exc:
                failures.append((ratio, step, f"{type(exc).__name__}: {exc}"))

    csv_paths: dict[str, str] = {}
    for metric, table in tables.items():
        path = os.path.join(out_dir, f"sweep_{metric}.csv")
        with replacing(path, "w", encoding="utf-8", newline="\n") as fh:
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

    rows = scores.shift_rows(plan)
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
