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
    CumulativeScore,
    InjectionPlan,
    ScoreMode,
    build_injection,
    cumulative_update,
    token_scores,
    variance_scores,
)
from .errors import ConfigError, DuplicateCell, EmptyWord, GlyphFlowError, ShapeMismatch
from .glyphs import GlyphImage, glyph_mask_patches, load_glyph_bitmap, rasterize_text
from .manifest import VERSION, RunManifest
from .metrics import (
    RowMasses,
    SweepCell,
    char_f1,
    exact_match,
    render_sweep_csv,
    row_fraction,
    row_masses,
    sweep_aggregate,
)
from .model import init_model
from .netpbm import write_pgm
from .runconfig import RunConfig, config_hash
from .sampler import AttentionTrace, ProbeFn, generate_with_injection, reconstruct_capture
from .tensorio import file_checksum, tensors_checksum

PROMPT_PREFIX = "A text "
PROMPT_MIDDLE = " logo decorated with "


@dataclass(frozen=True)
class PromptRecord:
    word: str
    style: str
    lang: str = ""
    prompt: str = ""

    def __post_init__(self):
        expected = f"{PROMPT_PREFIX}{self.word}{PROMPT_MIDDLE}{self.style}."
        if self.prompt != expected:
            raise ConfigError(f"rendered prompt must be {expected!r}")


def build_prompt(word: str, style: str, lang: str = "") -> PromptRecord:
    """Instantiate the fixed logo prompt template."""
    if not word:
        raise EmptyWord("word must be nonempty")
    prompt = f"{PROMPT_PREFIX}{word}{PROMPT_MIDDLE}{style}."
    return PromptRecord(word=word, style=style, lang=lang, prompt=prompt)


def load_dataset(path) -> list[PromptRecord]:
    """JSON array of {word, style, lang?} objects."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read dataset {path}: {exc}") from exc
    if not isinstance(doc, list):
        raise ConfigError("dataset must be a JSON array")
    records = []
    for i, item in enumerate(doc):
        if not isinstance(item, dict) or "word" not in item or "style" not in item:
            raise ConfigError(f"dataset entry {i} needs word and style")
        records.append(
            build_prompt(str(item["word"]), str(item["style"]), str(item.get("lang", "")))
        )
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


def _trace_row_masses(trace: AttentionTrace, mask_frac: np.ndarray) -> RowMasses:
    """Head-mean row masses of every captured (step, layer), one reduction each.

    Each field has shape (steps, n_layers, n_img); every plan over the trace
    reads its core rows' coverage and shift from this one table.
    """
    shape = (trace.steps, trace.n_layers, trace.n_img)
    table = RowMasses(*(np.empty(shape, dtype=np.float64) for _ in RowMasses._fields))
    for step in range(1, trace.steps + 1):
        for layer in range(trace.n_layers):
            masses = row_masses(trace.step_probs(step, layer).mean(axis=0), mask_frac)
            for dst, src in zip(table, masses):
                dst[step - 1, layer] = src
    return table


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
    """Full pipeline: rasterize, reconstruct, plan, generate, measure, write."""
    out_dir = out_dir if out_dir is not None else config.io.out_dir
    prompt = build_prompt(config.io.word, config.io.style).prompt
    glyph = prepare_glyph(config)
    weights = init_model(config.model)

    inject = config.injection.enabled and not baseline
    trace = plan = None
    if inject:
        trace = reconstruct_capture(
            weights, glyph, config.io.recon_prompt, config.sampler, probe=probe
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
        mask_frac = glyph_mask_patches(glyph, config.model.patch)
        masses = _trace_row_masses(trace, mask_frac)
        manifest.metrics.update(_coverage_metrics(masses, plan))

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
        if config.io.save_trace and trace is not None:
            trace_path = os.path.join(out_dir, "trace.bin")
            trace.save(trace_path)
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
            version=VERSION,
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
    cells: list[SweepCell]


def run_sweep(
    config: RunConfig, out_dir: str | None = None, write_outputs: bool = True
) -> SweepResult:
    """Evaluate the (top-k ratio x injection-cutoff) grid from one shared trace.

    One reconstruction capture at the largest grid cutoff serves every cell;
    each cell builds its own plan and reports the planned core rows' mask
    coverage and attention shift. With sweep.full_runs each cell also runs
    generation and writes its image. Cell failures are recorded and surface
    as NA markers, not as an aborted sweep.
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
    trace = reconstruct_capture(weights, glyph, config.io.recon_prompt, trace_cfg)
    masses = _trace_row_masses(trace, mask_frac)

    if write_outputs:
        os.makedirs(out_dir, exist_ok=True)
    cells: list[SweepCell] = []
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
                ref = None
                if config.sweep.full_runs and write_outputs:
                    cell_cfg = replace(config.sampler, cutoff_step=step)
                    image, _ = generate_with_injection(weights, prompt, trace, plan, cell_cfg)
                    ref = os.path.join(out_dir, f"cell_r{ratio!r}_s{step}.pgm")
                    write_pgm(ref, image)
                cells.append(
                    SweepCell(ratio, step, "mask_coverage", stats["mask_coverage_mean"], ref)
                )
                cells.append(
                    SweepCell(ratio, step, "attention_shift", stats["attention_shift_mean"], ref)
                )
            except GlyphFlowError as exc:
                failures.append((ratio, step, f"{type(exc).__name__}: {exc}"))

    tables = sweep_aggregate(cells, ratios=tuple(sorted(ratios)), steps=tuple(sorted(steps)))
    csv_paths: dict[str, str] = {}
    if write_outputs:
        for metric, table in tables.items():
            path = os.path.join(out_dir, f"sweep_{metric}.csv")
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(render_sweep_csv(table, metric))
            csv_paths[metric] = path
    return SweepResult(tables=tables, failures=failures, csv_paths=csv_paths, cells=cells)


@dataclass
class AnalyzeResult:
    shift_csv: str
    raw_scores: list
    selection_scores: list
    shift_rows: list[tuple[int, int, float, float]]


def run_analyze(
    trace: AttentionTrace,
    mask_frac: np.ndarray,
    ratio: float,
    mode: ScoreMode = ScoreMode.ROW_MASS,
    averaging: bool = True,
) -> AnalyzeResult:
    """Score every captured (step, layer), select core sets, measure the shift.

    raw_scores holds the per-layer statistics; selection_scores holds what
    selection actually ranked (running means, or the per-step variance vector
    in layer_variance mode). The CSV has one row per (step, layer) with the
    attention shift and mask coverage of that pair's core rows.
    """
    if not 0.0 < ratio <= 1.0:
        raise ConfigError(f"ratio {ratio} outside (0,1]")
    plan = build_injection(trace, ratio, mode=mode, averaging=averaging)
    base_mode = ScoreMode.ROW_MASS if mode == ScoreMode.LAYER_VARIANCE else mode
    raw_scores = []
    selection_scores = []
    for step in range(1, trace.steps + 1):
        per_layer = [
            token_scores(trace.step_probs(step, layer), base_mode, layer, step)
            for layer in range(trace.n_layers)
        ]
        raw_scores.extend(per_layer)
        if mode == ScoreMode.LAYER_VARIANCE:
            selection_scores.append(variance_scores(per_layer))
        elif averaging:
            state = CumulativeScore.empty(trace.n_img, mode)
            for s in per_layer:
                state = cumulative_update(state, s)
                selection_scores.append(state.to_score_vector(s.layer, step))
        else:
            selection_scores.extend(per_layer)

    rows = _core_shift_rows(_trace_row_masses(trace, mask_frac), plan)
    lines = ["step,layer,attention_shift,mask_coverage"]
    lines += [f"{step},{layer},{shift!r},{cov!r}" for step, layer, shift, cov in rows]
    return AnalyzeResult(
        shift_csv="\n".join(lines) + "\n",
        raw_scores=raw_scores,
        selection_scores=selection_scores,
        shift_rows=rows,
    )


def export_heatmap(scores: np.ndarray, grid: int, path):
    """Min-max normalize a grid^2 vector and write it as one PGM heatmap.

    Constant input normalizes to all zeros.
    """
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    if scores.shape[0] != grid * grid:
        raise ShapeMismatch(f"{scores.shape[0]} values cannot fill a {grid}x{grid} grid")
    lo = scores.min()
    hi = scores.max()
    if hi > lo:
        norm = (scores - lo) / (hi - lo)
    else:
        norm = np.zeros_like(scores)
    write_pgm(path, norm.reshape(grid, grid))
