"""Workload inputs, the op each workload runs, and the checks on its outputs.

Every op draws its word (1-4 letters, so it fits the 128 px canvas at the
default scale 4), layout, style and noise seed from (workload seed, op index).
Model, sampler and injection settings stay at their defaults, so every op of
a workload does the same amount of work.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import random
import string
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import glyphflow as gf
from glyphflow import pipeline

from tracer import rebound

GOLDEN_SEED = 0
GOLDENS_PATH = Path(__file__).with_name("goldens.json")
# trace float bytes may drift by a few ulps (ROADMAP), so CSV values are
# compared with a tolerance; PGM bytes are compared exactly
GOLDEN_TOL = 1e-12
SUM_TOL = 1e-9
STYLES = (
    "bold geometric strokes",
    "thin neon outlines",
    "hand drawn ink",
    "soft watercolor washes",
    "gold leaf serifs",
    "pixel art blocks",
)


@dataclass(frozen=True)
class OpInput:
    word: str
    layout: gf.Layout
    style: str
    noise_seed: int


def draw_input(seed: int, index: int) -> OpInput:
    rng = random.Random(f"glyphflow-bench:{seed}:{index}")
    word = "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(1, 4)))
    return OpInput(
        word=word,
        layout=rng.choice(list(gf.Layout)),
        style=rng.choice(STYLES),
        noise_seed=rng.randrange(1 << 31),
    )


def op_config(inp: OpInput) -> gf.RunConfig:
    base = gf.RunConfig()
    return replace(
        base,
        sampler=replace(base.sampler, noise_seed=inp.noise_seed),
        io=replace(base.io, word=inp.word, layout=inp.layout, style=inp.style),
    )


@contextlib.contextmanager
def tapped_plans():
    """Collect every InjectionPlan the pipeline builds inside the block."""
    plans = []
    inner = pipeline.build_injection

    def tap(*args, **kwargs):
        plan = inner(*args, **kwargs)
        plans.append(plan)
        return plan

    with rebound(inner, tap):
        yield plans


# ---------------------------------------------------------------- ops


def run_generate(cfg: gf.RunConfig, out_dir: str) -> dict:
    manifest, image = gf.run_generate(cfg, out_dir=out_dir)
    return {"manifest": manifest, "image": image}


def run_sweep(cfg: gf.RunConfig, out_dir: str) -> dict:
    return {"result": gf.run_sweep(cfg, out_dir=out_dir)}


def run_trace_io(cfg: gf.RunConfig, out_dir: str) -> dict:
    """The CLI's `reconstruct` then `analyze`, one trace file between them."""
    glyph = gf.prepare_glyph(cfg)
    weights = gf.init_model(cfg.model)
    trace = gf.reconstruct_capture(weights, glyph, cfg.io.recon_prompt, cfg.sampler)
    trace_path = os.path.join(out_dir, "trace.bin")
    trace.save(trace_path)
    saved_checksum = trace.checksum()
    # the two CLI commands run in separate processes: nothing survives the save
    del glyph, weights, trace

    loaded = gf.AttentionTrace.load(trace_path)
    mask_frac = gf.glyph_mask_patches(gf.prepare_glyph(cfg), cfg.model.patch)
    result = gf.run_analyze(
        loaded,
        mask_frac,
        cfg.injection.ratio,
        mode=cfg.injection.mode,
        averaging=cfg.injection.averaging,
    )
    shift_path = os.path.join(out_dir, "shift.csv")
    with open(shift_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(result.shift_csv)
    score_paths = [os.path.join(out_dir, f"scores_{kind}.bin") for kind in ("raw", "selection")]
    gf.save_scores(score_paths[0], result.raw_scores)
    gf.save_scores(score_paths[1], result.selection_scores)
    return {
        "saved_checksum": saved_checksum,
        "loaded_checksum": loaded.checksum(),
        "shift_path": shift_path,
        "score_paths": score_paths,
    }


# ---------------------------------------------------------------- checks


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read_csv(path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _plan_errors(cfg: gf.RunConfig, plans, expected: int) -> list[str]:
    if len(plans) != expected:
        return [f"{len(plans)} plans built, expected {expected}"]
    n_img = cfg.model.n_img
    return [
        f"plan ratio {plan.ratio}: set {key} has {len(core.indices)} indices"
        for plan in plans
        for key, core in plan.sets.items()
        if len(core.indices) != math.ceil(plan.ratio * n_img)
    ]


def _pair_errors(pairs: list[tuple[float, float]], what: str) -> list[str]:
    return [
        f"{what} row {i}: coverage {cov!r} + shift {shift!r} != 1"
        for i, (cov, shift) in enumerate(pairs)
        if not (0.0 <= cov <= 1.0 and abs(cov + shift - 1.0) <= SUM_TOL)
    ]


def check_generate(cfg: gf.RunConfig, out: dict, plans) -> tuple[list[str], dict]:
    manifest, image = out["manifest"], out["image"]
    errors = _plan_errors(cfg, plans, expected=1)
    if image.shape != (cfg.model.canvas, cfg.model.canvas):
        errors.append(f"image shape {image.shape}")
    if not (image.min() >= 0.0 and image.max() <= 1.0):
        errors.append("pixels outside [0, 1]")
    digest = _sha256(manifest.outputs["image"])
    if manifest.checksums.get("image") != digest:
        errors.append("manifest image checksum differs from the PGM file")
    if not os.path.isfile(manifest.outputs["manifest"]):
        errors.append("manifest.json not written")
    return errors, {"pgm_sha256": digest}


def check_sweep(cfg: gf.RunConfig, out: dict, plans) -> tuple[list[str], dict]:
    result = out["result"]
    grid = [(r, s) for r in sorted(cfg.sweep.ratios) for s in sorted(cfg.sweep.steps)]
    errors = _plan_errors(cfg, plans, expected=len(grid))
    errors += [f"cell ({r}, {s}) failed: {msg}" for r, s, msg in result.failures]
    columns = {}
    for metric in ("mask_coverage", "attention_shift"):
        header, rows = _read_csv(result.csv_paths[metric])
        if header != ["ratio", "step", metric]:
            errors.append(f"sweep_{metric}.csv header {header}")
        keys = [(float(r), int(s)) for r, s, _ in rows]
        columns[metric] = [float(v) for _, _, v in rows]
        if keys != grid:
            errors.append(f"sweep_{metric}.csv does not hold the sorted {len(grid)}-cell grid")
    errors += _pair_errors(list(zip(columns["mask_coverage"], columns["attention_shift"])), "sweep")
    return errors, columns


def check_trace_io(cfg: gf.RunConfig, out: dict, plans) -> tuple[list[str], dict]:
    errors = _plan_errors(cfg, plans, expected=1)
    if out["saved_checksum"] != out["loaded_checksum"]:
        errors.append("loaded trace checksum differs from the saved trace's")
    header, rows = _read_csv(out["shift_path"])
    if header != ["step", "layer", "attention_shift", "mask_coverage"]:
        errors.append(f"shift.csv header {header}")
    keys = [(int(step), int(layer)) for step, layer, _, _ in rows]
    want = [
        (step, layer)
        for step in range(1, cfg.sampler.cutoff_step + 1)
        for layer in range(cfg.model.n_layers)
    ]
    if keys != want:
        errors.append(f"shift.csv does not hold one row per (step, layer) of {len(want)}")
    shift = [float(row[2]) for row in rows]
    coverage = [float(row[3]) for row in rows]
    errors += _pair_errors(list(zip(coverage, shift)), "shift.csv")
    errors += [f"{p} is empty" for p in out["score_paths"] if not os.path.getsize(p)]
    return errors, {"attention_shift": shift, "mask_coverage": coverage}


def golden_errors(record: dict, golden: dict) -> list[str]:
    """Strings must be equal, float lists equal within GOLDEN_TOL."""
    if record.keys() != golden.keys():
        return [f"golden keys {sorted(golden)} != {sorted(record)}"]
    errors = []
    for key, want in golden.items():
        got = record[key]
        if isinstance(want, str):
            ok = got == want
        else:
            ok = len(got) == len(want) and all(
                abs(a - b) <= GOLDEN_TOL for a, b in zip(got, want)
            )
        if not ok:
            errors.append(f"{key} differs from the golden record")
    return errors


def load_goldens() -> dict:
    with open(GOLDENS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass(frozen=True)
class Workload:
    run: Callable[[gf.RunConfig, str], dict]
    check: Callable[[gf.RunConfig, dict, list], tuple[list[str], dict]]


WORKLOADS = {
    "generate": Workload(run_generate, check_generate),
    "sweep": Workload(run_sweep, check_sweep),
    "trace_io": Workload(run_trace_io, check_trace_io),
}
