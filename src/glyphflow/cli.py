"""Command line front end.

Commands: rasterize, reconstruct, generate, analyze, sweep, export-heatmap.
A run command's config flags are named after the last part of their schema
key (`--seed-noise` sets `sampler.seed_noise`), and it takes only the flags
of the config keys it reads; a --config file supplies defaults and flags
win.

Exit codes: 0 success, 2 configuration or input error, 3 runtime numeric
failure, 4 partially failed sweep.
"""

from __future__ import annotations

import argparse
import os
import sys

from .coreattn import ScoreMode, save_scores
from .errors import GlyphFlowError, NonFiniteActivation, ZeroRowMass, read_text
from .glyphs import Layout, fallback_warnings, glyph_mask_patches, rasterize_text
from .manifest import VERSION
from .model import init_model
from .netpbm import write_pgm
from .pipeline import (
    export_heatmap,
    load_dataset,
    prepare_glyph,
    run_analyze,
    run_generate,
    run_sweep,
    write_error_manifest,
)
from .runconfig import _SCHEMA, RunConfig, _decode, apply_overrides, describe_keys, parse_values
from .sampler import AttentionTrace, reconstruct_capture
from .tensorio import read_tensors, replacing


# the config keys that have flags, per run command: each offers exactly the
# keys it reads. Reconstruction is unguided and embeds io.recon_prompt, so it
# reads neither sampler.guidance nor io.style; analyze reads a saved trace and
# builds only the glyph mask; the sweep grid replaces injection.ratio and
# sampler.cutoff.
_GLYPH = ("io.word", "io.layout", "io.scale")
_SELECT = ("injection.mode", "injection.averaging")
_RECONSTRUCT = ("model.seed_weights", "sampler.steps", "sampler.cutoff", "sampler.seed_noise")
_RECONSTRUCT += _GLYPH
_GENERATE = _RECONSTRUCT + ("sampler.guidance", "injection.ratio") + _SELECT
_GENERATE += ("io.style", "io.out_dir", "io.predicted", "io.save_trace")
_ANALYZE = ("injection.ratio",) + _SELECT + _GLYPH + ("io.out_dir",)
_SWEEP = ("model.seed_weights", "sampler.steps", "sampler.guidance", "sampler.seed_noise")
_SWEEP += _SELECT + _GLYPH + ("io.style", "io.out_dir", "sweep.full_runs")
_CHOICES = {"mode": [m.value for m in ScoreMode], "layout": [l.value for l in Layout]}


def _add_config_flags(parser: argparse.ArgumentParser, keys: tuple[str, ...]):
    """--config, then one flag per schema key, named after the key's last part.

    A bool key that defaults to true gets --no-<name>, one that defaults to
    false gets --<name>. Every flag stores the raw text under its key; the
    schema decodes it.
    """
    parser.add_argument("--config", help="key = value config file")
    defaults = RunConfig()
    for key in keys:
        section, name, tag = _SCHEMA[key]
        flag = key.rpartition(".")[2].replace("_", "-")
        if tag == "bool":
            on = getattr(getattr(defaults, section), name)
            const = "false" if on else "true"
            parser.add_argument(f"--no-{flag}" if on else f"--{flag}", dest=key,
                                action="store_const", const=const, help=f"set {key} to {const}")
        else:
            parser.add_argument(f"--{flag}", dest=key, choices=_CHOICES.get(tag),
                                help=f"set {key} ({tag})")


def _build_config(args) -> RunConfig:
    """The defaults, then the --config file, then the flags, then the --dataset record.

    All of them are merged into one key -> value map first, so each config
    section is validated once, against its final values.
    """
    defaults = RunConfig()
    values = parse_values(read_text(args.config, "config")) if args.config else {}
    values.update(
        (key, _decode(key, _SCHEMA[key][2], raw))
        for key, raw in vars(args).items()
        if key in _SCHEMA and raw is not None
    )
    if getattr(args, "dataset", None):
        records = load_dataset(args.dataset)
        if not 0 <= args.record < len(records):
            raise GlyphFlowError(
                f"dataset record {args.record} out of range 0..{len(records) - 1}"
            )
        values["io.word"] = records[args.record].word
        values["io.style"] = records[args.record].style
    if args.func is cmd_sweep:
        # the sweep captures at its grid's largest cutoff and never reads sampler.cutoff,
        # so a cutoff that the steps leave out of range becomes the grid's, clipped to
        # the steps so that run_sweep reports a grid deeper than them
        steps = values.get("sampler.steps", defaults.sampler.steps)
        if values.get("sampler.cutoff", defaults.sampler.cutoff_step) > steps:
            grid = values.get("sweep.steps", defaults.sweep.steps)
            values["sampler.cutoff"] = min(max(grid, default=0), steps)
    return apply_overrides(defaults, values)


def _warn(text: str):
    """Print to stderr one warning per codepoint of `text` that renders as the fallback box."""
    for warning in fallback_warnings(text):
        print(f"warning: {warning}", file=sys.stderr)


def cmd_rasterize(args) -> int:
    glyph = rasterize_text(
        args.text,
        layout=Layout(args.layout_value),
        width=args.canvas,
        height=args.canvas,
        scale=args.scale_value,
        patch=args.patch,
    )
    _warn(args.text)
    write_pgm(args.out, glyph.pixels)
    if args.mask_out:
        write_pgm(args.mask_out, glyph.mask.astype(float))
    print(f"wrote {args.out}")
    return 0


def cmd_reconstruct(args) -> int:
    cfg = _build_config(args)
    glyph = prepare_glyph(cfg)
    if not cfg.io.glyph_path:
        _warn(cfg.io.word)
    weights = init_model(cfg.model)
    trace = reconstruct_capture(weights, glyph, cfg.io.recon_prompt, cfg.sampler)
    trace.save(args.out)
    print(f"wrote {args.out} ({trace.steps} steps, checksum {trace.checksum()[:12]})")
    return 0


def cmd_generate(args) -> int:
    cfg = _build_config(args)
    if args.no_injection:
        cfg = apply_overrides(cfg, {"injection.enabled": False})
    if not cfg.io.glyph_path:
        _warn(cfg.io.word)
    try:
        manifest, _ = run_generate(cfg)
    except (GlyphFlowError, OSError) as exc:
        write_error_manifest(cfg.io.out_dir, cfg, exc)
        raise
    injected = sum(1 for log in manifest.step_logs if log.injected_layer_count)
    print(
        f"wrote {manifest.outputs['image']} "
        f"(checksum {manifest.checksums['image'][:12]}, "
        f"{injected} injected steps, config {manifest.config_hash[:12]})"
    )
    return 0


def cmd_analyze(args) -> int:
    cfg = _build_config(args)
    out_dir = cfg.io.out_dir
    trace = AttentionTrace.load(args.trace)
    glyph = prepare_glyph(cfg)
    if not cfg.io.glyph_path:
        _warn(cfg.io.word)
    mask_frac = glyph_mask_patches(glyph, cfg.model.patch)
    result = run_analyze(
        trace,
        mask_frac,
        cfg.injection.ratio,
        mode=cfg.injection.mode,
        averaging=cfg.injection.averaging,
    )
    os.makedirs(out_dir, exist_ok=True)
    shift_path = os.path.join(out_dir, "shift.csv")
    with replacing(shift_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(result.shift_csv)
    raw_path = os.path.join(out_dir, "scores_raw.bin")
    save_scores(raw_path, result.raw_scores)
    sel_path = os.path.join(out_dir, "scores_selection.bin")
    save_scores(sel_path, result.selection_scores)
    print(f"wrote {shift_path}, {raw_path}, {sel_path}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _build_config(args)
    if not cfg.io.glyph_path:
        _warn(cfg.io.word)
    result = run_sweep(cfg)
    n_cells = len(cfg.sweep.ratios) * len(cfg.sweep.steps)
    for path in (result.csv_paths[m] for m in sorted(result.csv_paths)):
        print(f"wrote {path}")
    for ratio, step, message in result.failures:
        print(f"cell ({ratio}, {step}) failed: {message}", file=sys.stderr)
    if result.failures and len(result.failures) == n_cells:
        return 3
    if result.failures:
        return 4
    return 0


def cmd_export_heatmap(args) -> int:
    tensors, _ = read_tensors(args.scores)
    if not tensors:
        raise GlyphFlowError(f"{args.scores} holds no tensors")
    name = args.name or next(iter(tensors))
    if name not in tensors:
        raise GlyphFlowError(f"tensor {name!r} not in {args.scores}")
    export_heatmap(tensors[name], args.grid, args.out)
    print(f"wrote {args.out}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glyphflow",
        description="Glyph-conditioned toy diffusion transformer with core-token "
        "attention injection.",
        epilog="config keys:\n" + describe_keys(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"glyphflow {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rasterize", help="render text to a glyph PGM")
    p.add_argument("--text", required=True)
    p.add_argument("--layout", dest="layout_value", default="horizontal",
                   choices=[l.value for l in Layout])
    p.add_argument("--scale", dest="scale_value", type=int, default=1)
    p.add_argument("--canvas", type=int, default=128)
    p.add_argument("--patch", type=int, default=8)
    p.add_argument("--out", required=True)
    p.add_argument("--mask-out")
    p.set_defaults(func=cmd_rasterize)

    p = sub.add_parser("reconstruct", help="capture reconstruction attention to a trace file")
    _add_config_flags(p, _RECONSTRUCT)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("generate", help="run the full injection pipeline")
    _add_config_flags(p, _GENERATE)
    p.add_argument("--no-injection", action="store_true", help="baseline run")
    p.add_argument("--dataset", help="JSON array of {word, style} records")
    p.add_argument("--record", type=int, default=0, help="dataset record index")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("analyze", help="score a trace and report the attention shift")
    _add_config_flags(p, _ANALYZE)
    p.add_argument("--trace", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="ratio x cutoff grid; CSV per metric")
    _add_config_flags(p, _SWEEP)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("export-heatmap", help="score vector to min-max PGM")
    p.add_argument("--scores", required=True, help="tensor dump file")
    p.add_argument("--name", help="tensor name (default: first)")
    p.add_argument("--grid", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_heatmap)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NonFiniteActivation, ZeroRowMass) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (GlyphFlowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
