import ast
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import glyphflow
from glyphflow import (
    AttentionTrace,
    ConfigError,
    DuplicateCell,
    EmptyWord,
    NonFiniteValue,
    RunConfig,
    RunManifest,
    ScoreMode,
    ShapeMismatch,
    TraceMismatch,
    ZeroRowMass,
    build_injection,
    build_prompt,
    export_heatmap,
    file_checksum,
    load_dataset,
    prepare_glyph,
    read_netpbm,
    run_analyze,
    run_generate,
    run_sweep,
    tensors_checksum,
    write_error_manifest,
)
from glyphflow.coreattn import ScoreReducer
from glyphflow.runconfig import IOConfig, InjectionConfig, SweepConfig
from tests.conftest import TINY, TINY_SAMPLER


def _imported_modules(node: ast.AST) -> list[str]:
    """The absolute module names an import statement of the package names."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        base = ".".join(filter(None, ["glyphflow" if node.level else "", node.module]))
        return [base] + [f"{base}.{alias.name}" for alias in node.names]
    return []


def test_only_the_cli_and_the_package_import_the_pipeline():
    """The run layer sits on top: no module below it imports it, not even
    under `if TYPE_CHECKING:`."""
    importers = []
    for path in sorted(Path(glyphflow.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if "glyphflow.pipeline" in _imported_modules(node):
                importers.append(path.stem)
    assert sorted(set(importers)) == ["__init__", "cli"]


def tiny_run_config(**io_updates) -> RunConfig:
    io_updates.setdefault("word", "A")
    io_updates.setdefault("scale", 1)
    io_cfg = IOConfig(**io_updates)
    return RunConfig(
        model=TINY,
        sampler=TINY_SAMPLER,
        injection=InjectionConfig(ratio=0.25),
        io=io_cfg,
        sweep=SweepConfig(ratios=(0.25, 0.5), steps=(1, 2)),
    )


def test_build_prompt_template():
    rec = build_prompt("cat", "bold strokes")
    assert rec.prompt == "A text cat logo decorated with bold strokes."
    assert (rec.word, rec.style) == ("cat", "bold strokes")
    with pytest.raises(EmptyWord):
        build_prompt("", "bold")


def test_load_dataset(tmp_path):
    path = tmp_path / "set.json"
    path.write_text(
        json.dumps(
            [
                {"word": "logo", "style": "bold"},
                {"word": "mark", "style": "thin", "lang": "en"},
            ]
        )
    )
    records = load_dataset(path)
    assert [r.word for r in records] == ["logo", "mark"]
    assert records[0].prompt == "A text logo logo decorated with bold."

    path.write_text("{}")
    with pytest.raises(ConfigError):
        load_dataset(path)
    path.write_text(json.dumps([{"word": "x"}]))
    with pytest.raises(ConfigError):
        load_dataset(path)
    for record in ({"word": None, "style": "bold"}, {"word": "x", "style": 3}):
        path.write_text(json.dumps([record]))
        with pytest.raises(ConfigError, match="string word and style"):
            load_dataset(path)
    with pytest.raises(ConfigError):
        load_dataset(tmp_path / "absent.json")


def test_prepare_glyph_rasterizes_at_model_canvas():
    glyph = prepare_glyph(tiny_run_config())
    assert (glyph.height, glyph.width) == (TINY.canvas, TINY.canvas)


def test_prepare_glyph_from_file(tmp_path):
    path = tmp_path / "g.pgm"
    body = " ".join(["255"] * 256)
    path.write_text(f"P2\n16 16\n255\n{body}\n")
    cfg = tiny_run_config(glyph_path=str(path))
    glyph = prepare_glyph(cfg)
    assert glyph.mask.all()

    small = tmp_path / "small.pgm"
    small.write_text("P2\n4 4\n255\n" + " ".join(["255"] * 16) + "\n")
    with pytest.raises(ShapeMismatch):
        prepare_glyph(tiny_run_config(glyph_path=str(small)))


def test_run_generate_writes_artifacts(tmp_path, tiny_weights, tiny_trace):
    out = tmp_path / "run"
    manifest, image = run_generate(tiny_run_config(), out_dir=str(out))
    assert (out / "output.pgm").exists()
    assert (out / "manifest.json").exists()
    assert image.shape == (TINY.canvas, TINY.canvas)
    assert image.min() >= 0.0 and image.max() <= 1.0

    again = RunManifest.load(out / "manifest.json")
    assert again == manifest
    assert manifest.checksums["image"] == file_checksum(out / "output.pgm")
    assert manifest.checksums["glyph"]
    assert manifest.checksums["weights"] == tiny_weights.checksum()
    assert manifest.checksums["trace"] == tiny_trace.checksum()
    assert manifest.config_hash
    assert len(manifest.step_logs) == TINY_SAMPLER.steps
    assert [log.injected_layer_count for log in manifest.step_logs] == [2, 2, 0, 0]

    m = manifest.metrics
    assert m["exact_match"] == 1.0 and m["char_f1"] == 1.0
    assert 0.0 <= m["mask_coverage_mean"] <= 1.0
    assert 0.0 <= m["attention_shift_mean"] <= 1.0
    assert abs(m["mask_coverage_mean"] + m["attention_shift_mean"] - 1.0) < 1e-9


def test_run_generate_no_write(tmp_path):
    manifest, _ = run_generate(tiny_run_config(), out_dir=str(tmp_path / "x"), write_outputs=False)
    assert not (tmp_path / "x").exists()
    assert manifest.outputs == {}


def test_run_generate_deterministic(tmp_path):
    m1, img1 = run_generate(tiny_run_config(), out_dir=str(tmp_path / "a"))
    m2, img2 = run_generate(tiny_run_config(), out_dir=str(tmp_path / "b"))
    assert np.array_equal(img1, img2)
    assert m1.checksums["image"] == m2.checksums["image"]
    assert m1.config_hash == m2.config_hash


def test_run_generate_baseline_matches_disabled(tmp_path):
    cfg = tiny_run_config()
    out = str(tmp_path / "out")
    base_man, base = run_generate(cfg, out_dir=out, baseline=True)
    base_bytes = (tmp_path / "out" / "manifest.json").read_bytes()
    disabled = dataclasses.replace(cfg, injection=InjectionConfig(ratio=0.25, enabled=False))
    man, off = run_generate(disabled, out_dir=out)
    assert np.array_equal(base, off)
    assert "trace" not in man.checksums
    assert "mask_coverage_mean" not in man.metrics
    # baseline=True is the disabled config: its manifest, config hash included, is the same
    assert man == base_man
    assert (tmp_path / "out" / "manifest.json").read_bytes() == base_bytes
    injected, _ = run_generate(cfg, out_dir=out)
    assert injected.config_hash != man.config_hash


def test_run_generate_predicted_metrics(tmp_path):
    cfg = tiny_run_config(word="Al", predicted="All")
    manifest, _ = run_generate(cfg, out_dir=str(tmp_path), write_outputs=False)
    m = manifest.metrics
    assert m["exact_match"] == 0.0
    assert m["char_recall"] == 1.0
    assert m["char_precision"] == pytest.approx(2.0 / 3.0)


def test_run_generate_save_trace(tmp_path):
    out = tmp_path / "t"
    cfg = tiny_run_config(save_trace=True)
    manifest, _ = run_generate(cfg, out_dir=str(out))
    trace = AttentionTrace.load(out / "trace.bin")
    assert trace.checksum() == manifest.checksums["trace"]
    assert trace.steps == TINY_SAMPLER.cutoff_step


def test_write_error_manifest(tmp_path):
    path = write_error_manifest(str(tmp_path), tiny_run_config(), EmptyWord("word must be nonempty"))
    man = RunManifest.load(path)
    assert man.error == {"type": "EmptyWord", "message": "word must be nonempty"}
    assert man.config_hash


def test_run_sweep_grid(tmp_path):
    cfg = tiny_run_config()
    result = run_sweep(cfg, out_dir=str(tmp_path))
    assert result.failures == []
    assert set(result.tables) == {"attention_shift", "mask_coverage"}
    want_cells = {(r, s) for r in (0.25, 0.5) for s in (1, 2)}
    for metric, table in result.tables.items():
        assert set(table) == want_cells
        for value in table.values():
            assert value is not None and 0.0 <= value <= 1.0
    for (r, s) in want_cells:
        total = result.tables["mask_coverage"][(r, s)] + result.tables["attention_shift"][(r, s)]
        assert abs(total - 1.0) < 1e-9
    for metric, path in result.csv_paths.items():
        text = Path(path).read_text()
        assert text.startswith(f"ratio,step,{metric}\n")
        assert len(text.strip().split("\n")) == 1 + len(want_cells)
    # deterministic
    second = run_sweep(cfg, out_dir=str(tmp_path / "again"))
    assert second.tables == result.tables


def test_run_sweep_full_runs_writes_cells(tmp_path):
    cfg = tiny_run_config()
    cfg = dataclasses.replace(cfg, sweep=SweepConfig(ratios=(0.5,), steps=(1,), full_runs=True))
    result = run_sweep(cfg, out_dir=str(tmp_path))
    assert result.failures == []
    (ref,) = tmp_path.glob("cell_*.pgm")
    arr = read_netpbm(ref)
    assert arr.shape == (TINY.canvas, TINY.canvas)


def test_run_sweep_full_runs_hashes_nothing(tmp_path, monkeypatch):
    # a full-runs sweep discards each cell's manifest, so nothing is hashed
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return tensors_checksum(*args, **kwargs)

    for module in (glyphflow.model, glyphflow.pipeline, glyphflow.sampler, glyphflow.tensorio):
        monkeypatch.setattr(module, "tensors_checksum", counted)
    cfg = tiny_run_config()
    cfg = dataclasses.replace(cfg, sweep=SweepConfig(ratios=(0.5,), steps=(1,), full_runs=True))
    result = run_sweep(cfg, out_dir=str(tmp_path))
    assert result.failures == []
    assert list(tmp_path.glob("cell_*.pgm"))
    assert calls == []


@pytest.mark.parametrize("full_runs", [False, True])
def test_run_sweep_builds_no_attention_trace(tmp_path, monkeypatch, full_runs):
    # the capture feeds one ScoreReducer, which plans every cell and, with
    # full_runs, keeps the core rows each cell injects: no full trace is built
    traces = []
    inner = AttentionTrace.__post_init__

    def counted(trace):
        inner(trace)
        traces.append(trace)

    monkeypatch.setattr(AttentionTrace, "__post_init__", counted)
    cfg = tiny_run_config()
    cfg = dataclasses.replace(
        cfg, sweep=SweepConfig(ratios=(0.25, 0.5), steps=(1, 2), full_runs=full_runs)
    )
    result = run_sweep(cfg, out_dir=str(tmp_path))
    assert result.failures == []
    assert len(list(tmp_path.glob("cell_*.pgm"))) == (4 if full_runs else 0)
    assert traces == []


def test_run_sweep_partial_failure(tmp_path):
    cfg = tiny_run_config()
    cfg = dataclasses.replace(cfg, sweep=SweepConfig(ratios=(0.0, 0.5), steps=(1,)))
    result = run_sweep(cfg, out_dir=str(tmp_path))
    assert result.failures == [(0.0, 1, "ShapeMismatch: at least one row required")]
    assert result.tables["mask_coverage"][(0.0, 1)] is None
    assert result.tables["mask_coverage"][(0.5, 1)] is not None
    text = Path(result.csv_paths["mask_coverage"]).read_text()
    assert "0.0,1,NA" in text


def test_run_sweep_cutoff_zero_cell_fails(tmp_path):
    # a cutoff-0 plan covers no (step, layer): the cell is a failure, not nan
    cfg = tiny_run_config()
    cfg = dataclasses.replace(cfg, sweep=SweepConfig(ratios=(0.5,), steps=(0, 1)))
    result = run_sweep(cfg, out_dir=str(tmp_path))
    assert result.failures == [(0.5, 0, "ShapeMismatch: at least one row required")]
    for metric in ("mask_coverage", "attention_shift"):
        assert result.tables[metric][(0.5, 0)] is None
        assert result.tables[metric][(0.5, 1)] is not None
        text = Path(result.csv_paths[metric]).read_text()
        assert "0.5,0,NA" in text
        assert "nan" not in text


def test_run_sweep_validation(tmp_path):
    cfg = tiny_run_config()
    with pytest.raises(DuplicateCell):
        run_sweep(
            dataclasses.replace(cfg, sweep=SweepConfig(ratios=(0.5, 0.5), steps=(1,))),
            out_dir=str(tmp_path),
        )
    with pytest.raises(ConfigError):
        run_sweep(
            dataclasses.replace(cfg, sweep=SweepConfig(ratios=(0.5,), steps=(9,))),
            out_dir=str(tmp_path),
        )
    with pytest.raises(ConfigError):
        run_sweep(
            dataclasses.replace(cfg, sweep=SweepConfig(ratios=(), steps=(1,))),
            out_dir=str(tmp_path),
        )


def test_run_analyze(tiny_trace, tiny_cfg):
    mask_frac = np.linspace(0.0, 1.0, tiny_cfg.n_img)
    result = run_analyze(tiny_trace, mask_frac, ratio=0.25)
    n_pairs = tiny_trace.steps * tiny_trace.n_layers
    assert len(result.raw_scores) == n_pairs
    assert len(result.selection_scores) == n_pairs
    lines = result.shift_csv.strip().split("\n")
    assert lines[0] == "step,layer,attention_shift,mask_coverage"
    assert len(lines) == 1 + n_pairs
    for line in lines[1:]:
        shift, cov = map(float, line.split(",")[2:])
        assert 0.0 <= shift <= 1.0
        assert abs(shift + cov - 1.0) < 1e-9
    # layer 0 selection scores equal raw scores (running mean of one layer)
    assert np.allclose(result.selection_scores[0].scores, result.raw_scores[0].scores)


def test_trace_row_masses_match_the_public_metrics(tiny_trace, tiny_cfg):
    """The reducer's one table gives the bits of a direct per-core-set reduction."""
    mask_frac = np.linspace(0.0, 1.0, tiny_cfg.n_img)
    scores = ScoreReducer.replay(tiny_trace, mask_frac, ScoreMode.ROW_MASS, True)
    masses = scores.masses
    shape = (tiny_trace.steps, tiny_trace.n_layers, tiny_trace.n_img)
    assert all(field.shape == shape for field in masses)
    plan = build_injection(scores, 0.25)
    assert plan == build_injection(tiny_trace, 0.25)
    on = mask_frac >= 0.5
    coverages = []
    shifts = []
    for (step, layer), core in sorted(plan.sets.items()):
        rows = tiny_trace.probs[step - 1, layer].mean(axis=0)[core.rows()]
        total = rows.sum(axis=1)
        coverages.append(float(np.mean(rows[:, on].sum(axis=1) / total)))
        shifts.append(float(np.mean(rows[:, ~on].sum(axis=1) / total)))
    assert scores.coverage(plan) == {
        "mask_coverage_mean": float(np.mean(coverages)),
        "attention_shift_mean": float(np.mean(shifts)),
    }


def test_reducer_measures_only_its_own_plans(tiny_trace, tiny_cfg):
    """A plan from the full trace or from a second reducer of it picks the
    same sets, yet the reducer refuses it, since its measured pairs are
    keyed by ratio, which names a set only among its own scorers'. A
    refused plan leaves those pairs as they were."""
    mask_frac = np.linspace(0.0, 1.0, tiny_cfg.n_img)
    scores = ScoreReducer.replay(tiny_trace, mask_frac, ScoreMode.ROW_MASS, True)
    own = scores.shift_rows(build_injection(scores, 0.25))
    measured = dict(scores._measured)
    other = ScoreReducer.replay(tiny_trace, mask_frac, ScoreMode.ROW_MASS, True)
    for trace in (tiny_trace, other):
        plan = build_injection(trace, 0.5)
        with pytest.raises(TraceMismatch):
            scores.shift_rows(plan)
        with pytest.raises(TraceMismatch):
            scores.coverage(plan)
        assert scores._measured == measured
    assert other.shift_rows(build_injection(other, 0.25)) == own


def test_run_analyze_zero_mass_core_row(tiny_trace, tiny_cfg):
    probs = tiny_trace.probs.copy()
    probs[0, 1] = 0.0
    trace = dataclasses.replace(tiny_trace, probs=probs)
    with pytest.raises(ZeroRowMass):
        run_analyze(trace, np.linspace(0.0, 1.0, tiny_cfg.n_img), ratio=0.25)


def test_run_analyze_variance_mode(tiny_trace, tiny_cfg):
    mask_frac = np.linspace(0.0, 1.0, tiny_cfg.n_img)
    result = run_analyze(tiny_trace, mask_frac, ratio=0.25, mode=ScoreMode.LAYER_VARIANCE)
    assert len(result.raw_scores) == tiny_trace.steps * tiny_trace.n_layers
    assert len(result.selection_scores) == tiny_trace.steps  # one variance vector per step
    assert all(s.mode == ScoreMode.LAYER_VARIANCE for s in result.selection_scores)
    assert all(s.mode == ScoreMode.ROW_MASS for s in result.raw_scores)
    with pytest.raises(ConfigError):
        run_analyze(tiny_trace, mask_frac, ratio=0.0)


def test_export_heatmap_reference_case(tmp_path):
    path = tmp_path / "h.pgm"
    export_heatmap(np.array([0.0, 0.5, 1.0, 0.25]), 2, path)
    arr = read_netpbm(path)
    assert np.array_equal(np.rint(arr * 255).astype(int), [[0, 128], [255, 64]])


def test_export_heatmap_normalizes_and_validates(tmp_path):
    path = tmp_path / "h.pgm"
    export_heatmap(np.array([5.0, 7.0, 6.0, 5.0]), 2, path)
    arr = read_netpbm(path)
    assert arr[0, 0] == 0.0 and arr[0, 1] == 1.0
    export_heatmap(np.full(4, 3.3), 2, path)
    assert np.array_equal(read_netpbm(path), np.zeros((2, 2)))
    with pytest.raises(ShapeMismatch):
        export_heatmap(np.zeros(5), 2, path)
    # (-16)^2 values fill no grid, nor do zero values a 0x0 one
    with pytest.raises(ShapeMismatch):
        export_heatmap(np.zeros(256), -16, path)
    with pytest.raises(ShapeMismatch):
        export_heatmap(np.zeros(0), 0, path)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(NonFiniteValue):
            export_heatmap(np.array([5.0, bad, 6.0, 5.0]), 2, tmp_path / "bad.pgm")
    assert not (tmp_path / "bad.pgm").exists()
