"""Golden output bytes of the default run.

Pins the full sha256 of the default injected PGM, the default
`--no-injection` PGM, a digest of the default plan's index sets for every
(step, layer), the default run's coverage and shift metrics, both default
sweep CSVs, the default `analyze` shift.csv, and the image of a one-cell
`sweep --full-runs` at the default (ratio, cutoff). A change that moves any
of them changes what the pipeline produces; only a change meant to do so may
update these values, and it records the old and new ones in CHANGES.md.
Trace and manifest checksums are not pinned: trace floats may drift by a few
ulps.
"""

import hashlib
from dataclasses import replace

import pytest

from glyphflow import (
    AttentionTrace,
    RunConfig,
    glyph_mask_patches,
    init_model,
    pipeline,
    prepare_glyph,
    reconstruct_capture,
    run_analyze,
    run_generate,
    run_sweep,
)

INJECTED_PGM_SHA256 = "113fcb1ee8a191d03bb85f93ebc79da11c2efd7dc0a981e0b78fe500b3b31fad"
BASELINE_PGM_SHA256 = "5bf43363c84a3fbe3033bb5a5b9c2aeccb6dc3525b902c928a827415f9ad5dac"
PLAN_SHA256 = "effd94aac30b98badd37b17bafcd6db44ea249e4781dbddc538df680137249e8"
MASK_COVERAGE_MEAN = "0.08945214680608503"
ATTENTION_SHIFT_MEAN = "0.9105478531939148"
SWEEP_CSV_SHA256 = {
    "mask_coverage": "84bcb886e88047da7664e03beef8e423e4d2540fb8253f727028364f1acabbe4",
    "attention_shift": "22527be966ba9f3d56b43d526f170db8ea082a0f9678539ac1d2b9910076c849",
}
SHIFT_CSV_SHA256 = "94e8064487d48d06cca145fb956d93809a243c924e1e31480132ba9d045b8b20"


def _file_sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _plan_sha256(plan) -> str:
    h = hashlib.sha256()
    for (step, layer), core in sorted(plan.sets.items()):
        h.update(f"{step},{layer}:{','.join(map(str, core.indices))}\n".encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def default_injected(tmp_path_factory):
    out = tmp_path_factory.mktemp("injected")
    plans = []
    inner = pipeline.build_injection

    def tap(*args, **kwargs):
        plans.append(inner(*args, **kwargs))
        return plans[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "build_injection", tap)
        manifest, _ = run_generate(RunConfig(), out_dir=str(out))
    assert len(plans) == 1
    return out / "output.pgm", plans[0], manifest


def test_golden_injected_pgm(default_injected):
    assert _file_sha256(default_injected[0]) == INJECTED_PGM_SHA256


def test_golden_plan_index_sets(default_injected):
    assert _plan_sha256(default_injected[1]) == PLAN_SHA256


def test_golden_baseline_pgm(tmp_path):
    run_generate(RunConfig(), out_dir=str(tmp_path), baseline=True)
    assert _file_sha256(tmp_path / "output.pgm") == BASELINE_PGM_SHA256


def test_golden_coverage_metrics(default_injected):
    metrics = default_injected[2].metrics
    assert repr(metrics["mask_coverage_mean"]) == MASK_COVERAGE_MEAN
    assert repr(metrics["attention_shift_mean"]) == ATTENTION_SHIFT_MEAN


def test_default_step_logs_count_injected_layers(default_injected):
    cfg = RunConfig()
    counts = [log.injected_layer_count for log in default_injected[2].step_logs]
    cutoff = cfg.sampler.cutoff_step
    assert counts == [cfg.model.n_layers] * cutoff + [0] * (cfg.sampler.steps - cutoff)
    assert cfg.model.n_layers == 6 and cutoff == 12


def test_golden_sweep_csvs(tmp_path):
    result = run_sweep(RunConfig(), out_dir=str(tmp_path))
    assert result.failures == []
    assert {m: _file_sha256(p) for m, p in result.csv_paths.items()} == SWEEP_CSV_SHA256


def test_golden_analyze_shift_csv(tmp_path):
    """The default analyze, on the captured trace and on its saved and reloaded copy."""
    cfg = RunConfig()
    glyph = prepare_glyph(cfg)
    mask_frac = glyph_mask_patches(glyph, cfg.model.patch)
    trace = reconstruct_capture(init_model(cfg.model), glyph, cfg.io.recon_prompt, cfg.sampler)
    args = (mask_frac, cfg.injection.ratio)
    kwargs = {"mode": cfg.injection.mode, "averaging": cfg.injection.averaging}
    in_memory = run_analyze(trace, *args, **kwargs).shift_csv
    path = tmp_path / "trace.bin"
    trace.save(path)
    del trace
    reloaded = run_analyze(AttentionTrace.load(path), *args, **kwargs).shift_csv
    assert hashlib.sha256(in_memory.encode()).hexdigest() == SHIFT_CSV_SHA256
    assert reloaded == in_memory


def test_golden_full_runs_cell_equals_default_run(tmp_path):
    """A one-cell full-runs sweep at the default (ratio, cutoff) draws the default image."""
    base = RunConfig()
    cfg = replace(
        base,
        sweep=replace(
            base.sweep,
            ratios=(base.injection.ratio,),
            steps=(base.sampler.cutoff_step,),
            full_runs=True,
        ),
    )
    result = run_sweep(cfg, out_dir=str(tmp_path))
    assert result.failures == []
    refs = {cell.manifest_ref for cell in result.cells}
    assert refs == {str(tmp_path / "cell_r0.125_s12.pgm")}
    assert _file_sha256(refs.pop()) == INJECTED_PGM_SHA256
