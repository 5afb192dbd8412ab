"""Golden output bytes of the default run.

Pins the full sha256 of the default injected PGM, the default
`--no-injection` PGM, a digest of the default plan's index sets for every
(step, layer), the default run's coverage and shift metrics, both default
sweep CSVs, the default `analyze` shift.csv, and the image of a one-cell
`sweep --full-runs` at the default (ratio, cutoff). For every scoring mode,
with averaging on and off, it pins `analyze`'s plan sets, shift.csv and both
score dumps on the default probs-only trace. A change that moves any
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
    ScoreMode,
    glyph_mask_patches,
    init_model,
    pipeline,
    prepare_glyph,
    reconstruct_capture,
    run_analyze,
    run_generate,
    run_sweep,
    save_scores,
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
    assert [p.name for p in tmp_path.glob("cell_*.pgm")] == ["cell_r0.125_s12.pgm"]
    assert _file_sha256(tmp_path / "cell_r0.125_s12.pgm") == INJECTED_PGM_SHA256


# (mode, averaging) -> (plan digest, shift.csv sha256, scores_raw.bin sha256,
# scores_selection.bin sha256) of `run_analyze` on the default probs-only trace
# at the default ratio. layer_variance ignores averaging, so it is pinned once.
ANALYZE_MODE_SHA256 = {
    ("row_mass", True): (
        "effd94aac30b98badd37b17bafcd6db44ea249e4781dbddc538df680137249e8",
        "94e8064487d48d06cca145fb956d93809a243c924e1e31480132ba9d045b8b20",
        "e9e7de6c1ef9b2a4d9fe19fe62bc6e4f8223a69462be7233240217451a8f3d87",
        "d320840a1229651cb524dcd9f31e86642d3f93e78f7226fda6863b8b6c93e662",
    ),
    ("row_mass", False): (
        "c33684ed38e05c56e474433be5036469cfedcad7fe2986967874908d4990a1fb",
        "81f30c0de5d00a4d5d228fd8678677b86ad3b7ce42852b3d8ce1533d10f8d56e",
        "e9e7de6c1ef9b2a4d9fe19fe62bc6e4f8223a69462be7233240217451a8f3d87",
        "e9e7de6c1ef9b2a4d9fe19fe62bc6e4f8223a69462be7233240217451a8f3d87",
    ),
    ("row_max", True): (
        "727ebb91bc6b1653925b792208b655b076619dfa54ece6e6681549208094a33d",
        "f0e02b0b7f516eecbc521b1a356928ab74213eed49710e44714eedf91b879d2e",
        "c5110b6134238cd28907fe0098f79e7c8afabfb5b14a6382bf70a9cbb07c780d",
        "afa81b2e4dc9678a1f19f7e44336684938114de35e46260e40caab547547d822",
    ),
    ("row_max", False): (
        "9bb1e53b53b50f46454907aa5667f87672ec735811a5b5a4b0a1b74783d92c8d",
        "7d4393c776deba75386aeb9b0ec3c7502d104bd1691b433500e22deb58fe1328",
        "c5110b6134238cd28907fe0098f79e7c8afabfb5b14a6382bf70a9cbb07c780d",
        "c5110b6134238cd28907fe0098f79e7c8afabfb5b14a6382bf70a9cbb07c780d",
    ),
    ("column_mass", True): (
        "fb0a7e50a723d9dd1b3885b1ba6cbd7f5559cdf8a60235e92424546e5d6455e1",
        "e743ed8d5a262eef94e3c647caed6b3ef31069265dedebc42458a8375cd85f3d",
        "cb2be6fe1d286c12e4f70bb07d7de623c598c303f456aa0c49a80c00fa205308",
        "290a98d776fe82b124ab1dfd13126c1541c6d317fe346e0e7dbfabef4974b92b",
    ),
    ("column_mass", False): (
        "a8278f7e384559c323de40125e23c1b0f269c51283bd93d872c9cd4fb7e67224",
        "38bc1bedad06f52511176b9998f23880267f59b0bec5210ccb2d0e4cad7b7292",
        "cb2be6fe1d286c12e4f70bb07d7de623c598c303f456aa0c49a80c00fa205308",
        "cb2be6fe1d286c12e4f70bb07d7de623c598c303f456aa0c49a80c00fa205308",
    ),
    ("layer_variance", True): (
        "9c8a07c604b028f41dff528c9028f73d3356249ef9fa6103fb7e9389dcf232b8",
        "3479111905309b878e7b709290039f1768638a075762f8278c98bbcdcb0f2e23",
        "e9e7de6c1ef9b2a4d9fe19fe62bc6e4f8223a69462be7233240217451a8f3d87",
        "e95afad50ba4e7e0f3e8737d8195dcc30f477230063f9a62c74297a05978c93b",
    ),
}


@pytest.fixture(scope="module")
def default_probs_trace():
    cfg = RunConfig()
    glyph = prepare_glyph(cfg)
    trace = reconstruct_capture(
        init_model(cfg.model), glyph, cfg.io.recon_prompt, cfg.sampler,
        on_layer=AttentionTrace.empty(cfg.sampler, cfg.model, logits=False),
    )
    return trace, glyph_mask_patches(glyph, cfg.model.patch)


@pytest.mark.parametrize("mode,averaging", sorted(ANALYZE_MODE_SHA256))
def test_golden_analyze_every_mode(default_probs_trace, tmp_path, mode, averaging):
    """Plan sets, shift.csv and both score dumps of `analyze` in every scoring mode."""
    trace, mask_frac = default_probs_trace
    plans = []
    inner = pipeline.build_injection

    def tap(*args, **kwargs):
        plans.append(inner(*args, **kwargs))
        return plans[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "build_injection", tap)
        ratio = RunConfig().injection.ratio
        result = run_analyze(trace, mask_frac, ratio, mode=ScoreMode(mode), averaging=averaging)
    assert len(plans) == 1
    save_scores(tmp_path / "raw.bin", result.raw_scores)
    save_scores(tmp_path / "selection.bin", result.selection_scores)
    got = (
        _plan_sha256(plans[0]),
        hashlib.sha256(result.shift_csv.encode()).hexdigest(),
        _file_sha256(tmp_path / "raw.bin"),
        _file_sha256(tmp_path / "selection.bin"),
    )
    assert got == ANALYZE_MODE_SHA256[(mode, averaging)]
