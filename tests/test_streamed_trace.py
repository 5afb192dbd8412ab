"""An injected `run_generate` without io.save_trace keeps a `StreamedTrace`
instead of the full trace: the same plan, image, metrics and trace checksum,
in memory that does not grow with the trace's full logits and probs."""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from glyphflow import (
    AttentionTrace,
    InjectionConfig,
    IOConfig,
    RunConfig,
    ScoreMode,
    ScoreVector,
    coreattn,
    pipeline,
    run_generate,
)
from tests.conftest import TINY, TINY_SAMPLER


def _config(save_trace: bool, sampler=TINY_SAMPLER, **injection) -> RunConfig:
    return RunConfig(
        model=TINY,
        sampler=sampler,
        injection=InjectionConfig(**{"ratio": 0.25, **injection}),
        io=IOConfig(word="A", scale=1, save_trace=save_trace),
    )


def _run(cfg: RunConfig, out_dir, probed: bool):
    """PGM bytes, manifest, (trace type, plan) and probe calls of one run."""
    calls = []

    def probe(step, t, branch, captured):
        maps = {layer: (a.logits.tobytes(), a.probs.tobytes()) for layer, a in captured.items()}
        calls.append((step, t, branch, maps))

    plans = []
    inner = pipeline.build_injection

    def tap(trace, *args, **kwargs):
        plans.append((type(trace), inner(trace, *args, **kwargs)))
        return plans[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "build_injection", tap)
        run_generate(cfg, out_dir=str(out_dir), probe=probe if probed else None)
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert len(plans) == 1
    return (out_dir / "output.pgm").read_bytes(), manifest, plans[0], calls


def _assert_streamed_equals_full(tmp_path, sampler=TINY_SAMPLER, probed=False, **injection):
    """Both paths write to one directory in turn, so their manifests' output
    paths agree. The full path's config differs only in io.save_trace, which
    moves its config hash and adds the trace file to its outputs."""
    out = tmp_path / "run"
    full_pgm, full, (full_kind, full_plan), full_calls = _run(
        _config(True, sampler, **injection), out, probed
    )
    assert full_kind is AttentionTrace
    saved = AttentionTrace.load(out / "trace.bin")
    assert full["checksums"]["trace"] == saved.checksum()
    streamed_pgm, streamed, (streamed_kind, streamed_plan), streamed_calls = _run(
        _config(False, sampler, **injection), out, probed
    )
    assert streamed_kind is pipeline.StreamedTrace
    assert streamed_pgm == full_pgm
    assert streamed_plan == full_plan
    assert streamed_calls == full_calls
    if probed:
        assert [c[2] for c in streamed_calls].count("recon") == sampler.cutoff_step
    del full["outputs"]["trace"]
    assert full.pop("config_hash") != streamed.pop("config_hash")
    assert streamed == full
    assert streamed["checksums"]["trace"] == saved.checksum()
    return streamed


@pytest.mark.parametrize("averaging", [True, False])
@pytest.mark.parametrize("mode", list(ScoreMode))
def test_streamed_generate_equals_full_trace(tmp_path, mode, averaging):
    manifest = _assert_streamed_equals_full(tmp_path, mode=mode, averaging=averaging)
    assert "mask_coverage_mean" in manifest["metrics"]


def test_streamed_generate_equals_full_trace_at_ratio_zero(tmp_path):
    manifest = _assert_streamed_equals_full(tmp_path, ratio=0.0)
    assert "mask_coverage_mean" not in manifest["metrics"]


def test_streamed_generate_equals_full_trace_at_cutoff_zero(tmp_path):
    manifest = _assert_streamed_equals_full(tmp_path, replace(TINY_SAMPLER, cutoff_step=0))
    assert all(log["injected_layer_count"] == 0 for log in manifest["step_logs"])


@pytest.mark.parametrize("averaging", [True, False])
def test_streamed_generate_equals_full_trace_on_tied_scores(tmp_path, monkeypatch, averaging):
    """Scores rounded to one decimal tie; both paths must keep the lower indices."""
    inner = coreattn.token_scores
    ties = []

    def rounded(*args, **kwargs):
        s = inner(*args, **kwargs)
        scores = np.round(s.scores, 1)
        ties.append(np.unique(scores).size < scores.size)
        return ScoreVector(scores=scores, layer=s.layer, step=s.step, mode=s.mode)

    monkeypatch.setattr(coreattn, "token_scores", rounded)
    _assert_streamed_equals_full(tmp_path, ratio=0.5, averaging=averaging)
    assert ties and all(ties)


def test_streamed_generate_equals_full_trace_with_a_probe(tmp_path):
    """The probe sees the same maps on both paths, capture forwards included,
    as acceptance gate 8's probe does on the default run."""
    _assert_streamed_equals_full(tmp_path, probed=True)


def test_streamed_generate_memory_stays_below_the_full_trace():
    """tracemalloc peak of an injected run, weights and all, against the bytes
    of the trace's logits and probs alone; with the full trace held, the
    peak is above them."""
    steps = 128
    cfg = _config(False, replace(TINY_SAMPLER, steps=steps, cutoff_step=steps))
    n = TINY.n_img
    trace_bytes = 2 * steps * TINY.n_layers * TINY.n_heads * n * n * 8
    run_generate(cfg, write_outputs=False)  # first-call allocations do not count
    tracemalloc.start()
    try:
        run_generate(cfg, write_outputs=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < trace_bytes
