"""Every pipeline run plans, and injects, from a `ScoreReducer` that keeps
only what the run reads of its reconstruction capture. An injected
`run_generate` feeds each captured layer to a `TraceChecksum`, to that
reducer and, with io.save_trace, to an `AttentionTrace`: the same plan,
image, metrics and trace checksum as the full-trace reference pipeline, with
or without io.save_trace, in memory that does not grow with the trace's full
logits and probs. A sweep, with or without full_runs, and analyze score each captured
layer once, a sweep's cells share their core sets and measured rows, and a
sweep holds no step of the trace."""

import json
import math
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest

from glyphflow import (
    AttentionTrace,
    InjectionConfig,
    IOConfig,
    RunConfig,
    ScoreMode,
    ScoreVector,
    SweepConfig,
    build_injection,
    build_prompt,
    coreattn,
    generate_with_injection,
    glyph_mask_patches,
    init_model,
    pipeline,
    prepare_glyph,
    reconstruct_capture,
    run_analyze,
    run_generate,
    run_sweep,
)
from tests.conftest import TINY, TINY_SAMPLER

_TEXT_METRICS = {"exact_match", "char_precision", "char_recall", "char_f1"}


def _config(sampler=TINY_SAMPLER, **injection) -> RunConfig:
    return RunConfig(
        model=TINY,
        sampler=sampler,
        injection=InjectionConfig(**{"ratio": 0.25, **injection}),
        io=IOConfig(word="A", scale=1),
    )


def _probe(calls: list):
    def probe(step, t, branch, captured):
        maps = {layer: (a.logits.tobytes(), a.probs.tobytes()) for layer, a in captured.items()}
        calls.append((step, t, branch, maps))

    return probe


def _run(cfg: RunConfig, out_dir, probed: bool):
    """Image, manifest, (trace type, plan) and probe calls of one run."""
    calls = []
    plans = []
    inner = pipeline.build_injection

    def tap(trace, *args, **kwargs):
        plans.append((type(trace), inner(trace, *args, **kwargs)))
        return plans[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "build_injection", tap)
        _, image = run_generate(cfg, out_dir=str(out_dir), probe=_probe(calls) if probed else None)
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert len(plans) == 1
    return image, manifest, plans[0], calls


def _reference(cfg: RunConfig, probed: bool):
    """The full-trace pipeline, spelled out: capture an `AttentionTrace`,
    plan from it, generate from it, measure a plan of its replayed reducer
    and hash it."""
    calls = []
    probe = _probe(calls) if probed else None
    glyph = prepare_glyph(cfg)
    weights = init_model(cfg.model)
    trace = reconstruct_capture(weights, glyph, cfg.io.recon_prompt, cfg.sampler, probe=probe)
    inj = cfg.injection
    plan = build_injection(
        trace, inj.ratio, cutoff_step=cfg.sampler.cutoff_step, mode=inj.mode,
        averaging=inj.averaging,
    )
    prompt = build_prompt(cfg.io.word, cfg.io.style).prompt
    image, manifest = generate_with_injection(weights, prompt, trace, plan, cfg.sampler, probe)
    metrics = {}
    if plan.ratio > 0.0 and plan.cutoff_step > 0:
        mask_frac = glyph_mask_patches(glyph, cfg.model.patch)
        scores = coreattn.ScoreReducer.replay(trace, mask_frac, inj.mode, inj.averaging)
        metrics = scores.coverage(build_injection(
            scores, inj.ratio, cutoff_step=cfg.sampler.cutoff_step, mode=inj.mode,
            averaging=inj.averaging,
        ))
    return image, plan, calls, [asdict(log) for log in manifest.step_logs], metrics, trace


def _assert_streamed_equals_full(tmp_path, sampler=TINY_SAMPLER, probed=False, **injection):
    """`run_generate`, with io.save_trace off and on, against `_reference`.
    With io.save_trace its trace.bin holds the reference trace's bytes."""
    cfg = _config(sampler, **injection)
    ref_image, ref_plan, ref_calls, ref_logs, ref_metrics, ref_trace = _reference(cfg, probed)
    if probed:
        assert [c[2] for c in ref_calls].count("recon") == sampler.cutoff_step
    for save_trace in (False, True):
        out = tmp_path / f"save_trace_{save_trace}"
        image, manifest, (kind, plan), calls = _run(
            replace(cfg, io=replace(cfg.io, save_trace=save_trace)), out, probed
        )
        assert kind is coreattn.ScoreReducer
        assert image.tobytes() == ref_image.tobytes()
        assert plan == ref_plan
        assert calls == ref_calls
        assert manifest["step_logs"] == ref_logs
        metrics = manifest["metrics"]
        assert {key: metrics[key] for key in metrics.keys() - _TEXT_METRICS} == ref_metrics
        assert manifest["checksums"]["trace"] == ref_trace.checksum()
        assert ("trace" in manifest["outputs"]) == save_trace
        if save_trace:
            saved = AttentionTrace.load(out / "trace.bin")
            assert saved.t_values == ref_trace.t_values
            assert saved.logits.tobytes() == ref_trace.logits.tobytes()
            assert saved.probs.tobytes() == ref_trace.probs.tobytes()
    return manifest


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
    cfg = _config(replace(TINY_SAMPLER, steps=steps, cutoff_step=steps))
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


@pytest.mark.parametrize("mode", list(ScoreMode))
def test_streamed_generate_scores_each_captured_layer_once(monkeypatch, mode):
    """cutoff x n_layers `token_scores` calls: the count the benchmark's
    smoke check pins at 72 for the default generate."""
    inner = coreattn.token_scores
    calls = []

    def counted(maps, mode, layer, step):
        calls.append((layer, step))
        return inner(maps, mode, layer, step)

    monkeypatch.setattr(coreattn, "token_scores", counted)
    run_generate(_config(mode=mode), write_outputs=False)
    steps, layers = TINY_SAMPLER.cutoff_step, TINY.n_layers
    assert calls == [(layer, step) for step in range(1, steps + 1) for layer in range(layers)]


def _count_calls(monkeypatch, module, name: str) -> list:
    inner = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize(
    "mode, full_runs",
    [pytest.param(mode, False, id=mode.value) for mode in ScoreMode]
    + [pytest.param(mode, True, id=f"{mode.value}-full_runs") for mode in ScoreMode],
)
def test_sweep_scores_each_captured_layer_once(monkeypatch, tmp_path, mode, full_runs):
    """The capture at the grid's largest cutoff is scored once for the whole
    sweep, whatever its ratios and whether its cells generate: max cutoff x
    n_layers `token_scores` calls, 108 for the default sweep."""
    ratios, steps = (0.0, 0.5, 1.0), (1, 2)
    sweep = SweepConfig(ratios=ratios, steps=steps, full_runs=full_runs)
    cfg = replace(_config(mode=mode), sweep=sweep)
    calls = _count_calls(monkeypatch, coreattn, "token_scores")
    result = run_sweep(cfg, out_dir=str(tmp_path))
    assert [(r, s) for r, s, _ in result.failures] == [(0.0, 1), (0.0, 2)]
    assert len(calls) == max(steps) * TINY.n_layers


@pytest.mark.parametrize(
    "mode, full_runs",
    [pytest.param(mode, False, id=mode.value) for mode in ScoreMode]
    + [pytest.param(mode, True, id=f"{mode.value}-full_runs") for mode in ScoreMode],
)
def test_sweep_ranks_and_measures_each_core_set_once(monkeypatch, tmp_path, mode, full_runs):
    """The cells share their step scorers' core sets, each ranked once by
    its own `select_core_tokens` call, and the reducer's measured rows: max
    cutoff x n_layers x ratios core sets and two `row_fraction` calls per
    set. For the default sweep that is 540 sets and 1080 calls, where
    planning and measuring every cell on its own took 1890 sets and 3780
    calls."""
    ratios, steps = (0.5, 0.25, 1.0), (2, 1, 3)
    sweep = SweepConfig(ratios=ratios, steps=steps, full_runs=full_runs)
    cfg = replace(_config(mode=mode), sweep=sweep)
    sets = _count_calls(monkeypatch, coreattn, "select_core_tokens")
    fractions = _count_calls(monkeypatch, coreattn, "row_fraction")
    result = run_sweep(cfg, out_dir=str(tmp_path))
    assert result.failures == []
    assert len(sets) == max(steps) * TINY.n_layers * len(ratios)
    assert len(fractions) == 2 * len(sets)


def test_sweep_zero_mass_row_fails_exactly_the_cells_that_reach_it(monkeypatch, tmp_path):
    """A core row with no attention mass at step 2 fails the cells of its
    ratio whose cutoff reaches step 2, and only those, whatever order the
    cells run in: a row measured for one cell is reused, a failed one is
    measured again."""
    cfg = replace(_config(), sweep=SweepConfig(ratios=(0.25, 1.0), steps=(3, 1, 2)))
    clean = run_sweep(cfg, out_dir=str(tmp_path / "clean"))
    assert clean.failures == []
    capture = pipeline.reconstruct_capture

    def capture_then_zero_a_row(*args, on_layer, **kwargs):
        capture(*args, on_layer=on_layer, **kwargs)
        # a row of step 2, layer 0 that ratio 1.0 plans and ratio 0.25 does not
        narrow = on_layer.step_scorer(2, on_layer.mode, on_layer.averaging).core_set(0, 0.25)
        row = min(set(range(on_layer.n_img)) - set(narrow.indices))
        on_layer.masses.total[1, 0, row] = 0.0
        return on_layer

    monkeypatch.setattr(pipeline, "reconstruct_capture", capture_then_zero_a_row)
    result = run_sweep(cfg, out_dir=str(tmp_path / "zeroed"))
    assert [(r, s) for r, s, _ in result.failures] == [(1.0, 3), (1.0, 2)]
    assert all(msg.startswith("ZeroRowMass: ") for _, _, msg in result.failures)
    failed = {(1.0, 2), (1.0, 3)}
    for metric, table in result.tables.items():
        assert {cell for cell, value in table.items() if value is None} == failed
        assert {c: v for c, v in table.items() if c not in failed} == {
            c: v for c, v in clean.tables[metric].items() if c not in failed
        }
        lines = (tmp_path / "zeroed" / f"sweep_{metric}.csv").read_text().splitlines()
        assert [line for line in lines if line.endswith(",NA")] == ["1.0,2,NA", "1.0,3,NA"]


def test_generate_and_analyze_measure_each_core_set_once(monkeypatch):
    """One `run_generate` and one `run_analyze` each make two `row_fraction`
    calls per planned set, and measuring the same plan again makes none:
    the reducer that planned keeps every pair it measured."""
    cfg = _config()
    glyph = prepare_glyph(cfg)
    trace = reconstruct_capture(init_model(cfg.model), glyph, "", cfg.sampler)
    mask_frac = glyph_mask_patches(glyph, TINY.patch)
    plans = []
    inner = pipeline.build_injection

    def tap(*args, **kwargs):
        plans.append(inner(*args, **kwargs))
        return plans[-1]

    monkeypatch.setattr(pipeline, "build_injection", tap)
    fractions = _count_calls(monkeypatch, coreattn, "row_fraction")
    runs = {
        "generate": lambda: run_generate(cfg, write_outputs=False),
        "analyze": lambda: run_analyze(trace, mask_frac, cfg.injection.ratio),
    }
    for name, run in runs.items():
        plans.clear()
        fractions.clear()
        run()
        (plan,) = plans
        assert len(plan.sets) == cfg.sampler.cutoff_step * TINY.n_layers, name
        assert len(fractions) == 2 * len(plan.sets), name
        plan.trace.coverage(plan)
        plan.trace.shift_rows(plan)
        assert len(fractions) == 2 * len(plan.sets), name


@pytest.mark.parametrize("mode", list(ScoreMode))
def test_analyze_scores_each_captured_layer_once(monkeypatch, mode):
    """The scorers that plan also give the reported scores: steps x n_layers
    `token_scores` calls, 72 for the default trace."""
    cfg = _config(mode=mode)
    glyph = prepare_glyph(cfg)
    trace = reconstruct_capture(init_model(cfg.model), glyph, "", cfg.sampler)
    calls = _count_calls(monkeypatch, coreattn, "token_scores")
    run_analyze(trace, glyph_mask_patches(glyph, TINY.patch), 0.25, mode=mode)
    assert len(calls) == trace.steps * TINY.n_layers


@pytest.mark.parametrize("full_runs", [False, True])
def test_sweep_memory_is_bounded_by_one_forward(tmp_path, full_runs):
    """tracemalloc peak of a grid-24 sweep, whose full trace would take
    255 MB: below 3 of one forward's 22 MB (2, heads, T, T) map blocks plus
    the scores, row masses and, with full_runs, the core rows at the grid's
    largest ratio that the sweep keeps. The multiple covers the map block
    itself, softmax's one (heads, T, T) buffer and the rest of a forward's
    temporaries (the peak read 38.2 MB without full_runs and 52.5 MB with
    it, numpy 2.4.6); one step of the trace's probabilities alone, 64 MB,
    would exceed it."""
    model = replace(RunConfig().model, grid=24)
    sampler = replace(RunConfig().sampler, steps=2, cutoff_step=2)
    ratios = (0.125,)
    cfg = replace(
        RunConfig(), model=model, sampler=sampler,
        sweep=SweepConfig(ratios=ratios, steps=(1, 2), full_runs=full_runs),
    )
    n, layers, steps, T = model.n_img, model.n_layers, sampler.cutoff_step, model.seq_len
    trace_bytes = 2 * steps * layers * model.n_heads * n * n * 8
    map_block = 2 * model.n_heads * T * T * 8
    kept = (3 + 2) * steps * layers * n * 8  # three row-mass fields, raw and ranked scores
    if full_runs:
        kept += steps * layers * model.n_heads * math.ceil(max(ratios) * n) * n * 8
    tracemalloc.start()
    try:
        result = run_sweep(cfg, out_dir=str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.failures == []
    assert len(list(tmp_path.glob("cell_*.pgm"))) == (2 if full_runs else 0)
    assert trace_bytes > 10 * map_block
    assert peak < 3 * map_block + kept


def test_streamed_generate_holds_no_step_of_the_trace():
    """The streamed run's tracemalloc peak exceeds the baseline run's by less
    than one captured step's I2I logits and probs plus the core rows it
    keeps: the capture reduces each layer as forward produces it."""
    model = replace(TINY, n_layers=3, grid=16)
    cfg = replace(_config(replace(TINY_SAMPLER, steps=2)), model=model)
    n, heads, layers, steps = model.n_img, model.n_heads, model.n_layers, cfg.sampler.cutoff_step
    step_pair = 2 * layers * heads * n * n * 8
    kept_rows = steps * layers * heads * math.ceil(cfg.injection.ratio * n) * n * 8

    def peak(baseline: bool) -> int:
        run_generate(cfg, baseline=baseline, write_outputs=False)  # first-call allocations
        tracemalloc.start()
        try:
            run_generate(cfg, baseline=baseline, write_outputs=False)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(False) - peak(True) < step_pair + kept_rows
