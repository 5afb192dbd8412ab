import dataclasses
import tracemalloc

import numpy as np
import pytest

import glyphflow
from glyphflow import (
    AttentionHook,
    AttentionTrace,
    ConfigError,
    GlyphFlowError,
    ModelConfig,
    SamplerConfig,
    ScoreMode,
    ShapeMismatch,
    TokenSequence,
    TraceMismatch,
    build_injection,
    cfg_combine,
    draw_noise,
    embed_patches,
    embed_prompt,
    euler_step,
    generate_with_injection,
    glyph_mask_patches,
    init_model,
    noise_to,
    rasterize_text,
    reconstruct_capture,
    write_tensors,
)
from glyphflow.coreattn import ScoreReducer
from tests.conftest import MALFORMED_TRACES, force_threads, write_malformed_trace


def test_sampler_config_validation():
    with pytest.raises(ConfigError):
        SamplerConfig(steps=0)
    with pytest.raises(ConfigError):
        SamplerConfig(steps=4, cutoff_step=5)
    for guidance in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            SamplerConfig(guidance=guidance)
    with pytest.raises(ConfigError):
        SamplerConfig(noise_seed=-1)
    assert SamplerConfig(steps=2, cutoff_step=0).cutoff_step == 0
    # the default cutoff only fits runs of at least that many steps
    with pytest.raises(ConfigError):
        SamplerConfig(steps=4)


def test_default_knots():
    cfg = SamplerConfig(steps=4, cutoff_step=2)
    assert np.allclose(cfg.knots(), [1.0, 0.75, 0.5, 0.25, 0.0])
    assert cfg.knots().shape == (5,)
    # shipped defaults
    d = SamplerConfig()
    assert (d.steps, d.guidance, d.cutoff_step) == (28, 7.5, 12)


def test_draw_noise_deterministic():
    a = draw_noise(0, (3, 4))
    assert a.shape == (3, 4)
    assert np.array_equal(a, draw_noise(0, (3, 4)))
    assert not np.array_equal(a, draw_noise(1, (3, 4)))


def test_noise_to(rng):
    x0 = rng.standard_normal((4, 4))
    eps = rng.standard_normal((4, 4))
    assert np.array_equal(noise_to(x0, 0.0, eps), x0)
    assert np.array_equal(noise_to(x0, 1.0, eps), eps)
    assert np.allclose(noise_to(x0, 0.5, eps), 0.5 * x0 + 0.5 * eps)
    assert noise_to(np.zeros(1), 0.5, np.full(1, 2.0))[0] == 1.0
    with pytest.raises(ShapeMismatch):
        noise_to(x0, 0.5, eps[:2])
    with pytest.raises(ConfigError):
        noise_to(x0, 1.5, eps)


def test_cfg_combine(rng):
    v_c = rng.standard_normal((3, 3)) * 1e8
    v_u = rng.standard_normal((3, 3))
    assert np.array_equal(cfg_combine(v_c, v_u, 0.0), v_u)
    assert np.array_equal(cfg_combine(v_c, v_u, 1.0), v_c)
    assert np.allclose(cfg_combine(np.ones(2), np.zeros(2), 7.5), 7.5)
    with pytest.raises(ShapeMismatch):
        cfg_combine(v_c, v_u[:1], 1.0)


def test_euler_step(rng):
    x = rng.standard_normal(5)
    assert np.array_equal(euler_step(x, np.zeros(5), 0.5, 0.25), x)
    v = np.full(3, 28.0)
    assert np.allclose(euler_step(np.ones(3), v, 1.0, 1.0 - 1.0 / 28.0), 0.0)
    with pytest.raises(ConfigError):
        euler_step(x, x, 0.25, 0.5)
    with pytest.raises(ConfigError):
        euler_step(x, x, 0.5, 0.5)


def test_constant_velocity_reaches_data(rng):
    # for v = eps - x0 the exact solution of dx/dt = v from x(1) = eps is x(0) = x0
    x0 = rng.standard_normal((6, 4))
    eps = rng.standard_normal((6, 4))
    v = eps - x0
    for cfg in (SamplerConfig(steps=28), SamplerConfig(steps=2, cutoff_step=0)):
        knots = cfg.knots()
        x = eps.copy()
        for i in range(1, cfg.steps + 1):
            x = euler_step(x, v, float(knots[i - 1]), float(knots[i]))
        assert np.abs(x - x0).max() < 1e-6


def test_trace_shapes_and_t_values(tiny_trace, tiny_cfg, tiny_sampler):
    assert tiny_trace.steps == tiny_sampler.cutoff_step == 2
    assert tiny_trace.n_layers == tiny_cfg.n_layers
    assert tiny_trace.n_heads == tiny_cfg.n_heads
    assert tiny_trace.n_img == tiny_cfg.n_img
    assert tiny_trace.logits.shape == (2, 2, 2, 16, 16)
    knots = tiny_sampler.knots()
    assert tiny_trace.t_values == tuple(float(t) for t in knots[: tiny_trace.steps])
    # I2I probability rows are sub-rows of normalized joint rows
    sums = tiny_trace.probs.sum(axis=-1)
    assert sums.max() <= 1.0 + 1e-12
    assert sums.min() >= 0.0


def test_trace_deterministic(tiny_weights, tiny_glyph, tiny_sampler, tiny_trace):
    again = reconstruct_capture(tiny_weights, tiny_glyph, "", tiny_sampler)
    assert again.checksum() == tiny_trace.checksum()
    assert np.array_equal(again.logits, tiny_trace.logits)
    assert np.array_equal(again.probs, tiny_trace.probs)


def test_reconstruction_is_synchronous(tiny_weights, tiny_glyph, tiny_sampler, tiny_trace):
    # steps are independent re-noisings, so a shorter cutoff is a prefix
    short = reconstruct_capture(
        tiny_weights, tiny_glyph, "", dataclasses.replace(tiny_sampler, cutoff_step=1)
    )
    assert np.array_equal(short.logits, tiny_trace.logits[:1])
    assert np.array_equal(short.probs, tiny_trace.probs[:1])


def test_recon_prompt_reaches_deeper_layers_only(tiny_weights, tiny_glyph, tiny_sampler, tiny_trace):
    # layer 0 I2I logits depend only on image tokens; text mixes in afterwards
    other = reconstruct_capture(tiny_weights, tiny_glyph, "A text A logo", tiny_sampler)
    assert np.array_equal(other.logits[:, 0], tiny_trace.logits[:, 0])
    assert not np.array_equal(other.logits[:, 1], tiny_trace.logits[:, 1])


def test_empty_trace(tiny_weights, tiny_glyph, tiny_sampler):
    empty = reconstruct_capture(
        tiny_weights, tiny_glyph, "", dataclasses.replace(tiny_sampler, cutoff_step=0)
    )
    assert empty.steps == 0
    assert empty.logits.shape[0] == 0
    assert empty.t_values == ()


def test_trace_save_load_round_trip(tmp_path, tiny_trace):
    path = tmp_path / "trace.bin"
    tiny_trace.save(path)
    back = AttentionTrace.load(path)
    assert back.checksum() == tiny_trace.checksum()
    assert back.t_values == tiny_trace.t_values
    assert back.logits.tobytes() == tiny_trace.logits.tobytes()
    assert back.probs.tobytes() == tiny_trace.probs.tobytes()


def test_trace_rejects_inconsistent_arrays():
    probs = np.zeros((2, 1, 1, 3, 3))
    AttentionTrace(t_values=(1.0, 0.5), logits=np.zeros_like(probs), probs=probs)
    with pytest.raises(ShapeMismatch):
        AttentionTrace(t_values=(1.0, 0.5), logits=probs[0], probs=probs[0])
    with pytest.raises(ShapeMismatch):
        AttentionTrace(t_values=(1.0, 0.5), logits=probs[..., :2], probs=probs[..., :2])
    with pytest.raises(ShapeMismatch):
        AttentionTrace(t_values=(1.0, 0.5), logits=probs[:, :, :, :2, :2], probs=probs)
    with pytest.raises(ShapeMismatch):
        AttentionTrace(t_values=(1.0,), logits=np.zeros_like(probs), probs=probs)


@pytest.mark.parametrize("key", ["steps", "n_layers", "n_heads", "n_img"])
def test_trace_load_rejects_meta_dims_that_disagree(tmp_path, tiny_trace, key):
    meta = tiny_trace._meta()
    path = tmp_path / "trace.bin"
    tensors = {"logits": tiny_trace.logits, "probs": tiny_trace.probs}
    write_tensors(path, tensors, meta=meta)
    assert AttentionTrace.load(path).checksum() == tiny_trace.checksum()
    meta[key] = str(int(meta[key]) + 1)
    write_tensors(path, tensors, meta=meta)
    with pytest.raises(GlyphFlowError):
        AttentionTrace.load(path)


@pytest.mark.parametrize("case", sorted(MALFORMED_TRACES))
def test_trace_load_rejects_malformed_tensors_and_t_values(tmp_path, tiny_trace, case):
    path = tmp_path / "trace.bin"
    write_tensors(path, {"logits": tiny_trace.logits, "probs": tiny_trace.probs}, tiny_trace._meta())
    assert AttentionTrace.load(path).checksum() == tiny_trace.checksum()
    write_malformed_trace(path, tiny_trace, case)
    with pytest.raises(GlyphFlowError):
        AttentionTrace.load(path)


def test_probs_only_capture_equals_full_probs(tiny_weights, tiny_glyph, tiny_sampler, tiny_trace):
    """A capture reduced straight into a `ScoreReducer`, which reads only each
    layer's probabilities, scores, masses and plans as the full trace's
    replay does, in every mode."""
    cfg = tiny_weights.cfg
    mask_frac = glyph_mask_patches(tiny_glyph, cfg.patch)
    for mode in ScoreMode:
        streamed = ScoreReducer(
            tiny_sampler.cutoff_step, cfg.n_layers, cfg.n_heads, cfg.n_img, mode, True, mask_frac
        )
        reconstruct_capture(tiny_weights, tiny_glyph, "", tiny_sampler, on_layer=streamed)
        replayed = ScoreReducer.replay(tiny_trace, mask_frac, mode, True)
        for got, want in zip(streamed.masses, replayed.masses):
            assert got.tobytes() == want.tobytes()
        for step in range(1, tiny_trace.steps + 1):
            got = streamed.step_scorer(step, mode, True)
            want = tiny_trace.step_scorer(step, mode, True)
            assert [s.scores.tobytes() for s in got.raw] == [
                s.scores.tobytes() for s in want.raw
            ]
            assert [s.scores.tobytes() for s in got.ranked()] == [
                s.scores.tobytes() for s in want.ranked()
            ]
        assert build_injection(streamed, 0.25, mode=mode) == build_injection(
            tiny_trace, 0.25, mode=mode
        )


@pytest.mark.parametrize("averaging", [True, False])
@pytest.mark.parametrize("mode", list(ScoreMode))
def test_reducer_serves_the_rows_of_every_set_up_to_keep(
    tiny_weights, tiny_glyph, tiny_sampler, tiny_trace, mode, averaging
):
    """A reducer that keeps the 0.5 sets' rows gives the full trace's rows of
    the 0.5 and 0.25 sets; the 0.5 set gets the kept array itself, never a
    copy, and a 0.75 set, whose rows were not kept, is refused."""
    cfg = tiny_weights.cfg
    mask_frac = glyph_mask_patches(tiny_glyph, cfg.patch)
    reducer = ScoreReducer(
        tiny_sampler.cutoff_step, cfg.n_layers, cfg.n_heads, cfg.n_img, mode, averaging,
        mask_frac, keep=0.5,
    )
    reconstruct_capture(tiny_weights, tiny_glyph, "", tiny_sampler, on_layer=reducer)
    for ratio in (0.25, 0.5):
        plan = build_injection(reducer, ratio, mode=mode, averaging=averaging)
        for key, core in plan.sets.items():
            got = reducer.core_rows(*key, core)
            assert got.shape == (cfg.n_heads, len(core.indices), cfg.n_img)
            assert got.tobytes() == tiny_trace.core_rows(*key, core).tobytes()
            assert (reducer.core_rows(*key, core) is got) == (ratio == 0.5)
    wide = build_injection(reducer, 0.75, mode=mode, averaging=averaging)
    for key, core in wide.sets.items():
        with pytest.raises(TraceMismatch):
            reducer.core_rows(*key, core)


def test_trace_and_reducer_refuse_steps_outside_the_capture(
    tiny_weights, tiny_glyph, tiny_sampler, tiny_trace
):
    """Steps are 1-based: step 0 is not the last step, and a step past the
    capture raises a package error, not numpy's IndexError."""
    cfg = tiny_weights.cfg
    reducer = ScoreReducer(
        tiny_sampler.cutoff_step, cfg.n_layers, cfg.n_heads, cfg.n_img, ScoreMode.ROW_MASS,
        True, glyph_mask_patches(tiny_glyph, cfg.patch),
    )
    reconstruct_capture(tiny_weights, tiny_glyph, "", tiny_sampler, on_layer=reducer)
    for step in (0, -1, tiny_trace.steps + 1):
        with pytest.raises(TraceMismatch):
            tiny_trace.step_logits(step, 0)
        with pytest.raises(TraceMismatch):
            tiny_trace.step_scorer(step, ScoreMode.ROW_MASS, True)
        with pytest.raises(TraceMismatch):
            reducer.step_scorer(step, ScoreMode.ROW_MASS, True)
    last = tiny_trace.steps
    assert tiny_trace.step_logits(last, 1).tobytes() == tiny_trace.logits[-1, 1].tobytes()
    assert reducer.step_scorer(last, ScoreMode.ROW_MASS, True).step == last


def test_probs_only_capture_allocates_no_logits():
    """A capture into a `ScoreReducer` keeps neither logits nor probabilities:
    its tracemalloc peak is below a full trace capture's by at least 0.9 of
    the trace's two arrays."""
    # the default model at cutoff 1: one step of (layers, heads, n_img, n_img) logits
    cfg = ModelConfig()
    weights = init_model(cfg)
    glyph = rasterize_text("logo", width=cfg.canvas, height=cfg.canvas, scale=4, patch=cfg.patch)
    mask_frac = glyph_mask_patches(glyph, cfg.patch)
    sampler = SamplerConfig(steps=1, cutoff_step=1)
    reconstruct_capture(weights, glyph, "", sampler)  # forward's buffers are made once

    sinks = {
        "trace": lambda: AttentionTrace.empty(sampler, cfg),
        "reducer": lambda: ScoreReducer(
            1, cfg.n_layers, cfg.n_heads, cfg.n_img, ScoreMode.ROW_MASS, True, mask_frac
        ),
    }
    peaks = {}
    for name, make in sinks.items():
        tracemalloc.start()
        try:
            sink = make()
            reconstruct_capture(weights, glyph, "", sampler, on_layer=sink)
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if name == "trace":
            logits_nbytes = sink.logits.nbytes
            trace_nbytes = logits_nbytes + sink.probs.nbytes
    assert logits_nbytes == cfg.n_layers * cfg.n_heads * cfg.n_img**2 * 8  # 12.6 MB
    assert peaks["trace"] - peaks["reducer"] >= 0.9 * trace_nbytes


def test_probe_sees_reconstruction(tiny_weights, tiny_glyph, tiny_sampler):
    seen = []
    reconstruct_capture(
        tiny_weights, tiny_glyph, "", tiny_sampler,
        probe=lambda step, t, branch, caps: seen.append((step, t, branch, sorted(caps))),
    )
    assert [s[0] for s in seen] == [1, 2]
    assert all(branch == "recon" for _, _, branch, _ in seen)
    assert all(layers == [0, 1] for _, _, _, layers in seen)


def test_probe_does_not_change_the_trace(tiny_weights, tiny_glyph, tiny_sampler, tiny_trace):
    probed = reconstruct_capture(
        tiny_weights, tiny_glyph, "", tiny_sampler, probe=lambda *args: None
    )
    assert probed.logits.tobytes() == tiny_trace.logits.tobytes()
    assert probed.probs.tobytes() == tiny_trace.probs.tobytes()


def test_reconstruction_forwards_compute_no_velocity(
    monkeypatch, tiny_weights, tiny_glyph, tiny_sampler, tiny_trace
):
    # every capture forward, a pair or a single step, asks for no velocity
    # and gets none, with or without a probe, and the trace keeps its bytes
    real_forward = glyphflow.sampler.forward
    velocities = []

    def recorded(weights, tokens, t, hook):
        velocity, captured = real_forward(weights, tokens, t, hook)
        velocities.append((hook.step, hook.velocity, velocity))
        return velocity, captured

    monkeypatch.setattr(glyphflow.sampler, "forward", recorded)
    for probe in (None, lambda *args: None):
        for in_step_order in (False, True):
            velocities.clear()
            trace = reconstruct_capture(
                tiny_weights, tiny_glyph, "", tiny_sampler, probe=probe, in_step_order=in_step_order
            )
            if in_step_order:
                assert velocities == [(1, False, None), (2, False, None)]
            else:
                assert velocities == [((1, 2), False, (None, None))]
            assert trace.checksum() == tiny_trace.checksum()


@pytest.mark.parametrize("threads", [2, 1])
def test_capture_runs_steps_two_at_a_time_and_probes_them_in_order(
    monkeypatch, tiny_weights, tiny_glyph, threads
):
    """A 3-step capture runs steps (1, 2) as one pair forward and step 3
    alone. Its sink sees, per layer, step 1 then step 2 on two threads, and
    step order on one; `in_step_order` runs one step per forward. The probe
    gets steps 1, 2, 3 in order, and every order gives the same trace."""
    sampler = SamplerConfig(steps=4, cutoff_step=3)
    force_threads(monkeypatch, threads)
    real_forward = glyphflow.sampler.forward
    calls = []

    def recorded(weights, tokens, t, hook):
        calls.append(hook.step)
        return real_forward(weights, tokens, t, hook)

    monkeypatch.setattr(glyphflow.sampler, "forward", recorded)
    layers = tiny_weights.cfg.n_layers
    in_order = [(step, layer) for step in (1, 2, 3) for layer in range(layers)]
    interleaved = [(step, layer) for layer in range(layers) for step in (1, 2)]
    interleaved += [(3, layer) for layer in range(layers)]
    traces = []
    for in_step_order in (False, True):
        calls.clear()
        sunk, probed = [], []
        trace = AttentionTrace.empty(sampler, tiny_weights.cfg)

        def sink(step, layer, logits, probs):
            sunk.append((step, layer))
            trace(step, layer, logits, probs)

        reconstruct_capture(
            tiny_weights, tiny_glyph, "", sampler, on_layer=sink, in_step_order=in_step_order,
            probe=lambda step, t, branch, caps: probed.append((step, t, branch)),
        )
        assert calls == ([1, 2, 3] if in_step_order else [(1, 2), 3])
        assert sunk == (interleaved if threads == 2 and not in_step_order else in_order)
        assert probed == [(i, t, "recon") for i, t in enumerate(sampler.captured_t_values(), start=1)]
        traces.append((trace.logits.tobytes(), trace.probs.tobytes()))
    assert traces[0] == traces[1]


def test_trace_holds_the_probed_i2i_blocks(tiny_weights, tiny_glyph, tiny_sampler):
    seen = {}

    def probe(step, t, branch, caps):
        seen[step] = caps

    trace = reconstruct_capture(tiny_weights, tiny_glyph, "", tiny_sampler, probe=probe)
    for step, caps in seen.items():
        for layer, att in caps.items():
            assert trace.step_logits(step, layer).tobytes() == att.i2i("logits").tobytes()
            assert trace.probs[step - 1, layer].tobytes() == att.i2i("probs").tobytes()


def test_generate_baseline_deterministic(tiny_weights, tiny_sampler):
    img1, man1 = generate_with_injection(tiny_weights, "A text A logo", None, None, tiny_sampler)
    img2, man2 = generate_with_injection(tiny_weights, "A text A logo", None, None, tiny_sampler)
    assert np.array_equal(img1, img2)
    assert img1.shape == (tiny_weights.cfg.canvas, tiny_weights.cfg.canvas)
    assert img1.min() >= 0.0 and img1.max() <= 1.0
    assert len(man1.step_logs) == tiny_sampler.steps
    assert all(log.injected_layer_count == 0 for log in man1.step_logs)
    assert man1.checksums == {}  # run_generate hashes the weights
    assert [log.t for log in man1.step_logs] == [float(t) for t in tiny_sampler.knots()[:-1]]
    assert not np.array_equal(
        img1, generate_with_injection(tiny_weights, "other words", None, None, tiny_sampler)[0]
    )


def test_generate_with_plan_logs_and_counts(tiny_weights, tiny_trace, tiny_sampler):
    plan = build_injection(tiny_trace, ratio=0.25)
    pairs = set()

    def probe(step, t, branch, caps):
        if step <= plan.cutoff_step:
            pairs.update((step, layer) for layer in caps)

    img, man = generate_with_injection(
        tiny_weights, "A text A logo", tiny_trace, plan, tiny_sampler, probe=probe
    )
    assert man.checksums == {}  # run_generate hashes the trace
    counts = [log.injected_layer_count for log in man.step_logs]
    assert counts == [2, 2, 0, 0]
    # hooked (step, layer) combinations: cutoff_step * n_layers
    assert len(pairs) == plan.cutoff_step * tiny_weights.cfg.n_layers


@pytest.mark.parametrize(
    "injected, with_probe, kinds",
    [
        (True, False, ["override"] * 2 + ["plain"] * 2),
        (True, True, ["override"] * 2 + ["capture"] * 2),
        (False, True, ["capture"] * 4),
        (False, False, ["plain"] * 4),
    ],
)
def test_generate_hook_kind_per_forward(
    monkeypatch, tiny_weights, tiny_trace, tiny_sampler, injected, with_probe, kinds
):
    # each forward classified as the benchmark tracer does: override when the
    # hook rewrites logits, capture when it only stores maps, plain otherwise;
    # a step's two CFG branches are one forward of a pair
    seen, override_calls = [], []
    real_forward = glyphflow.sampler.forward

    def classify(weights, tokens, t, hook):
        assert isinstance(tokens, tuple) and len(tokens) == 2
        if hook is not None and hook.override is not None:
            seen.append("override")
            inner = hook.override

            def counted(*args):
                override_calls.append(args[:3])
                return inner(*args)

            hook = dataclasses.replace(hook, override=counted)
        elif hook is not None and (hook.store_logits or hook.store_probs):
            seen.append("capture")
        else:
            seen.append("plain")
        return real_forward(weights, tokens, t, hook)

    monkeypatch.setattr(glyphflow.sampler, "forward", classify)
    plan = build_injection(tiny_trace, ratio=0.25) if injected else None
    trace = tiny_trace if injected else None
    probe = (lambda *args: None) if with_probe else None
    generate_with_injection(tiny_weights, "x", trace, plan, tiny_sampler, probe=probe)
    assert (tiny_sampler.steps, tiny_sampler.cutoff_step) == (4, 2)
    assert seen == kinds
    cfg = tiny_weights.cfg
    # cutoff steps x two branches x every (layer, head)
    assert len(override_calls) == (2 * 2 * cfg.n_layers * cfg.n_heads if injected else 0)


@pytest.mark.parametrize("injected", [False, True])
def test_probe_gets_each_branch_its_own_maps(tiny_weights, tiny_trace, tiny_sampler, injected):
    """Step 1's pair forward hands the probe, uncond then cond, the maps a
    single forward of that branch's sequence captures with the same hook."""
    seen = []

    def probe(step, t, branch, caps):
        if step == 1:
            seen.append((branch, [(caps[layer].logits.tobytes(), caps[layer].probs.tobytes()) for layer in caps]))

    plan = build_injection(tiny_trace, ratio=0.25) if injected else None
    trace = tiny_trace if injected else None
    override = []
    real_forward = glyphflow.sampler.forward

    def keep_hook(weights, tokens, t, hook):
        override.append(hook.override)
        return real_forward(weights, tokens, t, hook)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(glyphflow.sampler, "forward", keep_hook)
        generate_with_injection(tiny_weights, "x y", trace, plan, tiny_sampler, probe=probe)
    cfg = tiny_weights.cfg
    image = embed_patches(tiny_weights, draw_noise(tiny_sampler.noise_seed, (cfg.n_img, cfg.patch_dim)))
    want = []
    for branch, prompt in (("uncond", ""), ("cond", "x y")):
        tokens = TokenSequence(text=embed_prompt(prompt, tiny_weights), image=image)
        hook = AttentionHook(store_logits=True, store_probs=True, override=override[0], step=1)
        _, caps = real_forward(tiny_weights, tokens, 1.0, hook)
        want.append((branch, [(caps[layer].logits.tobytes(), caps[layer].probs.tobytes()) for layer in caps]))
    assert seen == want
    assert want[0][1] != want[1][1]


def test_generate_trace_plan_pairing(tiny_weights, tiny_glyph, tiny_trace, tiny_sampler):
    plan = build_injection(tiny_trace, ratio=0.25)
    with pytest.raises(TraceMismatch):
        generate_with_injection(tiny_weights, "x", tiny_trace, None, tiny_sampler)
    with pytest.raises(TraceMismatch):
        generate_with_injection(tiny_weights, "x", None, plan, tiny_sampler)
    reseeded = dataclasses.replace(tiny_sampler, noise_seed=tiny_sampler.noise_seed + 1)
    other = reconstruct_capture(tiny_weights, tiny_glyph, "", reseeded)
    assert other.checksum() != tiny_trace.checksum()
    with pytest.raises(TraceMismatch):
        generate_with_injection(tiny_weights, "x", other, plan, tiny_sampler)
    # a plan pairs only with the trace object it was built from, even when a
    # distinct trace holds the same bytes
    twin = reconstruct_capture(tiny_weights, tiny_glyph, "", tiny_sampler)
    assert twin is not tiny_trace and twin.checksum() == tiny_trace.checksum()
    with pytest.raises(TraceMismatch, match="different trace"):
        generate_with_injection(tiny_weights, "x", twin, plan, tiny_sampler)
    small = dataclasses.replace(tiny_sampler, steps=1, cutoff_step=1)
    with pytest.raises(TraceMismatch):
        generate_with_injection(tiny_weights, "x", tiny_trace, plan, small)


@pytest.mark.parametrize("trace_heads, model_heads", [(2, 4), (4, 2)])
def test_injection_refuses_a_trace_with_other_heads(
    monkeypatch, tiny_cfg, tiny_glyph, tiny_sampler, trace_heads, model_heads
):
    def weights(n_heads):
        return init_model(dataclasses.replace(tiny_cfg, n_heads=n_heads))

    trace = reconstruct_capture(weights(trace_heads), tiny_glyph, "", tiny_sampler)
    plan = build_injection(trace, ratio=0.25)
    model = weights(model_heads)

    def no_forward(*args, **kwargs):
        raise AssertionError("forward ran before the trace was checked")

    monkeypatch.setattr(glyphflow.sampler, "forward", no_forward)
    with pytest.raises(TraceMismatch, match="heads"):
        generate_with_injection(model, "x", trace, plan, tiny_sampler)


def test_injected_rows_match_trace_at_step_one(tiny_weights, tiny_glyph, tiny_sampler, tiny_trace):
    # generation starts at x = eps = the reconstruction latent at t=1, so at
    # step 1 the injected rows must reproduce the trace rows bit-for-bit
    plan = build_injection(tiny_trace, ratio=0.25)
    captured = {}

    def probe(step, t, branch, caps):
        if step == 1:
            captured[branch] = {layer: att.i2i("logits").copy() for layer, att in caps.items()}

    generate_with_injection(tiny_weights, "A text A logo", tiny_trace, plan, tiny_sampler, probe=probe)
    for branch in ("uncond", "cond"):
        for layer in range(tiny_weights.cfg.n_layers):
            rows = plan.sets[(1, layer)].rows()
            assert rows.size > 0
            got = captured[branch][layer]
            want = tiny_trace.step_logits(1, layer)
            for head in range(tiny_weights.cfg.n_heads):
                assert np.array_equal(got[head][rows], want[head][rows])


def test_injection_locality_at_step_one(tiny_weights, tiny_trace, tiny_sampler):
    # text-facing logit blocks at step 1 are identical with and without the
    # hook: no image state has diverged yet and the hook only touches I2I
    plan = build_injection(tiny_trace, ratio=1.0)

    t_txt = tiny_weights.cfg.t_txt

    def grab(store):
        def probe(step, t, branch, caps):
            if step == 1:
                store[branch] = {
                    layer: {
                        "text rows": att.logits[:, :t_txt, :].copy(),
                        "i2t": att.logits[:, t_txt:, :t_txt].copy(),
                    }
                    for layer, att in caps.items()
                }
        return probe

    base, hooked = {}, {}
    generate_with_injection(tiny_weights, "A text A logo", None, None, tiny_sampler, probe=grab(base))
    generate_with_injection(
        tiny_weights, "A text A logo", tiny_trace, plan, tiny_sampler, probe=grab(hooked)
    )
    for branch in ("uncond", "cond"):
        for which in ("text rows", "i2t"):
            assert np.array_equal(hooked[branch][0][which], base[branch][0][which])


def test_ratio_zero_and_cutoff_zero_match_baseline(tiny_weights, tiny_trace, tiny_sampler):
    base, _ = generate_with_injection(tiny_weights, "A text A logo", None, None, tiny_sampler)
    empty_plan = build_injection(tiny_trace, ratio=0.0)
    img0, _ = generate_with_injection(
        tiny_weights, "A text A logo", tiny_trace, empty_plan, tiny_sampler
    )
    assert np.array_equal(img0, base)
    cut0 = build_injection(tiny_trace, ratio=0.5, cutoff_step=0)
    imgc, man = generate_with_injection(tiny_weights, "A text A logo", tiny_trace, cut0, tiny_sampler)
    assert np.array_equal(imgc, base)
    assert all(log.injected_layer_count == 0 for log in man.step_logs)
