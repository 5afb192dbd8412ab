import dataclasses
import tracemalloc

import numpy as np
import pytest

import glyphflow
from glyphflow import (
    AttentionTrace,
    ConfigError,
    GlyphFlowError,
    ModelConfig,
    SamplerConfig,
    ShapeMismatch,
    TraceMismatch,
    build_injection,
    cfg_combine,
    draw_noise,
    euler_step,
    generate_with_injection,
    init_model,
    noise_to,
    rasterize_text,
    reconstruct_capture,
    write_tensors,
)
from tests.conftest import MALFORMED_TRACES, write_malformed_trace


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
        AttentionTrace(t_values=(1.0, 0.5), logits=None, probs=probs[0])
    with pytest.raises(ShapeMismatch):
        AttentionTrace(t_values=(1.0, 0.5), logits=None, probs=probs[..., :2])
    with pytest.raises(ShapeMismatch):
        AttentionTrace(t_values=(1.0, 0.5), logits=probs[:, :, :, :2, :2], probs=probs)
    with pytest.raises(ShapeMismatch):
        AttentionTrace(t_values=(1.0,), logits=None, probs=probs)


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
    lean = reconstruct_capture(tiny_weights, tiny_glyph, "", tiny_sampler, keep_logits=False)
    assert lean.logits is None
    assert lean.probs.tobytes() == tiny_trace.probs.tobytes()


def test_probs_only_trace_refuses_logit_consumers(
    tmp_path, monkeypatch, tiny_weights, tiny_glyph, tiny_sampler
):
    lean = reconstruct_capture(tiny_weights, tiny_glyph, "", tiny_sampler, keep_logits=False)
    with pytest.raises(TraceMismatch):
        lean.step_logits(1, 0)
    with pytest.raises(TraceMismatch):
        lean.checksum()
    with pytest.raises(TraceMismatch):
        lean.save(tmp_path / "trace.bin")
    assert not (tmp_path / "trace.bin").exists()

    plan = build_injection(lean, ratio=0.25)
    forwards = []
    monkeypatch.setattr(glyphflow.sampler, "forward", lambda *a, **k: forwards.append(a))
    with pytest.raises(TraceMismatch):
        generate_with_injection(tiny_weights, "x", lean, plan, tiny_sampler)
    assert forwards == []


def test_probs_only_capture_allocates_no_logits():
    # the default model at cutoff 1: one step of (layers, heads, n_img, n_img) logits
    cfg = ModelConfig()
    weights = init_model(cfg)
    glyph = rasterize_text("logo", width=cfg.canvas, height=cfg.canvas, scale=4, patch=cfg.patch)
    sampler = SamplerConfig(steps=1, cutoff_step=1)
    reconstruct_capture(weights, glyph, "", sampler)  # forward's buffers are made once

    traces, peaks = {}, {}
    for keep_logits in (True, False):
        tracemalloc.start()
        try:
            traces[keep_logits] = reconstruct_capture(
                weights, glyph, "", sampler, keep_logits=keep_logits
            )
            peaks[keep_logits] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    logits_nbytes = traces[True].logits.nbytes
    assert logits_nbytes == cfg.n_layers * cfg.n_heads * cfg.n_img**2 * 8  # 12.6 MB
    assert peaks[True] - peaks[False] >= 0.9 * logits_nbytes


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
        (True, False, ["override"] * 4 + ["plain"] * 4),
        (True, True, ["override"] * 4 + ["capture"] * 4),
        (False, True, ["capture"] * 8),
        (False, False, ["plain"] * 8),
    ],
)
def test_generate_hook_kind_per_forward(
    monkeypatch, tiny_weights, tiny_trace, tiny_sampler, injected, with_probe, kinds
):
    # each forward classified as the benchmark tracer does: override when the
    # hook rewrites logits, capture when it only stores maps, plain otherwise
    seen, override_calls = [], []
    real_forward = glyphflow.sampler.forward

    def classify(weights, tokens, t, hook):
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
