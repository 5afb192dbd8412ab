import sys
import threading

import numpy as np
import pytest

from glyphflow import (
    AttentionHook,
    ConfigError,
    ModelConfig,
    NonFiniteActivation,
    ShapeMismatch,
    TokenSequence,
    embed_patches,
    embed_prompt,
    fnv1a64,
    forward,
    image_position_encoding,
    init_model,
    patchify,
    timestep_embedding,
    unpatchify,
)
from glyphflow.model import TEXT_TABLE_ROWS, _gelu, _softmax_rows


def make_tokens(weights, prompt, image_pixels):
    raw = patchify(image_pixels, weights.cfg)
    return TokenSequence(
        text=embed_prompt(prompt, weights),
        image=embed_patches(weights, raw),
    )


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(d_model=65, n_heads=4)
    with pytest.raises(ConfigError):
        ModelConfig(grid=0)
    with pytest.raises(ConfigError):
        ModelConfig(seed=-1)
    cfg = ModelConfig(d_model=16, n_heads=2, n_layers=2, patch=4, grid=4, t_txt=4)
    assert cfg.n_img == 16
    assert cfg.seq_len == 20
    assert cfg.d_head == 8
    assert cfg.patch_dim == 16
    assert cfg.canvas == 16


def test_init_deterministic(tiny_cfg, tiny_weights):
    again = init_model(tiny_cfg)
    assert again.checksum() == tiny_weights.checksum()
    for name, arr in again.named().items():
        assert np.array_equal(arr, tiny_weights.named()[name]), name


def test_init_seed_changes_weights(tiny_cfg):
    import dataclasses

    other = init_model(dataclasses.replace(tiny_cfg, seed=1))
    assert other.checksum() != init_model(tiny_cfg).checksum()


def test_draw_order_is_sequential(tiny_cfg):
    # a deeper model consumes the same stream prefix, so shared tensors and
    # the first layers must be bit-identical while head_w moves down-stream
    import dataclasses

    shallow = init_model(dataclasses.replace(tiny_cfg, n_layers=1))
    deep = init_model(dataclasses.replace(tiny_cfg, n_layers=3))
    assert np.array_equal(shallow.text_table, deep.text_table)
    assert np.array_equal(shallow.pad_vec, deep.pad_vec)
    assert np.array_equal(shallow.patch_w, deep.patch_w)
    for key in ("wq", "wk", "wv", "wo", "w1", "w2", "ada"):
        assert np.array_equal(getattr(shallow.layers[0], key), getattr(deep.layers[0], key))
    assert not np.array_equal(shallow.head_w, deep.head_w)


def test_fnv1a64_reference_vectors():
    assert fnv1a64("") == 0xCBF29CE484222325
    assert fnv1a64("a") == 0xAF63DC4C8601EC8C
    assert fnv1a64("foobar") == 0x85944171F73967E8


def test_patchify_hand_case():
    cfg = ModelConfig(d_model=4, n_heads=1, n_layers=1, patch=2, grid=2, t_txt=1)
    arr = np.arange(16, dtype=np.float64).reshape(4, 4)
    tokens = patchify(arr, cfg)
    assert tokens.shape == (4, 4)
    assert np.array_equal(tokens[0], [0, 1, 4, 5])
    assert np.array_equal(tokens[1], [2, 3, 6, 7])
    assert np.array_equal(tokens[2], [8, 9, 12, 13])
    assert np.array_equal(tokens[3], [10, 11, 14, 15])
    assert np.array_equal(unpatchify(tokens, cfg), arr)


def test_patchify_round_trip(tiny_cfg, rng):
    arr = rng.random((tiny_cfg.canvas, tiny_cfg.canvas))
    assert np.array_equal(unpatchify(patchify(arr, tiny_cfg), tiny_cfg), arr)
    with pytest.raises(ShapeMismatch):
        patchify(arr[:-1], tiny_cfg)
    with pytest.raises(ShapeMismatch):
        unpatchify(arr[:, :-1], tiny_cfg)


def test_position_encoding_row_col_split(tiny_cfg):
    enc = image_position_encoding(tiny_cfg)
    d = tiny_cfg.d_model
    d_rows = d - d // 2
    g = tiny_cfg.grid
    # same grid row -> same first-half slots; same column -> same second half
    assert np.array_equal(enc[0, :d_rows], enc[1, :d_rows])
    assert np.array_equal(enc[0, d_rows:], enc[g, d_rows:])
    assert not np.array_equal(enc[0], enc[1])
    assert not np.array_equal(enc[0], enc[g])


def test_timestep_embedding_values():
    emb = timestep_embedding(0.0, 4)
    assert np.array_equal(emb, [0.0, 1.0, 0.0, 1.0])
    assert not np.array_equal(timestep_embedding(0.25, 8), timestep_embedding(0.75, 8))


def test_embed_prompt_padding_and_truncation(tiny_cfg, tiny_weights):
    block = embed_prompt("", tiny_weights)
    assert block.shape == (tiny_cfg.t_txt, tiny_cfg.d_model)
    assert np.array_equal(block, np.tile(tiny_weights.pad_vec, (tiny_cfg.t_txt, 1)))

    one = embed_prompt("logo", tiny_weights)
    row = tiny_weights.text_table[fnv1a64("logo") % TEXT_TABLE_ROWS]
    assert np.array_equal(one[0], row)
    assert np.array_equal(one[1:], block[1:])

    crowded = embed_prompt("a b c d e f", tiny_weights)
    assert crowded.shape == (tiny_cfg.t_txt, tiny_cfg.d_model)
    assert np.array_equal(crowded[-1], embed_prompt("d", tiny_weights)[0])


def test_embed_prompt_position_independent(tiny_weights):
    w = tiny_weights
    assert np.array_equal(embed_prompt("a b", w)[1], embed_prompt("c b", w)[1])
    assert np.array_equal(embed_prompt("logo logo", w)[0], embed_prompt("logo logo", w)[1])


def test_forward_shapes_and_determinism(tiny_weights, tiny_glyph):
    tokens = make_tokens(tiny_weights, "A text A logo", tiny_glyph.pixels)
    v1, caps = forward(tiny_weights, tokens, 0.5)
    assert v1.shape == (tiny_weights.cfg.n_img, tiny_weights.cfg.patch_dim)
    assert caps == {}
    v2, _ = forward(tiny_weights, tokens, 0.5)
    assert np.array_equal(v1, v2)
    assert not np.array_equal(v1, forward(tiny_weights, tokens, 0.75)[0])


def test_forward_validation(tiny_weights, tiny_glyph):
    tokens = make_tokens(tiny_weights, "x", tiny_glyph.pixels)
    with pytest.raises(ConfigError):
        forward(tiny_weights, tokens, 1.5)
    bad = TokenSequence(text=tokens.text[:2], image=tokens.image)
    with pytest.raises(ShapeMismatch):
        forward(tiny_weights, bad, 0.5)
    with np.errstate(invalid="ignore"):
        blown_up = tokens.image * np.inf
    with pytest.raises(NonFiniteActivation):
        TokenSequence(text=tokens.text, image=blown_up)


def test_capture_flags_and_row_sums(tiny_weights, tiny_glyph):
    cfg = tiny_weights.cfg
    tokens = make_tokens(tiny_weights, "A", tiny_glyph.pixels)
    hook = AttentionHook(store_logits=True, store_probs=True)
    _, caps = forward(tiny_weights, tokens, 0.25, hook)
    assert set(caps) == {0, 1}
    att = caps[1]
    assert att.logits.shape == (cfg.n_heads, cfg.seq_len, cfg.seq_len)
    assert np.allclose(att.probs.sum(axis=-1), 1.0, atol=1e-9)
    assert att.i2i().shape == (cfg.n_heads, cfg.n_img, cfg.n_img)

    only_logits = AttentionHook(store_logits=True)
    _, caps = forward(tiny_weights, tokens, 0.25, only_logits)
    assert set(caps) == {0, 1}
    with pytest.raises(ConfigError):
        caps[0].i2i("probs")


def test_identity_override_is_no_op(tiny_weights, tiny_glyph):
    tokens = make_tokens(tiny_weights, "A", tiny_glyph.pixels)
    base, _ = forward(tiny_weights, tokens, 0.5)
    hook = AttentionHook(override=lambda step, layer, head, block: block)
    same, _ = forward(tiny_weights, tokens, 0.5, hook)
    assert np.array_equal(base, same)


def test_override_touches_only_i2i(tiny_weights, tiny_glyph):
    tokens = make_tokens(tiny_weights, "A", tiny_glyph.pixels)
    capture = AttentionHook(store_logits=True, store_probs=True)
    _, base = forward(tiny_weights, tokens, 0.5, capture)

    hooked = AttentionHook(
        store_logits=True,
        store_probs=True,
        override=lambda step, layer, head, block: np.zeros_like(block),
    )
    _, out = forward(tiny_weights, tokens, 0.5, hooked)

    t_txt = tiny_weights.cfg.t_txt
    # text rows (T2T, T2I) and the image rows' text columns (I2T) are untouched
    assert np.array_equal(out[0].logits[:, :t_txt, :], base[0].logits[:, :t_txt, :])
    assert np.array_equal(out[0].logits[:, t_txt:, :t_txt], base[0].logits[:, t_txt:, :t_txt])
    assert not np.array_equal(out[0].i2i("logits"), base[0].i2i("logits"))
    assert np.array_equal(out[0].i2i("logits"), np.zeros_like(out[0].i2i("logits")))
    # text rows are softmaxed over unchanged logits
    assert np.array_equal(out[0].probs[:, :t_txt, :], base[0].probs[:, :t_txt, :])


def test_constant_override_uniform_image_rows(tiny_weights, tiny_glyph):
    tokens = make_tokens(tiny_weights, "A", tiny_glyph.pixels)
    hook = AttentionHook(
        store_probs=True, override=lambda step, layer, head, block: np.full_like(block, 3.7)
    )
    _, caps = forward(tiny_weights, tokens, 0.5, hook)
    for att in caps.values():
        i2i = att.i2i()
        assert np.ptp(i2i, axis=-1).max() == 0.0  # each image row uniform over image keys


def test_non_finite_override_raises(tiny_weights, tiny_glyph):
    tokens = make_tokens(tiny_weights, "A", tiny_glyph.pixels)
    hook = AttentionHook(override=lambda step, layer, head, block: block * np.inf)
    with pytest.raises(NonFiniteActivation):
        forward(tiny_weights, tokens, 0.5, hook)


def test_softmax_rows_matches_out_of_place_formula(rng):
    logits = rng.standard_normal((3, 20, 20)) * 30.0
    before = logits.tobytes()
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    want = e / e.sum(axis=-1, keepdims=True)
    out = np.full_like(logits, np.nan)
    got = _softmax_rows(logits, out=out)
    assert got is out
    assert got.tobytes() == want.tobytes()
    assert logits.tobytes() == before
    assert not np.shares_memory(got, logits)


def test_gelu_matches_power_formula():
    x = np.concatenate([np.linspace(-40.0, 40.0, 8001), [0.0, -0.0]])
    before = x.tobytes()
    want = 0.5 * x * (1.0 + np.tanh(_GA * (x + _GB * x**3)))
    got = _gelu(x)
    assert x.tobytes() == before
    assert np.all(np.abs(got - want) <= 1e-15 * np.maximum(1.0, np.abs(x)))
    # the in-place evaluation is bit-identical to the plain expression it mirrors
    plain = 0.5 * x * (1.0 + np.tanh(_GA * (x + _GB * (x * x * x))))
    assert got.tobytes() == plain.tobytes()


@pytest.mark.parametrize("override", [None, lambda step, layer, head, block: block * 0.5])
def test_captures_are_consistent_and_distinct(tiny_weights, tiny_glyph, override):
    tokens = make_tokens(tiny_weights, "A", tiny_glyph.pixels)
    hook = AttentionHook(store_logits=True, store_probs=True, override=override)
    _, caps = forward(tiny_weights, tokens, 0.5, hook)
    assert set(caps) == set(range(tiny_weights.cfg.n_layers))
    arrays = []
    for att in caps.values():
        probs = _softmax_rows(att.logits, out=np.empty_like(att.logits))
        assert probs.tobytes() == att.probs.tobytes()
        arrays += [att.logits, att.probs]
    for i, a in enumerate(arrays):
        for b in arrays[i + 1 :]:
            assert not np.shares_memory(a, b)


def _full_capture(weights, tokens, t, sink=None):
    hook = AttentionHook(store_logits=True, store_probs=True, sink=sink)
    vel, caps = forward(weights, tokens, t, hook)
    return [vel.tobytes()] + [
        arr.tobytes() for layer in sorted(caps) for arr in (caps[layer].logits, caps[layer].probs)
    ]


def test_forward_depends_only_on_its_arguments(tiny_cfg, tiny_glyph):
    first = init_model(tiny_cfg)
    tokens_a = make_tokens(first, "A", tiny_glyph.pixels)
    tokens_b = make_tokens(first, "B b", np.flipud(tiny_glyph.pixels))
    want_a = _full_capture(first, tokens_a, 0.5)
    want_b = _full_capture(init_model(tiny_cfg), tokens_b, 0.75)

    # interleaved inputs on one set of weights
    for _ in range(2):
        assert _full_capture(first, tokens_b, 0.75) == want_b
        assert _full_capture(first, tokens_a, 0.5) == want_a

    # two weight instances, alternating
    second = init_model(tiny_cfg)
    assert _full_capture(second, tokens_b, 0.75) == want_b
    assert _full_capture(first, tokens_a, 0.5) == want_a
    assert _full_capture(second, tokens_a, 0.5) == want_a

    # a forward that raises mid-layer leaves nothing behind
    blow_up = AttentionHook(override=lambda step, layer, head, block: block * np.inf)
    with pytest.raises(NonFiniteActivation):
        forward(first, tokens_b, 0.75, blow_up)
    assert _full_capture(first, tokens_a, 0.5) == want_a

    # a sink that runs a nested forward on the same weights sees what a plain
    # sink sees, and neither forward changes the other's bytes
    plain_sunk, sunk, nested = [], [], []

    def plain_sink(step, layer, logits, probs):
        plain_sunk.append(logits.tobytes() + probs.tobytes())

    def nesting_sink(step, layer, logits, probs):
        nested.append(_full_capture(first, tokens_b, 0.75))
        sunk.append(logits.tobytes() + probs.tobytes())

    assert _full_capture(first, tokens_a, 0.5, plain_sink) == want_a
    assert _full_capture(first, tokens_a, 0.5, nesting_sink) == want_a
    assert nested == [want_b] * tiny_cfg.n_layers
    assert sunk == plain_sunk

    # four threads running forwards on one set of weights at once, with a short
    # switch interval, each get their serial bytes
    jobs = [(tokens_a, 0.5, want_a), (tokens_b, 0.75, want_b)] * 2
    start = threading.Barrier(len(jobs))
    got = [None] * len(jobs)

    def run(i, tokens, t):
        start.wait(timeout=60)
        got[i] = [_full_capture(first, tokens, t) for _ in range(10)]

    threads = [
        threading.Thread(target=run, args=(i, tokens, t)) for i, (tokens, t, _) in enumerate(jobs)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [[want] * 10 for _, _, want in jobs]


def test_captures_survive_later_forwards(tiny_weights, tiny_glyph):
    tokens = make_tokens(tiny_weights, "A", tiny_glyph.pixels)
    hook = AttentionHook(store_logits=True, store_probs=True)
    _, caps = forward(tiny_weights, tokens, 0.5, hook)
    before = {layer: (att.logits.copy(), att.probs.copy()) for layer, att in caps.items()}
    other = make_tokens(tiny_weights, "B", np.flipud(tiny_glyph.pixels))
    forward(tiny_weights, other, 0.25, hook)
    forward(tiny_weights, other, 0.25, AttentionHook(override=lambda s, l, h, b: b * 0.5))
    for layer, att in caps.items():
        assert att.logits.tobytes() == before[layer][0].tobytes()
        assert att.probs.tobytes() == before[layer][1].tobytes()


@pytest.mark.parametrize("override", [None, lambda step, layer, head, block: block * 0.5])
def test_sink_matches_capture(tiny_weights, tiny_glyph, override):
    tokens = make_tokens(tiny_weights, "A", tiny_glyph.pixels)

    def run(hook_kwargs):
        copies, views = [], []

        def sink(step, layer, logits, probs):
            assert step == 3  # the hook's step, as the override gets it
            copies.append((layer, logits.copy(), probs.copy()))
            views.append((logits, probs))

        hook = AttentionHook(step=3, sink=sink, **hook_kwargs)
        _, caps = forward(tiny_weights, tokens, 0.5, hook)
        return caps, copies, views

    caps, copies, views = run(dict(store_logits=True, store_probs=True, override=override))
    assert [layer for layer, _, _ in copies] == sorted(caps)
    for layer, logits, probs in copies:
        assert logits.tobytes() == caps[layer].i2i("logits").tobytes()
        assert probs.tobytes() == caps[layer].i2i("probs").tobytes()
    # the views are forward's buffers: the last layer overwrote the first one's,
    # and the copies taken during the call kept their bytes
    assert views[0][0].tobytes() == copies[-1][1].tobytes() != copies[0][1].tobytes()

    # without the store flags nothing is captured, and the sink gets the same bytes
    caps_none, plain, _ = run(dict(override=override))
    assert caps_none == {}
    assert [(l, a.tobytes(), b.tobytes()) for l, a, b in plain] == [
        (l, a.tobytes(), b.tobytes()) for l, a, b in copies
    ]


def test_in_place_override_matches_returned_copy(tiny_weights, tiny_glyph):
    # the block is a view of forward's logits: editing it in place and
    # returning it gives the bytes of returning an edited copy
    tokens = make_tokens(tiny_weights, "A", tiny_glyph.pixels)

    def in_place(step, layer, head, block):
        block[::3] = block[1::3].mean() + head
        return block

    def copied(step, layer, head, block):
        out = block.copy()
        out[::3] = block[1::3].mean() + head
        return out

    results = []
    for override in (in_place, copied):
        hook = AttentionHook(store_logits=True, store_probs=True, override=override)
        vel, caps = forward(tiny_weights, tokens, 0.5, hook)
        results.append([vel.tobytes()] + [caps[layer].logits.tobytes() for layer in sorted(caps)])
    assert results[0] == results[1]


# ------------------------------------------------------------------
# directional derivative check on a frozen-attention configuration
# ------------------------------------------------------------------

_GA = 0.7978845608028654
_GB = 0.044715


def _ln_jvp(x, dx):
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    s = np.sqrt(var + 1e-6)
    y = (x - mean) / s
    dmean = dx.mean(axis=-1, keepdims=True)
    dvar = 2.0 * ((x - mean) * dx).mean(axis=-1, keepdims=True)
    ds = dvar / (2.0 * s)
    dy = (dx - dmean) / s - (x - mean) * ds / s**2
    return y, dy


def _gelu_jvp(z, dz):
    u = _GA * (z + _GB * z**3)
    th = np.tanh(u)
    g = 0.5 * z * (1.0 + th)
    dg = (0.5 * (1.0 + th) + 0.5 * z * (1.0 - th**2) * _GA * (1.0 + 3.0 * _GB * z**2)) * dz
    return g, dg


def _pinned_probe(weights, image_block, t):
    """Value of sum(velocity) when every I2I row is pinned one-hot onto itself.

    With the diagonal pinned at +1000 and everything else in the row at -1000,
    image attention rows underflow to an exact self-pick and text tokens stop
    influencing the image stream, so the image chain is plain elementwise math.
    """
    from glyphflow.model import timestep_embedding as temb

    t_emb = temb(t, weights.cfg.d_model)
    x = image_block
    for lw in weights.layers:
        s1, b1, s2, b2 = np.split(t_emb @ lw.ada, 4)
        h = _ln_jvp(x, np.zeros_like(x))[0] * (1.0 + s1) + b1
        x = x + (h @ lw.wv) @ lw.wo
        h2 = _ln_jvp(x, np.zeros_like(x))[0] * (1.0 + s2) + b2
        x = x + _gelu_jvp(h2 @ lw.w1, np.zeros_like(h2 @ lw.w1))[0] @ lw.w2
    return (_ln_jvp(x, np.zeros_like(x))[0] @ weights.head_w).sum()


def _pinned_probe_jvp(weights, image_block, direction, t):
    from glyphflow.model import timestep_embedding as temb

    t_emb = temb(t, weights.cfg.d_model)
    x, dx = image_block, direction
    for lw in weights.layers:
        s1, b1, s2, b2 = np.split(t_emb @ lw.ada, 4)
        y, dy = _ln_jvp(x, dx)
        h, dh = y * (1.0 + s1) + b1, dy * (1.0 + s1)
        x = x + (h @ lw.wv) @ lw.wo
        dx = dx + (dh @ lw.wv) @ lw.wo
        y2, dy2 = _ln_jvp(x, dx)
        h2, dh2 = y2 * (1.0 + s2) + b2, dy2 * (1.0 + s2)
        z, dz = h2 @ lw.w1, dh2 @ lw.w1
        g, dg = _gelu_jvp(z, dz)
        x = x + g @ lw.w2
        dx = dx + dg @ lw.w2
    y, dy = _ln_jvp(x, dx)
    return (dy @ weights.head_w).sum()


def test_directional_derivative_matches_pinned_linearization(tiny_weights, tiny_glyph, rng):
    cfg = tiny_weights.cfg
    pin = 1000.0

    def override(step, layer, head, block):
        out = np.full_like(block, -pin)
        np.fill_diagonal(out, pin)
        return out

    tokens = make_tokens(tiny_weights, "A text A logo", tiny_glyph.pixels)
    t = 0.5
    vel, _ = forward(tiny_weights, tokens, t, AttentionHook(override=override))

    # the reduced image-only chain reproduces the pinned forward exactly
    assert abs(vel.sum() - _pinned_probe(tiny_weights, tokens.image, t)) < 1e-9

    direction = rng.standard_normal(tokens.image.shape)
    direction /= np.linalg.norm(direction)
    analytic = _pinned_probe_jvp(tiny_weights, tokens.image, direction, t)
    assert abs(analytic) > 1e-4  # non-vacuous

    eps = 1e-6
    plus = TokenSequence(text=tokens.text, image=tokens.image + eps * direction)
    minus = TokenSequence(text=tokens.text, image=tokens.image - eps * direction)
    lp = forward(tiny_weights, plus, t, AttentionHook(override=override))[0].sum()
    lm = forward(tiny_weights, minus, t, AttentionHook(override=override))[0].sum()
    fd = (lp - lm) / (2.0 * eps)

    assert abs(fd - analytic) / max(abs(analytic), 1e-6) < 1e-4
