import glob
import hashlib
import os
import select
import signal
import sys
import threading
import tracemalloc

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
from glyphflow import model, tensorio
from glyphflow.model import TEXT_TABLE_ROWS, _gelu, _softmax_rows
from tests.conftest import force_threads


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


@pytest.mark.parametrize("override", [None, lambda step, layer, head, block: block * 0.5])
def test_capture_forward_without_velocity_stops_after_the_last_sink(
    tiny_weights, tiny_glyph, override
):
    """A hook that wants no velocity ends the pass at the last layer's sink
    and captures: the sink and the full-map captures get a full forward's
    bytes, and the velocity is None."""
    tokens = make_tokens(tiny_weights, "A", tiny_glyph.pixels)

    def run(velocity):
        sunk = []

        def sink(step, layer, logits, probs):
            sunk.append((step, layer, logits.tobytes(), probs.tobytes()))

        hook = AttentionHook(
            store_logits=True, store_probs=True, override=override, step=2, sink=sink,
            velocity=velocity,
        )
        vel, caps = forward(tiny_weights, tokens, 0.5, hook)
        maps = {layer: (att.logits.tobytes(), att.probs.tobytes()) for layer, att in caps.items()}
        return vel, sunk, maps

    full_vel, full_sunk, full_maps = run(True)
    vel, sunk, maps = run(False)
    assert full_vel.shape == (tiny_weights.cfg.n_img, tiny_weights.cfg.patch_dim)
    assert vel is None
    assert [layer for _, layer, _, _ in sunk] == list(range(tiny_weights.cfg.n_layers))
    assert sunk == full_sunk
    assert maps == full_maps


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
# threads and the OpenBLAS limit
# ------------------------------------------------------------------

# four heads: more than the worker pool has threads
FOUR_HEADS = ModelConfig(d_model=16, n_heads=4, n_layers=2, patch=4, grid=4, t_txt=4, seed=0)


def _halve_copy(step, layer, head, block):
    return block * 0.5


def _halve_in_place(step, layer, head, block):
    block *= 0.5
    return block


# hook kind -> AttentionHook arguments; "sink" adds a sink that copies its blocks
HOOK_KINDS = {
    "plain": {},
    "capture": dict(store_logits=True, store_probs=True),
    "override_copy": dict(store_logits=True, store_probs=True, override=_halve_copy),
    "override_in_place": dict(store_logits=True, store_probs=True, override=_halve_in_place),
    "sink": dict(sink=True),
    "no_velocity": dict(store_logits=True, store_probs=True, sink=True, velocity=False),
}


def _observed(weights, tokens, kind):
    """Everything a caller sees of one forward: velocity, full maps, sink bytes."""
    kwargs = dict(HOOK_KINDS[kind], step=1)
    sunk = []
    if kwargs.pop("sink", False):
        kwargs["sink"] = lambda step, layer, logits, probs: sunk.append(
            (step, layer, logits.tobytes(), probs.tobytes())
        )
    vel, caps = forward(weights, tokens, 0.5, AttentionHook(**kwargs))
    maps = [(layer, caps[layer].logits.tobytes(), caps[layer].probs.tobytes()) for layer in caps]
    return None if vel is None else vel.tobytes(), maps, sunk


@pytest.fixture(scope="module")
def four_heads():
    weights = init_model(FOUR_HEADS)
    glyph = np.zeros((FOUR_HEADS.canvas, FOUR_HEADS.canvas))
    glyph[4:12, 6:9] = 1.0
    return weights, make_tokens(weights, "A b", glyph)


def test_hooks_run_on_the_calling_thread(monkeypatch, four_heads):
    """Even with four pool threads, a single forward runs the override, the
    sink and every layer's softmax on the caller's thread."""
    weights, tokens = four_heads
    force_threads(monkeypatch, FOUR_HEADS.n_heads)
    hook_threads, softmax_threads = set(), set()
    attend = model._softmax_rows

    def recording_softmax(logits, out):
        softmax_threads.add(threading.get_ident())
        return attend(logits, out)

    monkeypatch.setattr(model, "_softmax_rows", recording_softmax)

    def override(step, layer, head, block):
        hook_threads.add(threading.get_ident())
        return block

    def sink(step, layer, logits, probs):
        hook_threads.add(threading.get_ident())

    forward(weights, tokens, 0.5, AttentionHook(override=override, sink=sink))
    assert hook_threads == softmax_threads == {threading.get_ident()}


def test_a_single_forward_never_uses_the_pool(monkeypatch, four_heads):
    """Even with four pool threads, no single forward asks for the worker
    pool, whatever its hook; a pair does."""
    weights, tokens = four_heads
    force_threads(monkeypatch, FOUR_HEADS.n_heads)
    calls, forced = [], model.worker_pool
    monkeypatch.setattr(model, "worker_pool", lambda: calls.append(1) or forced())
    for kind in HOOK_KINDS:
        _observed(weights, tokens, kind)
    assert calls == []
    forward(weights, _pair(weights, tokens), 0.5)
    assert calls


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_runs_forward_on_its_own_pool(four_heads):
    """The parent's pool threads do not exist in a forked child; its forward
    makes a new pool and gives the parent's bytes."""
    weights, tokens = four_heads
    want = hashlib.sha256(repr(_observed(weights, tokens, "capture")).encode()).hexdigest()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: report its digest, then exit
        try:
            os.close(read_end)
            got = _observed(weights, tokens, "capture")
            os.write(write_end, hashlib.sha256(repr(got).encode()).hexdigest().encode())
        finally:
            os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as fh:
        ready, _, _ = select.select([fh], [], [], 60)
        if not ready:  # a child stuck on the parent's dead threads
            os.kill(pid, signal.SIGKILL)
        reply = fh.read().decode() if ready else "timed out"
    _, status = os.waitpid(pid, 0)
    assert status == 0
    assert reply == want


def test_blas_limit_is_one_inside_and_restored_after(four_heads):
    weights, tokens = four_heads
    setter = model._blas_setter()
    if setter is None:
        pytest.skip("numpy's OpenBLAS exports no openblas_set_num_threads_local")
    inside = []

    def sink(step, layer, logits, probs):
        inside.append(setter(1))  # the setter returns the count it replaces

    original = setter(3)
    try:
        forward(weights, tokens, 0.5, AttentionHook(sink=sink))
        assert setter(3) == 3
        embed_patches(weights, np.zeros((FOUR_HEADS.n_img, FOUR_HEADS.patch_dim)))
        assert setter(3) == 3
        with pytest.raises(NonFiniteActivation, match="non-finite attention logits at layer 0"):
            forward(weights, tokens, 0.5, AttentionHook(override=lambda s, l, h, b: b * np.inf))
        assert setter(3) == 3
    finally:
        setter(original)
    assert inside == [1] * FOUR_HEADS.n_layers


def _no_blas_symbol(monkeypatch):
    """Make the lookup find no OpenBLAS and the pool refuse any use; the
    caller clears `_blas_setter`'s cache once done."""
    model._blas_setter.cache_clear()
    monkeypatch.setattr(glob, "glob", lambda pattern: [])

    def no_pool():
        raise AssertionError("forward used the worker pool")

    monkeypatch.setattr(model, "worker_pool", no_pool)
    assert model._blas_setter() is None


def test_no_blas_symbol_changes_no_byte(monkeypatch, four_heads):
    """Where the lookup finds no OpenBLAS, forward never touches the pool and
    gives the same bytes and errors."""
    weights, tokens = four_heads
    want = {kind: _observed(weights, tokens, kind) for kind in HOOK_KINDS}
    try:
        _no_blas_symbol(monkeypatch)
        for kind in HOOK_KINDS:
            assert _observed(weights, tokens, kind) == want[kind], kind
        with pytest.raises(NonFiniteActivation, match="non-finite attention logits at layer 0"):
            forward(weights, tokens, 0.5, AttentionHook(override=lambda s, l, h, b: b * np.inf))
    finally:
        model._blas_setter.cache_clear()


def test_overlapping_holds_restore_the_count_the_first_replaced(monkeypatch):
    """With one count for the whole process, as numpy's pthreads OpenBLAS
    has, two holds that end in the order they began (A in, B in, A out, B
    out) leave the count it had before A, not the 1 that B replaced."""
    count = [2]

    def process_setter(threads):
        previous, count[0] = count[0], threads
        return previous

    monkeypatch.setattr(model, "_blas_setter", lambda: process_setter)
    first, second = model._one_blas_thread(), model._one_blas_thread()
    first.__enter__()
    second.__enter__()
    assert count == [1]
    first.__exit__(None, None, None)
    second.__exit__(None, None, None)
    assert count == [2]


def test_plain_forward_computes_its_probs_over_its_logits(four_heads):
    """With no sink and no `store_logits`, softmax overwrites the logits in
    their one map; a no-op sink sends the forward down the two-map path, and
    every byte it returns is the same."""
    weights, tokens = four_heads
    for kind in ("plain", "override_copy", "capture"):
        kwargs = dict(HOOK_KINDS[kind], store_logits=False)
        vel, caps = forward(weights, tokens, 0.5, AttentionHook(**kwargs))
        vel_sunk, caps_sunk = forward(weights, tokens, 0.5, AttentionHook(**kwargs, sink=lambda *args: None))
        assert vel.tobytes() == vel_sunk.tobytes(), kind
        assert [caps[layer].probs.tobytes() for layer in caps] == [
            caps_sunk[layer].probs.tobytes() for layer in caps_sunk
        ], kind


def test_plain_forward_allocates_one_map_fewer():
    """tracemalloc peak of a default plain forward: below a no-op-sink
    forward's by at least 0.9 of one (heads, T, T) map."""
    cfg = ModelConfig()
    weights = init_model(cfg)
    tokens = make_tokens(weights, "A", np.zeros((cfg.canvas, cfg.canvas)))

    def peak(hook):
        forward(weights, tokens, 0.5, hook)  # first-call allocations
        tracemalloc.start()
        try:
            forward(weights, tokens, 0.5, hook)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one_map = cfg.n_heads * cfg.seq_len * cfg.seq_len * 8
    assert peak(AttentionHook(sink=lambda *args: None)) - peak(None) > 0.9 * one_map


# ------------------------------------------------------------------
# CFG pairs: two sequences in one forward call
# ------------------------------------------------------------------

# the hook kinds a pair may take: any without a sink
PAIR_KINDS = {kind: kwargs for kind, kwargs in HOOK_KINDS.items() if "sink" not in kwargs}
PAIR_KINDS["no_velocity"] = dict(store_probs=True, velocity=False)
PAIR_KINDS["probs_only"] = dict(store_probs=True, override=_halve_copy)


def _pair(weights, tokens):
    """An unconditional and a conditional sequence over the same image tokens."""
    return TokenSequence(text=embed_prompt("", weights), image=tokens.image), tokens


def _branch_bytes(vel, caps):
    maps = [
        (layer, *(None if arr is None else arr.tobytes() for arr in (caps[layer].logits, caps[layer].probs)))
        for layer in sorted(caps)
    ]
    return None if vel is None else vel.tobytes(), maps


def _pair_observed(weights, pair, hook):
    """A pair forward's velocity and maps per branch, as bytes."""
    velocities, caps = forward(weights, pair, 0.5, hook)
    assert len(velocities) == 2
    for att in caps.values():
        assert all(arr is None or arr.shape[0] == 2 for arr in (att.logits, att.probs))
    return [
        _branch_bytes(vel, {layer: att.branch(b) for layer, att in caps.items()})
        for b, vel in enumerate(velocities)
    ]


@pytest.mark.parametrize("path", ["concurrent", "one_pool_thread", "no_blas_symbol"])
@pytest.mark.parametrize("kind", sorted(PAIR_KINDS))
def test_pair_gives_the_bytes_of_two_single_forwards(monkeypatch, four_heads, kind, path):
    weights, tokens = four_heads
    pair = _pair(weights, tokens)
    want = [
        _branch_bytes(*forward(weights, seq, 0.5, AttentionHook(**PAIR_KINDS[kind], step=1)))
        for seq in pair
    ]
    assert want[0] != want[1]
    if path != "no_blas_symbol":
        force_threads(monkeypatch, 2 if path == "concurrent" else 1)
        assert _pair_observed(weights, pair, AttentionHook(**PAIR_KINDS[kind], step=1)) == want
        return
    try:
        _no_blas_symbol(monkeypatch)
        assert _pair_observed(weights, pair, AttentionHook(**PAIR_KINDS[kind], step=1)) == want
    finally:
        model._blas_setter.cache_clear()


@pytest.mark.parametrize("threads", [2, 1])
def test_pair_runs_branch_1_on_a_worker_thread(monkeypatch, four_heads, threads):
    """With two pool threads the caller runs branch 0 and a pool thread runs
    branch 1, override included; with one, the caller runs both in order."""
    weights, tokens = four_heads
    pair = _pair(weights, tokens)
    force_threads(monkeypatch, threads)
    ran, override_threads = [], set()
    real_pass = model._pass

    def recording_pass(weights, seq, *args):
        ran.append((next(b for b, s in enumerate(pair) if s is seq), threading.current_thread()))
        return real_pass(weights, seq, *args)

    def override(step, layer, head, block):
        override_threads.add(threading.current_thread())
        return block

    monkeypatch.setattr(model, "_pass", recording_pass)
    forward(weights, pair, 0.5, AttentionHook(override=override))
    here = threading.current_thread()
    if threads == 1:
        assert ran == [(0, here), (1, here)] and override_threads == {here}
    else:
        worker = dict(ran)[1]
        assert dict(ran)[0] is here and worker.name.startswith("glyphflow-worker")
        assert override_threads == {here, worker}


def test_every_group_holds_its_own_thread_to_one_blas_thread(monkeypatch, four_heads):
    """With a per-thread limit (as OpenBLAS builds with OpenMP have), each
    thread that runs part of a forward holds its BLAS calls to one thread
    and gets its count back: a pair's branch 1 on its pool thread, as branch
    0 on the caller."""
    weights, tokens = four_heads
    force_threads(monkeypatch, 2)
    counts, seen = {}, []

    def per_thread_setter(count):
        previous = counts.get(threading.get_ident(), 2)
        counts[threading.get_ident()] = count
        return previous

    monkeypatch.setattr(model, "_blas_setter", lambda: per_thread_setter)
    attend = model._softmax_rows

    def recording_softmax(logits, out):
        seen.append((threading.get_ident(), counts.get(threading.get_ident(), 2)))
        return attend(logits, out)

    monkeypatch.setattr(model, "_softmax_rows", recording_softmax)
    forward(weights, _pair(weights, tokens), 0.5)
    assert len({thread for thread, _ in seen}) == 2
    assert {count for _, count in seen} == {1}
    assert set(counts.values()) == {2}


def test_invalid_pair_raises_before_any_work(monkeypatch, four_heads):
    weights, tokens = four_heads
    setter_calls = []
    monkeypatch.setattr(model, "_blas_setter", lambda: setter_calls.append)
    monkeypatch.setattr(model, "_layernorm", lambda x: pytest.fail("forward ran a layer"))
    pair = _pair(weights, tokens)
    invalid = [
        ((tokens,) * 3, 0.5, None),
        (pair, (0.5, 0.25, 0.125), None),
        (pair, (0.5,), None),
        (tokens, (0.5, 0.25), None),
        (pair, (0.5, 0.25), AttentionHook(step=(1, 2, 3))),
        (tokens, 0.5, AttentionHook(step=(1, 2))),
    ]
    for args in invalid:
        with pytest.raises(ConfigError, match="two token sequences"):
            forward(weights, *args)
    with pytest.raises(ConfigError, match=r"timestep \(0.5, 1.5\) outside"):
        forward(weights, pair, (0.5, 1.5))
    assert setter_calls == []


# ------------------------------------------------------------------
# capture pairs: two steps, each with its own t and hook step, one sink
# ------------------------------------------------------------------


class _Recorder:
    """A sink that records (step, layer, logits bytes or None, probs bytes)
    and the thread of each call; `reads_logits` as given."""

    def __init__(self, reads_logits=True):
        self.reads_logits, self.calls, self.threads = reads_logits, [], set()

    def __call__(self, step, layer, logits, probs):
        self.threads.add(threading.current_thread())
        self.calls.append((step, layer, None if logits is None else logits.tobytes(), probs.tobytes()))


def _capture_pair(weights, tokens):
    """Two reconstruction-like sequences: the same text, two images."""
    other = TokenSequence(text=tokens.text, image=tokens.image[::-1].copy())
    return (tokens, other), (0.75, 0.5), (3, 4)


CAPTURE_KINDS = {
    "sink": {},
    "no_velocity": dict(velocity=False),
    "override": dict(override=_halve_copy),
    "probe_maps": dict(store_logits=True, store_probs=True, velocity=False),
}


@pytest.mark.parametrize("reads_logits", [True, False])
@pytest.mark.parametrize("threads", [2, 1])
@pytest.mark.parametrize("kind", sorted(CAPTURE_KINDS))
def test_capture_pair_sinks_what_single_forwards_sink(
    monkeypatch, four_heads, kind, threads, reads_logits
):
    """A capture pair feeds its one sink, on the calling thread, the same
    (step, layer, logits, probs) per step as two single forwards do, and
    returns their velocities and maps. Per layer the sink gets branch 0's
    step, then branch 1's; with one thread, step by step. A sink that reads
    no logits gets None for them."""
    weights, tokens = four_heads
    seqs, times, steps = _capture_pair(weights, tokens)
    kwargs = CAPTURE_KINDS[kind]
    singles, want = [], []
    for seq, t, step in zip(seqs, times, steps):
        sink = _Recorder(reads_logits)
        singles.append(_branch_bytes(*forward(weights, seq, t, AttentionHook(**kwargs, step=step, sink=sink))))
        want.append(sink.calls)
    force_threads(monkeypatch, threads)
    sink = _Recorder(reads_logits)
    velocities, caps = forward(weights, seqs, times, AttentionHook(**kwargs, step=steps, sink=sink))
    got = [
        _branch_bytes(vel, {layer: att.branch(b) for layer, att in caps.items()})
        for b, vel in enumerate(velocities)
    ]
    assert got == singles
    assert sink.threads == {threading.current_thread()}
    layers = FOUR_HEADS.n_layers
    if threads == 2:
        assert sink.calls == [want[b][layer] for layer in range(layers) for b in range(2)]
    else:
        assert sink.calls == want[0] + want[1]
    logits_read = reads_logits or kwargs.get("store_logits", False)
    assert all((logits is None) != logits_read for _, _, logits, _ in sink.calls)


def test_a_sink_that_reads_no_logits_keeps_one_map():
    """tracemalloc peak of a default forward whose sink reads no logits: the
    same as a plain forward's to within a tenth of one (heads, T, T) map."""
    cfg = ModelConfig()
    weights = init_model(cfg)
    tokens = make_tokens(weights, "A", np.zeros((cfg.canvas, cfg.canvas)))

    def peak(hook):
        forward(weights, tokens, 0.5, hook)  # first-call allocations
        tracemalloc.start()
        try:
            forward(weights, tokens, 0.5, hook)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    class LogitFree:
        reads_logits = False

        def __call__(self, step, layer, logits, probs):
            assert logits is None

    one_map = cfg.n_heads * cfg.seq_len * cfg.seq_len * 8
    assert abs(peak(AttentionHook(sink=LogitFree())) - peak(None)) < 0.1 * one_map


def _within(seconds, fn):
    """fn() in a thread joined with a deadline: its result, or its error
    raised here. A call still running then fails the test, and the worker
    pool, which it may have left blocked, is dropped so that later tests get
    a new one; the exit that joins the blocked pool ends at conftest's
    watchdog."""
    out = {}

    def target():
        try:
            out["value"] = fn()
        except BaseException as exc:  # handed to the test thread, which raises it
            out["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout=seconds)
    if thread.is_alive():
        tensorio._POOL = None
        pytest.fail(f"still running after {seconds} s")
    if "error" in out:
        raise out["error"]
    return out["value"]


def _pool_is_free():
    """Every pool thread takes a task at once: none is left blocked."""
    pool, workers = tensorio.worker_pool()
    barrier = threading.Barrier(workers)
    futures = [pool.submit(barrier.wait) for _ in range(workers)]
    _within(60, lambda: [future.result() for future in futures])


@pytest.mark.parametrize("via", ["override", "sink"])
@pytest.mark.parametrize("threads", [2, 1])
def test_forwards_nested_three_deep_finish(monkeypatch, four_heads, threads, via):
    """A pair forward whose hook runs a pair forward whose hook runs a third
    one: through the override (each branch nests, branch 1 on a pool thread)
    or through the sink (on the caller, while branch 1 waits on it). Every
    forward gives its unnested bytes."""
    weights, tokens = four_heads
    seqs, _, steps = _capture_pair(weights, tokens)
    force_threads(monkeypatch, threads)
    want = _pair_observed(weights, seqs, AttentionHook())
    seen = []

    def hook(depth):
        def nest(*args):
            if args[1] == 0 and depth > 1:  # layer 0
                seen.append(_pair_observed(weights, seqs, hook(depth - 1)))
            return args[-1]

        if via == "override":
            return AttentionHook(override=nest, step=1)
        return AttentionHook(sink=nest, step=steps)

    assert _within(60, lambda: _pair_observed(weights, seqs, hook(3))) == want
    assert seen and all(got == want for got in seen)
    _pool_is_free()


@pytest.mark.parametrize("threads", [2, 1])
def test_a_failing_capture_pair_raises_the_first_error_and_frees_the_pool(
    monkeypatch, four_heads, threads
):
    """A non-finite logit in branch 1 mid-pass, the sink raising on branch 0's
    layer, or both: the pair raises the first error in branch order, and the
    next pair runs and gives its bytes, so no pool thread is left waiting."""
    weights, tokens = four_heads
    seqs, times, steps = _capture_pair(weights, tokens)
    force_threads(monkeypatch, threads)

    def run(poison_step=None, failing_step=None):
        sink = _Recorder()

        def override(step, layer, head, block):
            return block * np.inf if (step, layer) == (poison_step, 1) else block

        def failing(step, layer, logits, probs):
            if (step, layer) == (failing_step, 1):
                raise ValueError(f"sink failed at step {step}")
            sink(step, layer, logits, probs)

        hook = AttentionHook(override=override, step=steps, sink=failing)
        forward(weights, seqs, times, hook)
        return sink.calls

    want = _within(60, run)
    cases = [
        (dict(poison_step=steps[1]), NonFiniteActivation, "^non-finite attention logits at layer 1$"),
        (dict(failing_step=steps[0]), ValueError, f"at step {steps[0]}"),
        (dict(failing_step=steps[1]), ValueError, f"at step {steps[1]}"),
        (dict(poison_step=steps[1], failing_step=steps[0]), ValueError, f"at step {steps[0]}"),
    ]
    for case, error, match in cases:
        with pytest.raises(error, match=match):
            _within(60, lambda: run(**case))
        assert _within(60, run) == want, case
        _pool_is_free()


SWITCH_ROUNDS = 300


def test_pairs_give_the_serial_bytes_under_a_tiny_switch_interval(monkeypatch, four_heads):
    """CFG pairs with an override and capture pairs with a relayed sink, run
    while the interpreter switches threads every microsecond, give the bytes
    of the serial path in every round; the sink gets the same calls, layer
    by layer instead of step by step."""
    weights, tokens = four_heads
    cfg_pair = _pair(weights, tokens)
    seqs, times, steps = _capture_pair(weights, tokens)

    def both():
        cfg_hook = AttentionHook(store_logits=True, store_probs=True, override=_halve_in_place, step=1)
        sink = _Recorder()
        velocities, _ = forward(weights, seqs, times, AttentionHook(override=_halve_copy, step=steps, sink=sink))
        return _pair_observed(weights, cfg_pair, cfg_hook), [v.tobytes() for v in velocities], sink.calls

    force_threads(monkeypatch, 1)
    cfg_want, velocities_want, calls = both()
    want = (cfg_want, velocities_want, sorted(calls, key=lambda call: (call[1], steps.index(call[0]))))
    force_threads(monkeypatch, 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(SWITCH_ROUNDS):
            assert _within(60, both) == want, round_
    finally:
        sys.setswitchinterval(interval)


def test_overlapping_pairs_one_failing_restore_the_count_the_first_hold_replaced(
    monkeypatch, four_heads
):
    """Two threads run pair forwards at once, with one count for the whole
    process as numpy's pthreads OpenBLAS has; one pair's branch 1 hits a
    non-finite logit mid-pass. Afterwards no hold is open and the count is
    the one the first hold replaced."""
    weights, tokens = four_heads
    pair = _pair(weights, tokens)
    force_threads(monkeypatch, 2)
    count = [3]

    def process_setter(threads):
        previous, count[0] = count[0], threads
        return previous

    monkeypatch.setattr(model, "_blas_setter", lambda: process_setter)
    both_running = threading.Barrier(2)
    errors = {}

    def call(steps, poison_step):
        def override(step, layer, head, block):
            if (step, layer, head) == (steps[0], 0, 0):  # each caller's branch 0, once
                both_running.wait(30)
            return block * np.inf if (step, layer) == (poison_step, 1) else block

        try:
            forward(weights, pair, 0.5, AttentionHook(override=override, step=steps))
        except NonFiniteActivation as exc:
            errors[steps] = str(exc)

    def run():
        other = threading.Thread(target=call, args=((3, 4), 4))
        other.start()
        call((1, 2), None)
        other.join()

    _within(60, run)
    assert errors == {(3, 4): "non-finite attention logits at layer 1"}
    assert model._HOLDS[0] == 0
    assert count == [3]


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
