import dataclasses
import math

import numpy as np
import pytest

from glyphflow import (
    AttentionTrace,
    ConfigError,
    CoreTokenSet,
    CumulativeScore,
    EmptyTrace,
    FewerThanTwoLayers,
    IndexOutOfRange,
    ModeMismatch,
    ScoreMode,
    ScoreVector,
    SelectionSource,
    ShapeMismatch,
    TraceMismatch,
    ZeroRowMass,
    apply_injection,
    attention_shift,
    build_injection,
    cumulative_update,
    save_scores,
    select_core_tokens,
    token_scores,
    variance_scores,
)
from glyphflow import coreattn, metrics
from glyphflow.tensorio import read_tensors


def make_trace(layer_scores, steps=1):
    """Trace whose layer-l row-mass score vector equals layer_scores[l], every step."""
    n_layers = len(layer_scores)
    n = len(layer_scores[0])
    probs = np.zeros((steps, n_layers, 1, n, n))
    for layer, sc in enumerate(layer_scores):
        for j, s in enumerate(sc):
            probs[:, layer, 0, j, :] = s / n
    logits = np.where(probs > 0.0, np.log(np.maximum(probs, 1e-300)), -1e9)
    return AttentionTrace(
        steps=steps,
        n_layers=n_layers,
        n_heads=1,
        n_img=n,
        t_values=tuple(1.0 - i / max(steps, 1) for i in range(steps)),
        logits=logits,
        probs=probs,
    )


def make_set(indices, n_img, ratio=None):
    if ratio is None:
        ratio = len(indices) / n_img
    return CoreTokenSet(
        indices=tuple(indices),
        ratio=ratio,
        n_img=n_img,
        source=SelectionSource(step=1, layer=0, mode=ScoreMode.ROW_MASS, averaged=False),
    )


# ---------------------------------------------------------------- scoring


def test_score_vector_validation():
    with pytest.raises(ShapeMismatch):
        ScoreVector(scores=np.zeros((2, 2)), layer=0, step=1, mode=ScoreMode.ROW_MASS)
    with pytest.raises(ConfigError):
        ScoreVector(scores=np.array([0.1, -0.2]), layer=0, step=1, mode=ScoreMode.ROW_MASS)
    with pytest.raises(ConfigError):
        ScoreVector(scores=np.array([np.nan]), layer=0, step=1, mode=ScoreMode.ROW_MASS)


def test_token_scores_hand_case():
    i2i = np.array([[0.6, 0.2], [0.1, 0.5]])
    assert np.allclose(token_scores(i2i, ScoreMode.ROW_MASS).scores, [0.8, 0.6])
    assert np.allclose(token_scores(i2i, ScoreMode.ROW_MAX).scores, [0.6, 0.5])
    assert np.allclose(token_scores(i2i, ScoreMode.COLUMN_MASS).scores, [0.35, 0.35])


def test_token_scores_identity_map():
    eye = np.eye(3)
    assert np.allclose(token_scores(eye, ScoreMode.ROW_MASS).scores, [1, 1, 1])
    assert np.allclose(token_scores(eye, ScoreMode.ROW_MAX).scores, [1, 1, 1])
    assert np.allclose(token_scores(eye, ScoreMode.COLUMN_MASS).scores, [1 / 3, 1 / 3, 1 / 3])


def test_token_scores_head_average():
    h0 = np.array([[0.6, 0.2], [0.1, 0.5]])
    h1 = np.array([[0.2, 0.2], [0.3, 0.3]])
    s = token_scores(np.stack([h0, h1]), ScoreMode.ROW_MASS, layer=3, step=2)
    assert np.allclose(s.scores, [0.6, 0.6])
    assert (s.layer, s.step, s.mode) == (3, 2, ScoreMode.ROW_MASS)


def test_token_scores_rejects_variance_mode():
    with pytest.raises(ModeMismatch):
        token_scores(np.eye(2), ScoreMode.LAYER_VARIANCE)
    with pytest.raises(ShapeMismatch):
        token_scores(np.zeros((2, 3)))


def test_variance_scores_hand_cases():
    mk = lambda v, layer: ScoreVector(
        scores=np.asarray(v, float), layer=layer, step=1, mode=ScoreMode.ROW_MASS
    )
    same = variance_scores([mk([0.3, 0.7], 0), mk([0.3, 0.7], 1)])
    assert np.array_equal(same.scores, [0.0, 0.0])
    assert same.mode == ScoreMode.LAYER_VARIANCE
    spread = variance_scores([mk([0.0, 1.0], 0), mk([2.0, 1.0], 1)])
    assert np.allclose(spread.scores, [1.0, 0.0])
    three = variance_scores([mk([1.0], 0), mk([2.0], 1), mk([3.0], 2)])
    assert np.allclose(three.scores, [2.0 / 3.0])
    with pytest.raises(FewerThanTwoLayers):
        variance_scores([mk([1.0], 0)])
    with pytest.raises(ShapeMismatch):
        variance_scores([mk([1.0], 0), mk([1.0, 2.0], 1)])
    mixed = ScoreVector(scores=np.array([1.0]), layer=1, step=1, mode=ScoreMode.ROW_MAX)
    with pytest.raises(ModeMismatch):
        variance_scores([mk([1.0], 0), mixed])


# ---------------------------------------------------------------- averaging


def test_cumulative_update_hand_case():
    state = CumulativeScore.empty(2, ScoreMode.ROW_MASS)
    s1 = ScoreVector(scores=np.array([1.0, 3.0]), layer=0, step=1, mode=ScoreMode.ROW_MASS)
    s2 = ScoreVector(scores=np.array([3.0, 1.0]), layer=1, step=1, mode=ScoreMode.ROW_MASS)
    state1 = cumulative_update(state, s1)
    assert np.array_equal(state1.mean, [1.0, 3.0])
    assert state1.layers_absorbed == 1
    state2 = cumulative_update(state1, s2)
    assert np.array_equal(state2.mean, [2.0, 2.0])
    assert state2.layers_absorbed == 2
    # purity
    assert state.layers_absorbed == 0 and np.array_equal(state.mean, [0.0, 0.0])
    assert np.array_equal(state1.mean, [1.0, 3.0])


def test_cumulative_matches_batch_mean(rng):
    for _ in range(25):
        j = int(rng.integers(1, 13))
        n = int(rng.integers(1, 40))
        vectors = rng.random((j, n))
        state = CumulativeScore.empty(n, ScoreMode.ROW_MASS)
        for layer in range(j):
            state = cumulative_update(
                state,
                ScoreVector(scores=vectors[layer], layer=layer, step=1, mode=ScoreMode.ROW_MASS),
            )
        assert np.abs(state.mean - vectors.mean(axis=0)).max() < 1e-9


def test_cumulative_update_mismatches():
    state = CumulativeScore.empty(2, ScoreMode.ROW_MASS)
    wrong_mode = ScoreVector(scores=np.zeros(2), layer=0, step=1, mode=ScoreMode.ROW_MAX)
    with pytest.raises(ModeMismatch):
        cumulative_update(state, wrong_mode)
    wrong_len = ScoreVector(scores=np.zeros(3), layer=0, step=1, mode=ScoreMode.ROW_MASS)
    with pytest.raises(ShapeMismatch):
        cumulative_update(state, wrong_len)


# ---------------------------------------------------------------- selection


def sv(values):
    return ScoreVector(scores=np.asarray(values, float), layer=0, step=1, mode=ScoreMode.ROW_MASS)


def test_select_hand_cases():
    assert select_core_tokens(sv([0.1, 0.4, 0.4, 0.2]), 0.5).indices == (1, 2)
    assert select_core_tokens(sv([5.0, 1.0, 9.0]), 1.0).indices == (0, 1, 2)
    # ceil: 0.25 of 10 -> 3
    chosen = select_core_tokens(sv(np.arange(10)[::-1].astype(float)), 0.25)
    assert chosen.indices == (0, 1, 2)
    # all-equal scores: ties keep lowest indices
    assert select_core_tokens(sv([2.0] * 6), 0.5).indices == (0, 1, 2)
    assert select_core_tokens(sv(np.ones(256)), 0.125).indices == tuple(range(32))


def test_select_ratio_bounds():
    with pytest.raises(ConfigError):
        select_core_tokens(sv([1.0]), 0.0)
    with pytest.raises(ConfigError):
        select_core_tokens(sv([1.0]), 1.5)


def test_select_records_source():
    s = ScoreVector(scores=np.array([1.0, 2.0]), layer=4, step=7, mode=ScoreMode.ROW_MAX)
    core = select_core_tokens(s, 0.5, averaged=True)
    assert core.source == SelectionSource(step=7, layer=4, mode=ScoreMode.ROW_MAX, averaged=True)
    assert core.n_img == 2 and core.ratio == 0.5


def test_select_matches_stable_sort_oracle(rng):
    for _ in range(200):
        n = int(rng.integers(1, 64))
        # quantize to force ties
        scores = np.round(rng.random(n), 1)
        ratio = float(rng.choice([0.125, 0.25, 0.5, 0.75, 1.0]))
        k = math.ceil(ratio * n)
        oracle = sorted(sorted(range(n), key=lambda i: (-scores[i], i))[:k])
        assert list(select_core_tokens(sv(scores), ratio).indices) == oracle


def test_select_affine_invariance(rng):
    scores = rng.random(40)
    base = select_core_tokens(sv(scores), 0.25).indices
    assert select_core_tokens(sv(3.0 * scores + 0.5), 0.25).indices == base


def test_select_permutation_equivariance(rng):
    scores = rng.permutation(30).astype(float)  # distinct values
    perm = rng.permutation(30)
    base = set(select_core_tokens(sv(scores), 0.3).indices)
    permuted = set(select_core_tokens(sv(scores[perm]), 0.3).indices)
    assert permuted == {j for j in range(30) if perm[j] in base}


def test_core_token_set_validation():
    src = SelectionSource(step=1, layer=0, mode=ScoreMode.ROW_MASS, averaged=False)
    with pytest.raises(ConfigError):
        CoreTokenSet(indices=(0,), ratio=0.5, n_img=4, source=src)       # needs 2
    with pytest.raises(ConfigError):
        CoreTokenSet(indices=(2, 1), ratio=0.5, n_img=4, source=src)     # not ascending
    with pytest.raises(ConfigError):
        CoreTokenSet(indices=(1, 1), ratio=0.5, n_img=4, source=src)     # duplicate
    with pytest.raises(IndexOutOfRange):
        CoreTokenSet(indices=(2, 4), ratio=0.5, n_img=4, source=src)
    with pytest.raises(ConfigError):
        CoreTokenSet(indices=(), ratio=1.5, n_img=4, source=src)
    empty = CoreTokenSet(indices=(), ratio=0.0, n_img=4, source=src)
    assert empty.rows().size == 0


# ---------------------------------------------------------------- plans


def test_build_injection_completeness_and_consistency():
    trace = make_trace([[0.9, 0.8, 0.1, 0.05], [0.7, 0.6, 0.2, 0.1]], steps=3)
    plan = build_injection(trace, ratio=0.5)
    assert set(plan.sets) == {(s, l) for s in (1, 2, 3) for l in (0, 1)}
    assert plan.cutoff_step == 3
    assert plan.trace is trace
    for (step, layer), core in plan.sets.items():
        assert core.indices == (0, 1)
        assert core.source.step == step and core.source.layer == layer
        assert core.source.averaged is True
    assert np.array_equal(plan.rows(2, 1), [0, 1])


def test_build_injection_layer_one_ignores_averaging():
    trace = make_trace([[0.1, 0.9], [0.9, 0.1]])
    with_avg = build_injection(trace, ratio=0.5, averaging=True)
    without = build_injection(trace, ratio=0.5, averaging=False)
    assert with_avg.sets[(1, 0)].indices == without.sets[(1, 0)].indices == (1,)


def test_spike_layer_case():
    # layers 0, 1, 3 favor tokens {0, 1}; layer 2 spikes onto the background
    quiet = [0.9, 0.8, 0.1, 0.05]
    spike = [0.1, 0.05, 0.9, 0.8]
    trace = make_trace([quiet, quiet, spike, quiet])

    per_layer = build_injection(trace, ratio=0.5, averaging=False)
    assert per_layer.sets[(1, 0)].indices == (0, 1)
    assert per_layer.sets[(1, 1)].indices == (0, 1)
    assert per_layer.sets[(1, 2)].indices == (2, 3)   # flips at the spike
    assert per_layer.sets[(1, 3)].indices == (0, 1)

    averaged = build_injection(trace, ratio=0.5, averaging=True)
    for layer in range(4):
        assert averaged.sets[(1, layer)].indices == (0, 1)


def test_build_injection_cutoff_and_ratio_zero():
    trace = make_trace([[0.5, 0.4], [0.3, 0.2]], steps=2)
    short = build_injection(trace, ratio=0.5, cutoff_step=1)
    assert set(short.sets) == {(1, 0), (1, 1)}
    empty = build_injection(trace, ratio=0.0)
    assert all(core.indices == () for core in empty.sets.values())
    with pytest.raises(TraceMismatch):
        build_injection(trace, ratio=0.5, cutoff_step=3)
    with pytest.raises(ConfigError):
        build_injection(trace, ratio=1.5)
    none = build_injection(trace, ratio=0.5, cutoff_step=0)
    assert none.sets == {}


def test_build_injection_empty_trace():
    trace = make_trace([[0.5, 0.4], [0.3, 0.2]], steps=1)
    empty = dataclasses.replace(
        trace,
        steps=0,
        t_values=(),
        logits=trace.logits[:0],
        probs=trace.probs[:0],
        _checksum=None,
    )
    with pytest.raises(EmptyTrace):
        build_injection(empty, ratio=0.5, cutoff_step=1)
    ok = build_injection(empty, ratio=0.5)  # cutoff defaults to trace.steps == 0
    assert ok.sets == {}


def test_variance_mode_selects_unstable_tokens():
    steady = [0.9, 0.8, 0.1, 0.05]
    wobble = [0.9, 0.8, 0.9, 0.8]
    trace = make_trace([steady, wobble, steady, wobble])
    plan = build_injection(trace, ratio=0.5, mode=ScoreMode.LAYER_VARIANCE)
    for layer in range(4):
        core = plan.sets[(1, layer)]
        assert core.indices == (2, 3)
        assert core.source.mode == ScoreMode.LAYER_VARIANCE
    # the averaging flag has no effect in variance mode
    other = build_injection(trace, ratio=0.5, mode=ScoreMode.LAYER_VARIANCE, averaging=False)
    assert {k: v.indices for k, v in plan.sets.items()} == {
        k: v.indices for k, v in other.sets.items()
    }


def test_variance_mode_needs_two_layers():
    trace = make_trace([[0.5, 0.4]])
    with pytest.raises(FewerThanTwoLayers):
        build_injection(trace, ratio=0.5, mode=ScoreMode.LAYER_VARIANCE)


# ---------------------------------------------------------------- application


def test_apply_injection_hand_case():
    gen = np.array([[1.0, 2.0], [3.0, 4.0]])
    src = np.array([[9.0, 8.0], [7.0, 6.0]])
    out = apply_injection(gen, src, make_set([0], 2))
    assert np.array_equal(out, [[9.0, 8.0], [3.0, 4.0]])
    assert np.array_equal(gen, [[1.0, 2.0], [3.0, 4.0]])  # input untouched
    assert np.array_equal(apply_injection(gen, src, make_set([], 2, ratio=0.0)), gen)
    assert np.array_equal(apply_injection(gen, src, make_set([0, 1], 2)), src)


def test_apply_injection_idempotent_and_commutative(rng):
    gen = rng.random((6, 6))
    src = rng.random((6, 6))
    a = make_set([1, 4], 6)
    b = make_set([0, 5], 6)
    once = apply_injection(gen, src, a)
    assert np.array_equal(apply_injection(once, src, a), once)
    ab = apply_injection(apply_injection(gen, src, a), src, b)
    ba = apply_injection(apply_injection(gen, src, b), src, a)
    assert np.array_equal(ab, ba)


def test_apply_injection_errors(rng):
    gen = rng.random((4, 4))
    with pytest.raises(ShapeMismatch):
        apply_injection(gen, rng.random((3, 3)), make_set([0], 4))
    with pytest.raises(ShapeMismatch):
        apply_injection(rng.random((2, 3)), rng.random((2, 3)), make_set([0], 4))
    with pytest.raises(IndexOutOfRange):
        apply_injection(rng.random((2, 2)), rng.random((2, 2)), make_set([1, 3], 4))


# ---------------------------------------------------------------- shift


def test_attention_shift_hand_cases():
    mask_frac = np.array([1.0, 0.0, 1.0, 0.0])  # off-mask at {1, 3}
    uniform = np.full((1, 4, 4), 0.25)
    core = make_set([0, 2], 4)
    assert np.allclose(attention_shift([uniform], mask_frac, core), [0.5])

    row = np.array([[0.4, 0.1, 0.4, 0.1]] * 4)[None]
    assert np.allclose(attention_shift([row], mask_frac, core), [0.2])
    # row normalization: scaling every row by 0.5 changes nothing
    assert np.allclose(attention_shift([row * 0.5], mask_frac, core), [0.2])

    assert np.allclose(attention_shift([uniform], np.ones(4), core), [0.0])
    assert np.allclose(attention_shift([uniform], np.zeros(4), core), [1.0])
    # two layers give two values
    out = attention_shift([uniform, row], mask_frac, core)
    assert np.allclose(out, [0.5, 0.2])


def test_attention_shift_threshold_is_strict():
    # a patch exactly at the threshold counts as on-mask
    mask_frac = np.array([0.5, 0.49])
    uniform = np.full((1, 2, 2), 0.5)
    core = make_set([0, 1], 2)
    assert np.allclose(attention_shift([uniform], mask_frac, core), [0.5])


def test_attention_shift_head_average():
    mask_frac = np.array([1.0, 0.0])
    h0 = np.array([[1.0, 0.0], [1.0, 0.0]])
    h1 = np.array([[0.0, 1.0], [0.0, 1.0]])
    core = make_set([0, 1], 2)
    out = attention_shift([np.stack([h0, h1])], mask_frac, core)
    assert np.allclose(out, [0.5])


def test_attention_shift_errors():
    core = make_set([0], 2)
    with pytest.raises(ZeroRowMass):
        attention_shift([np.zeros((1, 2, 2))], np.ones(2), core)
    with pytest.raises(ConfigError):
        attention_shift([np.full((1, 2, 2), 0.5)], np.ones(2), make_set([], 2, ratio=0.0))
    with pytest.raises(ShapeMismatch):
        attention_shift([np.full((1, 2, 2), 0.5)], np.ones(3), core)
    with pytest.raises(ShapeMismatch):
        attention_shift([np.full((1, 2, 2), 0.5)], np.ones((2, 2)), core)


def test_one_mask_threshold():
    assert coreattn.MASK_THRESHOLD is metrics.MASK_THRESHOLD


# ---------------------------------------------------------------- serialization


def test_save_scores(tmp_path):
    path = tmp_path / "scores.bin"
    vectors = [
        ScoreVector(scores=np.array([0.1, 0.2]), layer=0, step=1, mode=ScoreMode.ROW_MASS),
        ScoreVector(scores=np.array([0.3, 0.4]), layer=1, step=1, mode=ScoreMode.ROW_MASS),
    ]
    save_scores(path, vectors)
    tensors, meta = read_tensors(path)
    assert set(tensors) == {"scores.s01.l00", "scores.s01.l01"}
    assert np.array_equal(tensors["scores.s01.l01"], [0.3, 0.4])
    assert meta["scores.s01.l00.mode"] == "row_mass"
