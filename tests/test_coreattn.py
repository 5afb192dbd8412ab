import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from glyphflow import (
    AttentionTrace,
    ConfigError,
    CoreTokenSet,
    CumulativeScore,
    EmptyTrace,
    FewerThanTwoLayers,
    IndexOutOfRange,
    InjectionPlan,
    ModeMismatch,
    SamplerConfig,
    ScoreMode,
    ScoreVector,
    SelectionSource,
    ShapeMismatch,
    TraceMismatch,
    ZeroRowMass,
    apply_injection,
    build_injection,
    glyph_mask_patches,
    cumulative_update,
    reconstruct_capture,
    save_scores,
    select_core_tokens,
    token_scores,
    variance_scores,
)
from glyphflow.coreattn import ScoreReducer, StepScorer
from glyphflow.metrics import row_fraction
from glyphflow.tensorio import read_tensors
from tests.conftest import force_threads


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


def test_step_scorer_per_mode():
    layer_scores = [[0.9, 0.1], [0.1, 0.9], [0.5, 0.5]]
    trace = make_trace(layer_scores, steps=2)
    scorer = StepScorer(2, ScoreMode.ROW_MASS, averaging=True)
    # each layer's set is known as soon as that layer is added
    for layer, maps in enumerate(trace.probs[1]):
        assert scorer.add(maps) is True
        source = SelectionSource(2, layer, ScoreMode.ROW_MASS, True)
        assert scorer.core_set(layer, 0.5).source == source
    raw, ranked = scorer.raw, scorer.ranked()
    assert [(s.step, s.layer) for s in raw] == [(2, 0), (2, 1), (2, 2)]
    assert all(s.mode == ScoreMode.ROW_MASS for s in raw)
    assert np.allclose([s.scores for s in raw], layer_scores)
    assert np.allclose([s.scores for s in ranked], [[0.9, 0.1], [0.5, 0.5], [0.5, 0.5]])
    assert [s.layer for s in ranked] == [0, 1, 2]
    assert [scorer.core_set(layer, 0.5).indices for layer in range(3)] == [(0,), (0,), (0,)]

    off = trace.step_scorer(2, ScoreMode.ROW_MASS, averaging=False)
    assert all(a is b for a, b in zip(off.ranked(), off.raw, strict=True))
    assert [off.core_set(layer, 0.5).indices for layer in range(3)] == [(0,), (1,), (0,)]

    var_scorer = StepScorer(2, ScoreMode.LAYER_VARIANCE, averaging=True)
    # no layer's set is known before the step's last layer is in
    assert [var_scorer.add(maps) for maps in trace.probs[1]] == [False] * 3
    assert all(s.mode == ScoreMode.ROW_MASS for s in var_scorer.raw)
    (var,) = var_scorer.ranked()
    assert (var.step, var.layer, var.mode) == (2, 2, ScoreMode.LAYER_VARIANCE)
    assert np.allclose(var.scores, np.var(layer_scores, axis=0))
    for layer in range(3):
        core = var_scorer.core_set(layer, 1.0)
        assert core.source == SelectionSource(2, layer, ScoreMode.LAYER_VARIANCE, False)


def _ranking_vector(maps, mode: ScoreMode, averaging: bool, layer: int) -> ScoreVector:
    """The vector that ranks `layer` of one step of per-layer maps, from the
    public scoring functions."""
    if mode == ScoreMode.LAYER_VARIANCE:
        raw = [token_scores(m, ScoreMode.ROW_MASS, l, 3) for l, m in enumerate(maps)]
        return replace(variance_scores(raw), layer=layer)
    vectors = [token_scores(m, mode, l, 3) for l, m in enumerate(maps[: layer + 1])]
    if not averaging:
        return vectors[layer]
    state = CumulativeScore.empty(vectors[0].n_img, mode)
    for vector in vectors:
        state = cumulative_update(state, vector)
    return state.to_score_vector(layer, 3)


@settings(max_examples=150, deadline=None)
@given(
    mode=st.sampled_from(list(ScoreMode)),
    averaging=st.booleans(),
    data=st.data(),
)
def test_step_scorer_sets_are_fresh_selections_built_once(mode, averaging, data):
    """Whatever order the (layer, ratio) requests come in, the scorer's set is
    `select_core_tokens` of the vector that ranks the layer, and a repeated
    request gets the same object. A later `add` keeps every earlier layer's
    sets, except in layer_variance mode, where it re-ranks."""
    n = data.draw(st.integers(1, 12), label="n_img")
    n_layers = data.draw(st.integers(2, 4), label="n_layers")
    # small whole-number entries, so that scores tie often
    maps = data.draw(
        hnp.arrays(np.float64, (n_layers + 1, 1, n, n), elements=st.sampled_from([0.0, 1.0, 2.0])),
        label="maps",
    )
    ratio = st.floats(0.0, 1.0, exclude_min=True)
    variance = mode == ScoreMode.LAYER_VARIANCE
    scorer = StepScorer(3, mode, averaging)

    def check(layers: int, earlier: dict) -> dict:
        requests = data.draw(
            st.lists(st.tuples(st.integers(0, layers - 1), ratio), min_size=1, max_size=10),
            label=f"requests over {layers} layers",
        )
        got = {}
        for layer, r in requests:
            core = scorer.core_set(layer, r)
            want = select_core_tokens(
                _ranking_vector(maps[:layers], mode, averaging, layer), r,
                averaged=averaging and not variance,
            )
            assert core == want
            assert scorer.core_set(layer, r) is core
            if (layer, r) in got:
                assert got[(layer, r)] is core
            if (layer, r) in earlier:
                assert (earlier[(layer, r)] is core) is not variance
            got[(layer, r)] = core
        return got

    for layer_maps in maps[:n_layers]:
        scorer.add(layer_maps)
    before = check(n_layers, {})
    # every earlier request again, then new ones over one more layer
    scorer.add(maps[n_layers])
    for (layer, r), core in before.items():
        assert (scorer.core_set(layer, r) is core) is not variance
    check(n_layers + 1, before)


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
    assert np.array_equal(plan.sets[(2, 1)].rows(), [0, 1])


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
    with pytest.raises(TraceMismatch, match="exceeds trace steps"):
        InjectionPlan(trace=trace, cutoff_step=3, ratio=0.5, sets={})
    with pytest.raises(ConfigError):
        build_injection(trace, ratio=1.5)
    none = build_injection(trace, ratio=0.5, cutoff_step=0)
    assert none.sets == {}


def test_build_injection_empty_trace():
    empty = make_trace([[0.5, 0.4], [0.3, 0.2]], steps=0)
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
    out = apply_injection(gen, src[[0]], make_set([0], 2))
    assert out is gen  # rows are replaced in place
    assert np.array_equal(gen, [[9.0, 8.0], [3.0, 4.0]])
    assert np.array_equal(src, [[9.0, 8.0], [7.0, 6.0]])  # source untouched
    empty = make_set([], 2, ratio=0.0)
    assert np.array_equal(apply_injection(gen, src[:0], empty), [[9.0, 8.0], [3.0, 4.0]])
    assert np.array_equal(apply_injection(gen, src, make_set([0, 1], 2)), src)


def test_apply_injection_idempotent_and_commutative(rng):
    gen = rng.random((6, 6))
    src = rng.random((6, 6))
    a = make_set([1, 4], 6)
    b = make_set([0, 5], 6)
    rows_a, rows_b = src[a.rows()], src[b.rows()]
    once = apply_injection(gen.copy(), rows_a, a)
    assert np.array_equal(apply_injection(once.copy(), rows_a, a), once)
    ab = apply_injection(apply_injection(gen.copy(), rows_a, a), rows_b, b)
    ba = apply_injection(apply_injection(gen.copy(), rows_b, b), rows_a, a)
    assert np.array_equal(ab, ba)
    assert not np.array_equal(ab, gen)


def test_apply_injection_errors(rng):
    gen = rng.random((4, 4))
    with pytest.raises(ShapeMismatch):
        apply_injection(gen, rng.random((3, 3)), make_set([0], 4))
    with pytest.raises(ShapeMismatch):
        apply_injection(gen, rng.random((2, 4)), make_set([0], 4))
    with pytest.raises(ShapeMismatch):
        apply_injection(rng.random((2, 3)), rng.random((1, 3)), make_set([0], 4))
    with pytest.raises(IndexOutOfRange):
        apply_injection(rng.random((2, 2)), rng.random((2, 2)), make_set([1, 3], 4))


# ---------------------------------------------------------------- shift


def attention_shift(maps_per_layer, mask_frac, core):
    """Per layer, the core rows' off-mask fraction, read as the pipeline reads it."""
    probs = np.stack([np.asarray(m, dtype=np.float64) for m in maps_per_layer])[None]
    trace = AttentionTrace(t_values=(1.0,), logits=np.zeros_like(probs), probs=probs)
    masses = ScoreReducer.replay(trace, mask_frac, ScoreMode.ROW_MASS, True).masses
    idx = core.rows()
    return [
        row_fraction(masses.off[0, l], masses.total[0, l], idx) for l in range(trace.n_layers)
    ]


def test_attention_shift_hand_cases():
    mask_frac = np.array([1.0, 0.0, 1.0, 0.0])  # off-mask at {1, 3}
    uniform = np.full((1, 4, 4), 0.25)
    core = make_set([0, 2], 4)
    assert np.allclose(attention_shift([uniform], mask_frac, core), [0.5])

    row = np.array([[0.4, 0.1, 0.4, 0.1]] * 4)[None]
    assert np.allclose(attention_shift([row], mask_frac, core), [0.2])
    # row normalization: scaling every row by 0.5 changes nothing
    assert attention_shift([row * 0.5], mask_frac, core) == attention_shift([row], mask_frac, core)

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
    with pytest.raises(ShapeMismatch, match="at least one row required"):
        attention_shift([np.full((1, 2, 2), 0.5)], np.ones(2), make_set([], 2, ratio=0.0))
    with pytest.raises(ShapeMismatch):
        attention_shift([np.full((1, 2, 2), 0.5)], np.ones(3), core)
    with pytest.raises(ShapeMismatch):
        attention_shift([np.full((1, 2, 2), 0.5)], np.ones((2, 2)), core)


# ---------------------------------------------------------------- reducer order


def _reducer_state(reducer, steps):
    """What a reducer gives its callers: row masses, every step's ranked
    scores, and its plans at ratios 0.25 and 0.5."""
    scores = [
        [s.scores.tobytes() for s in reducer.step_scorer(step, reducer.mode, reducer.averaging).ranked()]
        for step in range(1, steps + 1)
    ]
    plans = [
        build_injection(reducer, ratio, mode=reducer.mode, averaging=reducer.averaging)
        for ratio in (0.25, 0.5)
    ]
    return [m.tobytes() for m in reducer.masses], scores, plans


@pytest.mark.parametrize("averaging", [True, False])
@pytest.mark.parametrize("mode", list(ScoreMode))
@pytest.mark.parametrize("threads", [2, 1])
def test_paired_capture_into_a_reducer_equals_replay(
    monkeypatch, tiny_weights, tiny_glyph, mode, averaging, threads
):
    """A reducer that keeps the 0.5 sets' rows gives a full trace's replay's
    masses, scores and plans, and the trace's rows for each plan, whether
    its steps arrive interleaved layer by layer (steps fed two at a time, or
    a paired capture on two threads) or in order (a paired capture on one
    thread). The capture has an odd step count, so its last step runs alone."""
    cfg = tiny_weights.cfg
    sampler = SamplerConfig(steps=4, cutoff_step=3)
    mask_frac = glyph_mask_patches(tiny_glyph, cfg.patch)
    trace = reconstruct_capture(tiny_weights, tiny_glyph, "", sampler, in_step_order=True)
    want = _reducer_state(ScoreReducer.replay(trace, mask_frac, mode, averaging), trace.steps)
    dims = (*trace.probs.shape[:4], mode, averaging, mask_frac)

    interleaved = ScoreReducer(*dims, keep=0.5)
    for first in (1, 3):
        for layer in range(trace.n_layers):
            for step in range(first, min(first + 2, trace.steps + 1)):
                interleaved(step, layer, trace.logits[step - 1, layer], trace.probs[step - 1, layer])
    force_threads(monkeypatch, threads)
    captured = ScoreReducer(*dims, keep=0.5)
    reconstruct_capture(tiny_weights, tiny_glyph, "", sampler, on_layer=captured)
    for reducer in (interleaved, captured):
        assert _reducer_state(reducer, trace.steps) == want
        for plan in want[2]:
            for key, core in plan.sets.items():
                assert reducer.core_rows(*key, core).tobytes() == trace.core_rows(*key, core).tobytes()


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
