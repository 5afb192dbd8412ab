"""Acceptance gate: eight checks over selection, averaging, injection,
sampling, determinism, metrics, the sweep protocol, and normalization.

Each test prints one PASS/FAIL line (run pytest with -s to see them on
passing runs).
"""

import dataclasses
import math
import time
from pathlib import Path

import numpy as np

from glyphflow import (
    CumulativeScore,
    RunConfig,
    RunManifest,
    SamplerConfig,
    ScoreMode,
    ScoreVector,
    build_injection,
    build_prompt,
    cfg_combine,
    char_f1,
    cumulative_update,
    euler_step,
    exact_match,
    generate_with_injection,
    noise_to,
    reconstruct_capture,
    run_generate,
    run_sweep,
    select_core_tokens,
)
from glyphflow.cli import main as cli_main
from glyphflow.runconfig import IOConfig, InjectionConfig
from tests.conftest import TINY

RATIOS = (0.125, 0.25, 0.5, 0.75, 1.0)
CUTOFFS = (8, 10, 12, 15, 18)


def _report(number: int, name: str, failures: list[str]):
    verdict = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {verdict}")
    assert not failures, f"acceptance {number} {name}: " + "; ".join(failures)


def test_acceptance_1_topk_oracle():
    failures = []
    rng = np.random.default_rng(2024)
    n = 256
    start = time.perf_counter()
    for trial in range(1000):
        scores = rng.random(n)
        if trial % 2 == 0:
            scores = np.round(scores, 1)  # force ties
        vec = ScoreVector(scores=scores, layer=0, step=1, mode=ScoreMode.ROW_MASS)
        order = np.argsort(-scores, kind="stable")
        for ratio in RATIOS:
            k = math.ceil(ratio * n)
            oracle = sorted(order[:k].tolist())
            got = select_core_tokens(vec, ratio).rows().tolist()
            if got != oracle:
                failures.append(f"trial {trial} ratio {ratio}: {got[:5]}... != oracle")
                break
        if failures:
            break
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"took {elapsed:.2f} s, budget 5 s")
    _report(1, "top-k oracle equivalence", failures)


def test_acceptance_2_cumulative_average():
    failures = []
    rng = np.random.default_rng(7)
    n = 64
    for trial in range(100):
        j = int(rng.integers(1, 13))
        layers = rng.random((j, n))
        state = CumulativeScore.empty(n, ScoreMode.ROW_MASS)
        for idx in range(j):
            vec = ScoreVector(layers[idx], layer=idx, step=1, mode=ScoreMode.ROW_MASS)
            state = cumulative_update(state, vec)
            batch = layers[: idx + 1].mean(axis=0)
            err = np.abs(state.mean - batch).max()
            if err > 1e-9:
                failures.append(f"trial {trial} layer {idx}: drift {err:.2e}")
    quiet = np.array([0.9, 0.8, 0.1, 0.05])
    spike = np.array([0.1, 0.05, 0.9, 0.8])
    sequence = [quiet, quiet, spike, quiet]
    state = CumulativeScore.empty(4, ScoreMode.ROW_MASS)
    for idx, s in enumerate(sequence):
        vec = ScoreVector(s, layer=idx, step=1, mode=ScoreMode.ROW_MASS)
        per_layer = set(select_core_tokens(vec, 0.5).rows().tolist())
        want = {2, 3} if idx == 2 else {0, 1}
        if per_layer != want:
            failures.append(f"per-layer selection at layer {idx}: {per_layer} != {want}")
        state = cumulative_update(state, vec)
        averaged = set(
            select_core_tokens(state.to_score_vector(idx, 1), 0.5, averaged=True)
            .rows()
            .tolist()
        )
        if averaged != {0, 1}:
            failures.append(f"averaged selection at layer {idx}: {averaged} != {{0, 1}}")
    _report(2, "cumulative-average algebra", failures)


def test_acceptance_3_injection_bit_equality(tiny_weights, tiny_glyph, tmp_path):
    failures = []
    sampler = SamplerConfig(steps=4, guidance=7.5, cutoff_step=4, noise_seed=0)
    prompt = build_prompt("A", "bold geometric strokes").prompt
    trace = reconstruct_capture(tiny_weights, tiny_glyph, prompt, sampler)
    plan = build_injection(trace, 1.0, cutoff_step=sampler.steps)

    seen = {}

    def probe(step, t, branch, captured):
        if step == 1 and branch in ("uncond", "cond"):
            seen[branch] = {
                layer: att.i2i("logits").copy() for layer, att in captured.items()
            }

    generate_with_injection(tiny_weights, prompt, trace, plan, sampler, probe=probe)
    if set(seen) != {"uncond", "cond"}:
        failures.append(f"probe saw branches {sorted(seen)}")
    for branch, layers in seen.items():
        for layer, got in layers.items():
            want = trace.step_logits(1, layer)
            if got.tobytes() != want.tobytes():
                failures.append(f"step 1 layer {layer} {branch} logits differ from trace")

    cfg = RunConfig(
        model=TINY,
        sampler=sampler,
        injection=InjectionConfig(ratio=0.5),
        io=IOConfig(word="A", scale=1),
    )
    run_generate(cfg, out_dir=str(tmp_path / "base"), baseline=True)
    zero_ratio = dataclasses.replace(cfg, injection=InjectionConfig(ratio=0.0))
    run_generate(zero_ratio, out_dir=str(tmp_path / "r0"))
    zero_cutoff = dataclasses.replace(
        cfg, sampler=dataclasses.replace(sampler, cutoff_step=0)
    )
    run_generate(zero_cutoff, out_dir=str(tmp_path / "c0"))
    base = (tmp_path / "base" / "output.pgm").read_bytes()
    if (tmp_path / "r0" / "output.pgm").read_bytes() != base:
        failures.append("ratio-0 image differs from baseline")
    if (tmp_path / "c0" / "output.pgm").read_bytes() != base:
        failures.append("cutoff-0 image differs from baseline")
    _report(3, "injection bit-equality", failures)


def test_acceptance_4_sampler_correctness(rng):
    failures = []
    cfg = SamplerConfig(steps=28)
    x0 = rng.standard_normal((8, 8))
    v = rng.standard_normal((8, 8))
    knots = cfg.knots()
    x = x0.copy()
    for i in range(cfg.steps):
        x = euler_step(x, v, float(knots[i]), float(knots[i + 1]))
    err = np.abs(x - (x0 - v)).max()
    if err > 1e-6:
        failures.append(f"constant-velocity endpoint error {err:.2e}")

    eps = rng.standard_normal((8, 8))
    if not np.array_equal(noise_to(x0, 1.0, eps), eps):
        failures.append("noise_to at t=1 is not exactly eps")
    if not np.array_equal(noise_to(x0, 0.0, eps), x0):
        failures.append("noise_to at t=0 is not exactly x0")

    v_c = rng.standard_normal((8, 8)) * 1e8
    v_u = rng.standard_normal((8, 8)) * 1e-8
    if not np.array_equal(cfg_combine(v_c, v_u, 0.0), v_u):
        failures.append("cfg_combine at s=0 is not exactly the uncond branch")
    if not np.array_equal(cfg_combine(v_c, v_u, 1.0), v_c):
        failures.append("cfg_combine at s=1 is not exactly the cond branch")
    _report(4, "sampler correctness", failures)


def test_acceptance_5_determinism(tmp_path):
    failures = []
    checksums = []
    elapsed = None
    for name in ("a", "b"):
        start = time.perf_counter()
        code = cli_main(["generate", "--out-dir", str(tmp_path / name)])
        elapsed = time.perf_counter() - start
        if code != 0:
            failures.append(f"run {name} exited {code}")
            break
        man = RunManifest.load(tmp_path / name / "manifest.json")
        checksums.append(man.checksums["image"])
    if len(checksums) == 2 and checksums[0] != checksums[1]:
        failures.append("image checksums differ between identical runs")
    if elapsed is not None and elapsed >= 10.0:
        failures.append(f"one default run took {elapsed:.1f} s, budget 10 s")
    _report(5, "determinism", failures)


def test_acceptance_6_metric_properties():
    failures = []
    ref = char_f1("lgo", "logo")
    if ref.precision != 1.0 or ref.recall != 0.75:
        failures.append(f"reference precision/recall ({ref.precision}, {ref.recall})")
    if abs(ref.f1 - 0.8571) > 1e-4:
        failures.append(f"reference f1 {ref.f1}")

    rng = np.random.default_rng(99)
    alphabet = list("abcdefgABCDEFG")
    exact_seen = 0
    for trial in range(500):
        a = "".join(rng.choice(alphabet, size=rng.integers(1, 9)))
        if trial % 2 == 0:
            b = "  " + a + " "  # equal after the trim; case must match
        else:
            b = "".join(rng.choice(alphabet, size=rng.integers(1, 9)))
        if exact_match(a, b):
            exact_seen += 1
            if char_f1(a, b).f1 != 1.0:
                failures.append(f"exact pair {a!r}/{b!r} has f1 {char_f1(a, b).f1}")
    if exact_seen < 250:
        failures.append(f"only {exact_seen} exact pairs exercised")

    anagram = char_f1("listen", "silent")
    if anagram.f1 != 1.0 or exact_match("listen", "silent"):
        failures.append("anagram pair should give f1 1.0 without an exact match")
    _report(6, "metric properties", failures)


def test_acceptance_7_sweep_protocol(tmp_path):
    failures = []
    result = run_sweep(RunConfig(), out_dir=str(tmp_path))
    want_cells = {(r, s) for r in RATIOS for s in CUTOFFS}
    if result.failures:
        failures.append(f"{len(result.failures)} cells failed")
    for metric in ("mask_coverage", "attention_shift"):
        table = result.tables.get(metric)
        if table is None:
            failures.append(f"metric {metric} missing")
            continue
        if set(table) != want_cells or len(table) != 25:
            failures.append(f"{metric} grid is not the 5x5 cell set")
        text = Path(result.csv_paths[metric]).read_text()
        lines = text.strip().split("\n")
        if lines[0] != f"ratio,step,{metric}" or len(lines) != 26:
            failures.append(f"{metric} CSV malformed")
        cells_in_order = []
        for line in lines[1:]:
            parts = line.split(",")
            if len(parts) != 3:
                failures.append(f"bad CSV row {line!r}")
                continue
            cells_in_order.append((float(parts[0]), int(parts[1])))
            try:
                float(parts[2])
            except ValueError:
                failures.append(f"non-numeric cell value {parts[2]!r}")
        if cells_in_order != sorted(cells_in_order):
            failures.append(f"{metric} rows not in deterministic sorted order")
    for cell in sorted(want_cells):
        cov = result.tables["mask_coverage"][cell]
        shift = result.tables["attention_shift"][cell]
        if not 0.0 <= cov <= 1.0:
            failures.append(f"coverage {cov} outside [0,1] at {cell}")
        if abs(cov + shift - 1.0) > 1e-9:
            failures.append(f"coverage+shift {cov + shift} at {cell}")
    _report(7, "sweep protocol shape", failures)


def test_acceptance_8_attention_normalization():
    failures = []
    counts = {"rows": 0}
    hooked_steps_seen = set()

    def probe(step, t, branch, captured):
        for layer, att in captured.items():
            sums = att.probs.sum(axis=-1)
            counts["rows"] += sums.size
            err = np.abs(sums - 1.0).max()
            if err > 1e-6 and len(failures) < 5:
                failures.append(
                    f"step {step} {branch} layer {layer}: row sum off by {err:.2e}"
                )
            if branch in ("uncond", "cond") and step <= 12:
                hooked_steps_seen.add(step)

    run_generate(RunConfig(), probe=probe, write_outputs=False)
    if counts["rows"] == 0:
        failures.append("probe captured no probability rows")
    if hooked_steps_seen != set(range(1, 13)):
        failures.append(f"hooked steps covered: {sorted(hooked_steps_seen)}")
    _report(8, "attention normalization", failures)
