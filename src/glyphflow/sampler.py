"""Rectified-flow Euler sampling with classifier-free guidance, plus the
synchronous reconstruction pass that captures I2I attention.

The schedule has steps+1 knots from 1 down to 0; step i evaluates the model
at knot i-1, so a run costs exactly `steps` evaluations per CFG branch.
Reconstruction never integrates: each captured step re-noises the clean glyph
latent to t_i with one fixed eps, runs a single unguided forward, and records
every layer's I2I logits and probabilities.

All noise comes from one seeded stream whose first draw is the (n_img,
patch^2) eps, so reconstruction and generation see identical noise whenever
their seeds match.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .coreattn import InjectionPlan
from .errors import ConfigError, ShapeMismatch, TraceMismatch
from .glyphs import GlyphImage
from .manifest import RunManifest, StepLog
from .model import (
    AttentionHook,
    JointAttention,
    ModelWeights,
    TokenSequence,
    embed_patches,
    embed_prompt,
    forward,
    patchify,
    unpatchify,
)
from .tensorio import read_tensors, tensors_checksum, write_tensors

# A probe receives (step, t, branch, captures) after each forward. The
# captures are copies of the forward's attention maps that the probe may keep.
ProbeFn = Callable[[int, float, str, dict[int, JointAttention]], None]


@dataclass(frozen=True)
class SamplerConfig:
    steps: int = 28
    guidance: float = 7.5
    cutoff_step: int = 12
    noise_seed: int = 0
    schedule: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        if not 0 <= self.cutoff_step <= self.steps:
            raise ConfigError(
                f"cutoff_step {self.cutoff_step} outside [0, steps={self.steps}]"
            )
        if self.guidance < 0.0:
            raise ConfigError("guidance must be >= 0")
        if self.schedule is not None:
            k = self.knots()
            if k.shape != (self.steps + 1,):
                raise ConfigError(f"schedule needs steps+1 = {self.steps + 1} knots")
            if k[0] != 1.0 or k[-1] != 0.0:
                raise ConfigError("schedule must start at 1 and end at 0")
            if not np.all(np.diff(k) < 0.0):
                raise ConfigError("schedule must be strictly decreasing")

    def knots(self) -> np.ndarray:
        """t values t_1 > ... > t_{steps} > t_end with t_1 = 1 and t_end = 0."""
        if self.schedule is not None:
            return np.asarray(self.schedule, dtype=np.float64)
        return np.linspace(1.0, 0.0, self.steps + 1)


def _noise_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    )


def draw_noise(seed: int, shape: tuple[int, ...]) -> np.ndarray:
    """First draw of the seeded noise stream."""
    return _noise_rng(seed).standard_normal(shape)


# ---------------------------------------------------------------- flow ops


def noise_to(x0: np.ndarray, t: float, eps: np.ndarray) -> np.ndarray:
    """Rectified-flow interpolation x_t = (1-t) x0 + t eps."""
    if x0.shape != eps.shape:
        raise ShapeMismatch(f"x0 shape {x0.shape} != eps shape {eps.shape}")
    if not 0.0 <= t <= 1.0:
        raise ConfigError(f"t {t} outside [0,1]")
    return (1.0 - t) * x0 + t * eps


def cfg_combine(v_cond: np.ndarray, v_uncond: np.ndarray, s: float) -> np.ndarray:
    """Classifier-free guidance: v_uncond + s (v_cond - v_uncond).

    s of exactly 0 or 1 returns the corresponding branch with no float drift.
    """
    if v_cond.shape != v_uncond.shape:
        raise ShapeMismatch("branch shapes differ")
    if s == 0.0:
        return v_uncond.copy()
    if s == 1.0:
        return v_cond.copy()
    return v_uncond + s * (v_cond - v_uncond)


def euler_step(x: np.ndarray, v: np.ndarray, t_i: float, t_next: float) -> np.ndarray:
    """x' = x + (t_next - t_i) v; t decreases, so the step moves toward data."""
    if t_next >= t_i:
        raise ConfigError(f"t_next {t_next} must be < t_i {t_i}")
    if x.shape != v.shape:
        raise ShapeMismatch("state and velocity shapes differ")
    return x + (t_next - t_i) * v


# ---------------------------------------------------------------- trace


@dataclass
class AttentionTrace:
    """I2I logits and probabilities for steps 1..steps at every layer and head."""

    steps: int
    n_layers: int
    n_heads: int
    n_img: int
    t_values: tuple[float, ...]
    logits: np.ndarray = field(repr=False)
    probs: np.ndarray = field(repr=False)
    _checksum: str | None = field(default=None, repr=False)

    def __post_init__(self):
        want = (self.steps, self.n_layers, self.n_heads, self.n_img, self.n_img)
        if self.logits.shape != want or self.probs.shape != want:
            raise ShapeMismatch(
                f"trace arrays must have shape {want}, got {self.logits.shape} / {self.probs.shape}"
            )
        if len(self.t_values) != self.steps:
            raise ShapeMismatch("one t value per captured step required")

    def step_logits(self, step: int, layer: int) -> np.ndarray:
        """Per-head I2I logits for 1-based step."""
        return self.logits[step - 1, layer]

    def step_probs(self, step: int, layer: int) -> np.ndarray:
        return self.probs[step - 1, layer]

    def _meta(self) -> dict[str, str]:
        return {
            "steps": str(self.steps),
            "n_layers": str(self.n_layers),
            "n_heads": str(self.n_heads),
            "n_img": str(self.n_img),
            "t_values": ",".join(repr(float(t)) for t in self.t_values),
        }

    def checksum(self) -> str:
        if self._checksum is None:
            self._checksum = tensors_checksum(
                {"logits": self.logits, "probs": self.probs}, meta=self._meta()
            )
        return self._checksum

    def save(self, path):
        write_tensors(path, {"logits": self.logits, "probs": self.probs}, meta=self._meta())

    @classmethod
    def load(cls, path) -> "AttentionTrace":
        tensors, meta = read_tensors(path)
        try:
            t_values = tuple(
                float(t) for t in meta["t_values"].split(",") if t
            )
            return cls(
                steps=int(meta["steps"]),
                n_layers=int(meta["n_layers"]),
                n_heads=int(meta["n_heads"]),
                n_img=int(meta["n_img"]),
                t_values=t_values,
                logits=tensors["logits"],
                probs=tensors["probs"],
            )
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"trace file missing or bad field: {exc}") from exc


# ---------------------------------------------------------------- runs


def reconstruct_capture(
    weights: ModelWeights,
    glyph: GlyphImage,
    recon_prompt: str = "",
    cfg: SamplerConfig | None = None,
    probe: ProbeFn | None = None,
) -> AttentionTrace:
    """Capture I2I attention while re-noising the glyph at each captured step.

    For step i <= cutoff_step: x_{t_i} = noise_to(patchify(glyph), t_i, eps)
    with the same eps every step, one unguided forward at t_i, all layers
    captured. No trajectory is integrated. Each forward writes its I2I blocks
    straight into the trace; a probe also gets full-map copies from the same
    hook.
    """
    cfg = cfg or SamplerConfig()
    mcfg = weights.cfg
    x0 = patchify(glyph, mcfg)
    eps = draw_noise(cfg.noise_seed, x0.shape)
    text = embed_prompt(recon_prompt, mcfg)
    knots = cfg.knots()

    n_steps = cfg.cutoff_step
    shape = (n_steps, mcfg.n_layers, mcfg.n_heads, mcfg.n_img, mcfg.n_img)
    logits = np.empty(shape, dtype=np.float64)
    probs = np.empty(shape, dtype=np.float64)
    t_values = []

    for i in range(1, n_steps + 1):
        t_i = float(knots[i - 1])
        t_values.append(t_i)
        x_t = noise_to(x0, t_i, eps)
        tokens = TokenSequence(text=text, image=embed_patches(weights, x_t))
        hook = AttentionHook(
            store_logits=probe is not None,
            store_probs=probe is not None,
            step=i,
            i2i_out=(logits[i - 1], probs[i - 1]),
        )
        _, captured = forward(weights, tokens, t_i, hook)
        if probe is not None:
            probe(i, t_i, "recon", captured)

    return AttentionTrace(
        steps=n_steps,
        n_layers=mcfg.n_layers,
        n_heads=mcfg.n_heads,
        n_img=mcfg.n_img,
        t_values=tuple(t_values),
        logits=logits,
        probs=probs,
    )


def _injection_hook(trace: AttentionTrace, plan: InjectionPlan, step: int) -> AttentionHook:
    row_cache: dict[tuple[int, int], np.ndarray] = {}

    def override(step_: int, layer: int, head: int, block: np.ndarray) -> np.ndarray:
        key = (step_, layer)
        idx = row_cache.get(key)
        if idx is None:
            idx = plan.rows(step_, layer)
            row_cache[key] = idx
        if idx.size:
            block[idx, :] = trace.step_logits(step_, layer)[head][idx, :]
        return block

    return AttentionHook(override=override, step=step)


def generate_with_injection(
    weights: ModelWeights,
    prompt: str,
    trace: AttentionTrace | None,
    plan: InjectionPlan | None,
    cfg: SamplerConfig | None = None,
    probe: ProbeFn | None = None,
) -> tuple[np.ndarray, RunManifest]:
    """Euler CFG loop from pure noise, trace rows injected through the cutoff.

    For steps <= plan.cutoff_step every layer's I2I logit rows listed in the
    plan are replaced by the trace's rows, identically in the conditional and
    unconditional branches. Pass trace=None, plan=None for a baseline run.
    The plan must have been built from `trace` itself or from a trace with
    the same checksum; only the latter case hashes the traces.
    Returns pixels clamped to [0,1] and a manifest skeleton with step logs.
    """
    cfg = cfg or SamplerConfig()
    mcfg = weights.cfg
    if (trace is None) != (plan is None):
        raise TraceMismatch("trace and plan must be supplied together")
    if plan is not None:
        if plan.trace is not trace and plan.trace.checksum() != trace.checksum():
            raise TraceMismatch("plan was built from a different trace")
        if plan.cutoff_step > trace.steps:
            raise TraceMismatch(
                f"plan cutoff {plan.cutoff_step} exceeds trace steps {trace.steps}"
            )
        if plan.cutoff_step > cfg.steps:
            raise TraceMismatch(
                f"plan cutoff {plan.cutoff_step} exceeds sampler steps {cfg.steps}"
            )
        if plan.n_layers != mcfg.n_layers or plan.n_img != mcfg.n_img:
            raise TraceMismatch("plan dimensions do not match the model")

    knots = cfg.knots()
    x = draw_noise(cfg.noise_seed, (mcfg.n_img, mcfg.patch_dim))
    text_cond = embed_prompt(prompt, mcfg)
    text_uncond = embed_prompt("", mcfg)
    hooked_steps = plan.cutoff_step if plan is not None else 0

    step_logs = []
    for i in range(1, cfg.steps + 1):
        t_i = float(knots[i - 1])
        t_next = float(knots[i])
        hook = None
        if i <= hooked_steps:
            hook = _injection_hook(trace, plan, i)
        if probe is not None:
            capture = AttentionHook(
                store_logits=True,
                store_probs=True,
                step=i,
                override=hook.override if hook is not None else None,
            )
            hook = capture

        tokens_u = TokenSequence(text=text_uncond, image=embed_patches(weights, x))
        v_uncond, cap_u = forward(weights, tokens_u, t_i, hook)
        if probe is not None:
            probe(i, t_i, "uncond", cap_u)
        tokens_c = TokenSequence(text=text_cond, image=embed_patches(weights, x))
        v_cond, cap_c = forward(weights, tokens_c, t_i, hook)
        if probe is not None:
            probe(i, t_i, "cond", cap_c)

        v = cfg_combine(v_cond, v_uncond, cfg.guidance)
        x = euler_step(x, v, t_i, t_next)
        injected = 0
        if i <= hooked_steps:
            injected = sum(1 for layer in range(mcfg.n_layers) if plan.sets[(i, layer)].indices)
        step_logs.append(StepLog(step=i, t=t_i, injected_layer_count=injected))

    pixels = np.clip(unpatchify(x, mcfg), 0.0, 1.0)
    manifest = RunManifest(step_logs=step_logs)
    manifest.checksums["weights"] = weights.checksum()
    if trace is not None:
        manifest.checksums["trace"] = trace.checksum()
    return pixels, manifest
