"""Rectified-flow Euler sampling with classifier-free guidance, plus the
synchronous reconstruction pass that captures I2I attention.

The schedule has steps+1 evenly spaced knots from 1 down to 0; step i
evaluates the model at knot i-1, so a run costs exactly `steps` evaluations
per CFG branch.
Reconstruction never integrates: each captured step re-noises the clean glyph
latent to t_i with one fixed eps, runs a single unguided forward, and records
every layer's I2I logits and probabilities.

All noise comes from one seeded stream whose first draw is the (n_img,
patch^2) eps, so reconstruction and generation see identical noise whenever
their seeds match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable

import numpy as np

from .coreattn import (
    CoreTokenSet,
    InjectionPlan,
    ScoreMode,
    ScoreVector,
    apply_injection,
    step_scores,
)
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

if TYPE_CHECKING:
    from .pipeline import StreamedTrace

# A probe receives (step, t, branch, captures) after each forward. The
# captures are copies of the forward's attention maps that the probe may keep.
ProbeFn = Callable[[int, float, str, dict[int, JointAttention]], None]


@dataclass(frozen=True)
class SamplerConfig:
    steps: int = 28
    guidance: float = 7.5
    cutoff_step: int = 12
    noise_seed: int = 0

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        if not 0 <= self.cutoff_step <= self.steps:
            raise ConfigError(
                f"cutoff_step {self.cutoff_step} outside [0, steps={self.steps}]"
            )
        if not (math.isfinite(self.guidance) and self.guidance >= 0.0):
            raise ConfigError(f"guidance {self.guidance} must be finite and >= 0")
        if self.noise_seed < 0:
            raise ConfigError("noise_seed must be >= 0")

    def knots(self) -> np.ndarray:
        """Evenly spaced t values t_1 > ... > t_{steps} > t_end, t_1 = 1 and t_end = 0."""
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


def trace_meta(t_values: tuple[float, ...], dims: tuple[int, int, int, int]) -> dict[str, str]:
    """A trace's tensordump meta: its (steps, n_layers, n_heads, n_img) and t values."""
    meta = dict(zip(("steps", "n_layers", "n_heads", "n_img"), map(str, dims)))
    meta["t_values"] = ",".join(repr(float(t)) for t in t_values)
    return meta


@dataclass
class AttentionTrace:
    """I2I logits and probabilities for steps 1..steps at every layer and head.

    `probs` has shape (steps, n_layers, n_heads, n_img, n_img) and there is
    one t value per step; `steps`, `n_layers`, `n_heads` and `n_img` are
    read-only properties of that shape, so no copy of them is stored.
    `logits` has the same shape, or is None in a probs-only trace
    (`reconstruct_capture` with `keep_logits=False`). Core-token selection
    and the coverage/shift metrics read only `probs`; the logit consumers
    (`step_logits`, `core_rows`, `checksum` and `save`) refuse such a trace
    with `TraceMismatch`. A plan pairs with the trace object it was built
    from, never by checksum, so nothing caches the checksum.

    Only `reconstruct`, `analyze`, `sweep` and `generate --save-trace` hold a
    full trace; an injected generate keeps a `pipeline.StreamedTrace`, which
    answers `ranked_scores`, `core_rows` and `checksum` alike.
    """

    t_values: tuple[float, ...]
    logits: np.ndarray | None = field(repr=False)
    probs: np.ndarray = field(repr=False)

    def __post_init__(self):
        shape = self.probs.shape
        if len(shape) != 5 or shape[3] != shape[4]:
            raise ShapeMismatch(
                f"trace probs must have shape (steps, layers, heads, n_img, n_img), got {shape}"
            )
        if self.logits is not None and self.logits.shape != shape:
            raise ShapeMismatch(f"trace logits shape {self.logits.shape} != probs shape {shape}")
        if len(self.t_values) != self.steps:
            raise ShapeMismatch("one t value per captured step required")

    @property
    def steps(self) -> int:
        return self.probs.shape[0]

    @property
    def n_layers(self) -> int:
        return self.probs.shape[1]

    @property
    def n_heads(self) -> int:
        return self.probs.shape[2]

    @property
    def n_img(self) -> int:
        return self.probs.shape[3]

    def _logits(self) -> np.ndarray:
        if self.logits is None:
            raise TraceMismatch("trace holds probabilities only; it was captured without logits")
        return self.logits

    def step_logits(self, step: int, layer: int) -> np.ndarray:
        """Per-head I2I logits for 1-based step."""
        return self._logits()[step - 1, layer]

    def ranked_scores(self, step: int, mode: ScoreMode, averaging: bool) -> list[ScoreVector]:
        """The vectors core-token selection ranks at 1-based `step` (`step_scores`)."""
        return step_scores(self.probs[step - 1], step, mode, averaging)[1]

    def core_rows(self, step: int, layer: int, core: CoreTokenSet) -> np.ndarray:
        """The (n_heads, k, n_img) logit rows of a core set: what injection writes."""
        return self.step_logits(step, layer)[:, core.rows(), :]

    def _meta(self) -> dict[str, str]:
        return trace_meta(self.t_values, self.probs.shape[:4])

    def _tensors(self) -> dict[str, np.ndarray]:
        return {"logits": self._logits(), "probs": self.probs}

    def checksum(self) -> str:
        """`tensors_checksum` of the trace's tensors and meta: one sha256 over
        the meta lines, tensor headers and per-8-MiB-chunk sha256 digests
        (see `glyphflow.tensorio`). Computed anew on every call."""
        return tensors_checksum(self._tensors(), meta=self._meta())

    def save(self, path):
        write_tensors(path, self._tensors(), meta=self._meta())

    @classmethod
    def load(cls, path) -> "AttentionTrace":
        """Read a saved trace; its meta dims must agree with its tensors, both
        tensors must be f8, and every t value must lie in [0, 1]."""
        tensors, meta = read_tensors(path)
        try:
            t_values = tuple(
                float(t) for t in meta["t_values"].split(",") if t
            )
            dims = tuple(int(meta[key]) for key in ("steps", "n_layers", "n_heads", "n_img"))
            logits, probs = tensors["logits"], tensors["probs"]
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"trace file missing or bad field: {exc}") from exc
        for name, arr in (("logits", logits), ("probs", probs)):
            if arr.dtype != np.dtype("<f8"):
                raise ConfigError(f"trace {name} must be f8, not {arr.dtype}")
        if not all(0.0 <= t <= 1.0 for t in t_values):  # NaN fails both comparisons
            raise ConfigError(f"trace t values must lie in [0, 1]: {meta['t_values']}")
        trace = cls(t_values=t_values, logits=logits, probs=probs)
        if dims != trace.probs.shape[:4]:
            raise ShapeMismatch(
                f"trace meta dims {dims} disagree with its tensors' shape {trace.probs.shape}"
            )
        return trace


# ---------------------------------------------------------------- runs


# A layer reducer receives (step, t, layer, i2i_logits, i2i_probs) during each
# capture forward; the (n_heads, n_img, n_img) blocks are forward's own
# buffers, valid only during the call (see `AttentionHook.sink`).
LayerFn = Callable[[int, float, int, np.ndarray, np.ndarray], None]


def _copy_into(logits: np.ndarray | None, probs: np.ndarray):
    """A sink that copies every layer's I2I blocks into one step of a trace."""

    def sink(layer: int, layer_logits: np.ndarray, layer_probs: np.ndarray):
        if logits is not None:
            logits[layer] = layer_logits
        probs[layer] = layer_probs

    return sink


def reconstruct_capture(
    weights: ModelWeights,
    glyph: GlyphImage,
    recon_prompt: str = "",
    cfg: SamplerConfig | None = None,
    probe: ProbeFn | None = None,
    keep_logits: bool = True,
    on_layer: LayerFn | None = None,
) -> AttentionTrace | None:
    """Capture I2I attention while re-noising the glyph at each captured step.

    For step i <= cutoff_step: x_{t_i} = noise_to(patchify(glyph), t_i, eps)
    with the same eps every step, one unguided forward at t_i, all layers
    captured. No trajectory is integrated. Each forward's hook sink copies
    every layer's I2I blocks into the trace as soon as that layer's softmax
    is done; a probe also gets full-map copies from the same hook.

    With keep_logits=False only the probabilities are allocated and filled,
    which halves the trace; the result can drive selection and metrics but
    not injection (see `AttentionTrace`).

    With `on_layer` set no trace is allocated and None is returned: the sink
    hands every layer to on_layer(step, t, layer, logits, probs) instead,
    logits included whatever keep_logits says. The blocks are views of
    forward's buffers that the next layer overwrites, so the caller reduces
    each layer during its call and never holds a step of the trace.
    """
    cfg = cfg or SamplerConfig()
    mcfg = weights.cfg
    x0 = patchify(glyph, mcfg)
    eps = draw_noise(cfg.noise_seed, x0.shape)
    text = embed_prompt(recon_prompt, weights)
    knots = cfg.knots()

    n_steps = cfg.cutoff_step
    logits = probs = None
    if on_layer is None:
        shape = (n_steps, mcfg.n_layers, mcfg.n_heads, mcfg.n_img, mcfg.n_img)
        logits = np.empty(shape, dtype=np.float64) if keep_logits else None
        probs = np.empty(shape, dtype=np.float64)
    t_values = []

    for i in range(1, n_steps + 1):
        t_i = float(knots[i - 1])
        t_values.append(t_i)
        x_t = noise_to(x0, t_i, eps)
        tokens = TokenSequence(text=text, image=embed_patches(weights, x_t))
        if on_layer is None:
            sink = _copy_into(None if logits is None else logits[i - 1], probs[i - 1])
        else:
            sink = partial(on_layer, i, t_i)
        hook = AttentionHook(
            store_logits=probe is not None,
            store_probs=probe is not None,
            step=i,
            sink=sink,
        )
        _, captured = forward(weights, tokens, t_i, hook)
        if probe is not None:
            probe(i, t_i, "recon", captured)

    if on_layer is not None:
        return None
    return AttentionTrace(t_values=tuple(t_values), logits=logits, probs=probs)


def generate_with_injection(
    weights: ModelWeights,
    prompt: str,
    trace: "AttentionTrace | StreamedTrace | None",
    plan: InjectionPlan | None,
    cfg: SamplerConfig | None = None,
    probe: ProbeFn | None = None,
) -> tuple[np.ndarray, RunManifest]:
    """Euler CFG loop from pure noise, trace rows injected through the cutoff.

    For steps <= plan.cutoff_step every layer's I2I logit rows listed in the
    plan are replaced by the trace's rows, identically in the conditional and
    unconditional branches. `trace` is an `AttentionTrace` or a
    `pipeline.StreamedTrace`; either gives the plan's (n_heads, k, n_img)
    rows through `core_rows`, read once before the first forward. Pass
    trace=None, plan=None for a baseline run. The plan must have been built
    from `trace` itself (`plan.trace is trace`); a trace with the same bytes
    is still refused, so no trace is hashed here. A probs-only trace, or one
    whose layers, heads or n_img differ from the model's, is refused before
    any forward runs.

    Each step builds one `AttentionHook` that both branches share: its
    override is the injection through the cutoff and None after it, and it
    stores full maps for the probe when one is given. Returns pixels clamped
    to [0,1] and a manifest skeleton that holds only the step logs: the
    weights and trace checksums are the caller's to add.
    """
    cfg = cfg or SamplerConfig()
    mcfg = weights.cfg
    if (trace is None) != (plan is None):
        raise TraceMismatch("trace and plan must be supplied together")
    inject = None
    if plan is not None:
        if plan.trace is not trace:
            raise TraceMismatch("plan was built from a different trace")
        if plan.cutoff_step > cfg.steps:
            raise TraceMismatch(
                f"plan cutoff {plan.cutoff_step} exceeds sampler steps {cfg.steps}"
            )
        model_dims = (mcfg.n_layers, mcfg.n_heads, mcfg.n_img)
        trace_dims = (trace.n_layers, trace.n_heads, trace.n_img)
        if trace_dims != model_dims:
            raise TraceMismatch(
                f"trace (layers, heads, n_img) {trace_dims} != model's {model_dims}"
            )
        rows = {key: trace.core_rows(*key, core) for key, core in plan.sets.items()}

        def inject(step: int, layer: int, head: int, block: np.ndarray) -> np.ndarray:
            return apply_injection(block, rows[(step, layer)][head], plan.sets[(step, layer)])

    knots = cfg.knots()
    x = draw_noise(cfg.noise_seed, (mcfg.n_img, mcfg.patch_dim))
    text_cond = embed_prompt(prompt, weights)
    text_uncond = embed_prompt("", weights)
    hooked_steps = plan.cutoff_step if plan is not None else 0

    step_logs = []
    for i in range(1, cfg.steps + 1):
        t_i = float(knots[i - 1])
        t_next = float(knots[i])
        hook = AttentionHook(
            store_logits=probe is not None,
            store_probs=probe is not None,
            override=inject if i <= hooked_steps else None,
            step=i,
        )

        # forward copies its tokens, so both branches can share one embedding
        image = embed_patches(weights, x)
        tokens_u = TokenSequence(text=text_uncond, image=image)
        v_uncond, cap_u = forward(weights, tokens_u, t_i, hook)
        if probe is not None:
            probe(i, t_i, "uncond", cap_u)
        tokens_c = TokenSequence(text=text_cond, image=image)
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
    return pixels, RunManifest(step_logs=step_logs)
