"""Rectified-flow Euler sampling with classifier-free guidance, plus the
synchronous reconstruction pass that captures I2I attention.

The schedule has steps+1 evenly spaced knots from 1 down to 0; step i
evaluates the model at knot i-1, so a run costs exactly `steps` evaluations
per CFG branch.
Reconstruction never integrates: each captured step re-noises the clean glyph
latent to t_i with one fixed eps, runs a single unguided forward, and hands
every layer's I2I logits and probabilities to a layer sink: an
`AttentionTrace` stores them, a `TraceChecksum` hashes them as the full
trace's checksum, and a `coreattn.ScoreReducer` scores them.

All noise comes from one seeded stream whose first draw is the (n_img,
patch^2) eps, so reconstruction and generation see identical noise whenever
their seeds match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .coreattn import (
    CoreTokenSet, InjectionPlan, ScoreMode, ScoreReducer, StepScorer, apply_injection,
)
from .errors import ConfigError, ShapeMismatch, TraceMismatch
from .glyphs import GlyphImage
from .manifest import RunManifest, StepLog
from .model import (
    AttentionHook,
    JointAttention,
    ModelConfig,
    ModelWeights,
    SinkFn,
    TokenSequence,
    embed_patches,
    embed_prompt,
    forward,
    patchify,
    unpatchify,
)
from .tensorio import ChecksumStream, read_tensors, tensors_checksum, write_tensors

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

    def captured_t_values(self) -> tuple[float, ...]:
        """The t values of the reconstruction's captured steps 1..cutoff_step."""
        return tuple(float(t) for t in self.knots()[: self.cutoff_step])


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


def _trace_meta(t_values: tuple[float, ...], dims: tuple[int, int, int, int]) -> dict[str, str]:
    """A trace's tensordump meta: its (steps, n_layers, n_heads, n_img) and t values."""
    meta = dict(zip(("steps", "n_layers", "n_heads", "n_img"), map(str, dims)))
    meta["t_values"] = ",".join(repr(float(t)) for t in t_values)
    return meta


@dataclass
class AttentionTrace:
    """I2I logits and probabilities for steps 1..steps at every layer and head.

    `logits` and `probs` have shape (steps, n_layers, n_heads, n_img, n_img)
    and there is one t value per step; `steps`, `n_layers`, `n_heads` and
    `n_img` are read-only properties of that shape, so no copy of them is
    stored. A plan pairs with the trace object it was built from, never by
    checksum, so nothing caches the checksum.

    A trace is a layer reducer: `empty` allocates one and
    `reconstruct_capture` fills it through `__call__`. It is what
    `reconstruct` and `generate --save-trace` write and `analyze` loads;
    `analyze` replays it into a `coreattn.ScoreReducer`, and every pipeline
    run plans and injects from such a reducer. Only a direct caller of
    `build_injection` plans from a full trace: its `step_scorer` feeds a
    stored step into a new `StepScorer`, and `core_rows` slices its logits.
    """

    t_values: tuple[float, ...]
    logits: np.ndarray = field(repr=False)
    probs: np.ndarray = field(repr=False)

    def __post_init__(self):
        shape = self.probs.shape
        if len(shape) != 5 or shape[3] != shape[4]:
            raise ShapeMismatch(
                f"trace probs must have shape (steps, layers, heads, n_img, n_img), got {shape}"
            )
        if self.logits.shape != shape:
            raise ShapeMismatch(f"trace logits shape {self.logits.shape} != probs shape {shape}")
        for name, size in zip(("n_layers", "n_heads", "n_img"), shape[1:4]):
            if size == 0:  # steps may be 0: cutoff 0 captures nothing
                raise ShapeMismatch(f"trace shape {shape} has {name} = 0")
        if len(self.t_values) != self.steps:
            raise ShapeMismatch("one t value per captured step required")

    @classmethod
    def empty(cls, cfg: SamplerConfig, model: ModelConfig) -> "AttentionTrace":
        """An unfilled trace of `cfg`'s captured steps at `model`'s dims."""
        shape = (cfg.cutoff_step, model.n_layers, model.n_heads, model.n_img, model.n_img)
        return cls(t_values=cfg.captured_t_values(), logits=np.empty(shape), probs=np.empty(shape))

    def __call__(self, step: int, layer: int, logits: np.ndarray, probs: np.ndarray):
        """Copy one captured layer's I2I blocks into its (1-based step, layer) slot."""
        self.logits[step - 1, layer] = logits
        self.probs[step - 1, layer] = probs

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

    def _index(self, step: int) -> int:
        if not 0 < step <= self.steps:
            raise TraceMismatch(f"trace holds steps 1..{self.steps}, not step {step}")
        return step - 1

    def step_logits(self, step: int, layer: int) -> np.ndarray:
        """Per-head I2I logits for 1-based step."""
        return self.logits[self._index(step), layer]

    def step_scorer(self, step: int, mode: ScoreMode, averaging: bool) -> StepScorer:
        """A `StepScorer` fed every layer of 1-based `step`'s probabilities."""
        scorer = StepScorer(step, mode, averaging)
        for maps in self.probs[self._index(step)]:
            scorer.add(maps)
        return scorer

    def core_rows(self, step: int, layer: int, core: CoreTokenSet) -> np.ndarray:
        """The (n_heads, k, n_img) logit rows of a core set: what injection writes."""
        return self.step_logits(step, layer)[:, core.rows(), :]

    def _meta(self) -> dict[str, str]:
        return _trace_meta(self.t_values, self.probs.shape[:4])

    def _tensors(self) -> dict[str, np.ndarray]:
        return {"logits": self.logits, "probs": self.probs}

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


class TraceChecksum:
    """A layer sink that hashes a capture as it arrives: `hexdigest` gives
    what `AttentionTrace.checksum` of the same capture's full trace would,
    with no trace kept.

    Each call copies the layer's I2I views into one reused (n_heads, n_img,
    n_img) logits/probs pair, laid out as a full trace's (step, layer)
    block, and feeds it to a `ChecksumStream`, which hashes it while the
    caller goes on; the next call waits for that hash before it copies.
    """

    def __init__(self, cfg: SamplerConfig, model: ModelConfig):
        self._t_values = cfg.captured_t_values()
        self._dims = (cfg.cutoff_step, model.n_layers, model.n_heads, model.n_img)
        block = (model.n_heads, model.n_img, model.n_img)
        self._logits, self._probs = np.empty(block), np.empty(block)
        shape = (*self._dims, model.n_img)
        self._hash = ChecksumStream({"logits": ("f8", shape), "probs": ("f8", shape)})

    def __call__(self, step: int, layer: int, logits: np.ndarray, probs: np.ndarray):
        self._hash.wait()
        np.copyto(self._logits, logits)
        np.copyto(self._probs, probs)
        self._hash.update({"logits": self._logits, "probs": self._probs})

    def hexdigest(self) -> str:
        return self._hash.hexdigest(_trace_meta(self._t_values, self._dims))


# ---------------------------------------------------------------- runs


def reconstruct_capture(
    weights: ModelWeights,
    glyph: GlyphImage,
    recon_prompt: str = "",
    cfg: SamplerConfig | None = None,
    probe: ProbeFn | None = None,
    on_layer: SinkFn | None = None,
) -> "AttentionTrace | SinkFn":
    """Capture I2I attention while re-noising the glyph at each captured step.

    For step i <= cutoff_step: x_{t_i} = noise_to(patchify(glyph), t_i, eps)
    with the same eps every step, one unguided forward at t_i, all layers
    captured. The reducer `on_layer` is each step's hook sink itself:
    forward calls it as on_layer(step, layer, logits, probs) as soon as that
    layer's softmax is done, and it is returned; a probe also gets full-map
    copies from the same hook.

    Without `on_layer` the reducer is `AttentionTrace.empty(cfg, weights.cfg)`,
    which copies each layer into its slot, so the full trace is returned.
    The blocks are views of forward's maps that the next layer
    overwrites, so any other reducer reduces or copies each layer during
    its call (see `TraceChecksum` and `coreattn.ScoreReducer`).
    """
    cfg = cfg or SamplerConfig()
    if on_layer is None:
        on_layer = AttentionTrace.empty(cfg, weights.cfg)
    x0 = patchify(glyph, weights.cfg)
    eps = draw_noise(cfg.noise_seed, x0.shape)
    text = embed_prompt(recon_prompt, weights)

    for i, t_i in enumerate(cfg.captured_t_values(), start=1):
        x_t = noise_to(x0, t_i, eps)
        tokens = TokenSequence(text=text, image=embed_patches(weights, x_t))
        hook = AttentionHook(
            store_logits=probe is not None,
            store_probs=probe is not None,
            step=i,
            sink=on_layer,
            velocity=False,
        )
        _, captured = forward(weights, tokens, t_i, hook)
        if probe is not None:
            probe(i, t_i, "recon", captured)
    return on_layer


def generate_with_injection(
    weights: ModelWeights,
    prompt: str,
    trace: "AttentionTrace | ScoreReducer | None",
    plan: InjectionPlan | None,
    cfg: SamplerConfig | None = None,
    probe: ProbeFn | None = None,
) -> tuple[np.ndarray, RunManifest]:
    """Euler CFG loop from pure noise, trace rows injected through the cutoff.

    For steps <= plan.cutoff_step every layer's I2I logit rows listed in the
    plan are replaced by the trace's rows, identically in the conditional and
    unconditional branches. `trace` is a `coreattn.ScoreReducer` (every
    pipeline run) or an `AttentionTrace` (a direct caller); either gives the
    plan's (n_heads, k, n_img) rows through `core_rows`, read once before
    the first forward. Pass
    trace=None, plan=None for a baseline run. The plan must have been built
    from `trace` itself (`plan.trace is trace`); a trace with the same bytes
    is still refused, so no trace is hashed here. A trace whose layers, heads
    or n_img differ from the model's is refused before any forward runs.

    Each step runs both branches as one CFG-pair forward with one
    `AttentionHook`: its override is the injection through the cutoff and
    None after it, and it stores full maps for the probe when one is given;
    the probe then gets each branch's maps on this thread, uncond then cond.
    Returns pixels clamped to [0,1] and a manifest skeleton that holds only
    the step logs: the weights and trace checksums are the caller's to add.
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
        pair = tuple(TokenSequence(text=text, image=image) for text in (text_uncond, text_cond))
        (v_uncond, v_cond), captured = forward(weights, pair, t_i, hook)
        if probe is not None:
            for b, branch in enumerate(("uncond", "cond")):
                probe(i, t_i, branch, {layer: att.branch(b) for layer, att in captured.items()})

        v = cfg_combine(v_cond, v_uncond, cfg.guidance)
        x = euler_step(x, v, t_i, t_next)
        injected = 0
        if i <= hooked_steps:
            injected = sum(1 for layer in range(mcfg.n_layers) if plan.sets[(i, layer)].indices)
        step_logs.append(StepLog(step=i, t=t_i, injected_layer_count=injected))

    pixels = np.clip(unpatchify(x, mcfg), 0.0, 1.0)
    return pixels, RunManifest(step_logs=step_logs)
