"""Deterministic toy multimodal diffusion transformer.

Text and image tokens are concatenated (text first) and processed by J
pre-norm transformer blocks with joint multi-head self-attention, timestep
scale/shift conditioning, and a linear velocity head over image tokens. All
weights come from one seeded PRNG stream with a documented draw order, so a
config fully determines the network bit-for-bit.

Attention maps are exposed per head as T x T logits (scaled qk^T) and row
softmax probabilities, partitioned at index t_txt into T2T / T2I / I2T / I2I
sub-blocks. A hook may rewrite I2I logits after scaling and before softmax,
may capture either map, and may have each layer's I2I blocks handed to a sink
as soon as that layer's softmax is done.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, NonFiniteActivation, ShapeMismatch
from .glyphs import GlyphImage
from .tensorio import tensors_checksum

TEXT_TABLE_ROWS = 4096
_LN_EPS = 1e-6


# ---------------------------------------------------------------- config


@dataclass(frozen=True)
class ModelConfig:
    d_model: int = 64
    n_heads: int = 4
    n_layers: int = 6
    patch: int = 8
    grid: int = 16
    t_txt: int = 16
    seed: int = 0

    def __post_init__(self):
        for name in ("d_model", "n_heads", "n_layers", "patch", "grid", "t_txt"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.d_model % self.n_heads:
            raise ConfigError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )

    @property
    def n_img(self) -> int:
        return self.grid * self.grid

    @property
    def seq_len(self) -> int:
        return self.t_txt + self.n_img

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads

    @property
    def patch_dim(self) -> int:
        return self.patch * self.patch

    @property
    def canvas(self) -> int:
        return self.grid * self.patch


# ---------------------------------------------------------------- tokens


@dataclass
class TokenSequence:
    """Joint sequence: text block then image block, boundary at t_txt."""

    text: np.ndarray
    image: np.ndarray

    def __post_init__(self):
        if self.text.ndim != 2 or self.image.ndim != 2:
            raise ShapeMismatch("token blocks must be 2-D")
        if self.text.shape[1] != self.image.shape[1]:
            raise ShapeMismatch("text and image token widths differ")
        if not (np.isfinite(self.text).all() and np.isfinite(self.image).all()):
            raise NonFiniteActivation("token sequence contains non-finite values")

    @property
    def t_txt(self) -> int:
        return self.text.shape[0]

    def joint(self) -> np.ndarray:
        return np.concatenate([self.text, self.image], axis=0)


@dataclass
class JointAttention:
    """One layer's captured attention: per-head T x T maps and the partition index.

    `logits` and `probs` are copies of the layer's maps that belong to the
    capture: later forwards never write them, so a consumer may keep them.
    """

    t_txt: int
    logits: np.ndarray | None = None
    probs: np.ndarray | None = None

    def i2i(self, which: str = "probs") -> np.ndarray:
        arr = getattr(self, which)
        if arr is None:
            raise ConfigError(f"{which} were not captured")
        return arr[:, self.t_txt :, self.t_txt :]


OverrideFn = Callable[[int, int, int, np.ndarray], np.ndarray]
# (step, layer, i2i_logits, i2i_probs): the blocks are views of forward's maps,
# valid only during the call
SinkFn = Callable[[int, int, np.ndarray, np.ndarray], None]


@dataclass
class AttentionHook:
    """Capture flags, an optional I2I logit override and an optional I2I sink.

    The override receives (step, layer, head, i2i_logits) with the logits
    already scaled by 1/sqrt(d_head), and returns the block to use; it cannot
    touch T2T/T2I/I2T. The block it receives is a view of forward's logits
    map, so writing it writes the logits, and an override may edit it in
    place and return it; the next layer overwrites it, so an override that
    keeps it must copy. `store_logits` and `store_probs` capture full-map
    copies at every layer.

    `sink` is called once per layer, right after the layer's softmax, as
    sink(step, layer, i2i_logits, i2i_probs), with the hook's `step` as the
    override gets it. Both blocks are (n_heads, n_img, n_img) views of
    forward's maps, the logits after the override. They are valid only
    during the call, since the next layer overwrites them, so a sink that
    keeps any of their bytes copies them; it must not write them.
    A sink is not a full-map capture.

    A hook with no flag, override or sink set runs the same forward as no
    hook, so a caller may build one hook per step whatever it turns on.
    """

    store_logits: bool = False
    store_probs: bool = False
    override: OverrideFn | None = None
    step: int = 0
    sink: SinkFn | None = None


# ---------------------------------------------------------------- weights


@dataclass
class LayerWeights:
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    ada: np.ndarray


@dataclass
class ModelWeights:
    """The network's weights, built by `init_model`; forward only reads them."""

    cfg: ModelConfig
    text_table: np.ndarray
    pad_vec: np.ndarray
    patch_w: np.ndarray
    layers: tuple[LayerWeights, ...]
    head_w: np.ndarray
    pos_enc: np.ndarray = field(repr=False)

    def named(self) -> dict[str, np.ndarray]:
        out = {
            "text_table": self.text_table,
            "pad_vec": self.pad_vec,
            "patch_w": self.patch_w,
            "head_w": self.head_w,
        }
        for i, lw in enumerate(self.layers):
            for key in ("wq", "wk", "wv", "wo", "w1", "w2", "ada"):
                out[f"layer{i:02d}.{key}"] = getattr(lw, key)
        return out

    def checksum(self) -> str:
        meta = {key: str(value) for key, value in asdict(self.cfg).items()}
        return tensors_checksum(self.named(), meta=meta)


def _weights_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    )


def init_model(cfg: ModelConfig) -> ModelWeights:
    """Draw all weights from the seeded weight stream.

    Draw order (standard normal, then scaled by 1/sqrt(fan_in)):
      1. text_table (4096, d_model), fan_in d_model
      2. pad_vec (d_model,), fan_in d_model
      3. patch_w (patch^2, d_model), fan_in patch^2
      4. per layer 0..J-1: wq, wk, wv, wo (d x d); w1 (d, 4d); w2 (4d, d);
         ada (d, 4d) mapping the timestep embedding to two scale/shift pairs
      5. head_w (d_model, patch^2)
    Biases are identically zero and not stored. The same seed always yields
    bit-identical weights.
    """
    rng = _weights_rng(cfg.seed)
    d = cfg.d_model

    text_table = rng.standard_normal((TEXT_TABLE_ROWS, d)) / math.sqrt(d)
    pad_vec = rng.standard_normal(d) / math.sqrt(d)
    patch_w = rng.standard_normal((cfg.patch_dim, d)) / math.sqrt(cfg.patch_dim)
    layers = []
    for _ in range(cfg.n_layers):
        layers.append(
            LayerWeights(
                wq=rng.standard_normal((d, d)) / math.sqrt(d),
                wk=rng.standard_normal((d, d)) / math.sqrt(d),
                wv=rng.standard_normal((d, d)) / math.sqrt(d),
                wo=rng.standard_normal((d, d)) / math.sqrt(d),
                w1=rng.standard_normal((d, 4 * d)) / math.sqrt(d),
                w2=rng.standard_normal((4 * d, d)) / math.sqrt(4 * d),
                ada=rng.standard_normal((d, 4 * d)) / math.sqrt(d),
            )
        )
    head_w = rng.standard_normal((d, cfg.patch_dim)) / math.sqrt(d)
    return ModelWeights(
        cfg=cfg,
        text_table=text_table,
        pad_vec=pad_vec,
        patch_w=patch_w,
        layers=tuple(layers),
        head_w=head_w,
        pos_enc=image_position_encoding(cfg),
    )


# ---------------------------------------------------------------- embeddings


def _sincos(positions: np.ndarray, dim: int) -> np.ndarray:
    """Classic sinusoidal encoding: sin on even slots, cos on odd slots."""
    positions = np.asarray(positions, dtype=np.float64)
    n_pairs = (dim + 1) // 2
    exponents = 2.0 * np.arange(n_pairs) / dim
    freqs = 1.0 / np.power(10000.0, exponents)
    angles = positions[:, None] * freqs[None, :]
    enc = np.zeros((positions.shape[0], dim), dtype=np.float64)
    enc[:, 0::2] = np.sin(angles)
    enc[:, 1::2] = np.cos(angles[:, : dim // 2])
    return enc


def image_position_encoding(cfg: ModelConfig) -> np.ndarray:
    """2-D sinusoidal encoding: row index in the first half, column in the second."""
    idx = np.arange(cfg.n_img)
    rows = idx // cfg.grid
    cols = idx % cfg.grid
    d_rows = cfg.d_model - cfg.d_model // 2
    return np.concatenate(
        [_sincos(rows, d_rows), _sincos(cols, cfg.d_model // 2)], axis=1
    )


def timestep_embedding(t: float, dim: int) -> np.ndarray:
    return _sincos(np.array([t * 1000.0]), dim)[0]


def patchify(g: GlyphImage | np.ndarray, cfg: ModelConfig) -> np.ndarray:
    """Split pixels into row-major non-overlapping patches: (n_img, patch^2)."""
    arr = g.pixels if isinstance(g, GlyphImage) else np.asarray(g, dtype=np.float64)
    side = cfg.canvas
    if arr.shape != (side, side):
        raise ShapeMismatch(f"image shape {arr.shape} != model canvas ({side}, {side})")
    blocks = arr.reshape(cfg.grid, cfg.patch, cfg.grid, cfg.patch)
    return blocks.transpose(0, 2, 1, 3).reshape(cfg.n_img, cfg.patch_dim)


def unpatchify(tokens: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    """Inverse of patchify: (n_img, patch^2) -> (canvas, canvas)."""
    if tokens.shape != (cfg.n_img, cfg.patch_dim):
        raise ShapeMismatch(
            f"token grid shape {tokens.shape} != ({cfg.n_img}, {cfg.patch_dim})"
        )
    blocks = tokens.reshape(cfg.grid, cfg.grid, cfg.patch, cfg.patch)
    return blocks.transpose(0, 2, 1, 3).reshape(cfg.canvas, cfg.canvas)


def embed_patches(weights: ModelWeights, raw: np.ndarray) -> np.ndarray:
    """Linear patch embedding plus additive 2-D position encoding."""
    if raw.shape != (weights.cfg.n_img, weights.cfg.patch_dim):
        raise ShapeMismatch(f"raw patch grid has shape {raw.shape}")
    return raw @ weights.patch_w + weights.pos_enc


def fnv1a64(word: str) -> int:
    """FNV-1a 64-bit hash of the word's UTF-8 bytes."""
    h = 0xCBF29CE484222325
    for b in word.encode("utf-8"):
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def embed_prompt(p: str, weights: ModelWeights) -> np.ndarray:
    """Hash whitespace-split words into the weights' 4096-row text table;
    pad/truncate to t_txt.

    Word slots carry no position encoding, so equal words embed equally
    anywhere in the prompt. The empty prompt is all pad vectors.
    """
    t_txt = weights.cfg.t_txt
    block = np.tile(weights.pad_vec, (t_txt, 1))
    for i, word in enumerate(p.split()[:t_txt]):
        block[i] = weights.text_table[fnv1a64(word) % TEXT_TABLE_ROWS]
    return block


# ---------------------------------------------------------------- forward


def _layernorm(x: np.ndarray) -> np.ndarray:
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + _LN_EPS)


def _gelu(x: np.ndarray) -> np.ndarray:
    """Tanh GELU: 0.5 * x * (1 + tanh(0.7978845608028654 * (x + 0.044715 * (x * x * x)))).

    Evaluated one in-place ufunc at a time in the plain expression's order, so
    the result is bit-identical to it. `x` is left unchanged.
    """
    inner = x * x
    inner *= x
    inner *= 0.044715
    inner += x
    inner *= 0.7978845608028654
    np.tanh(inner, out=inner)
    inner += 1.0
    out = 0.5 * x
    out *= inner
    return out


def _softmax_rows(logits: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Row softmax of `logits` into `out`, which is returned; `logits` is never written."""
    e = np.subtract(logits, logits.max(axis=-1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _require_finite(arr: np.ndarray, what: str, layer: int):
    if not np.isfinite(arr).all():
        raise NonFiniteActivation(f"non-finite {what} at layer {layer}")


def forward(
    weights: ModelWeights,
    tokens: TokenSequence,
    t: float,
    hook: AttentionHook | None = None,
) -> tuple[np.ndarray, dict[int, JointAttention]]:
    """One joint-attention pass; returns (velocity (n_img, patch^2), captures).

    Per block: pre-LN with timestep scale/shift, multi-head joint attention
    (per-head logits scaled by 1/sqrt(d_head), hook override of the I2I block,
    row softmax over the full joint row), residual, then a GELU MLP with its
    own scale/shift, residual. Image tokens pass through a final LN and the
    linear velocity head. Reductions run in fixed ascending-index order, so
    the pass is bit-deterministic for fixed inputs.

    Each call allocates one (heads, T, T) logits/probs pair and computes
    every layer's maps in it, so the result depends only on the arguments:
    a hook may run forward itself, and threads may share `weights`. The
    override gets each head's I2I block as a view of the logits map, and its
    return value is assigned back into that view. `hook.sink` gets
    `hook.step`, the layer and its I2I blocks as views of the same pair,
    right after the layer's softmax; full-map captures are copies.
    """
    cfg = weights.cfg
    if not 0.0 <= t <= 1.0:
        raise ConfigError(f"timestep {t} outside [0,1]")
    if tokens.t_txt != cfg.t_txt or tokens.image.shape != (cfg.n_img, cfg.d_model):
        raise ShapeMismatch("token sequence does not match model config")

    n_heads, d_head, t_txt = cfg.n_heads, cfg.d_head, cfg.t_txt
    seq = cfg.seq_len
    scale = 1.0 / math.sqrt(d_head)
    t_emb = timestep_embedding(t, cfg.d_model)
    captured: dict[int, JointAttention] = {}
    # one block for the pair: with two 2.4 MB maps instead, glibc trims its heap
    # more often and a default sweep op takes ~40k more minor page faults
    logits, probs = np.empty((2, n_heads, seq, seq))
    sink = hook.sink if hook is not None else None

    x = tokens.joint()
    for layer, lw in enumerate(weights.layers):
        s1, b1, s2, b2 = np.split(t_emb @ lw.ada, 4)

        h = _layernorm(x) * (1.0 + s1) + b1
        q = (h @ lw.wq).reshape(seq, n_heads, d_head).transpose(1, 0, 2)
        k = (h @ lw.wk).reshape(seq, n_heads, d_head).transpose(1, 0, 2)
        v = (h @ lw.wv).reshape(seq, n_heads, d_head).transpose(1, 0, 2)
        np.matmul(q, k.transpose(0, 2, 1), out=logits)
        logits *= scale

        if hook is not None and hook.override is not None:
            for head in range(n_heads):
                block = logits[head, t_txt:, t_txt:]
                block[...] = hook.override(hook.step, layer, head, block)
        _require_finite(logits, "attention logits", layer)

        _softmax_rows(logits, out=probs)
        if sink is not None:
            sink(hook.step, layer, logits[:, t_txt:, t_txt:], probs[:, t_txt:, t_txt:])
        ctx = (probs @ v).transpose(1, 0, 2).reshape(seq, cfg.d_model)
        x = x + ctx @ lw.wo

        h2 = _layernorm(x) * (1.0 + s2) + b2
        x = x + _gelu(h2 @ lw.w1) @ lw.w2
        _require_finite(x, "block output", layer)

        if hook is not None and (hook.store_logits or hook.store_probs):
            captured[layer] = JointAttention(
                t_txt=t_txt,
                logits=logits.copy() if hook.store_logits else None,
                probs=probs.copy() if hook.store_probs else None,
            )

    velocity = _layernorm(x[t_txt:]) @ weights.head_w
    _require_finite(velocity, "velocity", cfg.n_layers)
    return velocity, captured
