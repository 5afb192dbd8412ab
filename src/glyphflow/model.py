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

A forward of one sequence runs on the calling thread. A pair's forward runs
branch 0 on the caller and branch 1 on the worker pool
(`tensorio.worker_pool`), each whole, and branch 1 hands each layer's sink
call to the caller (`_Relay`). Every BLAS call holds numpy's bundled
OpenBLAS to one thread. Without that symbol, on one core, on a pool thread,
or while a relayed branch 1 waits on the caller, a pair's branches run on
the caller in order, so no pool task waits for a queued one. No output byte
depends on which thread runs a branch.
"""

from __future__ import annotations

import math
import os
import threading
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from functools import cache
from typing import Callable

import numpy as np

from .errors import ConfigError, NonFiniteActivation, ShapeMismatch
from .glyphs import GlyphImage
from .tensorio import tensors_checksum, worker_pool

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
    A CFG pair's capture stacks its two branches' maps along a leading axis.
    """

    t_txt: int
    logits: np.ndarray | None = None
    probs: np.ndarray | None = None

    def i2i(self, which: str = "probs") -> np.ndarray:
        arr = getattr(self, which)
        if arr is None:
            raise ConfigError(f"{which} were not captured")
        return arr[..., self.t_txt :, self.t_txt :]

    @classmethod
    def stacked(cls, branches: list["JointAttention"]) -> "JointAttention":
        """One layer's captures of a CFG pair's branches, stacked along a leading axis."""
        maps = [[getattr(part, which) for part in branches] for which in ("logits", "probs")]
        return cls(branches[0].t_txt, *(None if a[0] is None else np.stack(a) for a in maps))

    def branch(self, index: int) -> "JointAttention":
        """Branch `index`'s maps of a stacked capture, as views."""
        maps = (self.logits, self.probs)
        return JointAttention(self.t_txt, *(None if a is None else a[index] for a in maps))


OverrideFn = Callable[[int, int, int, np.ndarray], np.ndarray]
# (step, layer, i2i_logits, i2i_probs): the blocks are views of forward's maps,
# valid only during the call; the logits are None for a sink that reads none
SinkFn = Callable[[int, int, np.ndarray | None, np.ndarray], None]


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
    A sink is not a full-map capture. A sink whose `reads_logits` attribute
    is false gets None for the logits, and then, without `store_logits`,
    forward computes the probabilities over the logits in one map. `step`
    may be a pair, one per branch of a pair forward.

    `velocity = False` says the caller discards the velocity: forward stops
    right after the last layer's sink and full-map captures, skipping that
    layer's attention output, MLP and the velocity head, and returns None
    for it. The sink and the captures get the same bytes either way.

    A hook with no flag, override or sink set runs the same forward as no
    hook, so a caller may build one hook per step whatever it turns on.

    The sink runs on the calling thread only, and so does all of a forward
    of one sequence. In a pair each branch calls the override on its own
    thread, branch 1 on a pool thread where the branches run at once, and
    per layer the sink gets branch 0's step, then branch 1's.
    """

    store_logits: bool = False
    store_probs: bool = False
    override: OverrideFn | None = None
    step: int | tuple[int, int] = 0
    sink: SinkFn | None = None
    velocity: bool = True


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
    # each layer's matrices in draw order; fan_in is a matrix's row count
    square, wide = (d, d), (d, 4 * d)
    shapes = dict(wq=square, wk=square, wv=square, wo=square, w1=wide, w2=(4 * d, d), ada=wide)
    layers = tuple(
        LayerWeights(**{k: rng.standard_normal(s) / math.sqrt(s[0]) for k, s in shapes.items()})
        for _ in range(cfg.n_layers)
    )
    head_w = rng.standard_normal((d, cfg.patch_dim)) / math.sqrt(d)
    return ModelWeights(
        cfg=cfg,
        text_table=text_table,
        pad_vec=pad_vec,
        patch_w=patch_w,
        layers=layers,
        head_w=head_w,
        pos_enc=image_position_encoding(cfg),
    )


# ---------------------------------------------------------------- threads


@cache
def _blas_setter() -> Callable[[int], int] | None:
    """`openblas_set_num_threads_local` of numpy's bundled OpenBLAS, which
    returns the count it replaces; None where there is no such symbol."""
    import ctypes
    import glob
    libs = os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs")
    paths = sorted(glob.glob(os.path.join(libs, "libscipy_openblas*")))
    setter = getattr(ctypes.CDLL(paths[0]) if paths else None, "openblas_set_num_threads_local", None)
    if setter is not None:
        setter.restype, setter.argtypes = ctypes.c_int, [ctypes.c_int]
    return setter


_HOLDS = [0, 0]  # open `_one_blas_thread` holds, and the count the first replaced
_HOLDS_LOCK = threading.Lock()


@contextmanager
def _one_blas_thread():
    """Hold OpenBLAS to one thread for the block, then restore the count it
    replaced, or, ending last of overlapping holds, the count the first one
    replaced: numpy's pthreads OpenBLAS has one count for the process."""
    setter = _blas_setter() or (lambda count: count)
    with _HOLDS_LOCK:
        previous = setter(1)
        if not _HOLDS[0]:
            _HOLDS[1] = previous
        _HOLDS[0] += 1
    try:
        yield
    finally:
        with _HOLDS_LOCK:
            _HOLDS[0] -= 1
            setter(previous if _HOLDS[0] else _HOLDS[1])


# `relaying` is set while this thread runs a pair whose branch 1 may wait on it
_LOCAL = threading.local()


def _threads() -> int:
    """How many threads a pair forward on this thread may use: the pool's,
    or 1 without the BLAS symbol, on a pool thread, or while a pool thread
    waits on this one, so that no pool task waits for a queued one."""
    if not _blas_setter() or getattr(_LOCAL, "relaying", False):
        return 1
    return 1 if threading.current_thread().name.startswith("glyphflow-worker") else worker_pool()[1]


class _Relay:
    """A pair's one sink, run on the calling thread for both branches: branch
    1, on a pool thread, `hand`s each layer's sink arguments over and waits;
    `take`, branch 0's sink, calls the sink with its own arguments, then
    with branch 1's once they arrive, and lets branch 1 go on. `close`, as
    either branch ends, stops both waits; a branch 1 still waiting raises."""

    def __init__(self, sink: SinkFn):
        self._sink, self._cond = sink, threading.Condition()
        self._args, self._open = None, True

    def hand(self, *args):
        with self._cond:
            self._args = args
            self._cond.notify_all()
            self._cond.wait_for(lambda: self._args is None or not self._open)
            if self._args is not None:
                raise RuntimeError("branch 0 ended before its sink took branch 1's layer")

    def take(self, *args):
        self._sink(*args)
        with self._cond:
            self._cond.wait_for(lambda: self._args is not None or not self._open)
            args = self._args
        if args is not None:
            try:
                self._sink(*args)
            finally:
                with self._cond:
                    self._args = None
                    self._cond.notify_all()

    def close(self):
        with self._cond:
            self._open = False
            self._cond.notify_all()


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


@_one_blas_thread()
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


def _gelu(
    x: np.ndarray, inner: np.ndarray | None = None, out: np.ndarray | None = None
) -> np.ndarray:
    """Tanh GELU: 0.5 * x * (1 + tanh(0.7978845608028654 * (x + 0.044715 * (x * x * x)))).

    Evaluated one in-place ufunc at a time in the plain expression's order, so
    the result is bit-identical to it, into `inner` and `out` where given.
    `x` is left unchanged unless it is `out`.
    """
    inner = np.multiply(x, x, out=inner)
    inner *= x
    inner *= 0.044715
    inner += x
    inner *= 0.7978845608028654
    np.tanh(inner, out=inner)
    inner += 1.0
    out = np.multiply(0.5, x, out=out)
    out *= inner
    return out


def _softmax_rows(logits: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Row softmax of `logits` into `out`, returned; `logits` is unwritten unless it is `out`."""
    e = np.subtract(logits, logits.max(axis=-1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _require_finite(arr: np.ndarray, what: str, layer: int):
    if not np.isfinite(arr).all():
        raise NonFiniteActivation(f"non-finite {what} at layer {layer}")


def forward(
    weights: ModelWeights,
    tokens: TokenSequence | tuple[TokenSequence, TokenSequence],
    t: float | tuple[float, float],
    hook: AttentionHook | None = None,
) -> tuple:
    """One joint-attention pass; returns (velocity (n_img, patch^2) or None, captures).

    Per block: pre-LN with timestep scale/shift, multi-head joint attention
    (per-head logits scaled by 1/sqrt(d_head), hook override of the I2I block,
    row softmax over the full joint row), residual, then a GELU MLP with its
    own scale/shift, residual. Image tokens pass through a final LN and the
    linear velocity head. Reductions run in fixed ascending-index order, so
    the pass is bit-deterministic for fixed inputs.

    `tokens` may be a pair of sequences sharing the hook, with `t` and
    `hook.step` shared (a CFG step's branches) or pairs too (two
    reconstruction steps). It gives two single forwards' bytes as
    ((velocity, velocity), captures), each captured map stacked along a
    leading branch axis, and per layer the sink gets branch 0, then branch 1.

    A forward of one sequence runs on the calling thread; a pair runs branch
    1 on the worker pool. The calling thread allocates every buffer per call,
    so the result depends only on the arguments, and threads may share
    `weights`. A hook may run forward itself; on a pool thread, or on the
    caller while a relayed branch 1 waits on it, a pair's branches then run
    on that thread in order.

    A sequence's logits and probs share one (heads, T, T) map unless the sink
    reads the logits (its `reads_logits`, true if absent) or `store_logits`
    is set; with one map the sink gets None for the logits. The override's
    return value is assigned back into the I2I view it gets; the sink gets
    the step, the layer and I2I views of the maps right after the layer's
    softmax, and full-map captures are copies taken after it. With
    `hook.velocity` False the pass ends there at the last layer and the
    velocity is None.
    """
    cfg = weights.cfg
    pair = isinstance(tokens, tuple)
    sequences = tokens if pair else (tokens,)
    count = len(sequences)
    times = t if isinstance(t, tuple) else (t,) * count
    step = hook.step if hook is not None else 0
    steps = step if isinstance(step, tuple) else (step,) * count
    if (pair and count != 2) or len(times) != count or len(steps) != count:
        raise ConfigError("a pair is two token sequences, with one t and hook step for both or one each")
    if not all(0.0 <= t_b <= 1.0 for t_b in times):
        raise ConfigError(f"timestep {t} outside [0,1]")
    for seq in sequences:
        if seq.t_txt != cfg.t_txt or seq.image.shape != (cfg.n_img, cfg.d_model):
            raise ShapeMismatch("token sequence does not match model config")

    n_heads, seq_len = cfg.n_heads, cfg.seq_len
    sink = hook.sink if hook is not None else None
    reads_logits = sink is not None and getattr(sink, "reads_logits", True)
    two_maps = reads_logits or (hook is not None and hook.store_logits)
    # one block for all maps: with a separate 2.4 MB array per map, glibc trims
    # its heap more often and a default sweep op takes ~40k more minor page faults
    maps = np.empty((count, 1 + two_maps, n_heads, seq_len, seq_len))
    ctx = np.empty((count, n_heads, seq_len, cfg.d_head))  # each head's attention output
    mlp = np.empty((count, 2, seq_len, 4 * cfg.d_model))  # the MLP's GELU input and inner term
    concurrent = pair and _threads() > 1  # branch 1 on the pool
    relay = _Relay(sink) if concurrent and sink is not None else None
    sinks = (relay.take, relay.hand) if relay is not None else (sink,) * count
    hooks = [None if hook is None else replace(hook, step=s, sink=k) for s, k in zip(steps, sinks)]
    t_embs = [timestep_embedding(t_b, cfg.d_model) for t_b in times]
    results = [None] * count

    def run(b: int):
        try:
            results[b] = _pass(weights, sequences[b], t_embs[b], hooks[b], maps[b], ctx[b], mlp[b])
        finally:
            if relay is not None:
                relay.close()

    outer = getattr(_LOCAL, "relaying", False)
    _LOCAL.relaying = outer or relay is not None
    try:
        with _one_blas_thread():
            branch_1 = worker_pool()[0].submit(_one_blas_thread()(run), 1) if concurrent else None
            try:
                for b in range(1 if concurrent else count):
                    run(b)
            finally:  # branch 0's error comes first, branch 1's after it is done
                error = branch_1.exception() if concurrent else None
            if error is not None:
                raise error
    finally:
        _LOCAL.relaying = outer
    if not pair:
        return results[0]
    velocities, caps = zip(*results)
    return velocities, {layer: JointAttention.stacked([c[layer] for c in caps]) for layer in caps[0]}


def _pass(weights: ModelWeights, tokens: TokenSequence, t_emb: np.ndarray,
          hook: AttentionHook | None, maps: np.ndarray, ctx: np.ndarray, mlp: np.ndarray):
    """One sequence's `forward` into the caller's buffers."""
    cfg = weights.cfg
    n_heads, d_head, t_txt, seq = cfg.n_heads, cfg.d_head, cfg.t_txt, cfg.seq_len
    scale = 1.0 / math.sqrt(d_head)
    logits, probs = maps[0], maps[-1]
    sunk_logits = logits[:, t_txt:, t_txt:] if len(maps) == 2 else None
    captured: dict[int, JointAttention] = {}
    override = hook.override if hook is not None else None
    sink = hook.sink if hook is not None else None
    stop_at = cfg.n_layers - 1 if hook is not None and not hook.velocity else None

    x = tokens.joint()
    for layer, lw in enumerate(weights.layers):
        s1, b1, s2, b2 = np.split(t_emb @ lw.ada, 4)

        # (T, d) arrays change in place, freed once used: a pool thread's arena keeps a branch's peak
        h = _layernorm(x)
        h *= 1.0 + s1
        h += b1
        q = (h @ lw.wq).reshape(seq, n_heads, d_head).transpose(1, 0, 2)
        k = (h @ lw.wk).reshape(seq, n_heads, d_head).transpose(1, 0, 2)
        v = None if layer == stop_at else (h @ lw.wv).reshape(seq, n_heads, d_head).transpose(1, 0, 2)
        del h
        np.matmul(q, k.transpose(0, 2, 1), out=logits)
        logits *= scale
        if override is not None:
            for head in range(n_heads):
                block = logits[head, t_txt:, t_txt:]
                block[...] = override(hook.step, layer, head, block)
        _require_finite(logits, "attention logits", layer)
        _softmax_rows(logits, out=probs)
        if v is not None:
            np.matmul(probs, v, out=ctx)

        if sink is not None:
            sink(hook.step, layer, sunk_logits, probs[:, t_txt:, t_txt:])
        if hook is not None and (hook.store_logits or hook.store_probs):
            captured[layer] = JointAttention(
                t_txt=t_txt,
                logits=logits.copy() if hook.store_logits else None,
                probs=probs.copy() if hook.store_probs else None,
            )
        if layer == stop_at:
            return None, captured

        x += ctx.transpose(1, 0, 2).reshape(seq, cfg.d_model) @ lw.wo
        del q, k, v
        h = _layernorm(x)
        h *= 1.0 + s2
        h += b2
        z = np.matmul(h, lw.w1, out=mlp[0])
        del h
        x += _gelu(z, mlp[1], out=z) @ lw.w2
        _require_finite(x, "block output", layer)

    velocity = _layernorm(x[t_txt:]) @ weights.head_w
    _require_finite(velocity, "velocity", cfg.n_layers)
    return velocity, captured
