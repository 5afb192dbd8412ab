"""Layer tracing from outside the program.

The benchmark wraps the public functions that `glyphflow.pipeline` and
`glyphflow.sampler` call, by rebinding every reference to them in the loaded
`glyphflow` modules, so no file under `src/` needs a hook. Each call becomes a
span with a name, a duration, the time its child spans cover, and a few
counters. Spans stay in memory; `layer_metrics` turns one op's spans into the
per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import dataclasses
import inspect
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

MB = 1e6


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    child_s: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Single-threaded span recorder: a stack of open spans and a list of closed ones."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def begin(self, name: str) -> Span:
        span = Span(name, time.perf_counter())
        self._stack.append(span)
        return span

    def end(self, span: Span):
        span.end = time.perf_counter()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if self._stack:
            self._stack[-1].child_s += span.duration
        self.spans.append(span)

    def take(self) -> list[Span]:
        """Return the closed spans and start a fresh list (one op at a time)."""
        spans, self.spans = self.spans, []
        return spans


def _tensor_bytes(tensors) -> int:
    return sum(arr.nbytes for arr in tensors.values())


def _plain(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        span = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(span)

    return wrapper


def _bytes_in(tracer: Tracer, name: str, fn):
    """Span whose `bytes` counter is the size of the `tensors` argument."""
    sig = inspect.signature(fn)

    def wrapper(*args, **kwargs):
        span = tracer.begin(name)
        span.attrs["bytes"] = _tensor_bytes(sig.bind(*args, **kwargs).arguments["tensors"])
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(span)

    return wrapper


def _read(tracer: Tracer, name: str, fn):
    """Span for read_tensors: bytes returned and the tracemalloc peak of the call."""

    def wrapper(*args, **kwargs):
        span = tracer.begin(name)
        tracemalloc.start()
        try:
            tensors, meta = fn(*args, **kwargs)
            span.attrs["peak_bytes"] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            tracer.end(span)
        span.attrs["bytes"] = _tensor_bytes(tensors)
        return tensors, meta

    return wrapper


def _forward(tracer: Tracer, name: str, fn):
    """Span for model.forward, split by the AttentionHook passed in.

    kind is `override` when the hook rewrites logits, `capture` when it only
    stores maps, `plain` otherwise. The hook's override is wrapped to count
    how often forward runs it; `capture_bytes` is the size of the logits and
    probs arrays that forward returns.
    """
    sig = inspect.signature(fn)

    def wrapper(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        hook = bound.arguments.get("hook")
        span = tracer.begin(name)
        if hook is not None and hook.override is not None:
            span.attrs["kind"] = "override"
            span.attrs["override_calls"] = 0
            inner = hook.override

            def counted(*o_args):
                span.attrs["override_calls"] += 1
                return inner(*o_args)

            bound.arguments["hook"] = dataclasses.replace(hook, override=counted)
        elif hook is not None and (hook.store_logits or hook.store_probs):
            span.attrs["kind"] = "capture"
        else:
            span.attrs["kind"] = "plain"
        try:
            velocity, captured = fn(*bound.args, **bound.kwargs)
        finally:
            tracer.end(span)
        span.attrs["capture_bytes"] = sum(
            arr.nbytes
            for att in captured.values()
            for arr in (att.logits, att.probs)
            if arr is not None
        )
        return velocity, captured

    return wrapper


# span name -> (defining module, function name, wrapper factory)
TARGETS = {
    "glyphs.rasterize": ("glyphflow.glyphs", "rasterize_text", _plain),
    "model.init": ("glyphflow.model", "init_model", _plain),
    "model.forward": ("glyphflow.model", "forward", _forward),
    "sampler.reconstruct": ("glyphflow.sampler", "reconstruct_capture", _plain),
    "sampler.generate": ("glyphflow.sampler", "generate_with_injection", _plain),
    "coreattn.build_injection": ("glyphflow.coreattn", "build_injection", _plain),
    "coreattn.token_scores": ("glyphflow.coreattn", "token_scores", _plain),
    "coreattn.attention_shift": ("glyphflow.coreattn", "attention_shift", _plain),
    "metrics.mask_coverage": ("glyphflow.metrics", "mask_coverage", _plain),
    "tensorio.checksum": ("glyphflow.tensorio", "tensors_checksum", _bytes_in),
    "tensorio.write": ("glyphflow.tensorio", "write_tensors", _bytes_in),
    "tensorio.read": ("glyphflow.tensorio", "read_tensors", _read),
    "pipeline.run_generate": ("glyphflow.pipeline", "run_generate", _plain),
    "pipeline.run_sweep": ("glyphflow.pipeline", "run_sweep", _plain),
    "pipeline.run_analyze": ("glyphflow.pipeline", "run_analyze", _plain),
}


def _rebind(old, new) -> int:
    """Point every `glyphflow` module attribute that is `old` at `new`."""
    count = 0
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "glyphflow" and not mod_name.startswith("glyphflow."):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)
                count += 1
    return count


@contextlib.contextmanager
def rebound(old, new):
    """Swap `old` for `new` everywhere in glyphflow for the duration of the block."""
    if not _rebind(old, new):
        raise RuntimeError(f"{getattr(old, '__name__', old)} is not referenced by glyphflow")
    try:
        yield
    finally:
        _rebind(new, old)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every function in TARGETS with a span recorder for the block.

    A target the program no longer has is skipped, and its metrics read 0.
    """
    with contextlib.ExitStack() as stack:
        for name, (mod_name, fn_name, factory) in TARGETS.items():
            original = getattr(sys.modules.get(mod_name), fn_name, None)
            if original is None:
                print(f"trace: {mod_name}.{fn_name} not found, {name} not traced", file=sys.stderr)
                continue
            stack.enter_context(rebound(original, factory(tracer, name, original)))
        yield


def _p50_ms(durations: list[float]) -> float:
    return statistics.median(durations) * 1e3 if durations else 0.0


def layer_metrics(spans: list[Span], op: Span) -> dict[str, float]:
    """Per-layer metrics for one op from its spans; absent layers read 0."""
    by_name: dict[str, list[Span]] = {name: [] for name in TARGETS}
    for span in spans:
        if span is not op:
            by_name[span.name].append(span)

    def total(name):
        return sum(s.duration for s in by_name[name])

    def self_total(name):
        return sum(s.self_s for s in by_name[name])

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name[name])

    fwd = by_name["model.forward"]
    fwd_s = [s.duration for s in fwd]
    m = {
        "glyphs.rasterize_s": total("glyphs.rasterize"),
        "model.init_s": total("model.init"),
        "model.forward_calls": len(fwd),
        "model.forward_s": sum(fwd_s),
        "model.forward_ms_p50": _p50_ms(fwd_s),
        "model.forward_ms_p90": (
            statistics.quantiles(fwd_s, n=10, method="inclusive")[8] * 1e3
            if len(fwd_s) > 1
            else _p50_ms(fwd_s)
        ),
        "model.capture_mb": attr_sum("model.forward", "capture_bytes") / MB,
        "sampler.reconstruct_s": total("sampler.reconstruct"),
        "sampler.reconstruct_self_s": self_total("sampler.reconstruct"),
        "sampler.generate_s": total("sampler.generate"),
        "sampler.generate_self_s": self_total("sampler.generate"),
        "sampler.override_calls": attr_sum("model.forward", "override_calls"),
        "coreattn.build_injection_s": total("coreattn.build_injection"),
        "coreattn.build_injection_calls": len(by_name["coreattn.build_injection"]),
        "coreattn.token_scores_calls": len(by_name["coreattn.token_scores"]),
        "coreattn.token_scores_s": total("coreattn.token_scores"),
        "coreattn.attention_shift_s": total("coreattn.attention_shift"),
        "metrics.mask_coverage_s": total("metrics.mask_coverage"),
        "tensorio.checksum_s": total("tensorio.checksum"),
        "tensorio.checksum_mb": attr_sum("tensorio.checksum", "bytes") / MB,
        "tensorio.write_s": total("tensorio.write"),
        "tensorio.write_mb": attr_sum("tensorio.write", "bytes") / MB,
        "tensorio.read_s": total("tensorio.read"),
        "tensorio.read_mb": attr_sum("tensorio.read", "bytes") / MB,
        "tensorio.read_peak_mb": max(
            (s.attrs.get("peak_bytes", 0) for s in by_name["tensorio.read"]), default=0
        ) / MB,
        "pipeline.self_s": op.self_s
        + sum(self_total(name) for name in TARGETS if name.startswith("pipeline.")),
    }
    for kind in ("plain", "capture", "override"):
        m[f"model.forward_{kind}_ms_p50"] = _p50_ms(
            [s.duration for s in fwd if s.attrs["kind"] == kind]
        )
    return m
