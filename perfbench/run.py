"""glyphflow benchmark: one closed-loop client driving the public API.

    python3 perfbench/run.py --workload generate --seed 0 --seconds 36 --trace 0

Runs ops of one workload back to back (each starts after the previous one
ends) for about --seconds, checks every op's outputs, and prints one metric
per line followed by a JSON result line. With --trace 0 the metrics are the
end-to-end ones of BENCHMARK.json, measured with no wrappers installed. With
--trace 1 every second op runs with each layer wrapped (see tracer.py), the
others run untraced as a reference, and the metrics are the per-layer ones.

    python3 perfbench/run.py --workload generate --record-goldens 16

re-records the golden outputs of the first 16 ops at the golden seed.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench_tmp"
SETUP_REPS = 11

if not (SRC / "glyphflow" / "__init__.py").is_file():
    sys.exit(f"no glyphflow sources under {SRC}")
sys.path.insert(0, str(SRC))
import numpy as np  # noqa: E402
import ops  # noqa: E402
from tracer import Tracer, instrument, layer_metrics  # noqa: E402

# numpy is imported before the clock starts: its import time is not glyphflow's
_SETUP_PROBE = (
    "import sys, time; sys.path.insert(0, {src!r}); import numpy; t = time.perf_counter(); "
    "import glyphflow as gf; cfg = gf.RunConfig(); gf.init_model(cfg.model); "
    "gf.prepare_glyph(cfg); print(time.perf_counter() - t)"
)


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, read from the library itself."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:  # not Linux
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def measure_setup() -> float:
    """Median over SETUP_REPS fresh interpreters of: import glyphflow, init_model, prepare_glyph."""
    samples = []
    for _ in range(SETUP_REPS):
        probe = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE.format(src=str(SRC))],
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        samples.append(float(probe.stdout))
    return statistics.median(samples)


@dataclass
class OpResult:
    index: int
    traced: bool
    seconds: float | None = None
    errors: list[str] = field(default_factory=list)
    record: dict = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)


def run_op(workload, seed, index, goldens, tmp_root, tracer: Tracer | None) -> OpResult:
    """One op: run it (timed), then check its outputs (untimed), then delete them."""
    res = OpResult(index, tracer is not None)
    cfg = ops.op_config(ops.draw_input(seed, index))
    out_dir = tempfile.mkdtemp(dir=tmp_root)
    try:
        with ops.tapped_plans() as plans:
            if tracer is None:
                t = time.perf_counter()
                out = workload.run(cfg, out_dir)
                res.seconds = time.perf_counter() - t
            else:
                with instrument(tracer):
                    span = tracer.begin("op")
                    try:
                        out = workload.run(cfg, out_dir)
                    finally:
                        tracer.end(span)
                res.seconds = span.duration
                res.layers = layer_metrics(tracer.take(), span)
        res.errors, res.record = workload.check(cfg, out, plans)
        if goldens is not None and index < len(goldens):
            res.errors += ops.golden_errors(res.record, goldens[index])
    except Exception:  # an op that raises is a failed op, not a crashed benchmark
        res.errors.append(traceback.format_exc())
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return res


def run_loop(workload, seed, seconds, trace, goldens, tmp_root) -> list[OpResult]:
    """Closed loop for about `seconds`: stop when the next op would overrun.

    A traced run alternates untraced and traced ops, so the two medians it
    compares for the tracing overhead come from the same stretch of time. It
    runs at least one of each.
    """
    tracer = Tracer() if trace else None
    results: list[OpResult] = []
    start = time.perf_counter()
    while True:
        durations = [r.seconds for r in results if r.seconds is not None] or [0.0]
        elapsed = time.perf_counter() - start
        if len(results) >= 1 + trace and elapsed + statistics.median(durations) > seconds:
            return results
        traced = bool(trace) and len(results) % 2 == 1
        res = run_op(workload, seed, len(results), goldens, tmp_root, tracer if traced else None)
        secs = "-" if res.seconds is None else f"{res.seconds:.4f}"
        state = "FAILED" if res.errors else "ok"
        print(f"op {res.index} traced={int(traced)} {secs} s {state}", flush=True)
        for err in res.errors:
            print(f"  {err}", file=sys.stderr)
        results.append(res)


def end_to_end(results: list[OpResult], setup_s: float) -> dict[str, float]:
    durations = [r.seconds for r in results if r.seconds is not None]
    return {
        "setup_s": setup_s,
        "op_s_p50": statistics.median(durations),
        "ops_per_s": len(durations) / sum(durations),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(results: list[OpResult]) -> dict[str, float]:
    traced = [r for r in results if r.traced and r.seconds is not None]
    reference = [r.seconds for r in results if not r.traced and r.seconds is not None]
    metrics = {
        name: statistics.median(r.layers[name] for r in traced) for name in traced[0].layers
    }
    metrics["trace.op_s_p50"] = statistics.median(r.seconds for r in traced)
    metrics["trace.overhead_s"] = metrics["trace.op_s_p50"] - statistics.median(reference)
    return metrics


def record_goldens(workload_name: str, count: int, tmp_root) -> int:
    workload = ops.WORKLOADS[workload_name]
    records = []
    for index in range(count):
        res = run_op(workload, ops.GOLDEN_SEED, index, None, tmp_root, None)
        if res.errors:
            print("\n".join(res.errors), file=sys.stderr)
            return 1
        records.append(res.record)
        print(f"op {index} recorded", flush=True)
    goldens = ops.load_goldens() if ops.GOLDENS_PATH.exists() else {}
    goldens[workload_name] = records
    with open(ops.GOLDENS_PATH, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(ops.WORKLOADS))
    parser.add_argument("--seed", type=int, default=ops.GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-goldens", type=int, metavar="N", default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    TMP_ROOT.mkdir(exist_ok=True)
    tmp_root = tempfile.mkdtemp(dir=TMP_ROOT)
    try:
        if args.record_goldens:
            return record_goldens(args.workload, args.record_goldens, tmp_root)

        print("env " + json.dumps(environment(args.seed), sort_keys=True), flush=True)
        setup_s = measure_setup()
        goldens = ops.load_goldens().get(args.workload) if args.seed == ops.GOLDEN_SEED else None
        results = run_loop(
            ops.WORKLOADS[args.workload], args.seed, seconds, args.trace, goldens, tmp_root
        )
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass

    failed = sum(1 for r in results if r.errors)
    print(f"ops {len(results)} failed {failed} fail_frac {failed / len(results)!r}")
    if args.trace:
        measured, wanted = per_layer(results), spec["per_layer"]
    else:
        measured, wanted = end_to_end(results, setup_s), spec["end_to_end"]
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": measured[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} {measured[m['name']]!r} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(results),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
