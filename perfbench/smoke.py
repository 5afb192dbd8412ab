"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Runs each workload for its minimum number of ops (one untraced; one untraced
plus one traced) at the golden seed, and asserts that every metric listed in
BENCHMARK.json is emitted with its unit, that no op failed, and that the
per-op layer counts are the ones the workloads are defined by.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPECTED_COUNTS = {
    "generate": {
        "model.forward_calls": 68,
        "coreattn.token_scores_calls": 72,
        "sampler.override_calls": 576,
    },
    "sweep": {
        "model.forward_calls": 18,
        "coreattn.token_scores_calls": 1890,
        "sampler.override_calls": 0,
    },
    "trace_io": {
        "model.forward_calls": 12,
        "coreattn.token_scores_calls": 144,
        "sampler.override_calls": 0,
    },
}


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload]
    cmd += ["--seed", "0", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] == 1 + trace, result["attempted"]
            names = [m["name"] for m in wanted]
            assert sorted(result["metrics"]) == sorted(names), sorted(result["metrics"])
            for m in wanted:
                got = result["metrics"][m["name"]]
                assert got["unit"] == m["unit"], (m["name"], got)
                assert isinstance(got["value"], (int, float)), (m["name"], got)
            if trace:
                for name, count in EXPECTED_COUNTS[workload].items():
                    assert result["metrics"][name]["value"] == count, (workload, name)
            print(f"{workload} trace={trace}: ok ({len(names)} metrics, fail_frac 0)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
