"""Run manifests: a deterministic JSON record of one generation run."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import ConfigError

VERSION = "0.1.0"


@dataclass
class StepLog:
    """One sampling step; injected_layer_count counts the layers whose plan
    set for this step is nonempty, i.e. the layers that had rows replaced."""

    step: int
    t: float
    injected_layer_count: int


@dataclass
class RunManifest:
    """Everything needed to audit a run: hashes, per-step logs, outputs, metrics.

    The config hash covers the full config plus input checksums, so equal
    hashes imply byte-identical outputs.
    """

    version: str = VERSION
    config_hash: str = ""
    step_logs: list[StepLog] = field(default_factory=list)
    outputs: dict[str, str] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)
    checksums: dict[str, str] = field(default_factory=dict)
    error: dict[str, str] | None = None

    def to_json(self) -> str:
        doc = {
            "version": self.version,
            "config_hash": self.config_hash,
            "step_logs": [
                {"step": s.step, "t": s.t, "injected_layer_count": s.injected_layer_count}
                for s in self.step_logs
            ],
            "outputs": dict(sorted(self.outputs.items())),
            "metrics": dict(sorted(self.metrics.items())),
            "checksums": dict(sorted(self.checksums.items())),
            "error": self.error,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        try:
            doc = json.loads(text)
            return cls(
                version=doc["version"],
                config_hash=doc["config_hash"],
                step_logs=[
                    StepLog(
                        step=int(s["step"]),
                        t=float(s["t"]),
                        injected_layer_count=int(s["injected_layer_count"]),
                    )
                    for s in doc["step_logs"]
                ],
                outputs=dict(doc["outputs"]),
                metrics={k: float(v) for k, v in doc["metrics"].items()},
                checksums=dict(doc["checksums"]),
                error=doc["error"],
            )
        # AttributeError: metrics that are not an object; OverflowError: int(inf)
        # or float() of a huge int; RecursionError: deeply nested arrays
        except (
            AttributeError, KeyError, TypeError, ValueError, OverflowError, RecursionError
        ) as exc:
            raise ConfigError(f"malformed manifest: {exc}") from exc

    @classmethod
    def load(cls, path) -> "RunManifest":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(fh.read())
