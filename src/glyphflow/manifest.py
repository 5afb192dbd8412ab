"""Run manifests: a deterministic JSON record of one generation run."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from .errors import ConfigError, read_text

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
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        try:
            doc = json.loads(text)
            return cls(
                version=_field(doc, "version", str),
                config_hash=_field(doc, "config_hash", str),
                step_logs=[
                    StepLog(
                        step=_field(s, "step", int),
                        t=float(_field(s, "t", int, float)),
                        injected_layer_count=_field(s, "injected_layer_count", int),
                    )
                    for s in doc["step_logs"]
                ],
                outputs=_strings(doc["outputs"], "outputs"),
                metrics={k: float(_field(doc["metrics"], k, int, float)) for k in doc["metrics"].keys()},
                checksums=_strings(doc["checksums"], "checksums"),
                error=None if doc["error"] is None else _strings(doc["error"], "error"),
            )
        # AttributeError: metrics that are not an object; OverflowError: float()
        # of a huge int; RecursionError: deeply nested arrays
        except (
            AttributeError, KeyError, TypeError, ValueError, OverflowError, RecursionError
        ) as exc:
            raise ConfigError(f"malformed manifest: {exc}") from exc

    @classmethod
    def load(cls, path) -> "RunManifest":
        return cls.from_json(read_text(path, "manifest"))


def _field(doc: dict, key: str, *types: type):
    # exact types: a JSON true is a bool, which isinstance() would take for an int
    if type(doc[key]) not in types:
        raise ConfigError(f"malformed manifest: {key} is a {type(doc[key]).__name__}")
    return doc[key]


def _strings(value, name: str) -> dict[str, str]:
    if not isinstance(value, dict) or not all(isinstance(v, str) for v in value.values()):
        raise ConfigError(f"malformed manifest: {name} must be an object of strings")
    return dict(value)
