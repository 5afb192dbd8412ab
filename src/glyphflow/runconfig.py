"""Flat key-value run configuration.

File format: one `key = value` per line, `#` comments and blank lines
ignored. Keys are dotted (model.*, sampler.*, injection.*, io.*, sweep.*):
one per field of each RunConfig section, typed by the field's annotation.
Unknown keys are rejected. Serialization
is deterministic (sorted keys, repr floats) and parse(serialize(c)) == c.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields, replace

from .coreattn import ScoreMode
from .errors import ConfigError
from .glyphs import Layout
from .model import ModelConfig
from .sampler import SamplerConfig


@dataclass(frozen=True)
class InjectionConfig:
    ratio: float = 0.125
    mode: ScoreMode = ScoreMode.ROW_MASS
    averaging: bool = True
    enabled: bool = True

    def __post_init__(self):
        if not 0.0 <= self.ratio <= 1.0:
            raise ConfigError(f"injection ratio {self.ratio} outside [0,1]")


@dataclass(frozen=True)
class IOConfig:
    """Defaults render "logo" at scale 4: glyph strokes then fill whole patches,
    so the patch mask clears the 0.5 on-mask threshold. Longer words need a
    smaller scale or a larger grid."""

    word: str = "logo"
    style: str = "bold geometric strokes"
    layout: Layout = Layout.HORIZONTAL
    scale: int = 4
    glyph_path: str = ""
    recon_prompt: str = ""
    out_dir: str = "."
    save_trace: bool = False
    predicted: str = ""

    def __post_init__(self):
        if self.scale < 1:
            raise ConfigError("io.scale must be >= 1")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "str" and (value != value.strip() or "\n" in value):
                raise ConfigError(f"io.{f.name} must be a trimmed single line, got {value!r}")


@dataclass(frozen=True)
class SweepConfig:
    ratios: tuple[float, ...] = (0.125, 0.25, 0.5, 0.75, 1.0)
    steps: tuple[int, ...] = (8, 10, 12, 15, 18)
    full_runs: bool = False

    def __post_init__(self):
        if not all(0.0 <= r <= 1.0 for r in self.ratios):  # NaN fails both comparisons
            raise ConfigError(f"sweep ratios {self.ratios} must lie in [0, 1]")
        if any(s < 0 for s in self.steps):
            raise ConfigError(f"sweep steps {self.steps} must be >= 0")


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    injection: InjectionConfig = field(default_factory=InjectionConfig)
    io: IOConfig = field(default_factory=IOConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)


# annotation of a section field -> type tag of its key
_TAGS = {
    "int": "int",
    "float": "float",
    "bool": "bool",
    "str": "str",
    "ScoreMode": "mode",
    "Layout": "layout",
    "tuple[float, ...]": "floats",
    "tuple[int, ...]": "ints",
}
# (section, field) pairs whose key is not `section.field`
_RENAMED = {
    ("model", "seed"): "seed_weights",
    ("sampler", "cutoff_step"): "cutoff",
    ("sampler", "noise_seed"): "seed_noise",
}

# key -> (section attr, field name, type tag), one key per field of every
# RunConfig section, so no field can be left out of serialize or config_hash
_SCHEMA: dict[str, tuple[str, str, str]] = {
    f"{s.name}.{_RENAMED.get((s.name, f.name), f.name)}": (s.name, f.name, _TAGS[f.type])
    for s in fields(RunConfig)
    for f in fields(s.default_factory)
}


def _decode(key: str, tag: str, raw: str):
    try:
        if tag == "int":
            return int(raw)
        if tag == "float":
            return float(raw)
        if tag == "bool":
            if raw not in ("true", "false"):
                raise ValueError(f"expected true/false, got {raw!r}")
            return raw == "true"
        if tag == "str":
            return raw
        if tag == "mode":
            return ScoreMode(raw)
        if tag == "layout":
            return Layout(raw)
        if tag == "floats":
            return tuple(float(p.strip()) for p in raw.split(",") if p.strip())
        if tag == "ints":
            return tuple(int(p.strip()) for p in raw.split(",") if p.strip())
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from exc
    raise ConfigError(f"unknown schema tag {tag}")


def _encode(tag: str, value) -> str:
    if tag in ("int", "str"):
        return str(value)
    if tag == "float":
        return repr(float(value))
    if tag == "bool":
        return "true" if value else "false"
    if tag in ("mode", "layout"):
        return value.value
    if tag == "floats":
        return ",".join(repr(float(v)) for v in value)
    if tag == "ints":
        return ",".join(str(v) for v in value)
    raise ConfigError(f"unknown schema tag {tag}")


def serialize(config: RunConfig) -> str:
    lines = []
    for key in sorted(_SCHEMA):
        section, name, tag = _SCHEMA[key]
        value = getattr(getattr(config, section), name)
        lines.append(f"{key} = {_encode(tag, value)}".rstrip())
    return "\n".join(lines) + "\n"


def apply_overrides(config: RunConfig, values: dict[str, object]) -> RunConfig:
    """`config` with each schema key in `values` set to its typed value.

    The keys of one section are applied together, so that section is
    validated once, against all of its new values.
    """
    updates: dict[str, dict[str, object]] = {}
    for key, value in values.items():
        if key not in _SCHEMA:
            raise ConfigError(f"unknown key {key!r}")
        section, name, _ = _SCHEMA[key]
        updates.setdefault(section, {})[name] = value
    for section, kwargs in updates.items():
        config = replace(config, **{section: replace(getattr(config, section), **kwargs)})
    return config


def parse_values(text: str) -> dict[str, object]:
    """The typed value of each key that the `key = value` lines of `text` set, each once."""
    values: dict[str, object] = {}
    set_on: dict[str, int] = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in set_on:
            raise ConfigError(f"line {lineno}: key {key!r} already set on line {set_on[key]}")
        set_on[key] = lineno
        values[key] = _decode(key, _SCHEMA[key][2], raw.strip())
    return values


def parse(text: str) -> RunConfig:
    return apply_overrides(RunConfig(), parse_values(text))


# keys that only an injected run reads: plan selection, its cutoff, and the
# reconstruction capture's prompt and trace file
_INJECTION_KEYS = ("injection.ratio", "injection.mode", "injection.averaging", "sampler.cutoff",
                   "io.recon_prompt", "io.save_trace")


def config_hash(config: RunConfig, inputs: dict[str, str] | None = None) -> str:
    """sha256 over the serialized config plus sorted named input checksums.

    A config with injection.enabled = false leaves the `_INJECTION_KEYS`
    lines out, since such a run never reads them: baseline runs that differ
    only there write the same bytes and get the same hash.
    """
    lines = serialize(config).splitlines(keepends=True)
    if not config.injection.enabled:
        lines = [line for line in lines if line.partition(" ")[0] not in _INJECTION_KEYS]
    h = hashlib.sha256()
    h.update("".join(lines).encode("utf-8"))
    for key in sorted(inputs or {}):
        h.update(f"input {key} {(inputs or {})[key]}\n".encode("utf-8"))
    return h.hexdigest()


def describe_keys() -> str:
    """One line per config key: name and type tag. For --help output."""
    return "\n".join(f"{key} ({_SCHEMA[key][2]})" for key in sorted(_SCHEMA))
