import dataclasses
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from glyphflow import (
    ConfigError,
    GlyphFlowError,
    Layout,
    ModelConfig,
    RunConfig,
    RunManifest,
    SamplerConfig,
    ScoreMode,
    StepLog,
    config_hash,
    parse,
    parse_file,
    serialize,
)
from glyphflow.runconfig import _SCHEMA, IOConfig, InjectionConfig, SweepConfig


def test_defaults_match_reference_protocol():
    c = RunConfig()
    assert c.model.d_model == 64
    assert c.model.n_heads == 4
    assert c.model.n_layers == 6
    assert c.model.grid == 16
    assert c.sampler.steps == 28
    assert c.sampler.guidance == 7.5
    assert c.sampler.cutoff_step == 12
    assert c.injection.ratio == 0.125
    assert c.injection.mode == ScoreMode.ROW_MASS
    assert c.injection.averaging is True
    assert c.sweep.ratios == (0.125, 0.25, 0.5, 0.75, 1.0)
    assert c.sweep.steps == (8, 10, 12, 15, 18)


def test_round_trip_default():
    c = RunConfig()
    assert parse(serialize(c)) == c


def test_round_trip_mutated():
    c = RunConfig(
        model=dataclasses.replace(RunConfig().model, d_model=16, n_heads=2, seed=7),
        sampler=dataclasses.replace(RunConfig().sampler, steps=4, guidance=0.0, cutoff_step=2),
        injection=InjectionConfig(ratio=0.5, mode=ScoreMode.LAYER_VARIANCE, averaging=False, enabled=False),
        io=IOConfig(word="abc", style="thin serif", layout=Layout.DIAGONAL, scale=2, predicted="abd"),
        sweep=SweepConfig(ratios=(0.5,), steps=(2, 3), full_runs=True),
    )
    assert parse(serialize(c)) == c


def test_serialize_sorted_and_stable():
    text = serialize(RunConfig())
    # empty values render as "key =" with the trailing space stripped
    keys = [line.split("=")[0].strip() for line in text.strip().split("\n")]
    assert keys == sorted(_SCHEMA)
    assert serialize(RunConfig()) == text
    assert "sampler.guidance = 7.5" in text
    assert "injection.averaging = true" in text
    assert "io.word = logo" in text
    assert "sweep.steps = 8,10,12,15,18" in text


def test_parse_comments_and_blanks():
    c = parse("# comment\n\nio.word = mark\n  sampler.steps = 30  \n")
    assert c.io.word == "mark"
    assert c.sampler.steps == 30
    assert c.injection.ratio == 0.125  # untouched default


def test_parse_rejects_unknown_and_malformed():
    with pytest.raises(ConfigError):
        parse("no.such.key = 1\n")
    with pytest.raises(ConfigError):
        parse("just words\n")
    with pytest.raises(ConfigError):
        parse("sampler.steps = many\n")
    with pytest.raises(ConfigError):
        parse("injection.averaging = yes\n")
    with pytest.raises(ConfigError):
        parse("injection.mode = maximal\n")
    with pytest.raises(ConfigError):
        parse("io.layout = spiral\n")
    # values constrained by section dataclasses are also rejected
    with pytest.raises(ConfigError):
        parse("injection.ratio = 1.5\n")
    with pytest.raises(ConfigError):
        parse("sampler.cutoff = 99\n")


def test_parse_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("io.word = disk\n")
    assert parse_file(p).io.word == "disk"
    with pytest.raises(ConfigError):
        parse_file(tmp_path / "missing.cfg")


def test_config_hash_covers_every_key():
    base = RunConfig()
    base_hash = config_hash(base)
    assert base_hash == config_hash(RunConfig())

    mutated_values = {
        "int": "3",
        "float": "0.625",
        "bool": "",  # filled per key below
        "str": "zzz",
        "mode": "row_max",
        "layout": "vertical",
        "floats": "0.0625",
        "ints": "2,3",
    }
    for key, (_section, _name, tag) in _SCHEMA.items():
        raw = mutated_values[tag]
        if tag == "bool":
            # flip whatever the default is
            current = serialize(base)
            raw = "false" if f"{key} = true" in current else "true"
        text = serialize(base).replace(
            next(l for l in serialize(base).splitlines() if l.startswith(f"{key} ")),
            f"{key} = {raw}",
        )
        try:
            mutated = parse(text)
        except ConfigError:
            continue  # a mutation clashing with cross-field validation
        assert config_hash(mutated) != base_hash, key


def test_config_hash_inputs():
    c = RunConfig()
    assert config_hash(c, {"glyph": "aa"}) != config_hash(c)
    assert config_hash(c, {"glyph": "aa"}) != config_hash(c, {"glyph": "ab"})
    assert config_hash(c, {"a": "1", "b": "2"}) == config_hash(c, {"b": "2", "a": "1"})


def test_manifest_round_trip(tmp_path):
    man = RunManifest(
        step_logs=[StepLog(step=1, t=1.0, injected_layer_count=6)],
        outputs={"image": "out.pgm"},
        metrics={"char_f1": 1.0},
        checksums={"weights": "ab" * 32},
    )
    path = tmp_path / "manifest.json"
    man.save(path)
    back = RunManifest.load(path)
    assert back == man
    # deterministic serialization
    assert man.to_json() == back.to_json()
    data = json.loads(man.to_json())
    assert data["step_logs"][0]["injected_layer_count"] == 6
    assert man.to_json().endswith("\n")


def test_manifest_malformed(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        RunManifest.load(path)


# ---------------------------------------------------------------- properties

_RAW = st.sampled_from(
    ["0", "1", "-1", "4", "0.5", "1.5", "1e400", "nan", "inf", "true", "false", "row_mass",
     "diagonal", "", "1,2", "0.5, 1.0", ",", "x", "1_0", "9" * 5000]
)


@st.composite
def _config_text(draw):
    """Lines near the config grammar: schema keys and odd values."""
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        key = draw(st.sampled_from(sorted(_SCHEMA) + ["bogus", "", "# io.word"]))
        sep = draw(st.sampled_from([" = ", "=", " ", "=="]))
        lines.append(key + sep + draw(_RAW))
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=80), _config_text()))
def test_parse_gives_config_or_error(text):
    try:
        config = parse(text)
    except GlyphFlowError:
        return
    assert isinstance(config, RunConfig)


_LINE = st.text(max_size=12).map(str.strip).filter(lambda s: "\n" not in s)
_FLOAT = st.floats(allow_nan=False)


@st.composite
def _configs(draw):
    n_heads = draw(st.integers(1, 8))
    steps = draw(st.integers(1, 64))
    return RunConfig(
        model=ModelConfig(
            d_model=n_heads * draw(st.integers(1, 16)),
            n_heads=n_heads,
            n_layers=draw(st.integers(1, 12)),
            patch=draw(st.integers(1, 16)),
            grid=draw(st.integers(1, 32)),
            t_txt=draw(st.integers(1, 64)),
            seed=draw(st.integers(0, 2**64)),
        ),
        sampler=SamplerConfig(
            steps=steps,
            guidance=draw(st.floats(min_value=0.0, allow_nan=False)),
            cutoff_step=draw(st.integers(0, steps)),
            noise_seed=draw(st.integers(0, 2**64)),
        ),
        injection=InjectionConfig(
            ratio=draw(st.floats(0.0, 1.0)),
            mode=draw(st.sampled_from(list(ScoreMode))),
            averaging=draw(st.booleans()),
            enabled=draw(st.booleans()),
        ),
        io=IOConfig(
            word=draw(_LINE),
            style=draw(_LINE),
            layout=draw(st.sampled_from(list(Layout))),
            scale=draw(st.integers(1, 16)),
            glyph_path=draw(_LINE),
            recon_prompt=draw(_LINE),
            out_dir=draw(_LINE),
            save_trace=draw(st.booleans()),
            predicted=draw(_LINE),
        ),
        sweep=SweepConfig(
            ratios=tuple(draw(st.lists(_FLOAT, max_size=4))),
            steps=tuple(draw(st.lists(st.integers(), max_size=4))),
            full_runs=draw(st.booleans()),
        ),
    )


@settings(max_examples=200, deadline=None)
@given(_configs())
def test_parse_inverts_serialize(config):
    assert parse(serialize(config)) == config


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_BIG_INT = "1" + "0" * 400


@st.composite
def _manifest_text(draw):
    """A valid manifest with some fields dropped or replaced by other JSON."""
    doc = json.loads(RunManifest(
        step_logs=[StepLog(step=1, t=1.0, injected_layer_count=6)],
        metrics={"char_f1": 1.0},
        checksums={"weights": "ab"},
    ).to_json())
    targets = [doc, doc["step_logs"][0], doc["metrics"]]
    for _ in range(draw(st.integers(0, 3))):
        obj = draw(st.sampled_from([t for t in targets if t]))
        key = draw(st.sampled_from(sorted(obj)))
        if draw(st.booleans()):
            obj.pop(key, None)
        else:
            obj[key] = draw(_JSON | st.just("BIG"))
    text = json.dumps(doc)
    return text.replace('"BIG"', draw(st.sampled_from([_BIG_INT, "Infinity", "-Infinity", "NaN"])))


_VALID_MANIFEST = RunManifest(
    step_logs=[StepLog(step=1, t=1.0, injected_layer_count=6)], metrics={"char_f1": 1.0}
).to_json()


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=40), _manifest_text(), st.integers(1, 5000).map(lambda n: "[" * n)))
@example(_VALID_MANIFEST.replace('"step": 1', '"step": Infinity'))
@example(_VALID_MANIFEST.replace('"char_f1": 1.0', '"char_f1": ' + _BIG_INT))
@example(_VALID_MANIFEST.replace('{\n    "char_f1": 1.0\n  }', "7"))
@example("[" * 5000)
def test_manifest_from_json_gives_manifest_or_error(text):
    try:
        manifest = RunManifest.from_json(text)
    except GlyphFlowError:
        return
    assert isinstance(manifest, RunManifest)
