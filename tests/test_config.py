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
    serialize,
)
from glyphflow.errors import read_text
from glyphflow.runconfig import (
    _SCHEMA,
    IOConfig,
    InjectionConfig,
    SweepConfig,
    apply_overrides,
    parse_values,
)


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


def test_config_keys_are_pinned():
    # keys are derived from the config dataclasses, so renaming a field must
    # not silently rename its key and orphan existing config files
    assert list(_SCHEMA) == [
        "model.d_model", "model.n_heads", "model.n_layers", "model.patch", "model.grid",
        "model.t_txt", "model.seed_weights",
        "sampler.steps", "sampler.guidance", "sampler.cutoff", "sampler.seed_noise",
        "injection.ratio", "injection.mode", "injection.averaging", "injection.enabled",
        "io.word", "io.style", "io.layout", "io.scale", "io.glyph_path", "io.recon_prompt",
        "io.out_dir", "io.save_trace", "io.predicted",
        "sweep.ratios", "sweep.steps", "sweep.full_runs",
    ]


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


def test_parse_values_refuses_a_key_set_twice():
    text = "sampler.steps = 10\n# a comment\nio.word = a\nsampler.steps = 12\n"
    with pytest.raises(ConfigError, match=r"line 4: key 'sampler.steps' already set on line 1"):
        parse_values(text)
    # the same value twice is refused too; distinct keys each once are not
    with pytest.raises(ConfigError, match="sampler.steps"):
        parse_values("sampler.steps = 10\nsampler.steps = 10\n")
    assert parse_values("sampler.steps = 10\nsampler.cutoff = 4\n") == {
        "sampler.steps": 10, "sampler.cutoff": 4,
    }


def test_parse_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("io.word = disk\n")
    assert parse(read_text(p, "config")).io.word == "disk"
    with pytest.raises(ConfigError):
        read_text(tmp_path / "missing.cfg", "config")


def _one_key_mutations(base: RunConfig):
    """(key, config) pairs: `base` with that one schema key set to another value."""
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
    current = serialize(base)
    for key, (_section, _name, tag) in _SCHEMA.items():
        raw = mutated_values[tag]
        if tag == "bool":
            # flip whatever the default is
            raw = "false" if f"{key} = true" in current else "true"
        text = current.replace(
            next(l for l in current.splitlines() if l.startswith(f"{key} ")),
            f"{key} = {raw}",
        )
        try:
            mutated = parse(text)
        except ConfigError:
            continue  # a mutation clashing with cross-field validation
        yield key, mutated


def test_config_hash_covers_every_key():
    base = RunConfig()
    base_hash = config_hash(base)
    assert base_hash == config_hash(RunConfig())
    for key, mutated in _one_key_mutations(base):
        assert config_hash(mutated) != base_hash, key


def test_baseline_config_hash_covers_the_keys_it_reads():
    # a run with injection off reads neither the plan settings, the cutoff,
    # nor the reconstruction capture's prompt and trace file
    unread = {
        "injection.ratio", "injection.mode", "injection.averaging", "sampler.cutoff",
        "io.recon_prompt", "io.save_trace",
    }
    base = apply_overrides(RunConfig(), {"injection.enabled": False})
    base_hash = config_hash(base, {"glyph": "aa"})
    seen = set()
    for key, mutated in _one_key_mutations(base):
        seen.add(key)
        assert (config_hash(mutated, {"glyph": "aa"}) == base_hash) == (key in unread), key
    assert unread <= seen


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


@pytest.mark.parametrize(
    "field, value",
    [
        ("version", 5),
        ("config_hash", [1]),
        ("outputs", {"image": 3}),
        ("outputs", ["image"]),
        ("checksums", {"trace": None}),
        ("error", 7),
        ("error", {"type": "EmptyWord", "message": 1}),
    ],
)
def test_manifest_field_types(field, value):
    doc = json.loads(_VALID_MANIFEST)
    doc[field] = value
    with pytest.raises(ConfigError):
        RunManifest.from_json(json.dumps(doc))


def test_apply_overrides():
    assert apply_overrides(RunConfig(), {}) == RunConfig()
    text = "sampler.steps = 4\nsampler.cutoff = 2\ninjection.mode = row_max\n"
    values = {"sampler.steps": 4, "sampler.cutoff": 2, "injection.mode": ScoreMode.ROW_MAX}
    # a section's keys are applied together: cutoff 2 only fits once steps is 4
    assert apply_overrides(RunConfig(), values) == parse(text)
    base = parse("io.word = cat\n")
    assert apply_overrides(base, {"io.scale": 2}).io.word == "cat"
    with pytest.raises(ConfigError):
        apply_overrides(RunConfig(), {"model.bogus": 1})
    with pytest.raises(ConfigError):
        apply_overrides(RunConfig(), {"sampler.steps": 4})  # default cutoff 12 > 4 steps


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


@pytest.fixture(scope="module")
def raw_file(tmp_path_factory):
    """One file that the raw-bytes examples of a property rewrite in turn."""
    return tmp_path_factory.mktemp("raw") / "input"


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=80), _config_text(), st.binary(max_size=80)))
@example(b"io.word = \xff\n")
@example("io.word = caf\u00e9\n".encode("utf-16"))
def test_parse_gives_config_or_error(raw_file, text):
    """Text is parsed as is; raw bytes are read from a config file."""
    try:
        if isinstance(text, bytes):
            raw_file.write_bytes(text)
            config = parse(read_text(raw_file, "config"))
        else:
            config = parse(text)
    except GlyphFlowError:
        return
    assert isinstance(config, RunConfig)


_LINE = st.text(max_size=12).map(str.strip).filter(lambda s: "\n" not in s)


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
            guidance=draw(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)),
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
            ratios=tuple(draw(st.lists(st.floats(0.0, 1.0), max_size=4))),
            steps=tuple(draw(st.lists(st.integers(min_value=0), max_size=4))),
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
    targets = [doc, doc["step_logs"][0], doc["metrics"], doc["checksums"]]
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
@given(st.one_of(
    st.text(max_size=40), _manifest_text(), st.integers(1, 5000).map(lambda n: "[" * n),
    st.binary(max_size=40), _manifest_text().map(lambda text: text.encode("utf-8")[:-1]),
))
@example(_VALID_MANIFEST.encode("utf-8"))
@example(_VALID_MANIFEST.replace("0.1.0", "\u00e9").encode("latin-1"))
@example(_VALID_MANIFEST.encode("utf-16"))
@example(_VALID_MANIFEST.replace('"step": 1', '"step": Infinity'))
@example(_VALID_MANIFEST.replace('"char_f1": 1.0', '"char_f1": ' + _BIG_INT))
@example(_VALID_MANIFEST.replace('{\n    "char_f1": 1.0\n  }', "7"))
@example("[" * 5000)
@example(json.dumps(dict(
    json.loads(_VALID_MANIFEST),
    version=5, config_hash=[1], outputs={"image": 3}, checksums={"trace": None}, error=7,
)))
def test_manifest_from_json_gives_manifest_or_error(raw_file, text):
    """Text is parsed as is; raw bytes are read from a manifest file."""
    try:
        if isinstance(text, bytes):
            raw_file.write_bytes(text)
            manifest = RunManifest.load(raw_file)
        else:
            manifest = RunManifest.from_json(text)
    except GlyphFlowError:
        return
    assert isinstance(manifest, RunManifest)
    # every field is typed, so the manifest writes back and reloads as itself
    assert RunManifest.from_json(manifest.to_json()).to_json() == manifest.to_json()
    assert isinstance(manifest.version, str) and isinstance(manifest.config_hash, str)
    for mapping in (manifest.outputs, manifest.checksums, manifest.error or {}):
        assert all(isinstance(v, str) for v in mapping.values())
