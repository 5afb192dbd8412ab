"""End-to-end command line checks, all in process via cli.main."""

import argparse

import numpy as np
import pytest

import glyphflow.sampler
from glyphflow import (
    AttentionTrace,
    RunConfig,
    RunManifest,
    parse,
    read_netpbm,
    read_tensors,
    write_tensors,
)
from glyphflow.cli import _build_config, main, make_parser
from glyphflow.runconfig import _SCHEMA
from tests.conftest import MALFORMED_TRACES, write_malformed_trace

TINY_CONF = """\
model.d_model = 16
model.n_heads = 2
model.n_layers = 2
model.patch = 4
model.grid = 4
model.t_txt = 4
io.scale = 1
io.word = A
sampler.steps = 4
sampler.cutoff = 2
"""


@pytest.fixture
def conf(tmp_path):
    path = tmp_path / "tiny.conf"
    path.write_text(TINY_CONF)
    return str(path)


def test_rasterize_writes_files(tmp_path, capsys):
    out = tmp_path / "g.pgm"
    mask = tmp_path / "m.pgm"
    code = main(
        [
            "rasterize",
            "--text",
            "A☃",
            "--canvas",
            "16",
            "--patch",
            "4",
            "--out",
            str(out),
            "--mask-out",
            str(mask),
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "U+2603" in captured.err
    assert f"wrote {out}" in captured.out
    pixels = read_netpbm(out)
    assert pixels.shape == (16, 16)
    assert read_netpbm(mask).shape == (16, 16)


def test_generate_deterministic_checksums(tmp_path, conf):
    dirs = [str(tmp_path / "a"), str(tmp_path / "b")]
    for d in dirs:
        assert main(["generate", "--config", conf, "--out-dir", d]) == 0
    manifests = [RunManifest.load(f"{d}/manifest.json") for d in dirs]
    assert manifests[0].checksums["image"] == manifests[1].checksums["image"]
    # the config hash covers io.out_dir, so it legitimately differs here


def test_generate_no_injection_equals_ratio_zero(tmp_path, conf):
    a = str(tmp_path / "off")
    b = str(tmp_path / "zero")
    assert main(["generate", "--config", conf, "--no-injection", "--out-dir", a]) == 0
    assert main(["generate", "--config", conf, "--ratio", "0.0", "--out-dir", b]) == 0
    assert open(f"{a}/output.pgm", "rb").read() == open(f"{b}/output.pgm", "rb").read()


def test_generate_no_injection_hashes_the_config_that_ran(tmp_path, conf):
    # equal config hashes promise equal outputs, so a baseline run into the
    # same directory must not reuse the injected run's hash
    d = str(tmp_path / "same")
    assert main(["generate", "--config", conf, "--out-dir", d]) == 0
    injected = RunManifest.load(f"{d}/manifest.json")
    assert main(["generate", "--config", conf, "--no-injection", "--out-dir", d]) == 0
    baseline = RunManifest.load(f"{d}/manifest.json")
    assert injected.checksums["image"] != baseline.checksums["image"]
    assert injected.config_hash != baseline.config_hash


def test_baseline_hash_ignores_keys_a_baseline_never_reads(tmp_path, conf):
    # --ratio, --cutoff, --mode and --no-averaging change nothing a baseline
    # writes, so they must not change its hash; --seed-noise does both. The
    # runs share one --out-dir, since io.out_dir is in the hash.
    d = str(tmp_path / "base")

    def baseline(*flags):
        assert main(["generate", "--config", conf, "--no-injection", "--out-dir", d, *flags]) == 0
        return RunManifest.load(f"{d}/manifest.json")

    base = baseline()
    other = baseline("--ratio", "0.5", "--cutoff", "1", "--mode", "row_max", "--no-averaging")
    assert other.checksums["image"] == base.checksums["image"]
    assert other.config_hash == base.config_hash
    noise = baseline("--seed-noise", "9")
    assert noise.checksums["image"] != base.checksums["image"]
    assert noise.config_hash != base.config_hash

    # the error manifest of a failed baseline run hashes the same way
    glyph_conf = tmp_path / "glyph.conf"
    glyph_conf.write_text(TINY_CONF + f"io.glyph_path = {tmp_path / 'missing.pgm'}\n")
    hashes = []
    for ratio in ("0.125", "0.5"):
        args = ["generate", "--config", str(glyph_conf), "--no-injection", "--ratio", ratio]
        assert main(args + ["--out-dir", d]) == 2
        hashes.append(RunManifest.load(f"{d}/manifest.json").config_hash)
    assert hashes[0] == hashes[1]


def test_generate_ratio_zero_logs_no_injected_layers(tmp_path, conf, capsys):
    d = str(tmp_path / "zero")
    assert main(["generate", "--config", conf, "--ratio", "0", "--out-dir", d]) == 0
    assert ", 0 injected steps," in capsys.readouterr().out
    logs = RunManifest.load(f"{d}/manifest.json").step_logs
    assert len(logs) == 4
    assert [log.injected_layer_count for log in logs] == [0, 0, 0, 0]


def test_generate_flags_override_config(tmp_path, conf):
    d = str(tmp_path / "o")
    code = main(
        ["generate", "--config", conf, "--word", "AB", "--predicted", "AB", "--out-dir", d]
    )
    assert code == 0
    man = RunManifest.load(f"{d}/manifest.json")
    assert man.metrics["exact_match"] == 1.0
    d2 = str(tmp_path / "o2")
    assert main(["generate", "--config", conf, "--out-dir", d2]) == 0
    other = RunManifest.load(f"{d2}/manifest.json")
    assert other.checksums["image"] != man.checksums["image"]
    assert other.config_hash != man.config_hash


def test_reconstruct_then_analyze(tmp_path, conf):
    trace_path = str(tmp_path / "trace.bin")
    assert main(["reconstruct", "--config", conf, "--out", trace_path]) == 0
    trace = AttentionTrace.load(trace_path)
    assert trace.steps == 2

    d = str(tmp_path / "an")
    assert main(["analyze", "--config", conf, "--trace", trace_path, "--out-dir", d]) == 0
    lines = open(f"{d}/shift.csv").read().strip().split("\n")
    assert lines[0] == "step,layer,attention_shift,mask_coverage"
    assert len(lines) == 1 + trace.steps * trace.n_layers
    raw, _ = read_tensors(f"{d}/scores_raw.bin")
    sel, _ = read_tensors(f"{d}/scores_selection.bin")
    assert len(raw) == trace.steps * trace.n_layers
    assert len(sel) == trace.steps * trace.n_layers


@pytest.mark.parametrize("case", sorted(MALFORMED_TRACES))
def test_analyze_of_a_malformed_trace_exits_2(tmp_path, conf, capsys, case):
    trace_path = str(tmp_path / "trace.bin")
    assert main(["reconstruct", "--config", conf, "--out", trace_path]) == 0
    write_malformed_trace(trace_path, AttentionTrace.load(trace_path), case)
    d = tmp_path / "an"
    capsys.readouterr()
    assert main(["analyze", "--config", conf, "--trace", trace_path, "--out-dir", str(d)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (d / "shift.csv").exists()


def test_save_trace_flag(tmp_path, conf):
    d = str(tmp_path / "o")
    assert main(["generate", "--config", conf, "--save-trace", "--out-dir", d]) == 0
    man = RunManifest.load(f"{d}/manifest.json")
    trace = AttentionTrace.load(f"{d}/trace.bin")
    assert trace.checksum() == man.checksums["trace"]


def test_dataset_record_selection(tmp_path, conf):
    data = tmp_path / "set.json"
    data.write_text('[{"word": "A", "style": "x"}, {"word": "B", "style": "y"}]')
    d = str(tmp_path / "o")
    code = main(
        ["generate", "--config", conf, "--dataset", str(data), "--record", "1",
         "--predicted", "B", "--out-dir", d]
    )
    assert code == 0
    man = RunManifest.load(f"{d}/manifest.json")
    assert man.metrics["exact_match"] == 1.0
    d0 = str(tmp_path / "o0")
    assert (
        main(["generate", "--config", conf, "--dataset", str(data), "--record", "0",
              "--predicted", "B", "--out-dir", d0])
        == 0
    )
    zero = RunManifest.load(f"{d0}/manifest.json")
    assert zero.metrics["exact_match"] == 0.0
    assert zero.checksums["image"] != man.checksums["image"]
    assert (
        main(["generate", "--config", conf, "--dataset", str(data), "--record", "7",
              "--out-dir", d])
        == 2
    )


@pytest.mark.parametrize(
    "flags, records",
    [
        (["--style", "bold "], None),
        (["--predicted", "A\nB"], None),
        ([], '[{"word": "A", "style": "x "}]'),
    ],
)
def test_untrimmed_io_string_exits_2_before_any_forward(
    monkeypatch, tmp_path, conf, capsys, flags, records
):
    forwards = []
    real_forward = glyphflow.sampler.forward

    def counted(*args, **kwargs):
        forwards.append(1)
        return real_forward(*args, **kwargs)

    monkeypatch.setattr(glyphflow.sampler, "forward", counted)
    if records is not None:
        data = tmp_path / "set.json"
        data.write_text(records)
        flags = ["--dataset", str(data)]
    d = tmp_path / "o"
    assert main(["generate", "--config", conf, "--out-dir", str(d), *flags]) == 2
    assert "trimmed single line" in capsys.readouterr().err
    assert forwards == [] and not d.exists()
    assert main(["generate", "--config", conf, "--out-dir", str(d)]) == 0
    assert forwards


def test_sweep_exit_codes(tmp_path, conf, capsys):
    base = TINY_CONF + "sweep.ratios = 0.25,0.5\nsweep.steps = 1,2\n"
    good = tmp_path / "good.conf"
    good.write_text(base)
    d = str(tmp_path / "ok")
    assert main(["sweep", "--config", str(good), "--out-dir", d]) == 0
    text = open(f"{d}/sweep_mask_coverage.csv").read()
    assert text.startswith("ratio,step,mask_coverage\n")
    assert len(text.strip().split("\n")) == 5

    part = tmp_path / "part.conf"
    part.write_text(TINY_CONF + "sweep.ratios = 0.0,0.5\nsweep.steps = 1\n")
    capsys.readouterr()
    assert main(["sweep", "--config", str(part), "--out-dir", str(tmp_path / "p")]) == 4
    assert "cell (0.0, 1) failed" in capsys.readouterr().err
    assert "0.0,1,NA" in open(tmp_path / "p" / "sweep_mask_coverage.csv").read()

    dead = tmp_path / "dead.conf"
    dead.write_text(TINY_CONF + "sweep.ratios = 0.0\nsweep.steps = 1\n")
    capsys.readouterr()
    assert main(["sweep", "--config", str(dead), "--out-dir", str(tmp_path / "d")]) == 3
    # every cell failed, yet both CSVs are written, all NA, and reported
    out = capsys.readouterr().out
    for metric in ("attention_shift", "mask_coverage"):
        path = tmp_path / "d" / f"sweep_{metric}.csv"
        assert f"wrote {path}" in out
        assert path.read_text() == f"ratio,step,{metric}\n0.0,1,NA\n"


def test_sweep_full_runs_writes_cell_images(tmp_path):
    conf = tmp_path / "c.conf"
    conf.write_text(TINY_CONF + "sweep.ratios = 0.5\nsweep.steps = 1\n")
    d = tmp_path / "cells"
    assert main(["sweep", "--config", str(conf), "--full-runs", "--out-dir", str(d)]) == 0
    assert list(d.glob("cell_*.pgm"))


def test_export_heatmap_roundtrip(tmp_path):
    scores = tmp_path / "s.bin"
    write_tensors(
        str(scores),
        {"a": np.array([0.0, 0.5, 1.0, 0.25]), "b": np.zeros(4)},
    )
    out = tmp_path / "h.pgm"
    code = main(
        ["export-heatmap", "--scores", str(scores), "--grid", "2", "--out", str(out)]
    )
    assert code == 0
    arr = np.rint(read_netpbm(out) * 255).astype(int)
    assert np.array_equal(arr, [[0, 128], [255, 64]])

    named = tmp_path / "h2.pgm"
    assert (
        main(["export-heatmap", "--scores", str(scores), "--name", "b", "--grid", "2",
              "--out", str(named)])
        == 0
    )
    assert np.array_equal(read_netpbm(named), np.zeros((2, 2)))
    assert (
        main(["export-heatmap", "--scores", str(scores), "--name", "zz", "--grid", "2",
              "--out", str(named)])
        == 2
    )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_export_heatmap_rejects_non_finite_scores(tmp_path, capsys, bad):
    scores = tmp_path / "s.bin"
    write_tensors(str(scores), {"a": np.array([0.0, 0.5, bad, 0.25])})
    out = tmp_path / "h.pgm"
    code = main(["export-heatmap", "--scores", str(scores), "--grid", "2", "--out", str(out)])
    assert code == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_export_heatmap_rejects_a_grid_below_one(tmp_path, capsys):
    scores = tmp_path / "s.bin"
    write_tensors(str(scores), {"a": np.arange(256.0)})
    out = tmp_path / "h.pgm"
    code = main(["export-heatmap", "--scores", str(scores), "--grid", "-16", "--out", str(out)])
    assert code == 2
    assert "grid" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--seed-weights", "-1"],
        ["generate", "--seed-noise", "-5"],
        ["reconstruct", "--seed-noise", "-5"],
        ["reconstruct", "--seed-weights", "-1"],
        ["generate", "--guidance", "nan"],
        ["generate", "--guidance", "inf"],
        ["sweep", "--guidance", "nan"],
    ],
)
def test_config_values_out_of_range_exit_2(tmp_path, conf, capsys, argv):
    out = tmp_path / "o"
    tail = ["--out", str(out)] if argv[0] == "reconstruct" else ["--out-dir", str(out)]
    assert main(argv + ["--config", conf] + tail) == 2
    err = capsys.readouterr().err
    assert "error:" in err and ("seed" in err or "guidance" in err)
    # the value is rejected while the config is built, before any run starts
    assert not out.exists()


def test_oversized_scale_overflows_the_canvas(tmp_path, conf, capsys):
    out = tmp_path / "g.pgm"
    assert main(["rasterize", "--text", "a", "--scale", "1000000", "--out", str(out)]) == 2
    assert "exceeds canvas" in capsys.readouterr().err
    assert not out.exists()
    d = tmp_path / "o"
    assert main(["generate", "--config", conf, "--scale", "1000000", "--out-dir", str(d)]) == 2
    assert "exceeds canvas" in capsys.readouterr().err
    man = RunManifest.load(str(d / "manifest.json"))
    assert man.error["type"] == "TextOverflow"


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.conf"
    bad.write_text("model.bogus = 1\n")
    code = main(["generate", "--config", str(bad), "--out-dir", str(tmp_path / "o")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_empty_word_writes_error_manifest(tmp_path, conf):
    d = str(tmp_path / "o")
    code = main(["generate", "--config", conf, "--word", "", "--out-dir", d])
    assert code == 2
    man = RunManifest.load(f"{d}/manifest.json")
    assert man.error["type"] == "EmptyWord"


def test_numeric_failure_exit_code(tmp_path, conf, capsys):
    d = str(tmp_path / "o")
    with np.errstate(over="ignore"):  # the overflow is the point of this run
        code = main(
            ["generate", "--config", conf, "--guidance", "1e308", "--steps", "3",
             "--out-dir", d]
        )
    assert code == 3
    assert "error:" in capsys.readouterr().err
    man = RunManifest.load(f"{d}/manifest.json")
    assert man.error["type"] == "NonFiniteActivation"


def test_argparse_and_version_exits(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "glyphflow" in capsys.readouterr().out


_GLYPH_FLAGS = {"--config", "--help", "-h", "--layout", "--scale", "--word"}
_SELECT_FLAGS = {"--mode", "--no-averaging"}
_RECONSTRUCT_FLAGS = _GLYPH_FLAGS | {"--seed-weights", "--steps", "--cutoff", "--seed-noise"}
_SWEEP_FLAGS = _GLYPH_FLAGS | _SELECT_FLAGS | {
    "--seed-weights", "--steps", "--guidance", "--seed-noise", "--style", "--out-dir",
}
# every subcommand's option strings: a run command takes --config and the
# flags of the config keys it reads, and no others
PINNED_OPTIONS = {
    "rasterize": {
        "--canvas", "--help", "--layout", "--mask-out", "--out", "--patch", "--scale", "--text",
        "-h",
    },
    "reconstruct": _RECONSTRUCT_FLAGS | {"--out"},
    "generate": _SWEEP_FLAGS | {
        "--cutoff", "--ratio", "--dataset", "--no-injection", "--predicted", "--record",
        "--save-trace",
    },
    "analyze": _GLYPH_FLAGS | _SELECT_FLAGS | {"--ratio", "--out-dir", "--trace"},
    "sweep": _SWEEP_FLAGS | {"--full-runs"},
    "export-heatmap": {"--grid", "--help", "--name", "--out", "--scores", "-h"},
}
# flags of keys a command does not read: reconstruction is unguided and embeds
# io.recon_prompt, only word, layout and scale shape analyze's mask, and the
# sweep grid replaces injection.ratio and sampler.cutoff
DROPPED_FLAGS = {
    "reconstruct": (["--guidance", "2.5"], ["--style", "thin"]),
    "analyze": (["--style", "thin"],),
    "sweep": (["--ratio", "0.5"], ["--cutoff", "3"]),
}


def _subparsers():
    (sub,) = (a for a in make_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def test_cli_keeps_its_flags():
    got = {
        name: {s for action in parser._actions for s in action.option_strings}
        for name, parser in _subparsers().items()
    }
    assert got == PINNED_OPTIONS


def test_dropped_flags_exit_2(capsys):
    required = {"reconstruct": ["--out", "x"], "analyze": ["--trace", "x"]}
    for command, flags in DROPPED_FLAGS.items():
        for flag in flags:
            with pytest.raises(SystemExit) as exc:
                main([command, *flag, *required.get(command, [])])
            assert exc.value.code == 2, (command, flag)
            assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


# a valid non-default value for every key that has a flag
_SAMPLE_VALUES = {
    "model.seed_weights": "7",
    "sampler.steps": "30",
    "sampler.guidance": "2.5",
    "sampler.cutoff": "5",
    "sampler.seed_noise": "3",
    "injection.ratio": "0.5",
    "injection.mode": "row_max",
    "io.word": "cat",
    "io.style": "thin lines",
    "io.layout": "vertical",
    "io.scale": "2",
    "io.out_dir": "elsewhere",
    "io.predicted": "cot",
}


def test_config_flags_equal_config_file_lines():
    checked = set()
    for name, parser in _subparsers().items():
        for action in parser._actions:
            if action.dest not in _SCHEMA:
                continue
            key, flag = action.dest, action.option_strings[0]
            if action.nargs == 0:  # a bool flag sets the key to its non-default value
                value, argv = action.const, [flag]
            else:
                value = _SAMPLE_VALUES[key]
                argv = [flag, value]
            argv += {"reconstruct": ["--out", "x"], "analyze": ["--trace", "x"]}.get(name, [])
            cfg = _build_config(parser.parse_args(argv))
            assert cfg == parse(f"{key} = {value}"), (name, flag)
            assert cfg != RunConfig(), (name, flag)
            checked.add(flag)
    assert checked == {
        "--cutoff", "--full-runs", "--guidance", "--layout", "--mode", "--no-averaging",
        "--out-dir", "--predicted", "--ratio", "--save-trace", "--scale", "--seed-noise",
        "--seed-weights", "--steps", "--style", "--word",
    }


def test_missing_input_files_exit_2(tmp_path, conf, capsys):
    missing = str(tmp_path / "missing.bin")
    cases = [
        ["analyze", "--config", conf, "--trace", missing, "--out-dir", str(tmp_path / "a")],
        ["export-heatmap", "--scores", missing, "--grid", "2", "--out", str(tmp_path / "h.pgm")],
    ]
    glyph_conf = tmp_path / "glyph.conf"
    glyph_conf.write_text(TINY_CONF + f"io.glyph_path = {tmp_path / 'missing.pgm'}\n")
    cases.append(["generate", "--config", str(glyph_conf), "--out-dir", str(tmp_path / "g")])
    for argv in cases:
        capsys.readouterr()
        assert main(argv) == 2, argv
        assert "error:" in capsys.readouterr().err, argv


def test_missing_glyph_writes_error_manifest(tmp_path, capsys):
    glyph_conf = tmp_path / "glyph.conf"
    glyph_conf.write_text(TINY_CONF + f"io.glyph_path = {tmp_path / 'missing.pgm'}\n")
    d = tmp_path / "g"
    assert main(["generate", "--config", str(glyph_conf), "--out-dir", str(d)]) == 2
    assert "error:" in capsys.readouterr().err
    man = RunManifest.load(str(d / "manifest.json"))
    assert man.error["type"] == "FileNotFoundError"
    assert man.outputs == {}


def test_unwritable_out_exits_2(tmp_path, conf, capsys):
    out = str(tmp_path / "no" / "such" / "dir" / "out.bin")
    cases = [
        ["rasterize", "--text", "A", "--canvas", "16", "--patch", "4", "--out", out],
        ["reconstruct", "--config", conf, "--out", out],
    ]
    for argv in cases:
        capsys.readouterr()
        assert main(argv) == 2, argv
        assert "error:" in capsys.readouterr().err, argv
