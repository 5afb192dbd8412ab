"""Golden output bytes of the default run.

Pins the full sha256 of the default injected PGM, the default
`--no-injection` PGM, and a digest of the default plan's index sets for
every (step, layer). A change that moves any of them changes what the
pipeline produces; only a change meant to do so may update these values,
and it records the old and new ones in CHANGES.md. Trace and manifest
checksums are not pinned: trace floats may drift by a few ulps.
"""

import hashlib

import pytest

from glyphflow import RunConfig, pipeline, run_generate

INJECTED_PGM_SHA256 = "113fcb1ee8a191d03bb85f93ebc79da11c2efd7dc0a981e0b78fe500b3b31fad"
BASELINE_PGM_SHA256 = "5bf43363c84a3fbe3033bb5a5b9c2aeccb6dc3525b902c928a827415f9ad5dac"
PLAN_SHA256 = "effd94aac30b98badd37b17bafcd6db44ea249e4781dbddc538df680137249e8"


def _file_sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _plan_sha256(plan) -> str:
    h = hashlib.sha256()
    for (step, layer), core in sorted(plan.sets.items()):
        h.update(f"{step},{layer}:{','.join(map(str, core.indices))}\n".encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def default_injected(tmp_path_factory):
    out = tmp_path_factory.mktemp("injected")
    plans = []
    inner = pipeline.build_injection

    def tap(*args, **kwargs):
        plans.append(inner(*args, **kwargs))
        return plans[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "build_injection", tap)
        run_generate(RunConfig(), out_dir=str(out))
    assert len(plans) == 1
    return out / "output.pgm", plans[0]


def test_golden_injected_pgm(default_injected):
    assert _file_sha256(default_injected[0]) == INJECTED_PGM_SHA256


def test_golden_plan_index_sets(default_injected):
    assert _plan_sha256(default_injected[1]) == PLAN_SHA256


def test_golden_baseline_pgm(tmp_path):
    run_generate(RunConfig(), out_dir=str(tmp_path), baseline=True)
    assert _file_sha256(tmp_path / "output.pgm") == BASELINE_PGM_SHA256
