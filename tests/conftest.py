import numpy as np
import pytest

from glyphflow import (
    ModelConfig,
    SamplerConfig,
    init_model,
    rasterize_text,
    reconstruct_capture,
    write_tensors,
)

# A deliberately small model so reconstruction fixtures stay cheap: 16 image
# tokens, joint length 20.
TINY = ModelConfig(d_model=16, n_heads=2, n_layers=2, patch=4, grid=4, t_txt=4, seed=0)
TINY_SAMPLER = SamplerConfig(steps=4, guidance=7.5, cutoff_step=2, noise_seed=0)


@pytest.fixture(scope="session")
def tiny_cfg():
    return TINY


@pytest.fixture(scope="session")
def tiny_weights():
    return init_model(TINY)


@pytest.fixture(scope="session")
def tiny_glyph():
    return rasterize_text("A", width=TINY.canvas, height=TINY.canvas, scale=1, patch=TINY.patch)


@pytest.fixture(scope="session")
def tiny_sampler():
    return TINY_SAMPLER


@pytest.fixture(scope="session")
def tiny_trace(tiny_weights, tiny_glyph):
    return reconstruct_capture(tiny_weights, tiny_glyph, "", TINY_SAMPLER)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


# a saved trace broken in one way that AttentionTrace.load must refuse
MALFORMED_TRACES = {
    "i8 logits": lambda tensors, meta: tensors.update(logits=tensors["logits"].astype(np.int64)),
    "i8 probs": lambda tensors, meta: tensors.update(probs=tensors["probs"].astype(np.int64)),
    "t nan": lambda tensors, meta: meta.update(t_values="nan," + meta["t_values"].split(",")[1]),
    "t inf": lambda tensors, meta: meta.update(t_values="1.0,inf"),
    "t above 1": lambda tensors, meta: meta.update(t_values="1.5,0.75"),
    "t below 0": lambda tensors, meta: meta.update(t_values="1.0,-0.25"),
}


def write_malformed_trace(path, trace, case):
    """Save `trace` with one of MALFORMED_TRACES applied to its tensors or meta."""
    tensors, meta = {"logits": trace.logits, "probs": trace.probs}, trace._meta()
    MALFORMED_TRACES[case](tensors, meta)
    write_tensors(path, tensors, meta=meta)
