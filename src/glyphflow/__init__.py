"""glyphflow: a deterministic toy multimodal diffusion transformer that
captures glyph-reconstruction attention, selects core image tokens, and
injects their attention rows into prompt-conditioned generation."""

from .coreattn import (
    CoreTokenSet,
    CumulativeScore,
    InjectionPlan,
    ScoreMode,
    ScoreVector,
    SelectionSource,
    apply_injection,
    attention_shift,
    build_injection,
    cumulative_update,
    save_scores,
    select_core_tokens,
    token_scores,
    variance_scores,
)
from .errors import (
    ConfigError,
    DimensionZero,
    DuplicateCell,
    EmptyTrace,
    EmptyWord,
    FewerThanTwoLayers,
    GlyphFlowError,
    IndexOutOfRange,
    MalformedHeader,
    ModeMismatch,
    NonFiniteActivation,
    ShapeMismatch,
    TextOverflow,
    TraceMismatch,
    ZeroRowMass,
)
from .font8 import BitmapFont, builtin_font
from .glyphs import (
    GlyphImage,
    Layout,
    glyph_mask_patch_counts,
    glyph_mask_patches,
    load_glyph_bitmap,
    rasterize_text,
)
from .manifest import VERSION, RunManifest, StepLog
from .metrics import (
    CharF1Result,
    SweepCell,
    char_f1,
    exact_match,
    mask_coverage,
    render_sweep_csv,
    sweep_aggregate,
)
from .model import (
    AttentionHook,
    JointAttention,
    ModelConfig,
    ModelWeights,
    TokenSequence,
    embed_patches,
    embed_prompt,
    fnv1a64,
    forward,
    image_position_encoding,
    init_model,
    load_weights,
    patchify,
    save_weights,
    timestep_embedding,
    unpatchify,
)
from .netpbm import read_netpbm, write_pgm
from .pipeline import (
    PromptRecord,
    build_prompt,
    export_heatmap,
    load_dataset,
    prepare_glyph,
    run_analyze,
    run_generate,
    run_sweep,
    write_error_manifest,
)
from .runconfig import (
    InjectionConfig,
    IOConfig,
    RunConfig,
    SweepConfig,
    config_hash,
    parse,
    parse_file,
    serialize,
)
from .sampler import (
    AttentionTrace,
    SamplerConfig,
    cfg_combine,
    draw_noise,
    euler_step,
    generate_with_injection,
    noise_to,
    reconstruct_capture,
)
from .tensorio import file_checksum, read_tensors, tensors_checksum, write_tensors

__version__ = VERSION
