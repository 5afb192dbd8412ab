"""Exception types shared across the package."""


class GlyphFlowError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(GlyphFlowError):
    """Invalid or unparseable run configuration."""


class TextOverflow(GlyphFlowError):
    """Rendered text run does not fit on the requested canvas."""


class MalformedHeader(GlyphFlowError):
    """Netpbm header does not follow the P1/P2/P5 grammar."""


class DimensionZero(GlyphFlowError):
    """Image file declares a zero width or height."""


class ShapeMismatch(GlyphFlowError):
    """Array argument has the wrong dimensions for the operation."""


class NonFiniteActivation(GlyphFlowError):
    """A forward pass produced NaN or infinity; the run must abort."""


class NonFiniteValue(GlyphFlowError):
    """An input array holds NaN or infinity where only finite values have a meaning."""


class TraceMismatch(GlyphFlowError):
    """Injection plan does not belong to the supplied attention trace, or the
    trace lacks the logits an operation reads."""


class EmptyTrace(GlyphFlowError):
    """Attention trace holds no captured steps."""


class ModeMismatch(GlyphFlowError):
    """Score vectors with different scoring modes cannot be combined."""


class FewerThanTwoLayers(GlyphFlowError):
    """Across-layer variance needs at least two layers."""


class IndexOutOfRange(GlyphFlowError):
    """Token index outside the image-token range."""


class ZeroRowMass(GlyphFlowError):
    """Attention row with zero total mass has no defined on/off-mask split."""


class DuplicateCell(GlyphFlowError):
    """Sweep grid contains the same (ratio, step, metric) cell twice."""


class EmptyWord(GlyphFlowError):
    """Prompt template requires a nonempty target word."""


def read_text(path, what: str) -> str:
    """The UTF-8 text of the file at `path`. A file that cannot be opened,
    read or decoded raises ConfigError, naming the `what` it should hold."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
