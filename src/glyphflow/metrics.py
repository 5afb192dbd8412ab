"""Text-fidelity and structure metrics: exact match, character F1, the row
masses behind on-mask coverage and attention shift, and the sweep CSV.

Character F1 is bag-of-codepoints: the multiset intersection of the two
strings sets precision against the prediction and recall against the target.
No OCR happens here; predicted strings are caller-supplied.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ShapeMismatch, ZeroRowMass

MASK_THRESHOLD = 0.5


@dataclass(frozen=True)
class CharF1Result:
    precision: float
    recall: float
    f1: float


def exact_match(predicted: str, target: str) -> bool:
    """Codepoint-exact equality after trimming surrounding whitespace."""
    return predicted.strip() == target.strip()


def char_f1(predicted: str, target: str) -> CharF1Result:
    """Multiset codepoint overlap after trimming surrounding whitespace.

    Shares exact_match's trim so an exact match always scores F1 = 1.
    Both empty scores 1; empty vs nonempty 0.
    """
    predicted = predicted.strip()
    target = target.strip()
    if not predicted and not target:
        return CharF1Result(1.0, 1.0, 1.0)
    if not predicted or not target:
        return CharF1Result(0.0, 0.0, 0.0)
    overlap = Counter(predicted) & Counter(target)
    inter = sum(overlap.values())
    precision = inter / len(predicted)
    recall = inter / len(target)
    if precision + recall == 0.0:
        return CharF1Result(0.0, 0.0, 0.0)
    f1 = 2.0 * precision * recall / (precision + recall)
    return CharF1Result(precision, recall, f1)


class RowMasses(NamedTuple):
    """Attention mass of I2I rows: in total, on the glyph mask, and off it."""

    total: np.ndarray
    on: np.ndarray
    off: np.ndarray


def row_masses(mean_map: np.ndarray, mask_frac: np.ndarray) -> RowMasses:
    """Total, on-mask and off-mask mass of every row of a head-mean I2I map.

    A patch is on-mask when its mask fraction is >= MASK_THRESHOLD and
    off-mask when it is strictly below. The off-mask mass is summed over its
    own columns, never taken as total - on, so coverage + shift = 1 checks
    both sums.
    """
    mean_map = np.asarray(mean_map, dtype=np.float64)
    mask_frac = np.asarray(mask_frac, dtype=np.float64)
    if mean_map.ndim != 2 or mask_frac.ndim != 1 or mean_map.shape[1] != mask_frac.shape[0]:
        raise ShapeMismatch(
            f"rows {mean_map.shape} incompatible with mask fractions {mask_frac.shape}"
        )
    return RowMasses(
        total=mean_map.sum(axis=1),
        on=mean_map[:, mask_frac >= MASK_THRESHOLD].sum(axis=1),
        off=mean_map[:, mask_frac < MASK_THRESHOLD].sum(axis=1),
    )


def row_fraction(part: np.ndarray, total: np.ndarray, rows) -> float:
    """Mean over the selected rows of part / total, each row by its own mass."""
    denom = total[rows]
    if denom.size == 0:
        raise ShapeMismatch("at least one row required")
    if np.any(denom <= 0.0):
        raise ZeroRowMass("row carries no attention mass")
    return float(np.mean(part[rows] / denom))


def render_sweep_csv(table: dict[tuple[float, int], float | None], metric: str) -> str:
    """CSV with header ratio,step,<metric>; ratios then steps ascending; NA for holes."""
    lines = [f"ratio,step,{metric}"]
    for (ratio, step) in sorted(table):
        value = table[(ratio, step)]
        cell = "NA" if value is None else repr(float(value))
        lines.append(f"{ratio!r},{step},{cell}")
    return "\n".join(lines) + "\n"
