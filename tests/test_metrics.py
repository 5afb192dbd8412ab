import numpy as np
import pytest

from glyphflow import (
    CharF1Result,
    ShapeMismatch,
    ZeroRowMass,
    char_f1,
    exact_match,
    render_sweep_csv,
)
from glyphflow.metrics import MASK_THRESHOLD, row_fraction, row_masses


def test_exact_match():
    assert exact_match("logo", "logo")
    assert exact_match("  logo ", "logo")
    assert not exact_match("Logo", "logo")
    assert not exact_match("logo", "log")
    assert exact_match("", "   ")


def test_char_f1_reference_case():
    r = char_f1("lgo", "logo")
    assert r.precision == 1.0
    assert r.recall == 0.75
    assert abs(r.f1 - 0.8571) < 1e-4


def test_char_f1_edge_cases():
    assert char_f1("", "") == CharF1Result(1.0, 1.0, 1.0)
    assert char_f1("", "logo") == CharF1Result(0.0, 0.0, 0.0)
    assert char_f1("logo", "") == CharF1Result(0.0, 0.0, 0.0)
    assert char_f1("abc", "xyz") == CharF1Result(0.0, 0.0, 0.0)
    assert char_f1("logo", "logo") == CharF1Result(1.0, 1.0, 1.0)


def test_char_f1_multiset_counts():
    # "aab" vs "abb": intersection {a:1, b:1} -> P = R = 2/3
    r = char_f1("aab", "abb")
    assert np.isclose(r.precision, 2 / 3)
    assert np.isclose(r.recall, 2 / 3)
    # repeated letters are counted with multiplicity, not as a set
    r = char_f1("aaaa", "aa")
    assert np.isclose(r.precision, 0.5)
    assert r.recall == 1.0


def test_char_f1_anagram():
    r = char_f1("listen", "silent")
    assert r.f1 == 1.0
    assert not exact_match("listen", "silent")


def test_char_f1_swap_symmetry(rng):
    letters = np.array(list("abcdef"))
    for _ in range(100):
        a = "".join(rng.choice(letters, size=rng.integers(0, 8)))
        b = "".join(rng.choice(letters, size=rng.integers(0, 8)))
        ab = char_f1(a, b)
        ba = char_f1(b, a)
        assert ab.precision == ba.recall
        assert ab.recall == ba.precision
        assert np.isclose(ab.f1, ba.f1)
        if exact_match(a, b):
            assert ab.f1 == 1.0


def _coverage(rows, mask_frac):
    """Mean on-mask fraction of every given row, as the pipeline measures it."""
    masses = row_masses(rows, mask_frac)
    return row_fraction(masses.on, masses.total, slice(None))


def test_mask_coverage_hand_cases():
    mask_frac = np.array([1.0, 0.0, 1.0, 0.0])
    uniform = np.full((2, 4), 0.25)
    assert np.isclose(_coverage(uniform, mask_frac), 0.5)
    row = np.array([[0.4, 0.1, 0.4, 0.1]])
    assert np.isclose(_coverage(row, mask_frac), 0.8)
    # each row is normalized by its own mass: scaling a row changes nothing
    assert _coverage(row * 0.5, mask_frac) == _coverage(row, mask_frac)
    assert _coverage(uniform, np.ones(4)) == 1.0
    assert _coverage(uniform, np.zeros(4)) == 0.0
    # the threshold is inclusive on-mask
    assert np.isclose(_coverage(np.full((1, 2), 0.5), np.array([0.5, 0.49])), 0.5)


def test_mask_coverage_errors():
    with pytest.raises(ShapeMismatch):  # map width differs from the mask
        row_masses(np.full((1, 3), 0.5), np.ones(4))
    with pytest.raises(ShapeMismatch):  # a 2-D mask
        row_masses(np.full((2, 2), 0.5), np.ones((2, 2)))
    with pytest.raises(ShapeMismatch):  # no rows
        _coverage(np.empty((0, 4)), np.ones(4))
    with pytest.raises(ZeroRowMass):
        _coverage(np.zeros((1, 4)), np.ones(4))


def test_coverage_complements_shift(rng):
    # coverage and shift are summed over their own columns, yet they sum to 1
    # for the same rows
    for _ in range(20):
        n = 8
        mean_map = (rng.random((2, n, n)) + 1e-3).mean(axis=0)
        masses = row_masses(mean_map, rng.random(n))
        idx = np.sort(rng.choice(n, size=3, replace=False))
        coverage = row_fraction(masses.on, masses.total, idx)
        shift = row_fraction(masses.off, masses.total, idx)
        assert abs(coverage + shift - 1.0) < 1e-9


def test_row_masses_hand_case():
    mean_map = np.array([[0.4, 0.1, 0.4, 0.1], [0.25, 0.25, 0.25, 0.25], [0.0, 0.0, 0.0, 0.0]])
    masses = row_masses(mean_map, np.array([1.0, 0.0, 0.5, 0.49]))
    assert np.allclose(masses.total, [1.0, 1.0, 0.0])
    assert np.allclose(masses.on, [0.8, 0.5, 0.0])
    assert np.allclose(masses.off, [0.2, 0.5, 0.0])
    assert row_masses(mean_map, np.full(4, MASK_THRESHOLD)).off.tolist() == [0.0, 0.0, 0.0]


def test_row_masses_off_mass_has_its_own_columns():
    # a NaN mask fraction is neither >= nor < the threshold, so its column's
    # mass is in the total but in neither split: off is not total - on
    masses = row_masses(np.full((1, 4), 0.25), np.array([1.0, np.nan, 0.0, 0.0]))
    assert masses.total[0] == 1.0
    assert masses.on[0] == 0.25 and masses.off[0] == 0.5


def test_row_masses_errors():
    with pytest.raises(ShapeMismatch):
        row_masses(np.full((2, 3), 0.5), np.ones(4))
    with pytest.raises(ShapeMismatch):
        row_masses(np.full(4, 0.5), np.ones(4))
    with pytest.raises(ShapeMismatch):
        row_masses(np.full((2, 2), 0.5), np.ones((2, 2)))
    masses = row_masses(np.array([[0.5, 0.5], [0.0, 0.0]]), np.ones(2))
    with pytest.raises(ShapeMismatch, match="at least one row required"):
        row_fraction(masses.on, masses.total, np.array([], dtype=np.int64))
    with pytest.raises(ZeroRowMass):
        row_fraction(masses.on, masses.total, np.array([0, 1]))
    assert row_fraction(masses.on, masses.total, np.array([0])) == 1.0


def test_row_fraction_gathered_after_the_sum_is_bit_identical(rng):
    # summing all rows once and gathering the core rows afterwards gives the
    # same bits as summing only the gathered core rows
    for _ in range(20):
        n = int(rng.integers(2, 300))
        mean_map = rng.random((4, n, n)).mean(axis=0)
        mask_frac = rng.random(n)
        idx = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        rows = mean_map[idx]
        on = mask_frac >= MASK_THRESHOLD
        denom = rows.sum(axis=1)
        want_cov = float(np.mean(rows[:, on].sum(axis=1) / denom))
        want_shift = float(np.mean(rows[:, ~on].sum(axis=1) / denom))
        masses = row_masses(mean_map, mask_frac)
        assert row_fraction(masses.on, masses.total, idx) == want_cov
        assert row_fraction(masses.off, masses.total, idx) == want_shift


def test_render_sweep_csv():
    table = {
        (0.25, 12): 0.5,
        (0.25, 8): 1.0,
        (0.125, 12): None,
        (0.125, 8): 0.25,
    }
    text = render_sweep_csv(table, "coverage")
    lines = text.splitlines()
    assert lines[0] == "ratio,step,coverage"
    assert lines[1] == "0.125,8,0.25"
    assert lines[2] == "0.125,12,NA"
    assert lines[3] == "0.25,8,1.0"
    assert lines[4] == "0.25,12,0.5"
    assert text.endswith("\n")
    assert len(lines) == 5
