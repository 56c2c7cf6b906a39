"""Unit tests for mean/CI helpers."""

import math

import numpy as np
from scipy import stats as scipy_stats

from repro.analysis import Aggregate, mean_confidence_interval
from repro.analysis.stats import t_critical


def test_empty_values():
    assert mean_confidence_interval([]) == (0.0, 0.0)


def test_single_value_has_zero_ci():
    mean, ci = mean_confidence_interval([3.5])
    assert mean == 3.5
    assert ci == 0.0


def test_matches_scipy_reference():
    values = [0.91, 0.95, 0.89, 0.94, 0.92]
    mean, ci = mean_confidence_interval(values)
    ref_mean = np.mean(values)
    ref_sem = scipy_stats.sem(values)
    ref_ci = ref_sem * scipy_stats.t.ppf(0.975, len(values) - 1)
    assert math.isclose(mean, ref_mean, rel_tol=1e-12)
    assert math.isclose(ci, ref_ci, rel_tol=1e-9)


def test_t_critical_matches_scipy_sweep():
    dfs = list(range(1, 1001)) + [2000, 5000, 10000]
    for confidence in (0.8, 0.9, 0.95, 0.99, 0.999):
        refs = scipy_stats.t.ppf((1 + confidence) / 2, dfs)
        for df, ref in zip(dfs, refs):
            assert math.isclose(t_critical(confidence, df), ref,
                                rel_tol=1e-10), (confidence, df)


def test_t_critical_closed_forms():
    # df = 1 is the Cauchy distribution; df = 2 inverts t / sqrt(2 + t^2).
    for c in (0.5, 0.8, 0.9, 0.95, 0.99, 0.999):
        assert math.isclose(t_critical(c, 1), math.tan(math.pi * c / 2),
                            rel_tol=1e-12)
        assert math.isclose(t_critical(c, 2), c * math.sqrt(2 / (1 - c * c)),
                            rel_tol=1e-12)


def test_constant_values_zero_ci():
    mean, ci = mean_confidence_interval([2.0, 2.0, 2.0, 2.0])
    assert mean == 2.0
    assert ci == 0.0


def test_wider_confidence_wider_interval():
    values = [1.0, 2.0, 3.0, 4.0]
    _, ci95 = mean_confidence_interval(values, confidence=0.95)
    _, ci99 = mean_confidence_interval(values, confidence=0.99)
    assert ci99 > ci95


def test_aggregate_overlaps():
    tight_low = Aggregate([1.0, 1.01, 0.99])
    tight_high = Aggregate([2.0, 2.01, 1.99])
    wide = Aggregate([0.5, 2.5, 1.5])
    assert not tight_low.overlaps(tight_high)
    assert tight_low.overlaps(wide)
    assert wide.overlaps(tight_high)
    assert tight_low.overlaps(tight_low)


def test_aggregate_repr_contains_mean():
    assert "2" in repr(Aggregate([2.0, 2.0]))


def test_aggregate_zero_samples():
    agg = Aggregate([])
    assert agg.values == []
    assert agg.mean == 0.0
    assert agg.ci == 0.0
    assert agg.overlaps(agg)  # degenerate [0, 0] interval overlaps itself


def test_aggregate_one_sample():
    agg = Aggregate([0.75])
    assert agg.values == [0.75]
    assert agg.mean == 0.75
    assert agg.ci == 0.0  # no spread estimate from a single trial
    assert agg.overlaps(Aggregate([0.75]))
    assert not agg.overlaps(Aggregate([0.5]))


def test_overlaps_at_exactly_touching_endpoints():
    # [1, 3] and [3, 5]: hi_a == lo_b.  Touching counts as overlapping —
    # the paper's "statistically identical" reading is inclusive.
    left = Aggregate([2.0])
    left.ci = 1.0    # interval [1, 3]
    right = Aggregate([4.0])
    right.ci = 1.0   # interval [3, 5]
    assert left.overlaps(right)
    assert right.overlaps(left)
    # Move right's interval an epsilon away: no longer overlapping.
    right.mean = 4.0 + 1e-9
    assert not left.overlaps(right)
