"""Unit tests for the benchmark's pure logic (``perfbench/core.py``).

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

import math

import numpy as np
import pytest

from perfbench.core import (
    classify_rows,
    latency_summary,
    median,
    meets_slo,
    percentile,
    poisson_offsets,
    request_sizes,
    self_times,
    staircase_max_rate,
    staircase_step,
)


# ----------------------------------------------------------------- schedule
def test_poisson_schedule_is_seeded_and_inside_the_window():
    a = poisson_offsets(np.random.default_rng(3), 1000.0, 2.0)
    b = poisson_offsets(np.random.default_rng(3), 1000.0, 2.0)
    c = poisson_offsets(np.random.default_rng(4), 1000.0, 2.0)
    assert np.array_equal(a, b)
    assert not np.array_equal(a[: len(c)], c[: len(a)])
    assert a.min() >= 0.0 and a.max() < 2.0
    assert np.all(np.diff(a) > 0)
    # 2000 expected arrivals: within 5 sigma.
    assert abs(a.size - 2000) < 5 * math.sqrt(2000)


def test_request_sizes_fixed_and_heavy_tailed():
    rng = np.random.default_rng(0)
    assert np.all(request_sizes(rng, 10, fixed=16) == 16)
    sizes = request_sizes(np.random.default_rng(0), 50000)
    assert sizes.min() >= 1 and sizes.max() <= 256
    assert 8.0 < sizes.mean() < 14.0
    assert np.median(sizes) < sizes.mean()  # right-skewed


# -------------------------------------------------------------- percentiles
def test_percentile_carries_its_sample_count():
    value, n = percentile([1.0, 2.0, 3.0, 4.0], 50)
    assert (value, n) == (2.5, 4)
    value, n = percentile([], 90)
    assert n == 0 and math.isnan(value)


def test_latency_summary_in_ms_with_tail_count():
    lat = np.arange(1, 1001) / 1e3  # 1..1000 ms
    out = latency_summary(lat)
    assert out["n"] == 1000
    assert out["p50_ms"] == pytest.approx(500.5)
    assert out["p90_ms"] == pytest.approx(900.1)
    assert out["p99_tail"] == 10


def test_median_ignores_nan():
    assert median([3.0, float("nan"), 1.0, 2.0]) == 2.0
    assert math.isnan(median([float("nan")]))


# ---------------------------------------------------------- rate staircase
def _w(rate, p90, failed=0, share=1.0, degraded=0.0):
    return {"achieved_rps": rate, "p90_ms": p90, "failed": failed,
            "achieved_share": share, "degraded_share": degraded}


def test_meets_slo_needs_p90_no_loss_full_quality_and_achieved_rate():
    assert meets_slo(_w(100, 10.0), 10.0)
    assert not meets_slo(_w(100, 10.5), 10.0)
    assert not meets_slo(_w(100, 5.0, failed=1), 10.0)
    assert not meets_slo(_w(100, 5.0, share=0.97), 10.0)
    assert not meets_slo(_w(100, 5.0, degraded=0.01), 10.0)


def test_staircase_steps_one_rung_and_stays_on_the_ladder():
    assert staircase_step(3, True, 6) == 4
    assert staircase_step(3, False, 6) == 2
    assert staircase_step(5, True, 6) == 5
    assert staircase_step(0, False, 6) == 0


def test_staircase_estimate_averages_from_the_first_reversal():
    # Climbs 400 -> 500 -> 600, misses at 700, then oscillates.
    windows = [_w(400, 5), _w(500, 6), _w(600, 8), _w(690, 40),
               _w(600, 9), _w(695, 12), _w(600, 9), _w(700, 9),
               _w(780, 50, failed=3)]
    rate, where = staircase_max_rate(windows, 10.0)
    assert where == "crossed"
    assert rate == pytest.approx(np.mean([690, 600, 695, 600, 700, 780]))


def test_staircase_edges():
    # Never missed: pinned at the top rung, a lower bound.
    rate, where = staircase_max_rate([_w(100, 1), _w(200, 2), _w(200, 2),
                                      _w(200, 3)], 10.0)
    assert (rate, where) == (pytest.approx(200.0), "lower_bound")
    rate, where = staircase_max_rate([_w(300, 20), _w(200, 20),
                                      _w(100, 30), _w(100, 30)], 10.0)
    assert (rate, where) == (pytest.approx(100.0), "below_ladder")
    with pytest.raises(ValueError):
        staircase_max_rate([], 10.0)


# ---------------------------------------------------------------- self time
def test_self_time_subtracts_union_of_children():
    spans = [
        (0.0, 10.0, -1),  # root
        (1.0, 4.0, 0),    # child
        (3.0, 6.0, 0),    # overlapping child: union 1..6 = 5
        (8.0, 12.0, 0),   # spills past the parent: counts 8..10 = 2
        (1.5, 2.0, 1),    # grandchild
    ]
    out = self_times(spans)
    assert out[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert out[1] == pytest.approx(3.0 - 0.5)
    assert out[2] == pytest.approx(3.0)
    assert out[4] == pytest.approx(0.5)
    assert all(v >= 0 for v in out)


def test_self_time_of_leaf_is_duration():
    assert self_times([(2.0, 2.5, -1)]) == [pytest.approx(0.5)]


# ------------------------------------------------------------ row check
def test_classify_rows_approx_or_exact():
    approx = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
    exact = approx + 0.5
    exact[3] = approx[3]  # a row where both references agree
    delivered = approx.copy()
    delivered[1] = exact[1]
    delivered[2] = [5.0, 6.25]  # neither
    delivered[0] += 1e-12  # rounding noise stays within tolerance
    cls = classify_rows(delivered, approx, exact)
    assert cls["is_approx"].tolist() == [True, False, False, True]
    assert cls["is_exact"].tolist() == [False, True, False, True]
    assert cls["valid"].tolist() == [True, True, False, True]


def test_classify_rows_tolerance_is_relative_for_large_values():
    ref = np.array([[1e6]])
    assert classify_rows(ref + 1e-4, ref, ref * 2)["is_approx"][0]
    assert not classify_rows(ref + 1e-2, ref, ref * 2)["valid"][0]


def test_classify_rows_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        classify_rows(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((3, 2)))
