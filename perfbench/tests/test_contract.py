"""The metric lists in code match ``BENCHMARK.json``; window accounting."""

import json
import os

import numpy as np
import pytest

from perfbench.driver import Schedule, _new_window, pooled_summary
from perfbench.measure import E2E_METRICS, LAYER_METRICS

ROOT = os.path.join(os.path.dirname(__file__), "..", "..")


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == E2E_METRICS
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == LAYER_METRICS


def _window(offsets, done_after, duration=1.0, grace=0.0):
    offsets = np.asarray(offsets, dtype=float)
    n = offsets.size
    schedule = Schedule(rate=n / duration, duration_s=duration,
                        offsets=offsets, starts=np.zeros(n, dtype=np.int64),
                        sizes=np.ones(n, dtype=np.int64), grace_s=grace)
    window = _new_window("w", schedule, n_outputs=1)
    window.t0 = 100.0
    window.due[:] = 100.0 + offsets
    window.sent[:] = window.due
    window.done[:] = window.due + np.asarray(done_after, dtype=float)
    window.ok[:] = True
    return window


def test_achieved_counts_successes_done_within_window_plus_grace():
    w = _window([0.1, 0.5, 0.9, 0.95], [0.01, 0.01, 0.2, 0.01], grace=0.05)
    s = w.summary()
    assert s["sent"] == 4 and s["failed"] == 0
    # The third request finishes at 1.1 s, past the window plus grace.
    assert s["achieved_share"] == pytest.approx(0.75)
    assert s["p50_ms"] == pytest.approx(10.0)


def test_failed_requests_count_and_are_excluded_from_latency():
    w = _window([0.1, 0.2], [0.01, 5.0])
    w.ok[1] = False
    w.errors[1] = "OverloadedError"
    s = w.summary()
    assert (s["succeeded"], s["failed"], s["shed"]) == (1, 1, 1)
    assert s["n"] == 1 and s["p99_ms"] == pytest.approx(10.0)


def test_pooled_summary_pools_latencies_and_sums_counts():
    a = _window([0.1, 0.5], [0.001, 0.003])
    b = _window([0.2, 0.4, 0.6, 0.8], [0.002, 0.004, 0.5, 0.010], grace=0.05)
    b.ok[3] = False
    b.errors[3] = "OverloadedError"
    out = pooled_summary([a, b])
    assert (out["windows"], out["sent"], out["failed"], out["shed"]) == (2, 6, 1, 1)
    assert out["n"] == 5
    # Latencies 1, 2, 3, 4 and 500 ms: the median is the third.
    assert out["p50_ms"] == pytest.approx(3.0)
    # 6 sent over 2 s; b's third success ends past its window plus grace.
    assert out["offered_rps"] == pytest.approx(3.0)
    assert out["achieved_share"] == pytest.approx(4 / 6)
