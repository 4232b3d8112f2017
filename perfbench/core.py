"""Pure logic of the serving benchmark: no clocks, threads or I/O.

Everything here is a function of its arguments, so the unit tests in
``perfbench/tests`` pin it down exactly:

* :func:`poisson_offsets` / :func:`request_sizes` — the seeded open-loop
  schedule and request sizes,
* :func:`percentile` / :func:`latency_summary` — percentiles that always
  travel with their sample count,
* :func:`staircase_step` / :func:`staircase_max_rate` — the highest rate
  that meets a workload's SLO, from an up-down staircase over its fixed
  ladder of rates,
* :func:`self_times` — span self time (duration minus the union of its
  children's intervals),
* :func:`classify_rows` — the approx-or-exact check on delivered rows.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "poisson_offsets",
    "request_sizes",
    "percentile",
    "latency_summary",
    "median",
    "meets_slo",
    "staircase_step",
    "staircase_max_rate",
    "self_times",
    "classify_rows",
]


def poisson_offsets(
    rng: np.random.Generator, rate: float, duration_s: float
) -> np.ndarray:
    """Send times (seconds from window start) of a Poisson arrival process.

    Every offset lies in ``[0, duration_s)``; the count is itself random,
    as it is for independent users.
    """
    if rate <= 0 or duration_s <= 0:
        raise ValueError("rate and duration must be positive")
    # Draw enough gaps for the window in one call (mean + 8 sigma), then
    # cut at the window end.
    expected = rate * duration_s
    n = int(expected + 8.0 * math.sqrt(expected) + 16)
    times = np.cumsum(rng.exponential(1.0 / rate, size=n))
    return times[times < duration_s]


def request_sizes(
    rng: np.random.Generator,
    n: int,
    fixed: Optional[int] = None,
    pareto_shape: float = 0.9,
    pareto_scale: float = 1.5,
    max_rows: int = 256,
) -> np.ndarray:
    """Rows per request: ``fixed`` for all, or a clipped heavy tail.

    The heavy tail is ``floor(scale * (1 + Lomax(shape)))`` clipped to
    ``[1, max_rows]``: a Pareto distribution with minimum ``scale``.  The
    defaults give sizes 1-256 with median 3 and mean about 11.
    """
    if fixed is not None:
        return np.full(n, int(fixed), dtype=np.int64)
    raw = np.floor(pareto_scale * (1.0 + rng.pareto(pareto_shape, size=n)))
    return np.clip(raw, 1, max_rows).astype(np.int64)


def percentile(values: Sequence[float], q: float) -> Tuple[float, int]:
    """``(q-th percentile, sample count)``; NaN for an empty sample.

    Linear interpolation between order statistics (numpy's default), so
    the value of a small sample is not pinned to one observation.
    """
    n = len(values)
    if n == 0:
        return float("nan"), 0
    return float(np.percentile(np.asarray(values, dtype=float), q)), n


def latency_summary(latencies_s: Sequence[float]) -> Dict[str, float]:
    """p50/p90/p99 in milliseconds, each beside the count it rests on.

    ``p99_tail`` is how many samples lie beyond the p99 — a percentile
    with fewer than ten samples beyond it is an anecdote.
    """
    arr = np.asarray(latencies_s, dtype=float) * 1e3
    n = int(arr.size)
    out: Dict[str, float] = {"n": n}
    for q in (50, 90, 99):
        out[f"p{q}_ms"] = percentile(arr, q)[0]
    out["p99_tail"] = int(np.sum(arr > out["p99_ms"])) if n else 0
    return out


def median(values: Sequence[float]) -> float:
    """Median of the finite values (NaN when there are none)."""
    arr = np.asarray([v for v in values if v == v], dtype=float)
    return float(np.median(arr)) if arr.size else float("nan")


#: Share of the offered rate a window must achieve to meet its SLO.
MIN_ACHIEVED = 0.98


def meets_slo(window: Dict[str, float], slo_p90_ms: float) -> bool:
    """A window met its SLO: p90 within it, nothing shed or failed, no
    request served at backpressure-degraded quality, and at least
    ``MIN_ACHIEVED`` of the offered rate achieved."""
    return (window["p90_ms"] <= slo_p90_ms and not window["failed"]
            and not window["degraded_share"]
            and window["achieved_share"] >= MIN_ACHIEVED)


def staircase_step(index: int, met: bool, rungs: int) -> int:
    """The ladder rung after a window at rung ``index``: one up when it met
    the SLO, one down when it missed, never off the ladder."""
    return min(index + 1, rungs - 1) if met else max(index - 1, 0)


def staircase_max_rate(
    windows: Sequence[Dict[str, float]], slo_p90_ms: float
) -> Tuple[float, str]:
    """Highest rate meeting the SLO, from the windows of an up-down
    staircase over a fixed ladder (see :func:`staircase_step`).

    Near its limit a server meets the SLO in some windows and misses it
    in others at the same rate; the staircase settles around the rate
    where it meets it half the time, and the estimate is the mean achieved
    rate of the windows from the first change of direction on.  Returns
    ``(rate, where)``, ``where`` being:

    * ``"crossed"`` — some windows met the SLO and some missed it;
    * ``"lower_bound"`` — every window met it (the staircase ran into the
      top of the ladder): the true figure is higher;
    * ``"below_ladder"`` — every window missed it: the true figure is
      lower.

    Without a change of direction the last half of the windows count.
    """
    if not windows:
        raise ValueError("no windows to estimate from")
    met = [meets_slo(w, slo_p90_ms) for w in windows]
    start = next((i for i in range(1, len(met)) if met[i] != met[0]),
                 len(met) // 2)
    rate = float(np.mean([w["achieved_rps"] for w in windows[start:]]))
    if all(met):
        return rate, "lower_bound"
    if not any(met):
        return rate, "below_ladder"
    return rate, "crossed"


def self_times(
    spans: Sequence[Tuple[float, float, int]]
) -> List[float]:
    """Self time of each span: its duration minus what its children cover.

    ``spans`` are ``(start, end, parent_index)`` with ``parent_index`` -1
    for a root.  Children may overlap each other (or spill past their
    parent); only the union of their intervals clipped to the parent is
    subtracted, so self time is never negative.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: List[float] = []
    for index, (start, end, _parent) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(max(end - start - covered, 0.0))
    return out


def classify_rows(
    delivered: np.ndarray,
    approx: np.ndarray,
    exact: np.ndarray,
    tol: float = 1e-9,
) -> Dict[str, np.ndarray]:
    """Which delivered rows are the approximate output, which are exact.

    A row matches a reference when every element is within ``tol``
    (absolute, or relative to the reference's magnitude).  Returns boolean
    masks ``is_approx``, ``is_exact`` and ``valid`` (either).  A row that
    matches both is counted as both, so ``is_exact & ~is_approx`` is a
    lower bound on the recovered rows and ``is_exact`` an upper one.
    """
    delivered = np.atleast_2d(np.asarray(delivered, dtype=float))
    approx = np.atleast_2d(np.asarray(approx, dtype=float))
    exact = np.atleast_2d(np.asarray(exact, dtype=float))
    if not (delivered.shape == approx.shape == exact.shape):
        raise ValueError(
            f"shape mismatch: delivered {delivered.shape}, approx "
            f"{approx.shape}, exact {exact.shape}"
        )

    def close(ref: np.ndarray) -> np.ndarray:
        bound = tol * np.maximum(1.0, np.abs(ref))
        return np.all(np.abs(delivered - ref) <= bound, axis=1)

    is_approx = close(approx)
    is_exact = close(exact)
    return {
        "is_approx": is_approx,
        "is_exact": is_exact,
        "valid": is_approx | is_exact,
    }
