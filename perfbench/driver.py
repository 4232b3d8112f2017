"""Open-loop load generators and per-window accounting.

Both generators send on a precomputed Poisson schedule, never waiting
for replies, and time every request from the moment it was *due* — so a
generator stall or a server stall shows up as latency on every request
behind it, not as a quietly lower offered load.  How late the generator
ran is reported beside the latencies.

* :func:`drive_inproc` — one thread submitting to an in-process
  :class:`~repro.serving.RumbaServer`,
* :func:`drive_tcp` — one asyncio loop writing to at most two
  :class:`~repro.serving.AsyncRumbaClient` connections.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from perfbench.core import latency_summary, percentile, poisson_offsets
from repro.errors import OverloadedError, ReproError

__all__ = ["Schedule", "Window", "pooled_summary", "drive_inproc",
           "drive_tcp"]

#: How long a window waits for stragglers after its last send.
DRAIN_TIMEOUT_S = 20.0


@dataclass
class Schedule:
    """One window's requests: send offsets and the pool rows they carry."""

    rate: float
    duration_s: float
    offsets: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray
    #: Successes completed up to this long after the window still count
    #: as achieved (the workload's latency SLO).
    grace_s: float = 0.0

    @classmethod
    def make(cls, rng, rate, duration_s, pool_rows, sizes_fn,
             grace_s: float = 0.0) -> "Schedule":
        offsets = poisson_offsets(rng, rate, duration_s)
        sizes = sizes_fn(rng, offsets.size)
        starts = rng.integers(0, pool_rows - sizes + 1)
        return cls(rate, duration_s, offsets, starts.astype(np.int64), sizes,
                   grace_s)

    def __len__(self) -> int:
        return int(self.offsets.size)


@dataclass
class Window:
    """What one window sent and got back.

    Delivered rows are copied into one preallocated block (``rows``), so
    the generator process holds a few arrays per window instead of an
    object per request for the garbage collector to walk.
    """

    label: str
    schedule: Schedule
    due: np.ndarray
    sent: np.ndarray
    done: np.ndarray
    completions: np.ndarray
    ok: np.ndarray
    errors: List[Optional[str]]
    rows: np.ndarray
    offsets: np.ndarray
    fix_fraction: np.ndarray
    degraded: np.ndarray
    queue_wait_s: np.ndarray
    server_latency_s: np.ndarray
    t0: float = 0.0
    #: Share of the machine's CPU time the hypervisor stole meanwhile.
    steal_share: float = 0.0

    def output(self, i: int) -> np.ndarray:
        """The rows delivered for request ``i``."""
        start = int(self.offsets[i])
        return self.rows[start: start + int(self.schedule.sizes[i])]

    def latencies_s(self) -> np.ndarray:
        """Due-to-done latency of every successful request."""
        return (self.done - self.due)[self.ok]

    def summary(self) -> Dict[str, float]:
        """Sent/succeeded/failed, rates, latency percentiles, lateness."""
        ok = self.ok
        n = len(self.schedule)
        n_ok = int(ok.sum())
        duration = self.schedule.duration_s
        # Offered: requests due in the window.  Achieved: successes done
        # by its end plus the grace period, so a backlog that keeps growing
        # counts against it but the last requests' normal latency does not.
        offered = n / duration
        in_time = ok & (self.done <= self.t0 + duration + self.schedule.grace_s)
        achieved = int(np.sum(in_time)) / duration
        late_ms = (self.sent - self.due) * 1e3
        out: Dict[str, float] = {
            "label": self.label,
            "rate_rps": self.schedule.rate,
            "sent": n,
            "succeeded": n_ok,
            "failed": n - n_ok,
            "shed": sum(1 for e in self.errors if e == "OverloadedError"),
            "offered_rps": offered,
            "achieved_rps": achieved,
            "achieved_share": achieved / offered if offered else 0.0,
            "rows": int(self.schedule.sizes[ok].sum()),
            "degraded_share": float(self.degraded[ok].mean()) if n_ok else 0.0,
            "steal_share": self.steal_share,
        }
        out.update(latency_summary(self.latencies_s()))
        out["late_p50_ms"], _ = percentile(late_ms, 50)
        out["late_p99_ms"], _ = percentile(late_ms, 99)
        out["late_max_ms"] = float(late_ms.max()) if n else 0.0
        return out


def pooled_summary(windows: Sequence[Window]) -> Dict[str, float]:
    """One summary of windows driven at the same rate: latency percentiles
    over every successful request of all of them, counts summed, and
    offered and achieved rates over their total duration."""
    parts = [w.summary() for w in windows]
    duration = sum(w.schedule.duration_s for w in windows)
    sent = sum(p["sent"] for p in parts)
    achieved = sum(p["achieved_rps"] * w.schedule.duration_s
                   for p, w in zip(parts, windows)) / duration
    offered = sent / duration
    out: Dict[str, float] = {
        "rate_rps": windows[0].schedule.rate,
        "windows": len(windows),
        "sent": sent,
        "failed": sum(p["failed"] for p in parts),
        "shed": sum(p["shed"] for p in parts),
        "offered_rps": offered,
        "achieved_rps": achieved,
        "achieved_share": achieved / offered if offered else 0.0,
    }
    out.update(latency_summary(np.concatenate([w.latencies_s()
                                               for w in windows])))
    return out


def _new_window(label: str, schedule: Schedule, n_outputs: int) -> Window:
    n = len(schedule)
    offsets = np.zeros(n, dtype=np.int64)
    np.cumsum(schedule.sizes[:-1], out=offsets[1:])
    return Window(
        label=label,
        schedule=schedule,
        due=np.zeros(n),
        sent=np.zeros(n),
        done=np.zeros(n),
        completions=np.zeros(n, dtype=np.int64),
        ok=np.zeros(n, dtype=bool),
        errors=[None] * n,
        rows=np.empty((int(schedule.sizes.sum()), n_outputs)),
        offsets=offsets,
        fix_fraction=np.zeros(n),
        degraded=np.zeros(n, dtype=bool),
        queue_wait_s=np.zeros(n),
        server_latency_s=np.zeros(n),
    )


def _record_result(window: Window, i: int, result) -> None:
    """Keep one result, or an error naming what is wrong with its shape."""
    outputs = np.asarray(result.outputs)
    dst = window.output(i)
    if outputs.shape != dst.shape or not np.all(np.isfinite(outputs)):
        window.errors[i] = f"bad output shape/values {outputs.shape}"
        return
    dst[...] = outputs
    window.ok[i] = True
    window.fix_fraction[i] = result.fix_fraction
    window.degraded[i] = result.degraded
    window.queue_wait_s[i] = result.queue_wait_s
    window.server_latency_s[i] = result.latency_s


def drive_inproc(
    server, pool: np.ndarray, schedule: Schedule, n_outputs: int,
    label: str,
) -> Window:
    """Send ``schedule`` to an in-process server from this thread."""
    window = _new_window(label, schedule, n_outputs)
    done, completions = window.done, window.completions
    handles: List[Optional[object]] = [None] * len(schedule)
    monotonic, sleep = time.monotonic, time.sleep

    def on_done(_handle, i):
        done[i] = monotonic()
        completions[i] += 1

    t0 = monotonic() + 0.002
    window.t0 = t0
    due = t0 + schedule.offsets
    window.due[:] = due
    sent = window.sent
    for i in range(len(schedule)):
        delay = due[i] - monotonic()
        if delay > 0:
            sleep(delay)
        start = int(schedule.starts[i])
        block = pool[start: start + int(schedule.sizes[i])]
        sent[i] = monotonic()
        try:
            handle = server.submit(block)
        except OverloadedError:
            window.errors[i] = "OverloadedError"
            done[i] = sent[i]
            completions[i] += 1
            continue
        handles[i] = handle
        handle.add_done_callback(lambda h, i=i: on_done(h, i))
    limit = monotonic() + DRAIN_TIMEOUT_S
    for i, handle in enumerate(handles):
        if handle is None:
            continue
        try:
            result = handle.result(timeout=max(limit - monotonic(), 0.001))
        except ReproError as exc:
            window.errors[i] = type(exc).__name__
            continue
        _record_result(window, i, result)
    return window


async def _drive_tcp(clients, pool, schedule, n_outputs, label) -> Window:
    window = _new_window(label, schedule, n_outputs)
    done, completions = window.done, window.completions
    futures: List[Optional[asyncio.Future]] = [None] * len(schedule)
    monotonic = time.monotonic

    def on_done(_future, i):
        done[i] = monotonic()
        completions[i] += 1

    t0 = monotonic() + 0.005
    window.t0 = t0
    due = t0 + schedule.offsets
    window.due[:] = due
    for i in range(len(schedule)):
        delay = due[i] - monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        start = int(schedule.starts[i])
        block = pool[start: start + int(schedule.sizes[i])]
        window.sent[i] = monotonic()
        future = clients[i % len(clients)].submit(block)
        future.add_done_callback(lambda f, i=i: on_done(f, i))
        futures[i] = future
    pending = [f for f in futures if f is not None]
    if pending:
        await asyncio.wait(pending, timeout=DRAIN_TIMEOUT_S)
    for i, future in enumerate(futures):
        if not future.done():
            future.cancel()
            window.errors[i] = "Timeout"
            continue
        exc = future.exception()
        if exc is not None:
            window.errors[i] = type(exc).__name__
            continue
        _record_result(window, i, future.result())
    # Let the loop run the cancellations' callbacks before returning.
    await asyncio.sleep(0)
    return window


def drive_tcp(
    loop: asyncio.AbstractEventLoop,
    clients: Sequence[object],
    pool: np.ndarray,
    schedule: Schedule,
    n_outputs: int,
    label: str,
) -> Window:
    """Send ``schedule`` over ``clients`` (round robin) on ``loop``."""
    return loop.run_until_complete(
        _drive_tcp(list(clients), pool, schedule, n_outputs, label)
    )
