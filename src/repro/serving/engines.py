"""The two execution engines behind :class:`~repro.serving.server.RumbaServer`.

The server owns the one request path: admission, batch dequeue, the
completion funnel, journaling, tracing, and ``stats()``.  An engine owns
only what differs between backends:

* ``dispatch`` — run one dequeued batch's accelerator half;
* ``depth`` — its backlog: batches queued for recovery (threads) or in
  flight to workers (processes), the one figure the backpressure
  watermarks, the ``rumba_serve_recovery_backlog`` gauge and
  ``stats()["recovery_backlog"]`` all read;
* ``backpressure_targets`` — what the :class:`BackpressureController`
  steps;
* ``worker_state`` — one worker's latest
  :func:`~repro.serving.procpool.worker_snapshot`, restarts, liveness;
* ``stop`` — its own teardown.

:class:`ThreadEngine` runs the shards in this process: one dispatcher
thread per shard does accelerate + detect, pushes the batch onto a
bounded recovery backlog, and a group of recovery threads completes it.
:class:`ProcessEngine` feeds a :class:`ProcessWorkerPool` from one
dispatcher thread; a collector thread harvests results and supervises
dead workers.  Both hand each finished batch to the server as
``(batch, outputs, snapshot)``.
"""

from __future__ import annotations

import functools
import pickle
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.runtime import PendingInvocation, RumbaSystem
from repro.core.stream import DriftDetector
from repro.errors import ConfigurationError, ServingError, WorkerCrashError
from repro.hardware.queues import FifoQueue
from repro.observability.instrument import Telemetry
from repro.observability.reqtrace import (
    STAGE_COLLECT,
    STAGE_COMPUTE,
    STAGE_DETECT,
    STAGE_DISPATCH,
    STAGE_RECOVER,
    STAGE_RECOVERY_WAIT,
    STAGE_ROUTE,
    STAGE_SHM_READ,
    STAGE_SHM_WRITE,
)
from repro.serving.batching import concat_inputs
from repro.serving.procpool import (
    SHARD_MAX_RECORDS,
    ProcessWorker,
    ProcessWorkerPool,
    worker_snapshot,
)
from repro.serving.request import ServeRequest
from repro.serving.shm import FRAME_ERROR, FRAME_RESULT

__all__ = ["ThreadEngine", "ProcessEngine", "WorkerShard", "Batch"]


@dataclass
class WorkerShard:
    """One worker's slice of the service: dispatch counts + drift watch.

    ``system`` is the worker's own cloned :class:`RumbaSystem` on the
    thread backend; a process worker's system lives in its process, so
    there it is None and the worker's state arrives in snapshots.
    """

    name: str
    system: Optional[RumbaSystem] = None
    drift: DriftDetector = field(default_factory=DriftDetector)
    drift_flags: int = 0
    batches: int = 0
    elements: int = 0
    # Several recovery threads may complete one shard's batches at once.
    _drift_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    @property
    def drifted(self) -> bool:
        """True once this shard's checker behaviour has left its band."""
        return self.drift_flags > 0

    def observe_drift(self, fire_fraction: float) -> bool:
        with self._drift_lock:
            drifted_now = self.drift.observe(fire_fraction)
            if drifted_now:
                self.drift_flags += 1
        telemetry = getattr(self.system, "telemetry", None)
        if telemetry is not None:
            telemetry.on_drift(drifted_now, self.drifted)
        return drifted_now


@dataclass
class Batch:
    """One dequeued batch on its way from dispatch to completion."""

    #: Unique per server: the ring frame seq on the process backend and
    #: the journal's batch number on both.
    seq: int
    requests: List[ServeRequest]
    #: The batch's traces, precomputed at dequeue (empty = tracing off).
    traced: List[object]
    shard: Optional[WorkerShard] = None
    dispatched_at: float = 0.0
    degraded: bool = False
    #: Thread engine: the accelerator half's result, and the pooled
    #: concat buffer backing ``pending.inputs`` (multi-request batches
    #: only), recycled once ``complete_invocation`` — its last reader —
    #: returns.
    pending: Optional[PendingInvocation] = None
    lease: Optional[np.ndarray] = None
    #: Process engine: the worker the batch was shipped to.
    worker: Optional[ProcessWorker] = None


def stamp_batch(
    traces: List[object], stage: str, at: Optional[float] = None
) -> None:
    """Stamp one stage event on each of a batch's traces.

    Callers precompute the batch's trace list once, at dequeue; with
    tracing disabled that list is empty and every stamp along the
    batch's path short-circuits here without reading the clock or
    touching the batch again.
    """
    if not traces:
        return
    if at is None:
        at = time.monotonic()
    for trace in traces:
        trace.stamp(stage, at=at)


def forced_choices(batch: List[ServeRequest]) -> Optional[np.ndarray]:
    """Concatenate a batch's forced routing choices (None = live).

    Mixed batches are rejected: forcing only some rows of an invocation
    would interleave recorded decisions with a router whose online state
    no longer matches the recorded run.  Replay batches one request per
    invocation, so this never triggers there.
    """
    forced = [r.backend_ids for r in batch]
    if all(ids is None for ids in forced):
        return None
    if any(ids is None for ids in forced):
        raise ConfigurationError(
            "a batch cannot mix forced and live-routed requests"
        )
    if len(forced) == 1:
        return forced[0]
    return np.concatenate(forced)


def start_thread(target, name: str, *args) -> threading.Thread:
    thread = threading.Thread(target=target, args=args, name=name, daemon=True)
    thread.start()
    return thread


#: A dispatcher thread's name and the function it feeds batches to.
Dispatcher = Tuple[str, Callable[[Batch], None]]
#: A worker's latest snapshot, its restart count, and whether it is alive.
WorkerState = Tuple[Dict[str, object], int, bool]


class ThreadEngine:
    """Shards in this process; a recovery backlog drained by threads."""

    #: What ``RumbaServer.pool`` reports: no worker pool on threads.
    pool: Optional[ProcessWorkerPool] = None

    def __init__(self, server) -> None:
        self.server = server
        self.shards: List[WorkerShard] = []
        self.backlog: FifoQueue[Batch] = FifoQueue(
            capacity=server.config.backpressure.recovery_backlog_capacity,
            name="serve-recovery-backlog",
            strict=False,
        )
        self._cond = threading.Condition()
        self._stopping = False
        self._threads: List[threading.Thread] = []

    def prepare(self, prototype: RumbaSystem) -> None:
        server = self.server
        for i in range(server.n_workers):
            name = f"w{i}"
            telemetry = Telemetry(
                app=server.app_name,
                scheme=server.scheme,
                registry=server.registry,
                extra_labels={"worker": name},
            )
            system = prototype.clone_shard(
                telemetry=telemetry, max_records=SHARD_MAX_RECORDS
            )
            self.shards.append(WorkerShard(
                name=name, system=system, drift=server._drift_factory()
            ))

    def start(self) -> List[Dispatcher]:
        """Start the recovery group; one dispatcher per shard."""
        for i in range(self.server.n_recovery_workers):
            self._threads.append(
                start_thread(self._recovery_loop, f"rumba-recover-r{i}")
            )
        return [
            (f"rumba-serve-{shard.name}",
             functools.partial(self.dispatch, shard))
            for shard in self.shards
        ]

    def depth(self) -> int:
        return len(self.backlog)

    def backpressure_targets(self) -> List[RumbaSystem]:
        return [shard.system for shard in self.shards]

    def worker_state(self, shard: WorkerShard) -> WorkerState:
        # Thread shards live and die with the server: never restarted.
        return worker_snapshot(shard.system), 0, True

    def stop(self, timeout: float) -> None:
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = []

    def dispatch(self, shard: WorkerShard, batch: Batch) -> None:
        server = self.server
        inputs = concat_inputs(batch.requests, pool=server._bufpool)
        # Multi-request batches concatenate into a leased buffer the batch
        # owns until recovery finishes; a single-request batch rides its
        # own staged input block, which the request itself owns.
        batch.lease = inputs if len(batch.requests) > 1 else None
        batch.shard = shard
        batch.dispatched_at = time.monotonic()
        stamp_batch(batch.traced, STAGE_DISPATCH, at=batch.dispatched_at)
        try:
            if server.chaos_monkey is not None:
                server.chaos_monkey.maybe_fail(where=shard.name)
            batch.pending = shard.system.begin_invocation(
                inputs, measure_quality=server.measure_quality,
                forced_choices=forced_choices(batch.requests),
            )
        except Exception as exc:
            self._release(batch)
            server._retry_or_fail(batch.requests, exc, worker=shard.name)
            return
        # ``begin_invocation`` runs the ensemble router (when one is
        # configured), the approximate kernel, and the error detector
        # back to back, so the stages land on one instant: the compute
        # segment carries the combined cost and route/detect are
        # boundary markers.
        if batch.traced:
            computed_at = time.monotonic()
            if shard.system.ensemble is not None:
                stamp_batch(batch.traced, STAGE_ROUTE, at=computed_at)
            stamp_batch(batch.traced, STAGE_COMPUTE, at=computed_at)
            stamp_batch(batch.traced, STAGE_DETECT, at=computed_at)
        batch.degraded = server.controller.degraded
        server._dispatched(batch, inputs.shape[0])
        with self._cond:
            queued = self.backlog.try_push(batch)
            if queued:
                self._cond.notify()
        server._backlog_changed()
        if not queued:
            # Hard backstop: the backlog is at capacity, so this worker
            # absorbs its own recovery synchronously.  That stalls the
            # producer — which is precisely the backpressure we want.
            server._worker_metrics(shard.name).inline.inc()
            self._recover(batch)

    def _recovery_loop(self) -> None:
        while True:
            with self._cond:
                batch = self.backlog.try_pop()
                while batch is None and not self._stopping:
                    self._cond.wait(timeout=0.1)
                    batch = self.backlog.try_pop()
            if batch is None:
                return
            self._recover(batch)
            self.server._backlog_changed()

    def _release(self, batch: Batch) -> None:
        if batch.lease is not None:
            self.server._bufpool.release(batch.lease)
            batch.lease = None

    def _recover(self, batch: Batch) -> None:
        server = self.server
        # Popped off the recovery backlog: the gap back to ``detect`` is
        # the time the batch sat waiting for a recovery worker.
        stamp_batch(batch.traced, STAGE_RECOVERY_WAIT)
        system = batch.shard.system
        try:
            record = system.complete_invocation(batch.pending)
        except Exception as exc:
            self._release(batch)
            # A retry re-runs the invocation from the top on a healthy
            # shard; kernels are pure, so re-execution is safe.
            server._retry_or_fail(
                batch.requests, exc, worker=batch.shard.name
            )
            return
        # ``complete_invocation`` was the concat buffer's last reader
        # (recovery re-executes flagged rows from it) and nothing in the
        # record aliases it, so the arena can recycle now.
        self._release(batch)
        stamp_batch(batch.traced, STAGE_RECOVER)
        server._complete(batch, record.outputs, worker_snapshot(
            system, record, include_bits=server.journal is not None
        ))


class ProcessEngine:
    """A :class:`ProcessWorkerPool` fed by one dispatcher thread.

    Batches in flight live in a pending map keyed by ``Batch.seq``; the
    collector thread matches worker RESULT/ERROR frames back to them and
    supervises dead workers.
    """

    def __init__(self, server) -> None:
        self.server = server
        self.pool: Optional[ProcessWorkerPool] = None
        self.shards: List[WorkerShard] = []
        self._shard_of: Dict[str, WorkerShard] = {}
        self._pending: Dict[int, Batch] = {}
        self._lock = threading.Lock()
        self._stopping = False
        self._collector: Optional[threading.Thread] = None

    def prepare(self, prototype: RumbaSystem) -> None:
        # Fail at prepare time, not in a worker, if the prototype cannot
        # cross the process boundary.
        try:
            pickle.dumps(prototype)
        except Exception as exc:
            raise ServingError(
                "process backend needs a picklable prototype "
                f"(registry applications are): {exc!r}"
            ) from exc
        server = self.server
        self.pool = ProcessWorkerPool(
            prototype,
            n_workers=server.n_workers,
            ring_capacity_bytes=server.config.ring_capacity_bytes,
            measure_quality=server.measure_quality,
            start_method=server.config.start_method,
            # Workers ship each batch's packed decision bits with the
            # RESULT snapshot only when a journal will record them.
            ship_decision_bits=server.journal is not None,
        )

    def start(self) -> List[Dispatcher]:
        """Start the workers and the collector; one dispatcher."""
        self.pool.start()
        self.shards = [
            WorkerShard(name=w.name, drift=self.server._drift_factory())
            for w in self.pool.workers
        ]
        self._shard_of = {shard.name: shard for shard in self.shards}
        if self.server.chaos_monkey is not None:
            self.server.chaos_monkey.attach_pool(self.pool)
        self._collector = start_thread(
            self._collect_loop, "rumba-serve-collect"
        )
        return [("rumba-serve-dispatch", self.dispatch)]

    def depth(self) -> int:
        if self.pool is None:
            return 0
        return sum(w.outstanding for w in self.pool.workers)

    def backpressure_targets(self):
        return self.pool.backpressure_proxies()

    def worker_state(self, shard: WorkerShard) -> WorkerState:
        worker = next(w for w in self.pool.workers if w.name == shard.name)
        return worker.snapshot, worker.restarts, worker.alive()

    def stop(self, timeout: float) -> None:
        self._stopping = True
        if self._collector is not None:
            self._collector.join(timeout=timeout)
            self._collector = None
        if self.pool is not None:
            self.pool.stop(timeout=timeout)

    def dispatch(self, batch: Batch) -> None:
        server = self.server
        # No concat buffer: each request's staged rows are written
        # directly into the worker's ring (one frame, block by block).
        blocks = [np.atleast_2d(r.inputs) for r in batch.requests]
        batch.dispatched_at = time.monotonic()
        stamp_batch(batch.traced, STAGE_DISPATCH, at=batch.dispatched_at)
        if server.chaos_monkey is not None:
            try:
                server.chaos_monkey.maybe_fail(where="dispatch")
            except Exception as exc:
                server._retry_or_fail(batch.requests, exc)
                return
        with self._lock:
            alive = [w for w in self.pool.workers if w.alive()]
            if alive:
                worker = min(alive, key=lambda w: (w.outstanding, w.name))
                batch.worker = worker
                batch.shard = self._shard_of[worker.name]
                batch.degraded = server.controller.degraded
                self._pending[batch.seq] = batch
                worker.outstanding += 1
        if not alive:
            # Retryable: the supervisor may restart a worker before the
            # deadline budget runs out; exhaustion fails fast.
            server._retry_or_fail(
                batch.requests,
                WorkerCrashError("no live serving worker processes"),
            )
            return
        # The batch shares one ring frame, so the frame header carries
        # the first traced request's id (0 when none is traced).  Forced
        # routing choices (replay) ride as the frame's extra bytes.
        batch_trace_id = batch.traced[0].trace_id if batch.traced else 0
        try:
            forced = forced_choices(batch.requests)
            self.pool.submit_rows(
                worker, batch.seq, blocks, trace_id=batch_trace_id,
                extra=forced.tobytes() if forced is not None else b"",
            )
        except Exception as exc:
            with self._lock:
                owned = self._pending.pop(batch.seq, None) is not None
                if owned:
                    worker.outstanding -= 1
            if not owned:
                # The collector reaped this worker concurrently and now
                # owns (has already retried or failed) the batch.
                return
            if not worker.alive():
                exc = WorkerCrashError(
                    f"worker {worker.name} died while batch {batch.seq} "
                    f"was being delivered: {exc}"
                )
            server._retry_or_fail(batch.requests, exc, worker=worker.name)
            return
        stamp_batch(batch.traced, STAGE_SHM_WRITE)
        server._dispatched(batch, sum(b.shape[0] for b in blocks))
        server._backlog_changed()

    def _collect_loop(self) -> None:
        """Parent-side consumer: worker output rings -> the server."""
        while True:
            progressed = False
            for worker in self.pool.workers:
                for frame in self.pool.poll(worker):
                    progressed = True
                    self._on_frame(worker, frame)
                if not worker.process.is_alive() and not worker.dead:
                    # Harvest anything it managed to publish before dying
                    # (death is final, so every pre-death write is visible
                    # by now), then supervise: restart the worker and
                    # re-dispatch what it took down with it.
                    for frame in self.pool.poll(worker):
                        self._on_frame(worker, frame)
                    self._reap(worker)
                    progressed = True
            with self._lock:
                n_pending = len(self._pending)
            if self._stopping and n_pending == 0:
                return
            if not progressed:
                time.sleep(0.0005)

    def _on_frame(self, worker: ProcessWorker, frame) -> None:
        with self._lock:
            batch = self._pending.pop(frame.seq, None)
            if batch is not None:
                worker.outstanding -= 1
        if batch is None:  # already failed (e.g. crash race)
            return
        server = self.server
        if frame.kind == FRAME_RESULT:
            snapshot = pickle.loads(frame.extra)
            worker.snapshot = snapshot
            # The worker stamped its side of the shm hop with the shared
            # system monotonic clock; ``clamp`` guards against the small
            # cross-process skew that would otherwise break stage order.
            if batch.traced:
                collected_at = time.monotonic()
                shm_read_at = snapshot.get("shm_read_at")
                compute_done_at = snapshot.get("compute_done_at")
                for trace in batch.traced:
                    if shm_read_at is not None:
                        trace.stamp(
                            STAGE_SHM_READ, at=float(shm_read_at), clamp=True
                        )
                    if compute_done_at is not None:
                        trace.stamp(
                            STAGE_COMPUTE,
                            at=float(compute_done_at),
                            clamp=True,
                        )
                    trace.stamp(STAGE_COLLECT, at=collected_at, clamp=True)
            server._complete(batch, frame.payload, snapshot)
        elif frame.kind == FRAME_ERROR:
            server._retry_or_fail(
                batch.requests, ProcessWorkerPool.decode_error(frame),
                worker=worker.name,
            )
        server._backlog_changed()

    def _reap(self, worker: ProcessWorker) -> None:
        """Supervise a dead worker: restart it, re-dispatch its batches.

        The paper's recovery unit re-executes iterations the checker
        flagged; the supervisor applies the same move one level up — a
        worker death flags every batch it held, and each is re-executed
        on a healthy worker within its request's deadline budget.
        """
        server = self.server
        error = WorkerCrashError(
            f"serving worker {worker.name} "
            f"(pid {worker.process.pid}, exit {worker.process.exitcode}) "
            "died with batches in flight"
        )
        with self._lock:
            worker.dead = True
            seqs = [
                seq for seq, b in self._pending.items() if b.worker is worker
            ]
            doomed = [self._pending.pop(seq) for seq in seqs]
            worker.outstanding = 0
        if self._should_restart():
            # Restart from the startup prototype blob, then re-apply the
            # worker's last reported degradation level so a mid-overload
            # restart does not silently jump back to nominal quality.
            level = int(worker.snapshot.get(
                "degradation_level",
                server.controller.level if server.controller is not None
                else 0,
            ))
            try:
                restarted = self.pool.restart_worker(
                    worker,
                    degradation_level=level,
                    degrade_factor=server.config.backpressure.degrade_factor,
                )
            except Exception:  # pragma: no cover - spawn failed mid-teardown
                restarted = False
            if restarted:
                server._m_worker_restarts.labels(
                    worker=worker.name, **server._labels
                ).inc()
        for batch in doomed:
            server._retry_or_fail(batch.requests, error, worker=worker.name)

    def _should_restart(self) -> bool:
        server = self.server
        return (
            server.restart_workers
            and not self._stopping
            and server.state in ("running", "draining")
            and (
                server.max_worker_restarts is None
                or self.pool.total_restarts < server.max_worker_restarts
            )
        )
