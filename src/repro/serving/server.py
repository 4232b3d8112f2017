"""The quality-managed inference server.

One request path, two engines::

    callers ──submit()──► AdmissionQueue (bounded, deadline-flushed)
                                │ take_batch()  (one dispatch loop per
                                ▼                engine dispatcher)
                      engine.dispatch(batch)
              ┌─────────────────┴──────────────────┐
       thread engine                        process engine
       shard w<i>: accelerate + detect      dispatcher ─► shm ring ─►
       ─► recovery backlog (bounded;        worker p<i>: accelerate +
          full → inline recovery)           detect + recover ─► ring
       ─► recovery thread r<j>: recover     ─► collector thread
              └─────────────────┬──────────────────┘
                                ▼ (batch, outputs, worker snapshot)
                 completion funnel: drift, per-worker gauges, journal,
                 trace export ──► ServeHandle.set_result ──► caller

The accelerator-side halves and the CPU-side halves of invocations
overlap exactly as in the paper's Fig. 8 pipeline: a worker begins its
next batch while recovery is still re-executing flagged iterations of
its previous ones.  Admission, dequeue, completion, journaling, tracing
and :meth:`RumbaServer.stats` exist once, here; each engine
(:mod:`repro.serving.engines`) supplies only dispatch, its backlog depth,
its backpressure targets, its per-worker state, and its teardown.  The
:class:`BackpressureController` watches that backlog and trades quality
for stability when recovery falls behind; the bounded admission queue
sheds load past that.

Everything is observable: each thread shard attaches a per-worker
:class:`~repro.observability.Telemetry` (``worker=w<i>`` label) to the
server's metrics registry, and the server adds service-level series
(``rumba_serve_*``).  :meth:`RumbaServer.stats` is the health endpoint.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
import warnings
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.offline import prepare_system
from repro.core.runtime import RumbaSystem
from repro.core.stream import DriftDetector
from repro.errors import (
    ConfigurationError,
    OverloadedError,
    ServingError,
    WorkerCrashError,
)
from repro.observability.flightlog import FLIGHT_LOG_VERSION, FlightRecorder
from repro.observability.framedlog import wire
from repro.observability.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
)
from repro.observability.reqtrace import (
    STAGE_ADMIT,
    STAGE_COMPLETE,
    STAGE_DEQUEUE,
    STAGE_RETRY,
    TracingPolicy,
)
from repro.serving.backpressure import BackpressureController
from repro.serving.batching import AdmissionQueue, split_outputs
from repro.serving.bufpool import BufferPool
from repro.serving.config import ServerConfig
from repro.serving.engines import (
    Batch,
    ProcessEngine,
    ThreadEngine,
    WorkerShard,
    stamp_batch,
    start_thread,
)
from repro.serving.faults import ChaosConfig, ChaosMonkey
from repro.serving.journal import RequestJournal, unpack_bits
from repro.serving.procpool import ProcessWorkerPool
from repro.serving.request import ServeHandle, ServeRequest, ServeResult

__all__ = ["RumbaServer", "WorkerShard"]


class RumbaServer:
    """Batched, parallel, quality-managed serving of one benchmark kernel.

    The primary constructor takes a
    :class:`~repro.serving.config.ServerConfig`::

        config = ServerConfig(
            n_workers=4,
            backend="process",
            batching=BatchingConfig(max_batch_requests=16),
            retry=RetryConfig(default_deadline_s=10.0),
        )
        server = RumbaServer(config=config)

    Parameters
    ----------
    app, scheme:
        Which benchmark kernel and checker scheme to serve.  Explicit
        arguments override the values in ``config``; both default to the
        config's (``fft`` / ``treeErrors``).
    prototype:
        A prepared :class:`RumbaSystem` to shard (tests inject doctored
        systems here).  When None, :func:`prepare_system` builds one from
        the app/scheme/seed.  A prototype's own app and scheme names win
        over both ``app``/``scheme`` and the config.
    config:
        The grouped server configuration; see
        :class:`~repro.serving.config.ServerConfig` for every knob
        (batching, backpressure, retries/supervision, backend, chaos).
    registry:
        Metrics registry to export into (a private one by default).
    drift_detector_factory:
        Factory for the per-worker drift detectors (tests inject
        tightened ones).

    .. deprecated::
        The historical flat keyword arguments
        (``RumbaServer(n_workers=4, max_retries=1, ...)``) still work but
        emit :class:`DeprecationWarning`; they are folded into a
        :class:`ServerConfig` via :meth:`ServerConfig.from_flat` and
        behave identically.  Mixing ``config=`` with flat kwargs is an
        error.

    Backend semantics, batching policy, backpressure, deadline-budgeted
    retries, and supervision are documented on the config sections and in
    ``docs/serving.md`` / ``docs/performance.md``.
    """

    def __init__(
        self,
        app: Optional[str] = None,
        scheme: Optional[str] = None,
        prototype: Optional[RumbaSystem] = None,
        config: Optional[ServerConfig] = None,
        registry: Optional[MetricsRegistry] = None,
        drift_detector_factory=DriftDetector,
        **legacy_kwargs,
    ):
        if legacy_kwargs:
            if config is not None:
                raise ConfigurationError(
                    "pass either config=ServerConfig(...) or legacy flat "
                    f"kwargs, not both: {sorted(legacy_kwargs)}"
                )
            warnings.warn(
                "RumbaServer(" + ", ".join(sorted(legacy_kwargs)) + "=...) "
                "flat kwargs are deprecated; build a "
                "repro.serving.ServerConfig and pass config=... instead",
                DeprecationWarning,
                stacklevel=2,
            )
            config = ServerConfig.from_flat(**legacy_kwargs)
        elif config is None:
            config = ServerConfig()
        if app is not None or scheme is not None:
            config = config.with_overrides(
                **{k: v for k, v in (("app", app), ("scheme", scheme))
                   if v is not None}
            )
        self.config = config
        self.app_name = (
            prototype.app.name if prototype is not None else config.app
        )
        self.scheme = (
            prototype.predictor.name if prototype is not None
            else config.scheme
        )
        self._prototype = prototype
        self.n_workers = config.n_workers
        self.n_recovery_workers = config.n_recovery_workers
        self.measure_quality = config.measure_quality
        self.seed = config.seed
        self.registry = registry if registry is not None else MetricsRegistry()

        self._admission = AdmissionQueue(
            capacity=config.batching.admission_capacity,
            max_batch_requests=config.batching.max_batch_requests,
            flush_interval_s=config.batching.flush_interval_s,
        )
        # Transport buffers — staged request inputs and multi-request
        # batch concats — are leased from one shared pool and recycled at
        # well-defined points; buffers that escape to callers (ServeResult
        # outputs) never come from it.  See serving/bufpool.py.
        self._bufpool = BufferPool()
        self._drift_factory = drift_detector_factory

        self.backend = config.backend
        self._engine = (
            ProcessEngine(self) if self.backend == "process"
            else ThreadEngine(self)
        )
        # Unique batch ids: ring frame seqs and journal batch numbers.
        # ``next`` on a count is atomic under the GIL.
        self._batch_ids = itertools.count()
        self.controller: Optional[BackpressureController] = None
        self._threads: List[threading.Thread] = []
        self._state = "new"
        self._flight_cond = threading.Condition()
        self._inflight = 0
        self._next_request_id = 0
        self._id_lock = threading.Lock()

        # Fault tolerance: deadline-budgeted retries + worker supervision.
        self.max_retries = config.retry.max_retries
        self.default_deadline_s = config.retry.default_deadline_s
        self.retry_backoff_s = config.retry.retry_backoff_s
        self.restart_workers = config.retry.restart_workers
        self.max_worker_restarts = config.retry.max_worker_restarts
        self._retry_cond = threading.Condition()
        self._retry_heap: List[Tuple[float, int, ServeRequest]] = []
        self._retry_seq = 0
        self._retry_stop = False
        self._retries_total = 0
        chaos = config.chaos
        self.chaos_monkey: Optional[ChaosMonkey] = (
            ChaosMonkey(chaos) if isinstance(chaos, ChaosConfig) else chaos
        )

        # Request tracing: sampling policy, flight recorder, slow-request
        # exemplars (see docs/observability.md and observability/reqtrace).
        self.tracing = TracingPolicy.from_config(config.tracing)
        self.flight_recorder = None
        if config.tracing.enabled and config.tracing.flight_log_path:
            self.flight_recorder = FlightRecorder(
                config.tracing.flight_log_path,
                max_bytes=config.tracing.flight_log_max_bytes,
            )
        self._slow_lock = threading.Lock()
        self._slow_exemplars: List[Dict[str, object]] = []
        self._traced_total = 0

        # Durable request journal: every terminal completion — on either
        # backend — is appended as an FT_JOURNAL frame carrying inputs,
        # outputs, decision bits, and status, the raw material for
        # ``python -m repro replay`` (see docs/replay.md).
        self.journal = None
        if config.journal.enabled:
            self.journal = RequestJournal(
                config.journal.path, max_bytes=config.journal.max_bytes
            )
        self._build_metrics()

    # ------------------------------------------------------------------ #
    # Construction                                                       #
    # ------------------------------------------------------------------ #
    def _build_metrics(self) -> None:
        r = self.registry
        base = ("app", "scheme")
        self._m_requests = r.counter(
            "rumba_serve_requests_total",
            "Requests by admission/completion outcome", base + ("outcome",),
        )
        self._m_batches = r.counter(
            "rumba_serve_batches_total",
            "Batches dispatched, per worker", base + ("worker",),
        )
        self._m_batch_requests = r.counter(
            "rumba_serve_batched_requests_total",
            "Requests dispatched inside batches, per worker",
            base + ("worker",),
        )
        self._m_inline = r.counter(
            "rumba_serve_inline_recoveries_total",
            "Batches recovered inline because the backlog was full",
            base + ("worker",),
        )
        self._m_admission_depth = r.gauge(
            "rumba_serve_admission_depth",
            "Requests waiting in the admission queue", base,
        )
        self._m_backlog = r.gauge(
            "rumba_serve_recovery_backlog",
            "Batches awaiting asynchronous CPU recovery", base,
        )
        self._m_inflight = r.gauge(
            "rumba_serve_inflight_requests",
            "Admitted requests not yet completed", base,
        )
        self._m_degradation = r.gauge(
            "rumba_serve_degradation_level",
            "Backpressure degradation steps currently in effect", base,
        )
        self._m_latency = r.histogram(
            "rumba_serve_request_latency_seconds",
            "Submission-to-completion latency per request", base,
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        # Per-stage waterfall segments from sampled request traces; the
        # registry's bucket overrides give this family the fine 50 µs
        # grid (sub-millisecond shm/queue hops need it).
        self._m_stage = r.histogram(
            "rumba_stage_seconds",
            "Per-stage latency segments from sampled request traces",
            base + ("stage",),
        )
        self._m_worker_restarts = r.counter(
            "rumba_serve_worker_restarts",
            "Dead worker processes restarted by the supervisor",
            base + ("worker",),
        )
        self._m_retries = r.counter(
            "rumba_serve_retries",
            "Requests re-dispatched after a worker fault",
            base + ("worker",),
        )
        # Worker-internal state, re-exported from the snapshot that comes
        # with every completed batch (on either backend).
        self._m_worker_threshold = r.gauge(
            "rumba_serve_worker_threshold",
            "Detection threshold last reported by each worker",
            base + ("worker",),
        )
        self._m_worker_invocations = r.gauge(
            "rumba_serve_worker_invocations",
            "Invocations completed, last reported by each worker",
            base + ("worker",),
        )
        # Ensemble routing: cumulative per-member row counts and online
        # retrain passes, per worker, from the same snapshot; silent when
        # the server runs without an ensemble.
        self._m_ens_routed = r.gauge(
            "rumba_ensemble_routed_rows",
            "Rows routed to each ensemble member, cumulative per worker",
            base + ("worker", "member"),
        )
        self._m_ens_retrains = r.gauge(
            "rumba_ensemble_retrains",
            "Online router retrain passes completed, per worker",
            base + ("worker",),
        )
        self._ens_children: Dict[Tuple[str, str], object] = {}
        self._labels = {"app": self.app_name, "scheme": self.scheme}
        # Label resolution (dict hashing under the family lock) costs a
        # few microseconds; the per-request and per-batch paths pay it
        # many times per request, so the hot children are resolved once.
        labels = self._labels
        self._c_accepted = self._m_requests.labels(outcome="accepted", **labels)
        self._c_completed = self._m_requests.labels(
            outcome="completed", **labels
        )
        self._c_failed = self._m_requests.labels(outcome="failed", **labels)
        self._c_shed = self._m_requests.labels(outcome="shed", **labels)
        self._g_admission_depth = self._m_admission_depth.labels(**labels)
        self._g_backlog = self._m_backlog.labels(**labels)
        self._g_inflight = self._m_inflight.labels(**labels)
        self._h_latency = self._m_latency.labels(**labels)
        self._worker_children: Dict[str, SimpleNamespace] = {}

    def _worker_metrics(self, name: str) -> SimpleNamespace:
        """Per-worker labeled children, resolved once per worker name."""
        child = self._worker_children.get(name)
        if child is None:
            labels = self._labels
            child = SimpleNamespace(
                batches=self._m_batches.labels(worker=name, **labels),
                batch_requests=self._m_batch_requests.labels(
                    worker=name, **labels
                ),
                inline=self._m_inline.labels(worker=name, **labels),
                threshold=self._m_worker_threshold.labels(
                    worker=name, **labels
                ),
                invocations=self._m_worker_invocations.labels(
                    worker=name, **labels
                ),
            )
            self._worker_children[name] = child
        return child

    def _export_ensemble(self, worker: str, snapshot: Dict[str, object]) -> None:
        """Re-export one worker's ensemble counters into the registry.

        ``snapshot`` is :meth:`ApproximatorEnsemble.snapshot`, as carried
        in a completed batch's worker snapshot.
        """
        members = snapshot.get("members", ())
        routed = snapshot.get("routed", ())
        for member, rows in zip(members, routed):
            key = (worker, member)
            child = self._ens_children.get(key)
            if child is None:
                child = self._m_ens_routed.labels(
                    worker=worker, member=member, **self._labels
                )
                self._ens_children[key] = child
            child.set(int(rows))
        key = (worker, "")
        child = self._ens_children.get(key)
        if child is None:
            child = self._m_ens_retrains.labels(
                worker=worker, **self._labels
            )
            self._ens_children[key] = child
        child.set(int(snapshot.get("retrains", 0)))

    def prepare(self) -> "RumbaServer":
        """Train (or adopt) the prototype and build the engine's workers."""
        if self._state != "new":
            raise ServingError(f"cannot prepare a {self._state} server")
        if self._prototype is None:
            ensemble_spec = (
                self.config.ensemble.to_spec()
                if self.config.ensemble.enabled else None
            )
            self._prototype = prepare_system(
                self.app_name, scheme=self.scheme, seed=self.seed,
                ensemble=ensemble_spec,
            )
        self._engine.prepare(self._prototype)
        self._state = "ready"
        return self

    # ------------------------------------------------------------------ #
    # Lifecycle                                                          #
    # ------------------------------------------------------------------ #
    @property
    def state(self) -> str:
        return self._state

    @property
    def prototype(self) -> Optional[RumbaSystem]:
        """The prepared system the worker shards were cloned from."""
        return self._prototype

    @property
    def shards(self) -> List[WorkerShard]:
        """One entry per worker: its dispatch counts and drift watch."""
        return self._engine.shards

    @property
    def pool(self) -> Optional[ProcessWorkerPool]:
        """The process backend's worker pool (None on threads)."""
        return self._engine.pool

    @property
    def is_running(self) -> bool:
        return self._state == "running"

    def start(self) -> "RumbaServer":
        """Start the engine, then one dispatch loop per engine dispatcher."""
        if self._state == "new":
            self.prepare()
        if self._state != "ready":
            raise ServingError(f"cannot start a {self._state} server")
        self._state = "running"
        if self.journal is not None:
            self._write_journal_meta()
        self._threads.append(
            start_thread(self._retry_loop, "rumba-serve-retry")
        )
        dispatchers = self._engine.start()
        bp = self.config.backpressure
        high_watermark, low_watermark = bp.resolved_watermarks()
        self.controller = BackpressureController(
            self._engine.backpressure_targets(),
            high_watermark=high_watermark,
            low_watermark=low_watermark,
            factor=bp.degrade_factor,
            max_level=bp.max_degradation,
        )
        if self.chaos_monkey is not None:
            self.chaos_monkey.start()
        for name, dispatch in dispatchers:
            self._threads.append(
                start_thread(self._dispatch_loop, name, dispatch)
            )
        return self

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admitting and wait for in-flight requests to finish.

        Returns True when everything completed within ``timeout``.
        """
        if self._state not in ("running", "draining"):
            raise ServingError(f"cannot drain a {self._state} server")
        self._state = "draining"
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._flight_cond:
            while self._inflight > 0:
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return False
                self._flight_cond.wait(timeout=remaining)
        return True

    def stop(self, timeout: float = 10.0) -> None:
        """Drain, then tear the worker groups down."""
        if self._state in ("stopped", "new", "ready"):
            self._state = "stopped" if self._state != "new" else self._state
            if self.flight_recorder is not None:
                self.flight_recorder.close()
            if self.journal is not None:
                self.journal.close()
            return
        # Chaos stops before the drain so shutdown itself is fault-free.
        if self.chaos_monkey is not None:
            self.chaos_monkey.stop()
        self.drain(timeout=timeout)
        self._admission.close()
        with self._retry_cond:
            self._retry_stop = True
            self._retry_cond.notify_all()
        # The dispatch loops end once the closed admission queue is empty;
        # the engine's own threads and workers go after them.
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._engine.stop(timeout=timeout)
        # Fail anything that somehow survived the drain (e.g. timeout).
        with self._retry_cond:
            abandoned = [entry[2] for entry in self._retry_heap]
            self._retry_heap.clear()
        for request in abandoned:
            self._finish_request(
                request, error=ServingError("server stopped")
            )
        for request in self._admission.drain_remaining():
            self._finish_request(
                request, error=ServingError("server stopped")
            )
        if self.controller is not None:
            self.controller.reset()
            self._m_degradation.labels(**self._labels).set(
                self.controller.level
            )
        if self.flight_recorder is not None:
            # After the abandoned requests above, so their (promoted)
            # error records still land in the log.
            self.flight_recorder.close()
        if self.journal is not None:
            # Likewise: the abandoned requests' error records are the
            # last thing journaled before the file closes.
            self.journal.close()
        self._threads = []
        self._state = "stopped"

    def __enter__(self) -> "RumbaServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # Admission                                                          #
    # ------------------------------------------------------------------ #
    def submit(
        self,
        inputs: np.ndarray,
        deadline_s: Optional[float] = None,
        trace: Optional[object] = None,
        backend_ids: Optional[np.ndarray] = None,
    ) -> ServeHandle:
        """Admit one request; raises :class:`OverloadedError` when shed.

        ``deadline_s`` bounds the request's total time budget (dispatch,
        fault-triggered retries, recovery); it defaults to the server's
        ``default_deadline_s``.  ``trace`` lets a fronting edge (the TCP
        server) hand in a :class:`RequestTrace` it already started; when
        None, the server's sampling policy decides.  ``backend_ids``
        (one ensemble-member index per row) forces the router's choices
        — the replay harness passes the journaled decisions here.
        """
        if self._state != "running":
            raise ServingError(
                f"server is {self._state}; submissions need a running server"
            )
        if deadline_s is not None and deadline_s <= 0:
            raise ConfigurationError("deadline_s must be > 0")
        if backend_ids is not None:
            backend_ids = np.asarray(backend_ids, dtype=np.int8).ravel()
        arr = np.asarray(inputs, dtype=float)
        pooled = False
        if arr is inputs or arr.base is inputs:
            # The caller handed us a float64 ndarray (or a cheap view of
            # one): use it in place.  The contract is the usual zero-copy
            # one — the rows must stay untouched until the handle
            # completes (dispatch, retries, and recovery all read them).
            inputs = np.atleast_2d(arr)
        else:
            # Conversion allocated fresh rows anyway (list input, wrong
            # dtype); land them in a pooled arena instead so completion
            # recycles the memory rather than leaving it to the GC.
            arr = np.atleast_2d(arr)
            staged = self._bufpool.lease(arr.shape)
            np.copyto(staged, arr)
            inputs = staged
            pooled = True
        if inputs.shape[0] == 0:
            if pooled:
                self._bufpool.release(inputs)
            raise ConfigurationError("a request needs at least one element")
        if backend_ids is not None and backend_ids.shape[0] != inputs.shape[0]:
            if pooled:
                self._bufpool.release(inputs)
            raise ConfigurationError(
                "backend_ids needs one member index per input row"
            )
        with self._id_lock:
            request_id = self._next_request_id
            self._next_request_id += 1
        if trace is None:
            trace = self.tracing.new_trace()
        request = ServeRequest(
            request_id=request_id,
            inputs=inputs,
            submitted_at=time.monotonic(),
            deadline_s=deadline_s,
            trace=trace,
            pooled=pooled,
            backend_ids=backend_ids,
        )
        if trace is not None:
            trace.stamp(STAGE_ADMIT, at=request.submitted_at)
        try:
            admitted = self._admission.offer(request)
        except ServingError:
            if pooled:
                self._bufpool.release(inputs)
            raise
        if not admitted:
            if pooled:
                self._bufpool.release(inputs)
            self._c_shed.inc()
            raise OverloadedError(
                f"admission queue full ({self._admission.capacity} waiting); "
                "back off and retry"
            )
        with self._flight_cond:
            self._inflight += 1
        self._c_accepted.inc()
        self._g_inflight.set(self._inflight)
        # Admission depth is refreshed by the dispatchers at every
        # dequeue; sampling it here too would put a second gauge update
        # (family lock and all) on the submit hot path for no extra
        # fidelity.
        return request.handle

    def submit_wait(
        self,
        inputs: np.ndarray,
        timeout: Optional[float] = None,
        deadline_s: Optional[float] = None,
    ) -> ServeResult:
        """Convenience: submit and block for the result."""
        return self.submit(inputs, deadline_s=deadline_s).result(timeout)

    # ------------------------------------------------------------------ #
    # The request path                                                   #
    # ------------------------------------------------------------------ #
    def _dispatch_loop(self, dispatch) -> None:
        """Feed admission batches to one engine dispatcher until closed."""
        while True:
            requests = self._admission.take_batch()
            if requests is None:
                return
            # Stage stamps are only ever read at export, and export is
            # gated on ``sampled`` — so unsampled traces skip the whole
            # stamping pipeline (at the default 1/64 sampling that is
            # nearly every request).  An error later promotes a trace to
            # sampled; its waterfall then starts at the promotion point
            # (admit and the error stages are always recorded).
            traced = [
                r.trace for r in requests
                if r.trace is not None and r.trace.sampled
            ]
            stamp_batch(traced, STAGE_DEQUEUE)
            self._g_admission_depth.set(len(self._admission))
            try:
                dispatch(Batch(
                    seq=next(self._batch_ids), requests=requests,
                    traced=traced,
                ))
            except Exception as exc:  # pragma: no cover - defensive
                self._retry_or_fail(requests, exc)

    def _dispatched(self, batch: Batch, n_rows: int) -> None:
        """Count a batch an engine has handed to ``batch.shard``."""
        shard = batch.shard
        shard.batches += 1
        shard.elements += n_rows
        metrics = self._worker_metrics(shard.name)
        metrics.batches.inc()
        metrics.batch_requests.inc(len(batch.requests))

    def _backlog_changed(self) -> None:
        """Publish the engine's backlog depth and let backpressure act."""
        depth = self._engine.depth()
        self._g_backlog.set(depth)
        if self.controller.update(depth) != 0:
            self._m_degradation.labels(**self._labels).set(
                self.controller.level
            )

    def _complete(
        self, batch: Batch, outputs: np.ndarray, snapshot: Dict[str, object]
    ) -> None:
        """The completion funnel: every finished batch, either engine.

        ``snapshot`` is :func:`~repro.serving.procpool.worker_snapshot` of
        the worker that ran the batch, taken right after it completed.
        """
        shard = batch.shard
        shard.observe_drift(float(snapshot.get("fire_fraction", 0.0)))
        metrics = self._worker_metrics(shard.name)
        metrics.threshold.set(snapshot["threshold"])
        metrics.invocations.set(snapshot["invocations"])
        ensemble = snapshot.get("ensemble")
        if ensemble is not None:
            self._export_ensemble(shard.name, ensemble)
        try:
            blocks = split_outputs(outputs, batch.requests)
        except Exception as exc:
            for request in batch.requests:
                self._finish_request(request, error=exc)
            return
        fix_fraction = float(snapshot.get("fix_fraction", 0.0))
        extras = self._journal_extras(batch, snapshot)
        degraded = batch.degraded or self.controller.degraded
        for i, (request, block) in enumerate(zip(batch.requests, blocks)):
            self._finish_request(
                request,
                outputs=block,
                fix_fraction=fix_fraction,
                worker=shard.name,
                degraded=degraded,
                dispatched_at=batch.dispatched_at,
                journal_extra=extras[i] if extras else None,
            )

    # ------------------------------------------------------------------ #
    # Deadline-budgeted retries                                          #
    # ------------------------------------------------------------------ #
    def _retry_or_fail(
        self,
        requests: List[ServeRequest],
        error: BaseException,
        worker: str = "",
    ) -> None:
        """Route a failed batch: re-dispatch retryable faults, fail the rest.

        Only :class:`WorkerCrashError` (real or injected worker death) is
        retryable — application errors would fail identically on replay.
        A retry must fit inside the request's deadline budget *including*
        its exponential backoff; otherwise the caller gets a
        :class:`ServingError` immediately rather than a doomed wait.
        """
        retryable = isinstance(error, WorkerCrashError)
        now = time.monotonic()
        for request in requests:
            backoff = self.retry_backoff_s * (2 ** request.attempts)
            if (
                retryable
                and request.attempts < self.max_retries
                and now + backoff < request.deadline_at(self.default_deadline_s)
                and self._state in ("running", "draining")
            ):
                request.attempts += 1
                if request.trace is not None:
                    request.trace.stamp(STAGE_RETRY, at=now)
                    if self.tracing.always_sample_errors:
                        # Retried requests always leave a flight record.
                        request.trace.mark_sampled()
                self._retries_total += 1
                self._m_retries.labels(
                    worker=worker or "none", **self._labels
                ).inc()
                with self._retry_cond:
                    self._retry_seq += 1
                    heapq.heappush(
                        self._retry_heap,
                        (now + backoff, self._retry_seq, request),
                    )
                    self._retry_cond.notify()
                continue
            final = error
            if retryable:
                if request.attempts >= self.max_retries:
                    final = ServingError(
                        f"request {request.request_id} failed after "
                        f"{request.attempts + 1} attempts "
                        f"(retry bound {self.max_retries}): {error}"
                    )
                else:
                    final = ServingError(
                        f"request {request.request_id} deadline budget "
                        "exhausted after "
                        f"{request.attempts + 1} attempt(s): {error}"
                    )
            self._finish_request(request, error=final)

    def _retry_loop(self) -> None:
        """Re-offer backed-off requests to the admission queue when due."""
        while True:
            with self._retry_cond:
                if self._retry_stop:
                    return
                if not self._retry_heap:
                    self._retry_cond.wait(timeout=0.1)
                    continue
                ready_at = self._retry_heap[0][0]
                now = time.monotonic()
                if ready_at > now:
                    self._retry_cond.wait(timeout=min(ready_at - now, 0.1))
                    continue
                _, _, request = heapq.heappop(self._retry_heap)
            try:
                self._admission.requeue(request)
            except ServingError as exc:
                # The server shut down between the worker fault and this
                # backed-off retry landing (close() won the race).  The
                # request must still reach terminal completion — failing
                # the handle here is what keeps the submitter from
                # blocking out its full deadline budget.
                self._finish_request(
                    request,
                    error=ServingError(
                        f"request {request.request_id} could not be "
                        f"re-queued after attempt {request.attempts}: {exc}"
                    ),
                )

    # ------------------------------------------------------------------ #
    # Request journal                                                    #
    # ------------------------------------------------------------------ #
    def _write_journal_meta(self) -> None:
        """Describe the run at the head of the journal.

        The writer re-emits this document at the head of every rotated
        generation, so a reader holding only the live file still knows
        what run it is looking at.  ``python -m repro replay`` builds the
        replay server from these fields.
        """
        flat = {
            key: value for key, value in self.config.flat().items()
            if key != "chaos"
            and isinstance(value, (str, int, float, bool, type(None)))
        }
        self.journal.write_meta({
            "app": self.app_name,
            "scheme": self.scheme,
            "backend": self.backend,
            "n_workers": self.n_workers,
            "n_recovery_workers": self.n_recovery_workers,
            "seed": self.seed,
            "measure_quality": self.measure_quality,
            "threshold": (
                float(self._prototype.tuner.threshold)
                if self._prototype is not None else None
            ),
            "chaos": self.chaos_monkey is not None,
            "config": flat,
        })

    def _journal_extras(self, batch: Batch, snapshot: Dict[str, object]):
        """Per-request journal coordinates for one completed batch.

        None when no journal is attached.  Each request gets the batch's
        sequence number, its row slice of the batch (offset + total rows
        — what replay needs to rebuild the exact batch composition), its
        slice of the batch's per-row decision bits, and — on ensemble
        runs — its slice of the routed member choices (``backend_ids``),
        which replay forces back through the ensemble so online router
        learning cannot diverge the re-run.  Bits and choices ride in the
        worker snapshot (``include_bits``) whenever a journal is on.
        """
        if self.journal is None:
            return None
        bits = unpack_bits(
            snapshot.get("decision_bits", b""),
            int(snapshot.get("decision_nbits", 0)),
        )
        choices = None
        raw_ids = snapshot.get("backend_ids")
        if raw_ids is not None:
            choices = np.frombuffer(raw_ids, dtype=np.int8)
        threshold = snapshot.get("decision_threshold")
        measured = snapshot.get("measured_error")
        total = sum(r.n_elements for r in batch.requests)
        extras = []
        offset = 0
        for request in batch.requests:
            n_rows = request.n_elements
            extras.append({
                "batch": batch.seq,
                "row_offset": offset,
                "batch_rows": total,
                "bits": (
                    bits[offset: offset + n_rows]
                    if bits is not None else None
                ),
                "backend_ids": (
                    [int(c) for c in choices[offset: offset + n_rows]]
                    if choices is not None else None
                ),
                "threshold": (
                    float(threshold) if threshold is not None else None
                ),
                "measured_error": (
                    float(measured) if measured is not None else None
                ),
            })
            offset += n_rows
        return extras

    def _journal_request(
        self,
        request: ServeRequest,
        *,
        fix_fraction: float,
        outputs: Optional[np.ndarray],
        worker: str,
        degraded: bool,
        dispatched_at: Optional[float],
        error: Optional[BaseException],
        extra: Optional[Dict[str, object]],
    ) -> None:
        """Append one terminal completion to the request journal.

        Called from ``_finish_request`` *before* the pooled input buffer
        is recycled (the record snapshots the rows) and before the handle
        resolves (a crash immediately after completion still finds the
        record on disk).  Journaling must never fail a request, so disk
        errors are swallowed like the flight recorder's.
        """
        if error is not None and not self.config.journal.record_errors:
            return
        now = time.monotonic()
        header: Dict[str, object] = {
            "request_id": request.request_id,
            "trace_id": (
                request.trace.trace_id if request.trace is not None else 0
            ),
            "worker": worker,
            "attempts": request.attempts,
            "degraded": bool(degraded),
            "status": "ok" if error is None else "error",
            "latency_s": now - request.submitted_at,
        }
        if dispatched_at is not None:
            header["queue_wait_s"] = max(
                dispatched_at - request.submitted_at, 0.0
            )
        bits = None
        if extra is not None:
            header["batch"] = extra["batch"]
            header["row_offset"] = extra["row_offset"]
            header["batch_rows"] = extra["batch_rows"]
            if extra["threshold"] is not None:
                header["threshold"] = extra["threshold"]
            if extra["measured_error"] is not None:
                header["measured_error"] = extra["measured_error"]
            if extra.get("backend_ids") is not None:
                header["backend_ids"] = extra["backend_ids"]
            bits = extra["bits"]
        if error is not None:
            header["error"] = wire().exception_to_code(error)
            header["error_message"] = str(error)
        else:
            header["fix_fraction"] = float(fix_fraction)
        try:
            self.journal.record_request(
                header,
                inputs=np.atleast_2d(request.inputs),
                outputs=outputs,
                bits=bits,
            )
        except OSError:  # pragma: no cover - disk full / fs races
            pass

    def _finish_request(
        self,
        request: ServeRequest,
        outputs: Optional[np.ndarray] = None,
        fix_fraction: float = 0.0,
        worker: str = "",
        degraded: bool = False,
        dispatched_at: Optional[float] = None,
        error: Optional[BaseException] = None,
        journal_extra: Optional[Dict[str, object]] = None,
    ) -> None:
        if request.handle.done():  # pragma: no cover - defensive backstop
            return
        if self.journal is not None:
            self._journal_request(
                request,
                fix_fraction=fix_fraction,
                outputs=outputs,
                worker=worker,
                degraded=degraded,
                dispatched_at=dispatched_at,
                error=error,
                extra=journal_extra,
            )
        if request.pooled:
            # Terminal completion: recycle the request's staged input
            # buffer.  Every finish path first pops the request from its
            # owning structure (backlog task, pending map, retry heap), so
            # ownership is exclusive here, and nothing handed to the
            # caller aliases the staged rows.
            request.pooled = False
            self._bufpool.release(request.inputs)
        now = time.monotonic()
        latency = now - request.submitted_at
        queue_wait = (
            max(dispatched_at - request.submitted_at, 0.0)
            if dispatched_at is not None
            else latency
        )
        trace = request.trace
        if trace is not None:
            if error is not None and self.tracing.always_sample_errors:
                trace.mark_sampled()
            if trace.sampled:
                trace.stamp(STAGE_COMPLETE, at=now)
                # Before the handle resolves: resolution wakes the net
                # edge, whose net_send stamp must not race into this
                # record.  complete is therefore always the final stage
                # on disk.
                self._export_trace(
                    request,
                    trace,
                    latency=latency,
                    queue_wait=queue_wait,
                    worker=worker,
                    degraded=degraded,
                    fix_fraction=fix_fraction if error is None else 0.0,
                    error=error,
                )
        if error is not None:
            self._c_failed.inc()
            request.handle.set_exception(error)
        else:
            self._c_completed.inc()
            self._h_latency.observe(latency)
            request.handle.set_result(
                ServeResult(
                    request_id=request.request_id,
                    outputs=outputs,
                    worker=worker,
                    queue_wait_s=queue_wait,
                    latency_s=latency,
                    fix_fraction=fix_fraction,
                    degraded=degraded,
                    trace_id=trace.trace_id if trace is not None else 0,
                )
            )
        with self._flight_cond:
            self._inflight -= 1
            self._flight_cond.notify_all()
        self._g_inflight.set(self._inflight)

    def observe_stage(self, stage: str, duration: float) -> None:
        """Record one stage segment in ``rumba_stage_seconds``.

        Public hook for fronting edges (the TCP server) whose stages —
        ``net_recv`` / ``net_send`` — happen outside the core pipeline.
        """
        self._m_stage.labels(stage=stage, **self._labels).observe(duration)

    def _export_trace(
        self,
        request: ServeRequest,
        trace,
        *,
        latency: float,
        queue_wait: float,
        worker: str,
        degraded: bool,
        fix_fraction: float,
        error: Optional[BaseException],
    ) -> None:
        """Export one sampled trace: stage histograms, flight record,
        and the slow-request exemplar list.  Tracing must never fail a
        request, so recorder I/O errors are swallowed."""
        for stage, duration in trace.segments():
            self._m_stage.labels(stage=stage, **self._labels).observe(
                duration
            )
        events = trace.events()
        t0 = events[0][1] if events else 0.0
        document = {
            "v": FLIGHT_LOG_VERSION,
            "trace_id": trace.trace_id,
            "request_id": request.request_id,
            "app": self.app_name,
            "scheme": self.scheme,
            "worker": worker,
            "elements": request.n_elements,
            "attempts": request.attempts,
            "latency_s": latency,
            "queue_wait_s": queue_wait,
            "fix_fraction": float(fix_fraction),
            "degraded": bool(degraded),
            "error": (
                wire().exception_to_code(error) if error is not None else None
            ),
            "error_message": str(error) if error is not None else None,
            "stages": [[stage, at - t0] for stage, at in events],
        }
        if self.flight_recorder is not None:
            try:
                self.flight_recorder.record(document)
            except OSError:  # pragma: no cover - disk full / fs races
                pass
        cfg = self.config.tracing
        with self._slow_lock:
            self._traced_total += 1
            if cfg.max_exemplars > 0 and latency >= cfg.slow_threshold_s:
                self._slow_exemplars.append({
                    "request_id": request.request_id,
                    "trace_id": trace.trace_id,
                    "latency_s": latency,
                    "queue_wait_s": queue_wait,
                    "worker": worker,
                    "attempts": request.attempts,
                    "error": document["error"],
                    "stages": document["stages"],
                })
                self._slow_exemplars.sort(
                    key=lambda e: e["latency_s"], reverse=True
                )
                del self._slow_exemplars[cfg.max_exemplars:]

    # ------------------------------------------------------------------ #
    # Health / stats                                                     #
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, object]:
        """The health endpoint: lifecycle, queues, degradation, drift.

        Everything here is also available as time series through the
        metrics registry; this is the structured point-in-time view a
        load balancer or operator would poll.
        """
        base_threshold = (
            float(self._prototype.tuner.threshold)
            if self._prototype is not None else 0.0
        )
        per_worker = []
        for shard in self.shards:
            snap, restarts, alive = self._engine.worker_state(shard)
            per_worker.append({
                "worker": shard.name,
                "batches": shard.batches,
                "elements": shard.elements,
                "invocations": int(snap.get("invocations", 0)),
                "threshold": float(snap.get("threshold", base_threshold)),
                "degradation_level": int(snap.get("degradation_level", 0)),
                "drifted": shard.drifted,
                "drift_flags": shard.drift_flags,
                "restarts": restarts,
                "alive": alive,
                "ensemble": snap.get("ensemble"),
            })
        degradation = 0 if self.controller is None else self.controller.level
        worker_restarts = (
            self.pool.total_restarts if self.pool is not None else 0
        )
        chaos_summary = (
            self.chaos_monkey.summary()
            if self.chaos_monkey is not None else None
        )
        with self._slow_lock:
            traced_total = self._traced_total
            slow_requests = [dict(entry) for entry in self._slow_exemplars]
        tracing_summary = {
            "enabled": self.tracing.enabled,
            "sample_every": self.tracing.sample_every,
            "always_sample_errors": self.tracing.always_sample_errors,
            "traced_requests": traced_total,
            "flight_log": self.config.tracing.flight_log_path,
            "flight_records": (
                self.flight_recorder.written
                if self.flight_recorder is not None else 0
            ),
            "slow_threshold_s": self.config.tracing.slow_threshold_s,
        }
        journal_summary = None
        if self.journal is not None:
            journal_summary = {
                "path": self.journal.path,
                "records": self.journal.written,
                "rotations": self.journal.rotations,
            }
        return {
            "state": self._state,
            "app": self.app_name,
            "scheme": self.scheme,
            "backend": self.backend,
            "healthy": self._state == "running" and degradation == 0,
            "n_workers": self.n_workers,
            "n_recovery_workers": self.n_recovery_workers,
            "inflight_requests": self._inflight,
            "admission_depth": len(self._admission),
            "admission_capacity": self._admission.capacity,
            "requests_offered": self._admission.offered,
            "requests_shed": self._admission.shed,
            "recovery_backlog": self._engine.depth(),
            "recovery_backlog_capacity": (
                self.config.backpressure.recovery_backlog_capacity
            ),
            "degradation_level": degradation,
            "degraded": degradation > 0,
            "drifted": any(entry["drifted"] for entry in per_worker),
            "worker_restarts": worker_restarts,
            "retries": self._retries_total,
            "retry_queue_depth": len(self._retry_heap),
            "chaos": chaos_summary,
            "tracing": tracing_summary,
            "journal": journal_summary,
            "slow_requests": slow_requests,
            "workers": per_worker,
        }
