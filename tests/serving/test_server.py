"""End-to-end serving: parallel workers, async recovery, lifecycle,
backpressure, and per-worker telemetry."""

import time

import numpy as np
import pytest

from repro.core.stream import DriftDetector
from repro.errors import OverloadedError, ServingError
from repro.observability import MetricsRegistry
from repro.serving import BackpressureController, RumbaServer
from repro.serving.server import WorkerShard


def _server(prototype, **kwargs):
    defaults = dict(
        prototype=prototype.clone_shard(),
        n_workers=2,
        n_recovery_workers=2,
        max_batch_requests=4,
        flush_interval_s=0.002,
    )
    defaults.update(kwargs)
    return RumbaServer(**defaults)


class TestEndToEnd:
    def test_concurrent_requests_across_workers(self, fft_prototype, fft_input_pool):
        registry = MetricsRegistry()
        server = _server(fft_prototype, registry=registry)
        with server:
            # Paced arrivals: the hot path drains a one-shot burst of 48
            # small requests within a single GIL scheduling quantum on a
            # 1-core host, before the second worker thread ever runs.
            # Spreading the submissions over a few quanta keeps this a
            # test of load spreading rather than of thread start latency.
            handles = []
            for i in range(48):
                handles.append(
                    server.submit(fft_input_pool[i * 16:(i + 1) * 16])
                )
                if i % 8 == 7:
                    time.sleep(0.005)
            results = [h.result(timeout=30.0) for h in handles]
        assert len(results) == 48
        assert all(r.outputs.shape == (16, 2) for r in results)
        assert all(np.isfinite(r.outputs).all() for r in results)
        assert all(r.latency_s >= r.queue_wait_s >= 0.0 for r in results)
        # Work actually spread across the pool: every worker shard ran
        # invocations, visible both on the shards and in the per-worker
        # metric series (the PR 1 telemetry registry).
        assert all(s.system.total_invocations > 0 for s in server.shards)
        family = registry.get("rumba_invocations_total")
        series = {labels["worker"]: child.value
                  for labels, child in family.series()}
        assert set(series) == {"w0", "w1"}
        assert all(count > 0 for count in series.values())
        served = registry.get("rumba_serve_requests_total")
        outcomes = {labels["outcome"]: child.value
                    for labels, child in served.series()}
        assert outcomes["accepted"] == 48
        assert outcomes["completed"] == 48

    def test_results_preserve_request_rows(self, fft_prototype, fft_input_pool):
        # Requests of different sizes in one batch come back with their
        # own row counts, in submission slots.
        server = _server(fft_prototype, n_workers=1)
        sizes = [1, 7, 3, 12, 5]
        with server:
            handles = [
                server.submit(fft_input_pool[:n]) for n in sizes
            ]
            results = [h.result(timeout=30.0) for h in handles]
        assert [r.n_elements for r in results] == sizes

    def test_submit_wait_roundtrip(self, fft_prototype, fft_input_pool):
        with _server(fft_prototype) as server:
            result = server.submit_wait(fft_input_pool[:8], timeout=30.0)
        assert result.outputs.shape == (8, 2)
        assert 0.0 <= result.fix_fraction <= 1.0


class TestLifecycle:
    def test_submit_requires_running(self, fft_prototype, fft_input_pool):
        server = _server(fft_prototype)
        with pytest.raises(ServingError):
            server.submit(fft_input_pool[:4])
        with server:
            server.submit_wait(fft_input_pool[:4], timeout=30.0)
        with pytest.raises(ServingError):
            server.submit(fft_input_pool[:4])
        assert server.state == "stopped"

    def test_drain_completes_inflight(self, fft_prototype, fft_input_pool):
        server = _server(fft_prototype)
        server.start()
        handles = [server.submit(fft_input_pool[:8]) for _ in range(12)]
        assert server.drain(timeout=30.0)
        assert all(h.done() for h in handles)
        server.stop()

    def test_stats_shape(self, fft_prototype, fft_input_pool):
        with _server(fft_prototype) as server:
            server.submit_wait(fft_input_pool[:8], timeout=30.0)
            stats = server.stats()
        assert stats["app"] == "fft"
        assert stats["scheme"] == "treeErrors"
        assert stats["inflight_requests"] == 0
        assert stats["degradation_level"] == 0
        assert stats["drifted"] is False
        assert len(stats["workers"]) == 2
        for worker in stats["workers"]:
            assert {"worker", "batches", "threshold", "drifted"} <= set(worker)

    def test_empty_request_rejected(self, fft_prototype):
        with _server(fft_prototype) as server:
            from repro.errors import ConfigurationError

            with pytest.raises(ConfigurationError):
                server.submit(np.empty((0, 1)))


class TestShardHistory:
    def test_shard_records_stay_bounded(self, fft_prototype,
                                        fft_input_pool):
        # Serving reads only a shard's counters and online state, so its
        # invocation history must not grow with the server's lifetime.
        server = _server(fft_prototype, n_workers=1, max_batch_requests=1)
        with server:
            for i in range(300):
                block = fft_input_pool[(i % 40) * 8:(i % 40 + 1) * 8]
                server.submit_wait(block, timeout=30.0)
        system = server.shards[0].system
        assert system.total_invocations == 300
        assert system.max_records is not None
        assert len(system.records) == system.max_records < 300


class TestBackpressure:
    def test_bounded_queues_and_degradation(self, fft_prototype, fft_input_pool):
        """Overload must produce shedding + threshold degradation, never
        unbounded queues."""
        registry = MetricsRegistry()
        server = _server(
            fft_prototype,
            registry=registry,
            n_workers=2,
            n_recovery_workers=1,
            max_batch_requests=1,
            admission_capacity=6,
            recovery_backlog_capacity=3,
            high_watermark=1,
            low_watermark=0,
        )
        server.prepare()
        # Make CPU recovery artificially slow so the accelerator side
        # outruns it — the keep-up failure the paper warns about.
        for shard in server.shards:
            shard.system.recovery.verify = False
            original = shard.system.recovery.exact_kernel

            def slow_kernel(x, _orig=original):
                time.sleep(0.01)
                return _orig(x)

            shard.system.recovery.exact_kernel = slow_kernel
        baseline_threshold = server.shards[0].system.tuner.threshold

        server.start()
        handles = []
        shed = 0
        for _ in range(60):
            try:
                handles.append(server.submit(fft_input_pool[:4]))
            except OverloadedError:
                shed += 1
        for handle in handles:
            handle.result(timeout=60.0)
        stats = server.stats()
        server.stop()

        # Bounded admission shed load instead of queueing unboundedly.
        assert shed > 0
        assert stats["requests_shed"] == shed
        # The recovery backlog never outgrew its bound (inline fallback
        # absorbs the overflow).
        assert server._engine.backlog.stats.max_occupancy <= 3
        # Backpressure raised the detection threshold at least once.
        assert server.controller.degrade_events > 0
        peak_threshold = max(
            max(s.system.tuner.history) for s in server.shards
        )
        assert peak_threshold > baseline_threshold
        # And the degradation is visible through the metrics registry.
        gauge = registry.get("rumba_serve_degradation_level")
        assert gauge is not None

    def test_controller_hysteresis_and_reset(self, fft_prototype):
        shard = fft_prototype.clone_shard()
        start = shard.tuner.threshold
        controller = BackpressureController(
            [shard], high_watermark=4, low_watermark=1, factor=2.0,
            max_level=2,
        )
        assert controller.update(10) == +1
        assert controller.update(10) == +1
        assert controller.update(10) == 0  # capped at max_level
        assert controller.level == 2
        assert shard.tuner.threshold == pytest.approx(start * 4.0)
        assert controller.update(3) == 0   # between watermarks: hold
        assert controller.update(1) == -1
        controller.reset()
        assert controller.level == 0
        assert shard.tuner.threshold == pytest.approx(start)
        assert shard.tuner.degradation_level == 0


class TestDrift:
    def test_worker_shard_flags_drift(self):
        import types

        shard = WorkerShard(
            name="w0",
            system=types.SimpleNamespace(telemetry=None),
            drift=DriftDetector(
                calibration_invocations=2, tolerance_sigmas=1.0,
                min_band=0.01, max_band=0.02, smoothing=1.0,
            ),
        )
        assert not shard.observe_drift(0.10)
        assert not shard.observe_drift(0.10)  # calibration done
        assert shard.observe_drift(0.90)
        assert shard.drifted
        assert shard.drift_flags == 1
