"""The three workloads and the servers they drive.

=============  =========================================================
``fft_small``  fft, 16 rows per request, in-process ``RumbaServer`` with
               default settings (thread backend, 2 workers).  Per-request
               serving overhead dominates; recovery is cheap.
``jmeint_bulk`` jmeint, 256 rows per request, in-process, process
               backend with 2 workers.  Exact recompute dominates, frames
               are large, and backpressure degradation starts near the
               knee, so quality moves with load.
``jpeg_tcp``   jpeg, heavy-tailed request sizes (1-256 rows, mean ~11),
               ``AsyncRumbaClient`` -> 1-node ``repro cluster --attach``
               router -> ``repro serve --listen`` node with a journal.
=============  =========================================================
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from perfbench.core import request_sizes
from perfbench.driver import Schedule, Window, drive_inproc, drive_tcp

__all__ = ["WorkloadSpec", "WORKLOADS", "InprocTarget", "TcpTarget"]

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LAUNCHER = os.path.join(HERE, "launcher.py")


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    app: str
    transport: str  # "inproc" | "tcp"
    backend: str
    nominal_rps: float
    heavy_rps: float
    slo_p90_ms: float
    #: Increasing rates the max-rate staircase steps over, from below the
    #: knee to well past it.
    ladder: tuple
    rows: Optional[int] = None  # None = heavy-tailed sizes
    #: Requests whose rows are checked per window (None = every request).
    check_sample: Optional[int] = None

    def sizes(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return request_sizes(rng, n, fixed=self.rows)


WORKLOADS: Dict[str, WorkloadSpec] = {
    "fft_small": WorkloadSpec(
        name="fft_small", app="fft", transport="inproc", backend="thread",
        nominal_rps=1000, heavy_rps=2000, slo_p90_ms=10.0, rows=16,
        ladder=tuple(range(2200, 7801, 400)),
    ),
    "jmeint_bulk": WorkloadSpec(
        name="jmeint_bulk", app="jmeint", transport="inproc",
        backend="process", nominal_rps=200, heavy_rps=300,
        slo_p90_ms=30.0, rows=256, check_sample=60,
        ladder=tuple(range(400, 1601, 60)),
    ),
    "jpeg_tcp": WorkloadSpec(
        name="jpeg_tcp", app="jpeg", transport="tcp", backend="thread",
        nominal_rps=200, heavy_rps=700, slo_p90_ms=30.0,
        ladder=tuple(range(900, 3541, 120)),
    ),
}


def subprocess_env() -> Dict[str, str]:
    """Environment for child interpreters: the checkout's ``src`` and the
    checkout root (for ``perfbench``) on the import path."""
    env = dict(os.environ)
    paths = [os.path.join(ROOT, "src"), ROOT]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


class InprocTarget:
    """An in-process ``RumbaServer`` built the way the workload says."""

    def __init__(self, spec: WorkloadSpec, flight_log: str = ""):
        from repro.serving import RumbaServer, ServerConfig, TracingConfig

        self.spec = spec
        # A traced run starts at the default 1-in-64 sampling (its
        # untraced window) and switches to every request with set_traced.
        tracing = TracingConfig(flight_log_path=flight_log or None)
        config = ServerConfig(
            app=spec.app, backend=spec.backend, n_workers=2, tracing=tracing,
        )
        self.server = RumbaServer(config=config)
        self.train_s = 0.0
        self.start_s = 0.0
        self.ok_requests = 0

    def prepare(self) -> "InprocTarget":
        t0 = time.monotonic()
        self.server.prepare()
        self.train_s = time.monotonic() - t0
        return self

    def start(self, first_inputs: np.ndarray) -> "InprocTarget":
        """Start serving; returns once a first request has round-tripped."""
        t0 = time.monotonic()
        self.server.start()
        self.server.submit_wait(first_inputs, timeout=60.0)
        self.start_s = time.monotonic() - t0
        self.ok_requests += 1
        return self

    @property
    def app(self):
        return self.server.prototype.app

    @property
    def reference_backend(self):
        return self.server.prototype.backend

    def pids(self) -> Dict[str, int]:
        out = {"parent": os.getpid()}
        if self.server.pool is not None:
            for i, worker in enumerate(self.server.pool.workers):
                out[f"worker{i}"] = worker.process.pid
        return out

    def drive(self, pool: np.ndarray, schedule: Schedule, label: str) -> Window:
        window = drive_inproc(
            self.server, pool, schedule, self.app.n_outputs, label
        )
        self.ok_requests += int(window.ok.sum())
        return window

    def set_traced(self, on: bool) -> None:
        """Toggle the process workers' span wrappers and, when a flight
        log records them, stamp every request's stages (on) or the default
        1 in 64."""
        if self.server.flight_recorder is not None:
            self.server.tracing.sample_every = 1 if on else 64
        if self.server.pool is not None:
            for worker in self.server.pool.workers:
                os.kill(worker.process.pid, signal.SIGUSR1)

    def stop(self) -> None:
        self.server.stop()


def _wait_for_file(path: str, proc: subprocess.Popen, timeout: float) -> str:
    limit = time.monotonic() + timeout
    while time.monotonic() < limit:
        if proc.poll() is not None:
            raise RuntimeError(
                f"child exited with {proc.returncode} before writing {path}"
            )
        try:
            with open(path) as fh:
                text = fh.read().strip()
        except OSError:
            text = ""
        if text:
            return text
        time.sleep(0.005)
    raise RuntimeError(f"timed out waiting for {path}")


def stop_process(proc: Optional[subprocess.Popen], timeout: float = 20.0) -> None:
    """SIGTERM (a graceful stop for ``repro serve``/``cluster``), then kill."""
    if proc is None or proc.poll() is not None:
        return
    proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=timeout)


class TcpTarget:
    """A ``repro serve --listen`` node behind a 1-node ``repro cluster``
    router, both launched through ``perfbench/launcher.py``, driven by two
    ``AsyncRumbaClient`` connections on one event loop."""

    def __init__(self, spec: WorkloadSpec, workdir: str, tag: str,
                 traced: bool = False, app=None, reference_backend=None):
        self.spec = spec
        self.workdir = workdir
        self.tag = tag
        self.traced = traced
        self.journal_path = os.path.join(workdir, f"{tag}.journal")
        self.node_spans = os.path.join(workdir, f"{tag}-node-spans.json")
        self.router_spans = os.path.join(workdir, f"{tag}-router-spans.json")
        self.node: Optional[subprocess.Popen] = None
        self.router: Optional[subprocess.Popen] = None
        self.loop = asyncio.new_event_loop()
        self.clients: List[object] = []
        self.app = app
        self.reference_backend = reference_backend
        self.ok_requests = 0
        self.setup_s = 0.0

    def _launch(self, role: str, argv: List[str], spans: str) -> subprocess.Popen:
        cmd = [sys.executable, LAUNCHER]
        if self.traced:
            cmd += ["--spans", spans]
        cmd += ["--"] + argv
        log = open(os.path.join(self.workdir, f"{self.tag}-{role}.log"), "w")
        try:
            return subprocess.Popen(
                cmd, cwd=self.workdir, env=subprocess_env(), stdout=log,
                stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
            )
        finally:
            log.close()

    def start(self, first_inputs: np.ndarray) -> "TcpTarget":
        """Launch node and router; returns once the router relayed a request."""
        try:
            return self._start(first_inputs)
        except BaseException:
            self.stop()
            raise

    def _start(self, first_inputs: np.ndarray) -> "TcpTarget":
        from repro.serving import AsyncRumbaClient, parse_address

        t0 = time.monotonic()
        node_port = os.path.join(self.workdir, f"{self.tag}-node.port")
        router_port = os.path.join(self.workdir, f"{self.tag}-router.port")
        serve = [
            "serve", "--app", self.spec.app, "--workers", "2",
            "--listen", "127.0.0.1:0", "--port-file", node_port,
            "--journal", self.journal_path,
            "--journal-max-bytes", str(1 << 30),
        ]
        self.node = self._launch("node", serve, self.node_spans)
        node_address = _wait_for_file(node_port, self.node, 120.0)
        self.router = self._launch("router", [
            "cluster", "--app", self.spec.app, "--attach", node_address,
            "--listen", "127.0.0.1:0", "--port-file", router_port,
        ], self.router_spans)
        host, port = parse_address(
            _wait_for_file(router_port, self.router, 120.0)
        )
        for _ in range(2):
            self.clients.append(self.loop.run_until_complete(
                AsyncRumbaClient.connect(host, port)
            ))
        self.loop.run_until_complete(
            self.clients[0].request(first_inputs, deadline_s=60.0)
        )
        self.ok_requests += 1
        self.setup_s = time.monotonic() - t0
        return self

    def pids(self) -> Dict[str, int]:
        return {"node": self.node.pid, "router": self.router.pid}

    def drive(self, pool: np.ndarray, schedule: Schedule, label: str) -> Window:
        window = drive_tcp(
            self.loop, self.clients, pool, schedule, self.app.n_outputs, label
        )
        self.ok_requests += int(window.ok.sum())
        return window

    def set_traced(self, on: bool) -> None:
        """Toggle the span wrappers in node and router (``on`` tells which
        way the toggle goes)."""
        for proc in (self.node, self.router):
            os.kill(proc.pid, signal.SIGUSR1)

    def stop(self) -> None:
        for client in self.clients:
            self.loop.run_until_complete(client.close())
        self.clients = []
        stop_process(self.router)
        stop_process(self.node)
        self.loop.close()
