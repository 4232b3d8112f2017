"""The phases of one run, the output checks, and the reported metrics."""

from __future__ import annotations

import os
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from perfbench import procstat
from perfbench.core import (
    classify_rows,
    median,
    percentile,
    meets_slo,
    staircase_max_rate,
    staircase_step,
)
from perfbench.driver import Schedule, Window, pooled_summary
from perfbench.spans import SpanRecorder, install_layer_wrappers, layer_table, load_spans
from perfbench.workloads import (
    LAUNCHER,
    WORKLOADS,
    InprocTarget,
    TcpTarget,
    WorkloadSpec,
    subprocess_env,
)

#: End-to-end metrics (``--trace 0``) in report order, with units.
E2E_METRICS = [
    ("setup_s", "s"),
    ("nominal_p50_ms", "ms"),
    ("nominal_p90_ms", "ms"),
    ("heavy_p50_ms", "ms"),
    ("heavy_p90_ms", "ms"),
    ("max_rate_rps", "1/s"),
    ("delivered_error", "ratio"),
    ("fix_fraction", "ratio"),
    ("peak_rss_mb", "MB"),
]

#: Per-layer metrics (``--trace 1``), with units.  A layer a workload
#: does not run reports 0 and is named in the run's notes.
LAYER_METRICS = [
    ("server.submit_us", "us"),
    ("batching.requests_per_batch", "count"),
    ("batching.queue_wait_ms", "ms"),
    ("runtime.begin_us", "us"),
    ("runtime.complete_self_us", "us"),
    ("tuner.threshold_p50", "ratio"),
    ("approx.forward_ns_per_row", "ns"),
    ("predictors.scores_ns_per_row", "ns"),
    ("detection.detect_self_ns_per_row", "ns"),
    ("detection.fire_share", "ratio"),
    ("detection.precision", "ratio"),
    ("detection.recall", "ratio"),
    ("recovery.us_per_fixed_row", "us"),
    ("recovery.fixed_rows", "count"),
    ("recovery.busy_share", "cores"),
    ("backpressure.degrade_events", "count"),
    ("backpressure.degraded_share", "ratio"),
    ("procpool.ring_wait_ms", "ms"),
    ("procpool.collect_ms", "ms"),
    ("procpool.result_extra_bytes", "bytes"),
    ("procpool.parent_cpu_share", "cores"),
    ("procpool.worker_cpu_share", "cores"),
    ("protocol.encode_us", "us"),
    ("protocol.decode_us", "us"),
    ("protocol.bytes_per_request", "bytes"),
    ("net.node_cpu_share", "cores"),
    ("router.hop_ms_p50", "ms"),
    ("router.hop_ms_p90", "ms"),
    ("router.latency_share", "ratio"),
    ("router.cpu_share", "cores"),
    ("journal.append_us", "us"),
    ("journal.bytes_per_request", "bytes"),
    ("setup.train_s", "s"),
    ("setup.start_s", "s"),
    ("tracing.overhead_share", "ratio"),
    ("driver.late_p99_ms", "ms"),
    ("driver.achieved_share", "ratio"),
]

#: Set-up samples per end-to-end run (the median is reported).
SETUP_SAMPLES = 3
#: Rows per reference forward in the checks (bounds scratch memory).
CHECK_CHUNK = 1 << 16
#: Size of the fixed test set requests are cut from.
POOL_ROWS = 32768
#: Share of ``--seconds`` spent in each phase of an end-to-end run; the
#: max-rate staircase gets the rest, in ``STAIRCASE_STEPS`` equal windows.
WARM_SHARE, NOMINAL_SHARE, HEAVY_SHARE = 0.05, 0.2, 0.2
STAIRCASE_STEPS = 20
#: After the warm-up, an end-to-end run drives the nominal window, the
#: heavy window and its share of the staircase this many times in turn,
#: and pools the nominal and the heavy windows, so that each phase samples
#: the whole run rather than one stretch of it.
ROUNDS = 2
#: Traced run: warm-up, then untraced, traced and traced-heavy windows of
#: this share of ``--seconds`` each.
TRACED_SHARE = 0.3


# --------------------------------------------------------------------- #
# Inputs                                                                 #
# --------------------------------------------------------------------- #
def input_pool(app) -> np.ndarray:
    """Rows the requests are cut from: a fixed test set of at least
    ``POOL_ROWS`` rows from the app's *test* generator (never the rows
    ``prepare_system`` trains on).  It does not depend on the run's seed,
    which picks the rows of each request instead: a seed-dependent pool
    would make the figures depend on which test images a seed drew."""
    parts, n = [], 0
    for k in range(64):
        rng = np.random.default_rng([7919, k])
        part = np.atleast_2d(np.asarray(app.test_inputs(rng), dtype=float))
        parts.append(part)
        n += part.shape[0]
        if n >= POOL_ROWS:
            break
    return np.ascontiguousarray(np.concatenate(parts))


class Planner:
    """Seeded schedules: window ``k`` of a run always gets the same rng."""

    def __init__(self, spec: WorkloadSpec, seed: int, pool_rows: int):
        self.spec = spec
        self.seed = seed
        self.pool_rows = pool_rows
        self.count = 0

    def schedule(self, rate: float, duration_s: float) -> Schedule:
        rng = np.random.default_rng([self.seed, 104729, self.count])
        self.count += 1
        return Schedule.make(rng, rate, duration_s, self.pool_rows,
                             self.spec.sizes, self.spec.slo_p90_ms / 1e3)


# --------------------------------------------------------------------- #
# Set-up                                                                 #
# --------------------------------------------------------------------- #
def probe_setup(name: str) -> Tuple[float, float, float]:
    """One fresh-process set-up: ``(launch-to-ready s, train s, start s)``."""
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, LAUNCHER, "--probe", name],
        env=subprocess_env(), stdout=subprocess.PIPE, text=True,
        stdin=subprocess.DEVNULL,
    )
    try:
        line = proc.stdout.readline()
        ready = time.monotonic() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        rc = proc.wait(timeout=60)
    fields = line.split()
    if rc != 0 or len(fields) != 3 or fields[0] != "READY":
        raise RuntimeError(f"set-up probe failed (rc={rc}, line={line!r})")
    return ready, float(fields[1]), float(fields[2])


def build_inproc(spec, seed, samples: int, flight_log=""):
    """Set-up samples (``samples`` fresh-process probes) and the started
    in-process target."""
    setups = [probe_setup(spec.name)[0] for _ in range(samples)]
    target = InprocTarget(spec, flight_log=flight_log).prepare()
    pool = input_pool(target.app)
    target.start(pool[: spec.rows or 1])
    return target, pool, setups


def build_tcp(spec, seed, samples: int, workdir: str, traced: bool = False):
    """Set-up samples (node launch to first relayed request) and the last
    started target; the earlier ones are stopped."""
    from repro.core import prepare_system

    reference = prepare_system(spec.app, seed=0)
    pool = input_pool(reference.app)
    setups = []
    target = None
    for k in range(samples):
        if target is not None:
            target.stop()
        target = TcpTarget(spec, workdir, f"setup{k}", traced=traced,
                           app=reference.app,
                           reference_backend=reference.backend)
        target.start(pool[:1])
        setups.append(target.setup_s)
    return target, pool, setups


# --------------------------------------------------------------------- #
# Checks                                                                 #
# --------------------------------------------------------------------- #
def _reference(backend, rows: np.ndarray) -> np.ndarray:
    parts = [backend(rows[i: i + CHECK_CHUNK])
             for i in range(0, rows.shape[0], CHECK_CHUNK)]
    return np.concatenate(parts) if parts else rows[:0]


def check_window(
    window: Window, pool: np.ndarray, app, backend,
    sample: Optional[int], seed: int, keep: bool = False,
) -> Dict[str, object]:
    """Verify one window's delivered outputs.

    * every request completed or failed exactly once, and every success
      has the right shape and finite values;
    * every checked row equals the reference ``NPUBackend`` output or
      ``Application.exact`` on that row (to 1e-9);
    * the rows delivered exact agree with the reported fix fraction —
      exactly when every request is checked (a batch never straddles two
      windows), to 0.02 on a sample.
    """
    problems: List[str] = []
    once = window.completions == 1
    if not once.all():
        problems.append(
            f"{int((~once).sum())} requests completed {sorted(set(window.completions[~once].tolist()))} times"
        )
    bad = [e for e in window.errors if e and e.startswith("bad output")]
    if bad:
        problems.append(f"{len(bad)} results with a bad shape or values")
    ok_idx = np.flatnonzero(window.ok)
    chosen = ok_idx
    if sample is not None and ok_idx.size > sample:
        rng = np.random.default_rng([seed, len(window.label), ok_idx.size])
        chosen = np.sort(rng.choice(ok_idx, size=sample, replace=False))
    out: Dict[str, object] = {
        "window": window.label, "requests_checked": int(chosen.size),
        "requests_ok": int(ok_idx.size),
        "sampled": bool(chosen.size < ok_idx.size),
    }
    if chosen.size:
        starts, sizes = window.schedule.starts, window.schedule.sizes
        rows = np.concatenate([pool[starts[i]: starts[i] + sizes[i]]
                               for i in chosen])
        delivered = np.concatenate([window.output(i) for i in chosen])
        approx = _reference(backend, rows)
        exact = np.atleast_2d(app.exact(rows))
        cls = classify_rows(delivered, approx, exact)
        invalid = int((~cls["valid"]).sum())
        if invalid:
            problems.append(f"{invalid} rows are neither approx nor exact")
        n = rows.shape[0]
        fixed_low = int((cls["is_exact"] & ~cls["is_approx"]).sum())
        fixed_high = int(cls["is_exact"].sum())
        reported = float(np.sum(window.fix_fraction[chosen] * sizes[chosen]))
        if out["sampled"]:
            agree = abs(reported - fixed_low) <= 0.02 * n
        else:
            slack = 1e-6 * n + 1e-6
            agree = fixed_low - slack <= reported <= fixed_high + slack
        if not agree:
            problems.append(
                f"reported {reported:.2f} fixed rows, delivered exact "
                f"{fixed_low}..{fixed_high} of {n}"
            )
        out.update(rows_checked=n, fixed_rows_exact=fixed_low,
                   ambiguous_rows=fixed_high - fixed_low,
                   reported_fixed_rows=reported)
        if keep:
            out["_arrays"] = (rows, delivered, approx, exact, cls)
    out["problems"] = problems
    return out


def check_journal(target: TcpTarget) -> Dict[str, object]:
    """The node's journal reads back with one record per completion."""
    from repro.serving import read_journal

    journal = read_journal(target.journal_path)
    ok = journal.ok_records()
    ids = [r.request_id for r in ok]
    problems = []
    if len(ids) != len(set(ids)):
        problems.append("journal holds a request twice")
    if len(ok) != target.ok_requests:
        problems.append(
            f"journal holds {len(ok)} ok records for {target.ok_requests} "
            "completed requests"
        )
    shapes = [r for r in ok
              if r.outputs is None or r.inputs is None
              or r.outputs.shape[0] != r.inputs.shape[0]]
    if shapes:
        problems.append(f"{len(shapes)} journal records with bad shapes")
    return {"window": "journal", "records": len(journal.records),
            "ok_records": len(ok), "completions": target.ok_requests,
            "bytes": _file_size(target.journal_path), "problems": problems}


def _file_size(path: str) -> int:
    total = 0
    for candidate in (path, path + ".1"):
        if os.path.exists(candidate):
            total += os.path.getsize(candidate)
    return total


# --------------------------------------------------------------------- #
# Windows                                                                #
# --------------------------------------------------------------------- #
def _rss_mb(pids: Dict[str, int], names) -> Dict[str, float]:
    return {n: procstat.peak_rss_mb(pids[n]) or 0.0 for n in names}


def _server_side(target, pids: Dict[str, int]) -> List[str]:
    if isinstance(target, TcpTarget):
        return ["node", "router"]
    return list(pids)


# --------------------------------------------------------------------- #
# End-to-end run                                                         #
# --------------------------------------------------------------------- #
def run_e2e(spec, seed, seconds, workdir):
    if spec.transport == "tcp":
        target, pool, setups = build_tcp(spec, seed, SETUP_SAMPLES, workdir)
    else:
        target, pool, setups = build_inproc(spec, seed, SETUP_SAMPLES)
    app, backend = target.app, target.reference_backend
    plan = Planner(spec, seed, pool.shape[0])
    windows: List[Window] = []
    pids = target.pids()
    cpu = procstat.CpuMeter(pids)
    nominal_s = NOMINAL_SHARE * seconds / ROUNDS
    heavy_s = HEAVY_SHARE * seconds / ROUNDS
    step_s = ((1.0 - WARM_SHARE - NOMINAL_SHARE - HEAVY_SHARE) * seconds
              / STAIRCASE_STEPS)

    def drive(rate, duration_s, label):
        host = procstat.host_jiffies()
        window = target.drive(pool, plan.schedule(rate, duration_s), label)
        window.steal_share = procstat.steal_share(host, procstat.host_jiffies())
        windows.append(window)
        return window

    nominal: List[Window] = []
    heavy: List[Window] = []
    stairs: List[Dict[str, float]] = []
    # Start a third of the way up the ladder, below the knee: a first
    # window far above it left jmeint_bulk slow for several seconds
    # (p90 near 50 ms even at 580-640 req/s), which dragged the figure down.
    rung = len(spec.ladder) // 3
    try:
        drive(spec.nominal_rps, WARM_SHARE * seconds, "warm")
        cpu.start()
        for k in range(ROUNDS):
            nominal.append(drive(spec.nominal_rps, nominal_s, f"nominal#{k}"))
            heavy.append(drive(spec.heavy_rps, heavy_s, f"heavy#{k}"))
            if k == 0:
                # Peak memory after a heavy window, before the staircase
                # overloads the server on purpose.
                rss = _rss_mb(pids, _server_side(target, pids))
            for _ in range(STAIRCASE_STEPS // ROUNDS):
                rate = spec.ladder[rung]
                step = drive(rate, step_s, f"step{len(stairs)}@{rate:g}").summary()
                stairs.append(step)
                rung = staircase_step(rung, meets_slo(step, spec.slo_p90_ms),
                                      len(spec.ladder))
        cpu.stop()
    finally:
        target.stop()
    heavy_ids = {id(w) for w in heavy}
    checks = [
        check_window(w, pool, app, backend,
                     None if id(w) in heavy_ids else spec.check_sample, seed,
                     keep=id(w) in heavy_ids)
        for w in windows
    ]
    if isinstance(target, TcpTarget):
        checks.append(check_journal(target))
    kept = [c.pop("_arrays") for c in checks if "_arrays" in c]
    delivered = np.concatenate([k[1] for k in kept])
    exact = np.concatenate([k[3] for k in kept])
    max_rate, where = staircase_max_rate(stairs, spec.slo_p90_ms)
    nom, hv = pooled_summary(nominal), pooled_summary(heavy)
    fix = np.concatenate([w.fix_fraction[w.ok] for w in heavy])
    heavy_rows = np.concatenate([w.schedule.sizes[w.ok] for w in heavy])
    degraded = np.concatenate([w.degraded[w.ok] for w in heavy])
    metrics = {
        "setup_s": median(setups),
        "nominal_p50_ms": nom["p50_ms"],
        "nominal_p90_ms": nom["p90_ms"],
        "heavy_p50_ms": hv["p50_ms"],
        "heavy_p90_ms": hv["p90_ms"],
        "max_rate_rps": max_rate,
        "delivered_error": float(app.output_error(delivered, exact)),
        "fix_fraction": float(np.sum(fix * heavy_rows)
                              / max(heavy_rows.sum(), 1)),
        "peak_rss_mb": float(sum(rss.values())),
    }
    notes = []
    if where != "crossed":
        notes.append(
            f"max_rate_rps: every staircase window "
            + ("met the SLO; the figure is a lower bound"
               if where == "lower_bound"
               else "missed the SLO; the true figure is lower")
            + f" (ladder {spec.ladder})")
    counted = nominal + heavy
    record = {
        "setup_samples_s": setups,
        "windows": [w.summary() for w in windows],
        "nominal": nom,
        "heavy": hv,
        "max_rate_where": where,
        "notes": notes,
        "heavy_degraded_share": float(degraded.mean()) if degraded.size else 0.0,
        "cpu_s": cpu.cpu_s, "cpu_wall_s": cpu.wall_s,
        "host_steal_share": cpu.host_steal_share,
        "peak_rss_mb": rss,
        "checks": checks,
    }
    return metrics, record, counted, checks


# --------------------------------------------------------------------- #
# Traced run                                                             #
# --------------------------------------------------------------------- #
def _flight_stage_ms(path: str, start: str, end: str) -> List[float]:
    """Per-request ``end - start`` stage gap (ms) from a flight log."""
    from repro.observability.flightlog import read_flight_log

    if not os.path.exists(path):
        return []
    gaps = []
    for record in read_flight_log(path):
        stages = {str(s): float(t) for s, t in record.get("stages") or []}
        if start in stages and end in stages:
            gaps.append((stages[end] - stages[start]) * 1e3)
    return gaps


def run_traced(spec, seed, seconds, workdir):
    recorder = SpanRecorder()
    dump_dir = os.path.join(workdir, "spans")
    os.makedirs(dump_dir, exist_ok=True)
    install_layer_wrappers(recorder, worker_dump_dir=dump_dir)
    # Stage stamps are only needed for the hops the wrappers cannot see:
    # the process backend's shared-memory rings.
    flight = ""
    if spec.backend == "process":
        flight = os.path.join(workdir, "server.flight")
    if spec.transport == "tcp":
        target, pool, setups = build_tcp(spec, seed, 1, workdir, traced=True)
    else:
        target, pool, setups = build_inproc(spec, seed, 0, flight_log=flight)
    app, backend = target.app, target.reference_backend
    plan = Planner(spec, seed, pool.shape[0])
    pids = target.pids()
    cpu = procstat.CpuMeter(pids)
    windows: List[Window] = []
    window_s = TRACED_SHARE * seconds
    try:
        windows.append(target.drive(
            pool, plan.schedule(spec.nominal_rps, WARM_SHARE * seconds), "warm"))
        plain = target.drive(pool, plan.schedule(spec.nominal_rps, window_s), "untraced")
        windows.append(plain)
        recorder.enabled = True
        target.set_traced(True)
        time.sleep(0.3)  # remote SIGUSR1 handlers run between bytecodes
        t_from = time.monotonic()
        cpu.start()
        traced = target.drive(pool, plan.schedule(spec.nominal_rps, window_s), "traced")
        heavy = target.drive(pool, plan.schedule(spec.heavy_rps, window_s), "traced-heavy")
        cpu.stop()
        t_to = time.monotonic()
        windows += [traced, heavy]
        recorder.enabled = False
        target.set_traced(False)
    finally:
        recorder.enabled = False
        target.stop()
    checks = [check_window(w, pool, app, backend, spec.check_sample, seed,
                           keep=w is traced or w is heavy) for w in windows]
    if isinstance(target, TcpTarget):
        checks.append(check_journal(target))

    local = recorder.spans()
    remote_paths = [os.path.join(dump_dir, f) for f in sorted(os.listdir(dump_dir))]
    if isinstance(target, TcpTarget):
        server_side = layer_table(load_spans([target.node_spans]), t_from, t_to)
        router = layer_table(load_spans([target.router_spans]), t_from, t_to)
    else:
        router = {}
        server_side = layer_table(local + load_spans(remote_paths), t_from, t_to)
    client = layer_table(local, t_from, t_to)
    setup_spans = layer_table(
        load_spans([target.node_spans]) if isinstance(target, TcpTarget) else local)

    metrics, notes = layer_metrics(
        spec, target, server_side, client, router, setup_spans, cpu,
        [traced, heavy], plain, checks, flight, setups,
    )
    record = {
        "windows": [w.summary() for w in windows],
        "cpu_s": cpu.cpu_s, "cpu_wall_s": cpu.wall_s,
        "host_steal_share": cpu.host_steal_share,
        "layers": {"server": _strip(server_side), "client": _strip(client),
                   "router": _strip(router)},
        "notes": notes,
        "checks": checks,
    }
    return metrics, record, [traced, heavy], checks


def _strip(table):
    return {name: {k: v for k, v in row.items() if k != "values2"}
            for name, row in table.items()}


def _per(table, name, field, scale=1.0, per="calls") -> float:
    row = table.get(name)
    if not row or not row[per]:
        return 0.0
    return row[field] / row[per] * scale


def layer_metrics(spec, target, server, client, router, setup_spans, cpu,
                  traced_windows, plain, checks, flight, setups):
    """Per-layer metrics from the span tables of the traced windows
    (``server`` is the node's on ``jpeg_tcp``), their checks and CPU use,
    with notes on what does not apply or cannot be seen."""
    tcp = isinstance(target, TcpTarget)
    heavy = traced_windows[-1]
    process = spec.backend == "process"
    notes: List[str] = []
    m: Dict[str, float] = {name: 0.0 for name, _ in LAYER_METRICS}

    def na(prefix, why):
        notes.append(f"{prefix}*: not applicable on {spec.name} ({why})")

    m["server.submit_us"] = _per(server, "server.submit", "self_s", 1e6)
    m["batching.requests_per_batch"] = _per(server, "batching.take_batch", "rows")
    waits = np.concatenate([w.queue_wait_s[w.ok] for w in traced_windows])
    m["batching.queue_wait_ms"] = percentile(waits * 1e3, 50)[0] if waits.size else 0.0
    m["runtime.begin_us"] = _per(server, "runtime.begin", "total_s", 1e6)
    m["runtime.complete_self_us"] = _per(server, "runtime.complete", "self_s", 1e6)
    detect = server.get("detection.detect")
    threshold = median(detect["values2"]) if detect else float("nan")
    m["tuner.threshold_p50"] = threshold
    m["approx.forward_ns_per_row"] = _per(server, "approx.forward", "total_s", 1e9, "rows")
    m["predictors.scores_ns_per_row"] = _per(server, "predictors.scores", "total_s", 1e9, "rows")
    m["detection.detect_self_ns_per_row"] = _per(server, "detection.detect", "self_s", 1e9, "rows")
    m["detection.fire_share"] = _per(server, "detection.detect", "value", per="rows")
    # Precision/recall over the checked rows of the traced windows: a row
    # is "large" when its true element error exceeds the median detection
    # threshold in force, "recovered" when it was delivered exact.
    kept = [c.pop("_arrays") for c in checks if "_arrays" in c]
    if kept and threshold == threshold:
        app = target.app
        recovered, large = [], []
        for _rows, _delivered, approx, exact, cls in kept:
            recovered.append(cls["is_exact"] & ~cls["is_approx"])
            large.append(np.asarray(app.element_errors(approx, exact)) > threshold)
        recovered, large = np.concatenate(recovered), np.concatenate(large)
        hit = float((recovered & large).sum())
        m["detection.precision"] = hit / max(float(recovered.sum()), 1.0)
        m["detection.recall"] = hit / max(float(large.sum()), 1.0)
    rec = server.get("recovery.recover")
    if rec and rec["value"]:
        m["recovery.us_per_fixed_row"] = rec["total_s"] / rec["value"] * 1e6
        m["recovery.fixed_rows"] = rec["value"]
        m["recovery.busy_share"] = rec["total_s"] / cpu.wall_s
    bp = server.get("backpressure.update")
    m["backpressure.degrade_events"] = bp["value"] if bp else 0.0
    m["backpressure.degraded_share"] = float(heavy.degraded[heavy.ok].mean()) if heavy.ok.any() else 0.0
    shares = cpu.shares()
    if process:
        m["procpool.ring_wait_ms"] = median(_flight_stage_ms(flight, "shm_write", "shm_read"))
        m["procpool.collect_ms"] = median(_flight_stage_ms(flight, "compute", "collect"))
        m["procpool.result_extra_bytes"] = _per(server, "procpool.poll", "value", per="rows")
        m["procpool.parent_cpu_share"] = shares.get("parent", 0.0)
        m["procpool.worker_cpu_share"] = sum(v for k, v in shares.items() if k.startswith("worker"))
        notes.append("procpool.ring_wait_ms/collect_ms come from the flight "
                     "log's shm_write->shm_read and compute->collect stamps; "
                     "compute is stamped after the worker's whole invocation "
                     "(recovery included), so worker compute and recover are "
                     "not separable from outside")
    else:
        na("procpool.", "thread backend")
    if tcp:
        enc = [t.get("protocol.encode") for t in (client, router, server)]
        dec = [t.get("protocol.decode") for t in (client, router, server)]
        m["protocol.encode_us"] = _pooled(enc, 1e6)
        m["protocol.decode_us"] = _pooled(dec, 1e6)
        sent = sum(int(w.ok.sum()) for w in traced_windows)
        c_enc, c_dec = client.get("protocol.encode"), client.get("protocol.decode")
        wire_bytes = (c_enc["value"] if c_enc else 0.0) + (c_dec["value"] if c_dec else 0.0)
        m["protocol.bytes_per_request"] = wire_bytes / max(sent, 1)
        m["net.node_cpu_share"] = shares.get("node", 0.0)
        rtt, hop = [], []
        for w in traced_windows:
            ok = w.ok
            r = (w.done - w.sent)[ok]
            rtt.append(r)
            hop.append(r - w.server_latency_s[ok])
        rtt, hop = np.concatenate(rtt) * 1e3, np.concatenate(hop) * 1e3
        m["router.hop_ms_p50"] = percentile(hop, 50)[0]
        m["router.hop_ms_p90"] = percentile(hop, 90)[0]
        m["router.latency_share"] = float(hop.sum() / max(rtt.sum(), 1e-12))
        m["router.cpu_share"] = shares.get("router", 0.0)
        m["journal.append_us"] = _per(server, "journal.append", "total_s", 1e6)
        journal = [c for c in checks if c.get("window") == "journal"][0]
        m["journal.bytes_per_request"] = journal["bytes"] / max(journal["ok_records"], 1)
        notes.append("router.hop_ms is the client round trip minus the node's "
                     "own reported latency: both TCP hops, the router and the "
                     "node's wire edge; the router's stage stamps stay in the "
                     "router process and are not exported, so the router alone "
                     "is not separable from the TCP hops")
    else:
        na("protocol./net./router./journal.", "in-process, no wire or journal")
    prep = setup_spans.get("setup.prepare")
    m["setup.train_s"] = prep["total_s"] / prep["calls"] if prep else 0.0
    # In-process: server start plus the first request.  TCP: node and
    # router launch to the first relayed request, less the node's training.
    m["setup.start_s"] = (max(median(setups) - m["setup.train_s"], 0.0)
                          if tcp else target.start_s)
    plain_p50 = percentile(plain.latencies_s(), 50)[0]
    traced_p50 = percentile(traced_windows[0].latencies_s(), 50)[0]
    m["tracing.overhead_share"] = traced_p50 / plain_p50 - 1.0
    late = np.concatenate([(w.sent - w.due) for w in traced_windows]) * 1e3
    m["driver.late_p99_ms"] = percentile(late, 99)[0]
    summaries = [w.summary() for w in traced_windows]
    m["driver.achieved_share"] = min(s["achieved_share"] for s in summaries)
    notes.append("detection.detect spans wrap DetectionModule.detect_into "
                 "directly; the program itself never stamps detect apart "
                 "from compute")
    return m, notes


def _pooled(rows, scale) -> float:
    rows = [r for r in rows if r]
    calls = sum(r["calls"] for r in rows)
    return sum(r["total_s"] for r in rows) / calls * scale if calls else 0.0


# --------------------------------------------------------------------- #
# Entry                                                                  #
# --------------------------------------------------------------------- #
def run(name: str, seed: int, seconds: float, traced: bool, workdir: str):
    """One run; returns ``(result line, full record)``."""
    from perf_harness import host_fingerprint

    spec = WORKLOADS[name]
    started = time.monotonic()
    with procstat.IdleSpinners() as spinners:
        if traced:
            values, record, counted, checks = run_traced(spec, seed, seconds, workdir)
            units = dict(LAYER_METRICS)
        else:
            values, record, counted, checks = run_e2e(spec, seed, seconds, workdir)
            units = dict(E2E_METRICS)
    problems = [f"{c['window']}: {p}" for c in checks for p in c["problems"]]
    for key, value in values.items():
        if value != value:  # NaN: no samples behind the figure
            # A per-layer figure may have none; an end-to-end one may not.
            (record.setdefault("notes", []) if traced else problems).append(
                f"{key}: no samples")
            values[key] = 0.0
    for problem in problems:
        print(f"CHECK FAILED {problem}")
    attempted = sum(len(w.schedule) for w in counted)
    failed = sum(int((~w.ok).sum()) for w in counted)
    metrics = {k: {"value": float(values[k]), "unit": units[k]} for k in units}
    record.update({
        "workload": name, "seed": seed, "seconds": seconds, "traced": traced,
        "host": host_fingerprint(), "wall_s": time.monotonic() - started,
        "idle_spinners": spinners.count,
        "metrics": metrics, "problems": problems,
        "attempted": attempted, "failed": failed,
    })
    for w in record["windows"]:
        print(
            f"{w['label']:>16} {w['rate_rps']:7.0f} rps sent {w['sent']:6d} "
            f"ok {w['succeeded']:6d} failed {w['failed']:4d} achieved "
            f"{w['achieved_share']:.3f} p50 {w['p50_ms']:7.2f} p90 "
            f"{w['p90_ms']:7.2f} p99 {w['p99_ms']:7.2f} (n={w['n']}) "
            f"late p99 {w['late_p99_ms']:.2f} ms steal {w['steal_share']:.1%}"
        )
    for note in record.get("notes", []):
        print(f"note: {note}")
    line = {"correct": not problems, "attempted": int(attempted),
            "failed": int(failed), "metrics": metrics}
    return line, record
