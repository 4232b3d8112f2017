"""Span recording around the public entry points of each layer.

The traced run wraps functions from *outside* the program: nothing in
``src/`` is edited.  Each wrapper records one span — name, start, end,
parent span and a per-call measurement (rows handled and up to two
values) — into a per-thread list held in memory; :meth:`SpanRecorder.dump`
writes them out when the run ends.  Process workers inherit the wrappers
by ``fork`` and dump their own spans when their main loop returns; the
TCP node and router install them through ``perfbench/launcher.py``.
"""

from __future__ import annotations

import functools
import json
import os
import signal
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from perfbench.core import self_times

__all__ = ["SpanRecorder", "install_layer_wrappers", "load_spans", "layer_table"]

# (name, start, end, parent index, batch id, rows, value, value2)
Span = Tuple[str, float, float, int, int, int, float, float]


class SpanRecorder:
    """Per-thread span lists; wrapping is a no-op while ``enabled`` is off."""

    def __init__(self) -> None:
        self.enabled = False
        self.reset()

    def toggle(self, *_signal_args) -> None:
        """Flip ``enabled`` (usable directly as a signal handler)."""
        self.enabled = not self.enabled

    def reset(self) -> None:
        """Drop every span (a forked worker starts from a clean slate)."""
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._threads: List[List[Optional[Span]]] = []

    def _local(self):
        tls = self._tls
        spans = getattr(tls, "spans", None)
        if spans is None:
            spans = tls.spans = []
            tls.stack = []
            with self._lock:
                self._threads.append(spans)
        return spans, tls.stack

    def wrap(self, name: str, fn: Callable, measure: Optional[Callable] = None,
             always: bool = False, batch: Optional[Callable] = None):
        """``fn`` recording a span per call (even while disabled when
        ``always``); ``measure(args, kwargs, result)`` returns ``(rows,
        value, value2)``.  ``batch(args, kwargs)`` names the batch or
        request a root span works on; nested spans inherit it."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not (recorder.enabled or always):
                return fn(*args, **kwargs)
            spans, stack = recorder._local()
            parent, tag = stack[-1] if stack else (-1, 0)
            if batch is not None:
                tag = batch(args, kwargs)
            index = len(spans)
            spans.append(None)
            stack.append((index, tag))
            result = None
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.monotonic()
                stack.pop()
                rows, value, value2 = (
                    measure(args, kwargs, result) if measure and result is not None
                    else (0, 0.0, 0.0)
                )
                spans[index] = (name, start, end, parent, tag, rows, value,
                                value2)

        wrapper.__wrapped_by_perfbench__ = fn
        return wrapper

    def spans(self) -> List[List[Span]]:
        """Finished spans, one list per thread (parent indices are local)."""
        with self._lock:
            threads = list(self._threads)
        return [_drop_unfinished(t) for t in threads]

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"pid": os.getpid(), "threads": self.spans()}, fh)


def _drop_unfinished(spans: List[Optional[Span]]) -> List[Span]:
    """Remove spans still open at dump time, re-pointing parent indices."""
    keep, remap = [], {}
    for index, span in enumerate(spans):
        if span is not None:
            remap[index] = len(keep)
            keep.append(span)
    return [(n, s, e, remap.get(p, -1), *rest) for n, s, e, p, *rest in keep]


def _rows_arg(position: int, key: str):
    def measure(args, kwargs, result):
        arr = kwargs.get(key) if key in kwargs else args[position]
        return int(np.shape(arr)[0]) if np.ndim(arr) else 1, 0.0, 0.0
    return measure


def _patch(owner, attr: str, recorder: SpanRecorder, name: str, measure=None,
           always: bool = False, batch=None):
    fn = getattr(owner, attr)
    if getattr(fn, "__wrapped_by_perfbench__", None) is not None:
        return
    setattr(owner, attr, recorder.wrap(name, fn, measure, always, batch))


def _block_id(position: int, key: str, attr: str = ""):
    """Batch id: the identity of the input block a call works on (a
    request's rows for ``submit``; for ``begin_invocation`` the batch's
    rows, which ``complete_invocation`` finds again as
    ``pending.inputs``)."""
    def batch(args, kwargs):
        obj = kwargs[key] if key in kwargs else args[position]
        return id(getattr(obj, attr)) if attr else id(obj)
    return batch


def install_layer_wrappers(recorder: SpanRecorder, worker_dump_dir: str = "") -> None:
    """Wrap every layer entry point the traced run reports on.

    ``worker_dump_dir`` additionally wraps the process-backend worker
    entry so each forked worker dumps ``spans-<pid>.json`` there when it
    stops.
    """
    from repro.approx.npu_backend import NPUBackend
    from repro.core.detection import DetectionModule
    from repro.core.recovery import RecoveryModule
    from repro.core.runtime import RumbaSystem
    from repro.predictors.base import ErrorPredictor
    from repro.serving import procpool
    from repro.serving.backpressure import BackpressureController
    from repro.serving.batching import AdmissionQueue
    from repro.serving.journal import RequestJournal
    from repro.serving.net import protocol
    from repro.serving.procpool import ProcessWorkerPool
    from repro.serving.server import RumbaServer

    # Set-up is timed on every run, traced or not.
    _patch(RumbaServer, "prepare", recorder, "setup.prepare", always=True)
    _patch(RumbaServer, "submit", recorder, "server.submit",
           _rows_arg(1, "inputs"), batch=_block_id(1, "inputs"))
    _patch(AdmissionQueue, "take_batch", recorder, "batching.take_batch",
           lambda a, k, r: (len(r), 0.0, 0.0))
    _patch(RumbaSystem, "begin_invocation", recorder, "runtime.begin",
           _rows_arg(1, "inputs"), batch=_block_id(1, "inputs"))
    _patch(RumbaSystem, "complete_invocation", recorder, "runtime.complete",
           lambda a, k, r: (int(r.outputs.shape[0]), 0.0, 0.0),
           batch=_block_id(1, "pending", "inputs"))
    _patch(NPUBackend, "__call__", recorder, "approx.forward",
           _rows_arg(1, "inputs"))
    classes = [ErrorPredictor]
    while classes:
        cls = classes.pop()
        classes.extend(cls.__subclasses__())
        if "scores" in cls.__dict__:
            _patch(cls, "scores", recorder, "predictors.scores",
                   lambda a, k, r: (int(np.size(r)), 0.0, 0.0))
    _patch(DetectionModule, "detect_into", recorder, "detection.detect",
           lambda a, k, r: (int(r.n_elements), float(r.n_fired),
                            float(r.threshold)))
    _patch(RecoveryModule, "recover", recorder, "recovery.recover",
           lambda a, k, r: (int(r.merged_outputs.shape[0]),
                            float(r.n_recovered), 0.0))
    _patch(ProcessWorkerPool, "poll", recorder, "procpool.poll",
           lambda a, k, r: (len(r), float(sum(len(f.extra) for f in r)), 0.0))
    # Wire frames only: the journal and the flight recorder reuse the
    # codec for their own records, which are reported on their own.
    # ``value2`` is the frame type, negative for the other frames, which
    # :func:`layer_table` skips.
    wire_types = {protocol.FT_REQUEST: 1.0, protocol.FT_RESULT: 2.0}
    _patch(protocol, "encode_frame", recorder, "protocol.encode",
           lambda a, k, r: (1, float(len(r)), wire_types.get(a[0], -1.0)))
    _patch(protocol, "decode_frame", recorder, "protocol.decode",
           lambda a, k, r: (1, float(len(a[0])),
                            wire_types.get(r.frame_type, -1.0)))
    _patch(BackpressureController, "update", recorder, "backpressure.update",
           lambda a, k, r: (1, float(r > 0), float(r < 0)))
    _patch(RequestJournal, "record_request", recorder, "journal.append",
           lambda a, k, r: (1, 0.0, 0.0))
    if worker_dump_dir:
        original = procpool._worker_main
        if getattr(original, "__wrapped_by_perfbench__", None) is None:
            @functools.wraps(original)
            def traced_worker_main(*args, **kwargs):
                # Off until the parent toggles it with SIGUSR1, like the
                # parent's own wrappers.
                recorder.reset()
                recorder.enabled = False
                signal.signal(signal.SIGUSR1, recorder.toggle)
                try:
                    original(*args, **kwargs)
                finally:
                    recorder.dump(os.path.join(
                        worker_dump_dir, f"spans-{os.getpid()}.json"))
            traced_worker_main.__wrapped_by_perfbench__ = original
            procpool._worker_main = traced_worker_main


def load_spans(paths: List[str]) -> List[List[Span]]:
    """Thread span lists from dump files written by :meth:`SpanRecorder.dump`."""
    threads: List[List[Span]] = []
    for path in paths:
        with open(path) as fh:
            threads.extend(
                [tuple(s) for s in t] for t in json.load(fh)["threads"]
            )
    return threads


def layer_table(
    threads: List[List[Span]], t_from: float = float("-inf"),
    t_to: float = float("inf"),
) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, rows, summed values, total and self seconds.

    Only spans starting in ``[t_from, t_to)`` count, and only the calls
    not nested in a span of the same name (so re-entrant wrappers are not
    counted twice); spans whose ``value2`` is negative are skipped.
    """
    table: Dict[str, Dict[str, float]] = {}
    for spans in threads:
        selfs = self_times([(s[1], s[2], s[3]) for s in spans])
        for index, span in enumerate(spans):
            name, start, end, parent, _batch, rows, value, value2 = span
            if not (t_from <= start < t_to):
                continue
            if value2 < 0 or (parent >= 0 and spans[parent][0] == name):
                continue
            row = table.setdefault(name, {
                "calls": 0, "rows": 0, "value": 0.0, "total_s": 0.0,
                "self_s": 0.0, "values2": [],
            })
            row["calls"] += 1
            row["rows"] += rows
            row["value"] += value
            row["total_s"] += end - start
            row["self_s"] += selfs[index]
            row["values2"].append(value2)
    return table
