"""Child-process entry points of the benchmark.

``launcher.py [--spans PATH] -- <repro CLI args>``
    Runs ``repro.__main__.main`` with the layer wrappers of
    :mod:`perfbench.spans` installed.  They stay off until the process
    receives SIGUSR1 (which toggles them), so one node or router serves
    both the untraced and the traced window of a traced run.  The spans
    are written to PATH when ``main`` returns (``repro serve --listen``
    and ``repro cluster`` return on SIGTERM).

``launcher.py --probe WORKLOAD``
    Builds the workload's in-process server from nothing, round-trips one
    request, prints ``READY <train_s> <start_s>`` and stops it: one
    sample of set-up time, measured by the parent from process launch.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)


def _probe(name: str) -> int:
    import numpy as np

    from perfbench.workloads import WORKLOADS, InprocTarget

    spec = WORKLOADS[name]
    target = InprocTarget(spec).prepare()
    rows = np.atleast_2d(target.app.test_inputs(np.random.default_rng(1)))
    target.start(rows[: spec.rows or 1])
    print(f"READY {target.train_s:.6f} {target.start_s:.6f}", flush=True)
    target.stop()
    return 0


def _serve(spans_path: str, argv) -> int:
    from repro.__main__ import main

    if not spans_path:
        return main(argv)
    from perfbench.spans import SpanRecorder, install_layer_wrappers

    recorder = SpanRecorder()
    install_layer_wrappers(recorder)
    signal.signal(signal.SIGUSR1, recorder.toggle)
    try:
        return main(argv)
    finally:
        recorder.dump(spans_path)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    rest = []
    if "--" in argv:
        cut = argv.index("--")
        argv, rest = argv[:cut], argv[cut + 1:]
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spans", default="")
    parser.add_argument("--probe", default="")
    args = parser.parse_args(argv)
    if args.probe:
        return _probe(args.probe)
    return _serve(args.spans, rest)


if __name__ == "__main__":
    sys.exit(main())
