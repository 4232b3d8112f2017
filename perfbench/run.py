"""Open-loop, quality-aware serving benchmark: one workload per run.

    python3 perfbench/run.py --workload fft_small --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: set-up
time, latency at a nominal and a heavy Poisson rate, the highest rate
meeting the workload's SLO, and the quality delivered in the heavy
window.  ``--trace 1`` is the separate traced run: an untraced and a
traced window at the nominal rate (their p50 difference is the tracing
overhead) and a traced heavy window, reported per layer.

Both check every delivered output (see ``check_window``) and print, as
the last line of standard output, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record (every
window's sent/succeeded/failed, achieved vs offered rate, generator
lateness, percentiles with sample counts, per-process CPU and memory,
host fingerprint) goes to ``.perfbench_work/records/`` and into the
experiment DB ``.perfbench_work/experiments.sqlite``.  The exit code is
non-zero when any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for path in (os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks"),
                 ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    try:
        import numpy  # noqa: F401

        import repro  # noqa: F401
        from perf_harness import host_fingerprint  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program to measure: {exc}",
              file=sys.stderr)
        return 2
    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(repro.__file__).startswith(src):
        print(f"perfbench: repro was imported from {repro.__file__}, not "
              f"from this checkout's {src}", file=sys.stderr)
        return 2
    from perfbench.measure import run
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2
    from perfbench import procstat

    workdir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    procstat.adopt_orphans()
    try:
        line, record = run(args.workload, args.seed, args.seconds,
                           bool(args.trace), workdir)
    finally:
        # Nothing the run started may outlive it: not the server's worker
        # processes, nor multiprocessing's resource tracker, nor anything
        # a child left behind.
        killed = procstat.reap_children()
        shutil.rmtree(workdir, ignore_errors=True)
    if killed:
        print(f"perfbench: killed {len(killed)} processes still running "
              "after the run", file=sys.stderr)
    _save(record, args)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def _save(record, args) -> None:
    """Keep the full record as JSON and as a run in the experiment DB."""
    from repro.eval.expdb import ExperimentDB

    records = os.path.join(WORK, "records")
    os.makedirs(records, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    name = f"{stamp}-{args.workload}-s{args.seed}-t{args.trace}.json"
    with open(os.path.join(records, name), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=float)
    with ExperimentDB(os.path.join(WORK, "experiments.sqlite")) as db:
        db.record_run(
            f"perfbench.{args.workload}" + (".traced" if args.trace else ""),
            record,
            configs={"seed": args.seed, "seconds": args.seconds,
                     "trace": args.trace},
        )


if __name__ == "__main__":
    sys.exit(main())
