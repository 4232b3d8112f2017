"""Per-process CPU time and memory, read from ``/proc``.

Linux only, like the rest of the benchmark.  CPU time is user + system
of every thread of the process; peak memory is the kernel's high-water
mark of resident set size (``VmHWM``).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

__all__ = ["cpu_seconds", "peak_rss_mb", "CpuMeter", "host_jiffies",
           "steal_share", "IdleSpinners", "adopt_orphans", "reap_children"]

_TICK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int):
    with open(f"/proc/{pid}/stat") as fh:
        text = fh.read()
    # The command name is parenthesised and may contain spaces.
    return text[text.rindex(")") + 2:].split()


def cpu_seconds(pid: int) -> Optional[float]:
    """User + system CPU seconds of ``pid`` so far (None once it is gone)."""
    try:
        fields = _stat_fields(pid)
    except OSError:
        return None
    # Fields 14 and 15 of stat(5); the slice starts at field 3.
    return (int(fields[11]) + int(fields[12])) / _TICK


def peak_rss_mb(pid: int) -> Optional[float]:
    """Peak resident set size of ``pid`` in MiB (None once it is gone)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def host_jiffies() -> Tuple[int, int]:
    """``(steal, total)`` CPU jiffies of this machine since boot.  Steal is
    time the hypervisor ran other guests while ours wanted a core."""
    with open("/proc/stat") as fh:
        fields = [int(v) for v in fh.readline().split()[1:]]
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


def steal_share(before: Tuple[int, int], after: Tuple[int, int]) -> float:
    """Share of the machine's CPU time stolen between two readings."""
    steal, total = after[0] - before[0], after[1] - before[1]
    return steal / total if total > 0 else 0.0


class CpuMeter:
    """CPU seconds per named process between :meth:`start` and :meth:`stop`,
    and the share of the host's CPU time the hypervisor stole meanwhile
    (time other guests ran on this machine's cores)."""

    def __init__(self, pids: Dict[str, int]):
        self.pids = dict(pids)
        self.host_steal_share = 0.0
        self._start: Dict[str, float] = {}
        self._t0 = 0.0
        self.wall_s = 0.0
        self.cpu_s: Dict[str, float] = {}

    def start(self) -> "CpuMeter":
        self._host = host_jiffies()
        self._t0 = time.monotonic()
        self._start = {
            name: cpu_seconds(pid) or 0.0 for name, pid in self.pids.items()
        }
        return self

    def stop(self) -> Dict[str, float]:
        self.wall_s = time.monotonic() - self._t0
        self.host_steal_share = steal_share(self._host, host_jiffies())
        for name, pid in self.pids.items():
            now = cpu_seconds(pid)
            if now is not None:
                self.cpu_s[name] = now - self._start.get(name, 0.0)
        return self.cpu_s

    def shares(self) -> Dict[str, float]:
        """CPU seconds per wall second (1.0 = one core busy)."""
        wall = self.wall_s or float("nan")
        return {name: cpu / wall for name, cpu in self.cpu_s.items()}


#: Body of one spinner: lowest scheduling class, busy until its parent is
#: gone (so it cannot outlive a killed benchmark).
_SPIN = """
import os
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
parent = os.getppid()
while os.getppid() == parent:
    for _ in range(200000):
        pass
"""


class IdleSpinners:
    """One busy process per usable core, in the ``SCHED_IDLE`` class, for
    the length of a ``with`` block.

    On a virtual machine, a core with nothing to run halts, and waking it
    again goes through the hypervisor, which may first run other guests:
    on a 2-vCPU KVM guest, the serving stack's many short sleeps and
    wake-ups were charged 5-16% steal at 200 req/s and its p90 doubled,
    while two busy loops on the same machine at the same time saw under
    1%.  A ``SCHED_IDLE`` task runs only when nothing else on its core
    wants to, and yields at once when something wakes, so the program
    keeps all the CPU it asks for but its cores never halt: as with
    ``idle=poll`` on bare metal, wake-up latency is the kernel's, not the
    hypervisor's.
    """

    def __init__(self) -> None:
        self.count = len(os.sched_getaffinity(0))
        self._procs: List[subprocess.Popen] = []

    def __enter__(self) -> "IdleSpinners":
        for _ in range(self.count):
            self._procs.append(subprocess.Popen(
                [sys.executable, "-c", _SPIN], stdin=subprocess.DEVNULL,
            ))
        return self

    def __exit__(self, *exc) -> None:
        for proc in self._procs:
            proc.kill()
        for proc in self._procs:
            proc.wait()
        self._procs = []


def adopt_orphans() -> bool:
    """Make this process a child subreaper (``prctl(PR_SET_CHILD_SUBREAPER)``):
    a process it started whose own parent ends is re-parented here rather
    than to init, so :func:`reap_children` can wait for it too."""
    import ctypes

    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(36, 1, 0, 0, 0) == 0  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        return False


def child_pids(pid: Optional[int] = None) -> List[int]:
    """Processes whose parent is ``pid`` (default: this one), zombies
    included, from ``/proc``."""
    pid = os.getpid() if pid is None else pid
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            fields = _stat_fields(int(entry))
        except OSError:
            continue
        if int(fields[1]) == pid:
            out.append(int(entry))
    return out


def _stop_resource_tracker(timeout_s: float) -> None:
    """End ``multiprocessing``'s resource tracker, which shared-memory
    rings start and which otherwise lives until this process exits.
    Closing its pipe lets it unlink anything still registered and exit."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is None:
        return
    os.close(tracker._fd)
    tracker._fd = None
    _wait(tracker._pid, timeout_s)
    tracker._pid = None


def _wait(pid: int, timeout_s: float) -> bool:
    """Reap ``pid``, killing it if it has not ended within ``timeout_s``;
    True when it had to be killed."""
    limit = time.monotonic() + timeout_s
    try:
        while time.monotonic() < limit:
            if os.waitpid(pid, os.WNOHANG)[0] == pid:
                return False
            time.sleep(0.01)
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    except ChildProcessError:
        return False
    except ProcessLookupError:
        pass
    return True


def reap_children(timeout_s: float = 10.0) -> List[int]:
    """Wait for every process this one started, and for the orphans it
    adopted, to end; kill those still running after ``timeout_s``.
    Returns the pids that had to be killed."""
    _stop_resource_tracker(timeout_s)
    killed: List[int] = []
    waited = set()
    while True:
        pids = [pid for pid in child_pids() if pid not in waited]
        if not pids:
            return killed
        for pid in pids:
            waited.add(pid)
            if _wait(pid, timeout_s):
                killed.append(pid)
