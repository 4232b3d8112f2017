"""A run leaves no process behind (``procstat.reap_children``)."""

import os
import subprocess
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))

# Starts multiprocessing's resource tracker (as a shared-memory ring does)
# and a child that exits at once, leaving a sleeping grandchild behind.
SCRIPT = """
import subprocess, sys
from multiprocessing import shared_memory
from perfbench import procstat

assert procstat.adopt_orphans()
shm = shared_memory.SharedMemory(create=True, size=64)
shm.close()
shm.unlink()
subprocess.run([sys.executable, "-c",
                "import subprocess, sys; subprocess.Popen("
                "[sys.executable, '-c', 'import time; time.sleep(60)'])"])
killed = procstat.reap_children(timeout_s=0.5)
print(len(killed), len(procstat.child_pids()))
"""


def test_reap_children_stops_the_tracker_and_adopted_orphans():
    env = dict(os.environ, PYTHONPATH=ROOT)
    out = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    # The tracker ends by itself once its pipe closes; the orphaned
    # grandchild is killed; nothing is left.
    assert out.stdout.split() == ["1", "0"]
