"""Pool workers never outlive their parent process.

A parent killed outright (SIGKILL, OOM-kill) never sends the shutdown
sentinel.  Its workers must notice on their own and exit instead of
blocking on their task queues forever, re-parented to init.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

#: Builds a warm 2-worker pool, prints the worker pids on one line,
#: then SIGKILLs itself.
SCRIPT = """
import os, signal
from repro.pool import WorkerPool

pool = WorkerPool(2, mp_context={mp_context!r})
pool.ensure_workers(2)
print(" ".join(str(w.process.pid) for w in pool._workers.values()), flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""


def exited(pid):
    """Gone, or a zombie: init may be slow to reap a re-parented child."""
    try:
        with open(f"/proc/{pid}/status") as status:
            return any(
                line.startswith("State:") and "Z" in line.split()[1]
                for line in status
            )
    except (FileNotFoundError, ProcessLookupError):
        return True


@pytest.mark.skipif(
    not os.path.isdir("/proc/self"), reason="reads /proc/<pid>/status"
)
@pytest.mark.parametrize("mp_context", ["fork", "spawn"])
def test_workers_exit_when_parent_is_killed(mp_context):
    if mp_context not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {mp_context} start method")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", SCRIPT.format(mp_context=mp_context)],
        env=env, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True,
    )
    pids = []
    try:
        # Exactly one line: orphaned workers would hold the pipe open,
        # so waiting for EOF could block forever.
        pids = [int(pid) for pid in proc.stdout.readline().split()]
        assert len(pids) == 2
        assert proc.wait(timeout=30) == -signal.SIGKILL
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and not all(map(exited, pids)):
            time.sleep(0.1)
        alive = [pid for pid in pids if not exited(pid)]
        assert not alive, f"workers {alive} outlived their killed parent"
    finally:
        for pid in pids:
            if not exited(pid):
                os.kill(pid, signal.SIGKILL)
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
