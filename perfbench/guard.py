"""Run one child process under a wall-clock timeout and an address-space cap.

Stdlib only: the benchmark's parent process must stay small while it times
children, because Linux reports a child's peak RSS as at least the parent's
RSS at fork time.
"""
from __future__ import annotations

import os
import resource
import subprocess
import threading
import time
from dataclasses import dataclass

# A child that grows past this address space gets MemoryError instead of
# exhausting the machine.  About ten times the largest workload's VmPeak.
MEMORY_CAP_BYTES = 2 << 30


@dataclass(frozen=True)
class ChildResult:
    exit_code: int
    wall_s: float
    cpu_s: float       # user + sys of the child
    peak_rss_mb: float
    timed_out: bool


def _cap_address_space():
    # runs in the child between fork and exec, so the parent is not limited
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))


def run_child(argv, *, timeout_s: float, log_path: str, env=None,
              cwd=None) -> ChildResult:
    """Run argv to completion, killing it after timeout_s seconds.

    stdout and stderr go to log_path.  Wall time runs from just before the
    fork to the moment wait4 reaps the child.
    """
    killed = threading.Event()
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT, env=env, cwd=cwd,
                                preexec_fn=_cap_address_space)

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(timeout_s, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        except BaseException:
            # interrupted while waiting: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped above
    return ChildResult(
        exit_code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        timed_out=killed.is_set() and wall >= timeout_s)
