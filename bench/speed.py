"""Host-speed sampling for the untraced passes.

On a shared host the virtual CPU runs faster or slower in phases that last
tens of seconds, so raw pass times of the same code spread by 0.15-0.25
between runs (IQR over median).  A timer signal runs a fixed calibration
kernel in the main thread four times a second while a pass runs; the mean
kernel time over the pass, against REF_KERNEL_S, is the factor by which the
host ran slower than the reference speed.  Dividing a pass time by it gives
the pass time at the reference speed.  Sampling throughout the pass
matters: calibrating only before and after a long job does not cancel the
phases that start or end inside it.

The kernel must not compete with the program it measures, or a change that
keeps a second thread or process busy would read as a slower host and its
corrected times would drop.  So a sample is kept only if, when the kernel
starts and when it ends, Python runs no other thread and no other thread
of this process or of its child processes is running (Linux /proc).  A
pass that leaves fewer than MIN_SAMPLES samples is topped up with kernels
run right after it, when the program is idle.
"""

from __future__ import annotations

import os
import signal
import statistics
import threading
import time
from contextlib import contextmanager

import numpy as np

INTERVAL_S = 0.25
# Median kernel time on the reference host (2-vCPU Intel Xeon VM, CPython
# 3.11, numpy 2.4); it only fixes the unit of the reference-speed times.
REF_KERNEL_S = 0.003
MIN_SAMPLES = 8


def _kernel(x=np.linspace(0.1, 2.0, 64), bp=np.linspace(0.0, 3.0, 8)):
    """About 3 ms of small numpy calls from Python, like zpgd's hot loops."""
    acc = 0.0
    for i in range(200):
        acc += float(np.exp(-np.clip(0.5 * x, 0.0, 1.0)).sum())
        acc += int(np.searchsorted(bp, x[i % 64]))
    return acc


def _running_elsewhere() -> bool:
    """Whether a thread of this process other than the caller, or a thread
    of one of its child processes, is running or ready to run."""
    me = str(threading.get_native_id())
    children: list[str] = []
    try:
        for task in os.scandir("/proc/self/task"):
            if task.name != me and _state(task.path) == "R":
                return True
            with open(f"{task.path}/children") as fh:
                children += fh.read().split()
        for pid in children:
            for task in os.scandir(f"/proc/{pid}/task"):
                if _state(task.path) == "R":
                    return True
    except OSError:    # no /proc, or a thread or child ended meanwhile
        pass
    return False


def _state(task_dir: str) -> str:
    with open(f"{task_dir}/stat", "rb") as fh:
        stat = fh.read()
    return chr(stat[stat.rindex(b")") + 2])


def _contended() -> bool:
    return threading.active_count() > 1 or _running_elsewhere()


class SpeedSampler:
    def __init__(self):
        self.samples: list[float] = []
        self.skipped = 0
        self.spent_s = 0.0

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        busy = _contended()
        t1 = time.perf_counter()
        _kernel()
        dt = time.perf_counter() - t1
        if busy or _contended():
            self.skipped += 1
        else:
            self.samples.append(dt)
        self.spent_s += time.perf_counter() - t0

    def clock(self) -> float:
        """perf_counter less the sampler's time so far.  A sample taken
        between the two reads shifts one reading by one kernel time."""
        spent = self.spent_s
        return time.perf_counter() - spent

    def top_up(self, n: int = MIN_SAMPLES):
        """Run kernels until at least n samples are kept (or 3n tried)."""
        for _ in range(3 * n):
            if len(self.samples) >= n:
                break
            self._sample()

    @contextmanager
    def running(self):
        old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, old)

    def slowdown(self) -> float:
        """Mean kernel time over the reference kernel time (1 when no sample
        was taken)."""
        if not self.samples:
            return 1.0
        return statistics.fmean(self.samples) / REF_KERNEL_S
