"""Host-speed reference: a fixed pure-Python kernel timed inside the run.

Each vCPU of the host runs at one of a few speeds that change every second
or so, independently per CPU; pure-Python work is up to 1.85x slower in the
slow state (see NOTES.md).  So every process that is timed runs a short
fixed kernel, which never calls bacforge, from a SIGALRM handler every
``INTERVAL_S`` of wall time: the kernel samples the speed of the CPU the
process is on, also in the middle of a long op.  An op's time at the
reference speed is its wall time, less the kernel time inside it, times
``KERNEL_NOMINAL_S`` over the trimmed mean kernel time during the op (or
around it, for ops shorter than a few intervals).

A change to bacforge cannot move the kernel, so a faster or slower program
moves the scaled metrics just as much as the raw ones, which stay in the
details line.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time

# kernel time on the reference host (2-vCPU Intel Xeon VM, Python 3.11.7)
# in the fast state of its CPUs
KERNEL_NOMINAL_S = 160e-6
INTERVAL_S = 0.01
# an op with fewer samples than this inside it takes the nearest ones
MIN_SAMPLES = 9


# the kernel's data, built once: L2-sized, like the package's code tables
VECTORS = tuple(tuple((i * 7 + j * 3) % 5 for j in range(64)) for i in range(40))
ROWS = tuple([(i * j) % 97 for j in range(50)] for i in range(400))


def kernel() -> int:
    """Generator expressions, zip and sum over tuples of small ints, list
    slices and sets: the mix of the package's pure-Python field arithmetic,
    search and planning.  (Of the kernels tried, this one's time followed
    the package's ops most closely as the host changed speed.)"""
    acc = 0
    for v in VECTORS[::4]:
        w = tuple(x * 3 % 5 for x in v)
        acc += sum(a * b for a, b in zip(v, w)) % 5
    for row in ROWS[::12]:
        acc += sum(row[::2]) + len({x for x in row[:20]})
    return acc


def trimmed_mean(xs: list) -> float:
    """Mean without the top and bottom tenth: a sample the scheduler
    preempted must not count, a change of speed during the op must."""
    xs = sorted(xs)
    cut = len(xs) // 10
    kept = xs[cut:len(xs) - cut]
    return sum(kept) / len(kept)


def at_reference(wall: float, summary: dict) -> float:
    """A whole process's wall time at the reference speed, from the
    ``Samples.summary`` it reported."""
    return (wall - summary["total_s"]) * KERNEL_NOMINAL_S / summary["trimmed_mean_s"]


class Samples:
    """Kernel samples of one process, in time order: midpoints on the
    ``perf_counter`` clock and durations."""

    def __init__(self):
        self.times: list = []
        self.durations: list = []

    def _tick(self, signum=None, frame=None) -> None:
        # the kernel's garbage is acyclic; with the collector off its time
        # does not depend on the size of the program's heap
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        if enabled:
            gc.enable()
        self.times.append((t0 + t1) / 2)
        self.durations.append(t1 - t0)

    def start(self) -> None:
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()

    def scaled(self, start: float, wall: float) -> float:
        """The time of an op that ran from ``start`` for ``wall`` seconds,
        at the reference speed."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, start + wall)
        inside = sum(self.durations[lo:hi])
        if hi - lo < MIN_SAMPLES:
            lo = max(0, min(lo - MIN_SAMPLES // 2, len(self.times) - MIN_SAMPLES))
            hi = lo + MIN_SAMPLES
        return (wall - inside) * KERNEL_NOMINAL_S / trimmed_mean(self.durations[lo:hi])

    def summary(self) -> dict:
        return {"count": len(self.durations), "total_s": sum(self.durations),
                "trimmed_mean_s": trimmed_mean(self.durations)}
