"""The machine's speed, sampled while the ops run, to normalise op times.

The CPU this benchmark runs on changes speed while it runs: a fixed
pure-Python loop takes 1.0x to 1.5x its fastest time, in phases of a few
seconds to several minutes, and process CPU time follows wall time.  An op's
time in seconds then says as much about when it ran as about the program.

A probe runs a fixed reference task (small-integer arithmetic, ``Fraction``
sums and big-integer products: stdlib code only, none of the package's)
every ``INTERVAL_S`` seconds while it is on, and records when each run
began and how long it took.  :meth:`Samples.in_reference_units` divides an
op's time by the mean duration of the reference runs that began during the
op, or, for an op too short to hold ``MIN_SAMPLES`` of them, of the ones
nearest to it.  The result is the op's time in reference units ("ref"): how
many runs of the reference task the machine could have done in the time the
op took.  A phase that slows both by the same share cancels out of it.

Both probes run the task on the CPU the ops run on, and the time it takes
inside an op is subtracted from the op's time.  Each workload names the one
that tracks it best:

* :class:`InlineProbe` runs the task from a ``SIGALRM`` interval timer, in
  the thread that runs the ops.  The handler runs only between Python
  bytecodes, so it cannot sample during a long call into C code.
* :class:`PinnedThreadProbe` runs the task from a second thread, and holds
  that thread and the one that runs the ops to one CPU while it is on.  It keeps
  sampling while the ops are inside a C call that releases the GIL, such as
  the sparse LU factorisation of a 4096-state system.  On pure-Python ops
  the two threads hand the GIL back and forth, which adds noise; there the
  inline probe tracks better.
"""

from __future__ import annotations

import bisect
import contextlib
import os
import signal
import statistics
import threading
import time
from fractions import Fraction

INTERVAL_S = 0.05
MIN_SAMPLES = 8


def reference_task() -> int:
    """About 1.5-2 ms of fixed work on a 2.1 GHz Xeon vCPU."""
    total = 0
    for i in range(6000):
        total += i * i % 7
    harmonic = Fraction(0)
    for i in range(1, 80):
        harmonic += Fraction(1, i)
    a, b = 3**3000, 7**2500
    for _ in range(20):
        total += a * b % 1_000_003
    return total + harmonic.denominator % 7


class Samples:
    """Reference-task runs: start times (``perf_counter``) and durations."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.spent = 0.0  # seconds of reference runs, all taken from the ops' CPU

    def reference_seconds(self, start: float, end: float) -> float:
        """Mean reference-task duration over ``[start, end]``.

        Takes the runs that began in the interval, or the ``MIN_SAMPLES``
        nearest to it if fewer began there.
        """
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.starts)):
            before = start - self.starts[lo - 1] if lo > 0 else float("inf")
            after = self.starts[hi] - end if hi < len(self.starts) else float("inf")
            if before <= after:
                lo -= 1
            else:
                hi += 1
        if hi == lo:
            raise RuntimeError("no reference samples were taken")
        return statistics.fmean(self.durations[lo:hi])

    def in_reference_units(self, seconds: float, start: float, end: float) -> float:
        return seconds / self.reference_seconds(start, end)


class InlineProbe(Samples):
    """Samples in the workload process, from a timer signal."""

    def __init__(self) -> None:
        super().__init__()
        self._running = False
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        if self._running:  # a signal that arrives inside the handler
            return
        self._running = True
        started = time.perf_counter()
        reference_task()
        seconds = time.perf_counter() - started
        self.starts.append(started)
        self.durations.append(seconds)
        self.spent += seconds
        self._running = False

    @contextlib.contextmanager
    def on(self):
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)

    @contextlib.contextmanager
    def off(self):
        """Stops sampling inside :meth:`on`, while another process needs the CPU."""
        _, interval = signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            yield self
        finally:
            if interval:
                signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, interval)


class PinnedThreadProbe(Samples):
    """Samples from a thread, with the ops' thread and its own held to one CPU.

    ``off`` lets the ops' thread use every CPU again, so that worker
    processes it starts are not held to one.
    """

    def __init__(self) -> None:
        super().__init__()
        self._sampling = threading.Event()
        self._stop = threading.Event()
        self._cpus = os.sched_getaffinity(0)

    def _loop(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self._sampling.wait()
            if self._stop.is_set():
                break
            started = time.perf_counter()
            reference_task()
            seconds = time.perf_counter() - started
            self.starts.append(started)
            self.durations.append(seconds)
            self.spent += seconds

    @contextlib.contextmanager
    def on(self):
        os.sched_setaffinity(0, {min(self._cpus)})
        thread = threading.Thread(target=self._loop, daemon=True)
        self._sampling.set()
        thread.start()
        try:
            yield self
        finally:
            self._stop.set()
            self._sampling.set()
            thread.join()
            os.sched_setaffinity(0, self._cpus)

    @contextlib.contextmanager
    def off(self):
        """Stops sampling inside :meth:`on`, while another process needs the CPU."""
        self._sampling.clear()
        os.sched_setaffinity(0, self._cpus)
        try:
            yield self
        finally:
            os.sched_setaffinity(0, {min(self._cpus)})
            self._sampling.set()
