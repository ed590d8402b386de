"""The host's speed, measured alongside the workload.

On a shared host the same code runs up to 1.45x slower for spells of
seconds to minutes: on the 2-vCPU virtual machine the benchmark was tuned
on, a fixed Fraction loop took 15-16 ms and 22-25 ms by turns, with CPU time
equal to wall time, so the core itself was slower.  No run length averages
that out.  Interpreted Python code slows most; numpy's compiled loops less.

So while a Python-level operation runs, a timer interrupts it every TICK_S
to time the fixed kernel below, which is not part of the program; the
kernel's time is taken out of the operation's.  A time T of such operations
is also given at the reference speed:

    T_ref = T * REF_KERNEL_S / median(the run's kernel times)

A change to the program moves T and not the kernel, so it moves T_ref by
the same share.  The kernel and the program do not slow by quite the same
factor, so this takes out part of the drift, not all: on the tuning host it
took the call-to-call spread of q_decomp over seven minutes from 6-9% to
5%, and that of the verify and exact commands from 3-11% to 2-3%.  The
kernel does not track numpy's loops, so Monte Carlo operations are not
scaled.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction

REF_KERNEL_S = 0.0105    # the kernel on the tuning host at its faster speed
TICK_S = 0.3             # so the kernel takes about 5% of the time


def kernel() -> float:
    """Python-level work like the program's: sums and comparisons of small
    fractions, and a float loop that calls a function at each node."""
    def f(x):
        return x * x * (1.0 - x) + 0.5 * x

    below = 0
    for i in range(1500):
        x = Fraction(i % 13 + 1, i % 17 + 1) + Fraction(i % 5 + 1, i % 3 + 1)
        below += x < 2
    s = 0.0
    for i in range(15000):
        s += 0.25 * f(0.5 + 0.001 * (i % 97))
    return s + below


def kernel_times(reps: int) -> list[float]:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return times


def scale(times: list[float]) -> float:
    """The factor that takes a time measured among these kernel runs to the
    reference speed; 1 when the kernel never ran."""
    return REF_KERNEL_S / statistics.median(times) if times else 1.0


class Speedometer:
    """The kernel times of one run, and the time spent on them."""

    def __init__(self):
        self.times: list[float] = []
        self.paused = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.times.append(t1 - t0)
        self.paused += time.perf_counter() - t0

    @contextmanager
    def sampling(self):
        """Time the kernel every TICK_S while the block runs in the main
        thread."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self) -> float:
        return scale(self.times)
