"""Host-speed probe: time measured on a reference clock that slows with the host.

This benchmark runs on a small VM whose physical cores are shared with
other tenants.  Their load slows every CPU-bound program by up to 2x, in
episodes that last from a fraction of a second to minutes, so raw wall
times of the same code spread by 20-30% from run to run.  The slowdown is
host-wide: a pure-Python loop on the VM's other CPU slows along with a
`radsob` process on the first one (correlation 0.87 over ten-second
invocations on the 2-vCPU Xeon VM where this was tuned).

So a probe process, pinned to one CPU, repeats a fixed unit of work (an
adaptive Simpson integral in pure Python, the same kind of work as radsob's
quadrature) and counts the units it completes in shared memory.  The
runner and the programs it times are kept on the other CPUs.  The number
of units completed while a program runs, times UNIT_S, is that program's
duration in probe-seconds: its wall time rescaled to the host speed at
which one unit takes UNIT_S.  UNIT_S is about the unit's duration on that
VM when it is not contended, so probe-seconds read close to seconds there.

Part of the slowdown belongs to one CPU only, and lasts for minutes (the
other tenant on its physical core).  So the probe and the programs swap
CPUs from one program to the next (`place`): over a run each CPU's own
slowdown then enters both sides of the ratio about equally.

With fewer than two CPUs there is no CPU to spare for the probe; times are
then plain seconds, and `Probe.active` is False.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time

UNIT_S = 3.5e-4
# Units between checks that the runner is still alive.
CHECK_EVERY = 100


def _integrand(x: float) -> float:
    return math.exp(-x * x) * math.cos(3.0 * x) / (1.0 + x * x)


def _simpson(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth == 0 or abs(left + right - whole) <= 15.0 * tol:
        return left + right
    return (_simpson(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1)
            + _simpson(f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1))


def unit() -> float:
    """One fixed unit of work: the same integral, to the same tolerance."""
    a, b = 0.0, 4.0
    fa, fm, fb = _integrand(a), _integrand(0.5 * (a + b)), _integrand(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson(_integrand, a, b, fa, fm, fb, whole, 1e-9, 30)


def _loop(counter, parent: int) -> None:
    while os.getppid() == parent:
        for _ in range(CHECK_EVERY):
            unit()
            counter.value += 1


class Probe:
    """Context manager: starts the probe process and stops it on every exit."""

    def __init__(self, enabled: bool = True):
        self._cpus = sorted(os.sched_getaffinity(0))
        self.active = enabled and len(self._cpus) >= 2
        self._ctx = multiprocessing.get_context("fork")
        self._counter = self._ctx.RawValue("Q", 0)
        self._process = None

    def __enter__(self) -> "Probe":
        if self.active:
            self._process = self._ctx.Process(
                target=_loop, args=(self._counter, os.getpid()), daemon=True
            )
            self._process.start()
            self.place(0)
            # Warm-up: wait for the first full batch before anything is timed.
            while self._counter.value < CHECK_EVERY and self._process.is_alive():
                time.sleep(0.01)
            if not self._process.is_alive():
                raise RuntimeError("host-speed probe exited during warm-up")
        return self

    def __exit__(self, *exc) -> None:
        if self._process is not None:
            self._process.terminate()
            self._process.join()
            self._process = None

    def place(self, turn: int) -> "Probe":
        """Give the probe CPU number `turn` (mod 2) and the runner, with every
        program it starts from now on, the other CPUs."""
        if self.active:
            cpu = self._cpus[turn % 2]
            os.sched_setaffinity(self._process.pid, {cpu})
            os.sched_setaffinity(0, set(self._cpus) - {cpu})
        return self

    def mark(self) -> tuple:
        """A point in time on both clocks: (perf_counter, units done)."""
        return time.perf_counter(), self._counter.value

    def seconds(self, start: tuple, end: tuple) -> float:
        """Probe-seconds between two marks (plain seconds without a probe)."""
        if not self.active:
            return end[0] - start[0]
        return (end[1] - start[1]) * UNIT_S
