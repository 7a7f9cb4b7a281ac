"""Machine-speed calibration for wall times measured on a shared, drifting machine.

On the shared 2-CPU machine the benchmark was tuned on, the speed of the
same Python code drifts between two states about 2x apart, in phases of
seconds to minutes.  A fixed unit of pure-Python work (``probe_unit``) is
timed five times before and after each measurement and every 0.2 s during
it, from a timer signal.  The probe time spent during the measurement is
subtracted from it, and the result is scaled by
``(REFERENCE_PROBE_S / median probe time) ** EXPONENT``.

The exponent is measured, not derived: in a slow phase the probe slows by
the full factor and the program by less.  Over five seeds per workload at
30 s a run, the run-to-run spread (interquartile range over median) of the
pass time was 4-22% raw; with this probe it was 4-12% with full scaling,
4-10% with the square root and 3-8% with the 0.75 power.  The probe never
runs program code, so a change to the program moves the calibrated time
exactly as it moves the wall time.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

# A typical probe time on the machine the benchmark was tuned on; it only
# sets the scale of the calibrated figures.
REFERENCE_PROBE_S = 0.006
# Share of the probe's slowdown that is taken out of a measured time.
EXPONENT = 0.75
# How often the probe interrupts a long measurement.
INTERVAL_S = 0.2


# Addition and multiplication tables of a 27-element commutative structure.
_N = 27
_ADD = [[(a + b) % _N for b in range(_N)] for a in range(_N)]
_MUL = [[(a * b) % _N if (a * b) % 3 else 0 for b in range(_N)] for a in range(_N)]
_MASSES = [(i % 7 + 1) / 8 for i in range(512)]


class _Edge:
    __slots__ = ("src", "dst")

    def __init__(self, src, dst):
        self.src = src
        self.dst = dst


_EDGES = tuple(_Edge(f"n{i}", f"n{i + 1}") for i in range(6000))
_KEYS = [f"n{k}" for k in range(0, 6000, 600)]


def probe_unit() -> int:
    """The fixed unit of work whose duration is the machine-speed sample.

    It runs the three kinds of inner loop the program runs: closures over
    small-integer tables with set membership tests, float arithmetic, and
    scans of a long tuple of small objects.  It keeps no memory, so its time
    does not depend on how much the process has allocated, and the
    collector is off while it runs, so a collection of the program's heap
    never lands in a sample.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        found = 0
        for g in range(1, 25):
            members = {0, g}
            changed = True
            while changed:
                changed = False
                for a in list(members):
                    for b in list(members):
                        x = _ADD[a][b]
                        if x not in members:
                            members.add(x)
                            changed = True
                for s in range(_N):
                    for a in list(members):
                        x = _MUL[s][a]
                        if x not in members:
                            members.add(x)
                            changed = True
            found += len(members)
        acc = 0.0
        for _ in range(8):
            p = 1.0
            for m in _MASSES:
                p = p * m + 0.5 * acc
                acc = acc * 0.5 + p
        for key in _KEYS:
            found += len([e for e in _EDGES if e.src == key])
        return found + int(acc > 0)
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Collects probe samples around and, by a timer signal, during a measurement."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent_s = 0.0  # time the timer-driven probes took inside the measurement

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            t0 = time.perf_counter()
            probe_unit()
            self.samples.append(time.perf_counter() - t0)

    def _on_timer(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        self.sample()
        self.spent_s += time.perf_counter() - t0

    def measure(self, fn, *args):
        """Run ``fn`` with probes before, during and after; return (result, wall time without probes)."""
        self.sample(5)
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            # A probe still pending runs before this line, so it is inside both figures.
            wall = time.perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)
        self.sample(5)
        return result, wall - self.spent_s

    def calibrated(self, wall_s: float) -> float:
        return wall_s * (REFERENCE_PROBE_S / statistics.median(self.samples)) ** EXPONENT
