"""Calibrated timing on a machine whose speed varies.

On a shared host the speed of the same pure-Python work can vary by 2x
from one second to the next, and wall and CPU time both follow it.  A
``SpeedProbe`` samples that speed while a job runs: every INTERVAL_S
seconds a SIGALRM handler times a fixed unit of sparse-polynomial
arithmetic written here (it shares no code with ``arrmono``, so a faster
package cannot make it faster).  ``timed`` removes the probe's own time from
a call and converts what is left to seconds on a machine where the unit
takes UNIT_S, using the (trimmed) mean unit time sampled during and around
the call.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.02
UNIT_S = 0.0012

_rng = random.Random(0)
_UNIT_POLY = {tuple(_rng.randint(0, 2) for _ in range(4)): Fraction(_rng.randint(-9, 9), _rng.randint(1, 5))
              for _ in range(6)}


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            c = out.get(e, 0) + ca * cb
            if c:
                out[e] = c
            else:
                out.pop(e, None)
    return out


def unit_seconds() -> float:
    """Time of one calibration unit: a cube of a fixed rational polynomial."""
    start = time.perf_counter()
    _poly_mul(_poly_mul(_UNIT_POLY, _UNIT_POLY), _UNIT_POLY)
    return time.perf_counter() - start


def trimmed_mean(xs: list[float]) -> float:
    """Mean without the lowest and highest fifth.  A unit that the host
    preempts can take several times its usual time; that costs the job the
    same few milliseconds, but would weigh heavily in a plain mean of short
    units."""
    xs = sorted(xs)
    k = len(xs) // 5
    return statistics.mean(xs[k:len(xs) - k])


class SpeedProbe:
    """Context manager that samples the machine's speed while it is open."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _tick(self, signum, frame):
        self.samples.append(unit_seconds())

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def timed(self, fn, *args):
        """Call fn(*args); return (result, raw seconds, calibrated seconds).
        Raw seconds exclude the probe's own samples taken during the call."""
        before = len(self.samples)
        self.samples.append(unit_seconds())
        first = len(self.samples)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            elapsed = time.perf_counter() - start
            last = len(self.samples)
        self.samples.append(unit_seconds())
        raw = elapsed - sum(self.samples[first:last])
        return result, raw, raw * UNIT_S / trimmed_mean(self.samples[before:])
