"""Timings at reference machine speed.

On the reference box an identical pure-Python loop takes anything from
40 to 240 ms from one call to the next, drifting over seconds: the CPU
itself runs faster or slower (process CPU time moves with wall time),
so raw wall times of the same commit differ by 30-40 % and no bound
below that could be checked.  The drift is slow and multiplicative,
which makes it measurable: a short fixed loop (:func:`speed_ms`, half
arithmetic and half set/dict traffic) is timed immediately before and after every stretch of timed work, and the
stretch's timings are scaled by ``REFERENCE_MS / mean(before, after)``.
Reported seconds are therefore *seconds at reference speed*; the raw
values travel with them in every repetition record, and
``runtime.spin_ms`` reports what the loop measured.
"""

from __future__ import annotations

from statistics import fmean, median
from time import perf_counter

#: what the loop takes on the reference box at its usual speed
REFERENCE_MS = 12.0

_KEYS = [(i * 7919) % 200003 for i in range(24000)]


def spin_ms():
    """Arithmetic, then tuple/set/dict traffic like the engine's own."""
    begin = perf_counter()
    x = 0
    for i in range(60_000):
        x += i * i % 7
    seen, index = set(), {}
    for key in _KEYS:
        row = (key, key + 1)
        if row not in seen:
            seen.add(row)
            index.setdefault(key & 1023, []).append(row)
    for key in _KEYS[::3]:
        x += len(index.get(key & 1023, ()))
    return (perf_counter() - begin) * 1000.0


def speed_ms():
    """Median of three loops: one descheduling does not skew it."""
    return median(spin_ms() for _ in range(3))


class Stopwatch:
    """Timing samples in segments, each bracketed by two speed checks."""

    def __init__(self):
        self.checks = [speed_ms()]
        self.samples = []  # (segment, kind, seconds)

    def add(self, kind, seconds):
        self.samples.append((len(self.checks) - 1, kind, seconds))

    def close_segment(self):
        self.checks.append(speed_ms())

    def factor(self, segment):
        return REFERENCE_MS / fmean(self.checks[segment:segment + 2])

    def seconds(self, kind, scaled=True):
        """The samples of one kind, in order."""
        return [
            value * (self.factor(segment) if scaled else 1.0)
            for segment, k, value in self.samples
            if k == kind
        ]
