"""Host-speed calibration.

On a shared host the same CLI call can take twice as long for seconds
at a time while other tenants are busy.  A fixed piece of pure Python
work, timed right before and after each timed unit, slows down with it;
dividing a unit's time by the calibration's relative slowness removes
much of that drift.  The work is an edit-distance table over short
words, the same kind of interpreter work as the package's hot loops, so
that contention slows both alike.  Timings the benchmark reports are
expressed at the reference speed: what a call would take on a host where
the calibration runs in ``REFERENCE_S`` seconds.
"""

from __future__ import annotations

from time import perf_counter

# About the calibration's time on a quiet 2-CPU x86-64 host, Python 3.11.
REFERENCE_S = 0.014

_WORDS = ("improves", "evaluates", "accuracy", "rewrites", "sentences", "practice", "margin", "produces")


def _distance(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def calibrate() -> float:
    """Seconds taken by a fixed batch of edit-distance tables."""
    start = perf_counter()
    total = 0
    for _ in range(10):
        for a in _WORDS:
            for b in _WORDS:
                total += _distance(a, b)
    if total != 3820:  # keep the result live, and the work fixed
        raise AssertionError(f"calibration computed {total}")
    return perf_counter() - start
