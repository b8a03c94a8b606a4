"""A fixed probe of the machine's speed, to take host drift out of timings.

On a shared host the same certify call can run 30 % slower for a minute at
a time, and that drift moves whole runs, so neither more samples nor
percentiles remove it.  The benchmark therefore times this probe before an
instance, at most once a second, and rescales each measured time to the
probe's reference speed:

    reported = measured * REFERENCE_S / (median of the nearest probes)

The probe uses no rootsos code.  It does the kinds of work the certifier
does, in equal shares of time: interpreter-bound arithmetic on small
numbers (mpmath, short `Fraction`s) and big-integer `Fraction` arithmetic.
Host drift slowed the first kind by up to twice as much as the second, so a
probe of either kind alone over- or under-corrects the workloads made of
the other.  A change to rootsos does not touch the probe, so the reported
times move with it exactly as the measured ones do.  The unscaled
percentiles are printed next to the scaled ones.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import mpmath

# a fixed reference, about the probe's time on the machine the benchmark was
# sized on (2 vCPUs, Python 3.11.7, mpmath's pure-Python backend)
REFERENCE_S = 0.1

_rng = random.Random(0)
_FRACTIONS = [Fraction(_rng.getrandbits(90), _rng.getrandbits(60) | 1) for _ in range(24)]
_FLOATS = [mpmath.mpf(_rng.random()) for _ in range(24)]
_BIG_FRACTIONS = [Fraction(_rng.getrandbits(1500), _rng.getrandbits(1200) | 1)
                  for _ in range(12)]


def _convolve(values) -> list[Fraction]:
    out = [Fraction(0)] * (2 * len(values) - 1)
    for i, x in enumerate(values):
        for j, y in enumerate(values):
            out[i + j] += x * y
    return out


def probe() -> float:
    """Seconds taken by a fixed piece of work (REFERENCE_S at reference speed)."""
    start = time.perf_counter()
    for _ in range(2):
        _convolve(_FRACTIONS)
        _convolve(_BIG_FRACTIONS)
    with mpmath.workprec(212):
        acc = mpmath.mpf(0)
        for _ in range(12):
            for x in _FLOATS:
                for y in _FLOATS:
                    acc += x * y / (1 + y)
    return time.perf_counter() - start
