"""Host speed probe: scales plain seconds to reference seconds.

The CPU speed of a shared host drifts by tens of percent over seconds to
minutes (other tenants contend for the cores and caches), which swamps
library changes of that size.  A pass therefore times a fixed calibration
mix before its first request, every ``PERIOD_S`` of wall time (from a
SIGALRM handler, between two bytecodes of whatever runs) and after its last
request.  Time spent in the handler is excluded from request latencies.
Multiplying plain seconds by ``REFERENCE_S / mean(samples)`` gives reference
seconds: the time the pass would have taken had the mix run in exactly
``REFERENCE_S``.

The mix imitates the library's work (tuple-keyed dict updates with
big-integer products, a sparse polynomial product, Fraction arithmetic,
and random access into a dict of about a megabyte) but never touches
qtmoments, so no library change can move the scale.
"""

from __future__ import annotations

import random
import signal
import time
from fractions import Fraction

REFERENCE_S = 0.010  # duration of one calibration mix that defines a reference second
PERIOD_S = 0.5

_rng = random.Random(20250812)
_POLY_A = {tuple(_rng.randrange(12) for _ in range(3)) + (0, 0, 0): _rng.randrange(1, 10**12)
           for _ in range(60)}
_POLY_B = {tuple(_rng.randrange(12) for _ in range(3)) + (0, 0, 0): _rng.randrange(1, 10**12)
           for _ in range(60)}
_BIG = {(_rng.randrange(1000), _rng.randrange(1000)): 0 for _ in range(10_000)}
_BIG_KEYS = _rng.choices(sorted(_BIG), k=8_000)


def calibration_s() -> float:
    """Run the calibration mix once; returns its duration in seconds."""
    t0 = time.perf_counter()
    acc: dict = {}
    for i in range(7_500):
        key = (i & 63, (i >> 6) & 15)
        acc[key] = acc.get(key, 0) + (i | 1) * 12345678901234567
    product: dict = {}
    for ma, ca in _POLY_A.items():
        for mb, cb in _POLY_B.items():
            mono = tuple(x + y for x, y in zip(ma, mb))
            product[mono] = product.get(mono, 0) + ca * cb
    total, q = Fraction(0), Fraction(1, 3)
    for i in range(1, 400):
        total += q ** (i % 7) * Fraction(i, i + 1)
    for key in _BIG_KEYS:
        _BIG[key] += 1
    return time.perf_counter() - t0


class SpeedProbe:
    """Calibration samples of one pass, plus the time they took."""

    def __init__(self):
        self.samples: list = []
        self.paused_s = 0.0
        self._busy = False

    def sample(self) -> None:
        self._busy = True
        elapsed = calibration_s()
        self.samples.append(elapsed)
        self.paused_s += elapsed
        self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:  # an alarm during a sample would count its time twice
            self.sample()

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.sample()

    def scale(self) -> float:
        """Reference seconds per plain second over the probed stretch."""
        return REFERENCE_S * len(self.samples) / sum(self.samples)
