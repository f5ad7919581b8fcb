"""(q,t)-numbers and (q,t)-factorials.

The (q,t)-number of n is the homogeneous polynomial

    [n] = t^(n-1) + t^(n-2) q + ... + t q^(n-2) + q^(n-1)

(equivalently (t^n - q^n)/(t - q)), with [0] = 0.  It is built directly from
the sum form so everything stays inside the integer polynomial ring; the
quotient characterisation is checked as an identity in the tests instead of
being used as an algorithm.
"""

from __future__ import annotations

from functools import cache

from .ring import Poly

__all__ = ["qt_number", "qt_factorial"]


@cache
def qt_number(n: int) -> Poly:
    """The (q,t)-number [n] as a polynomial; [0] = 0, [1] = 1, [2] = t + q.

    Memoised: a Poly is immutable, so every caller may share the value.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    return Poly.from_terms(
        (1, {"t": n - k, "q": k - 1}) for k in range(1, n + 1)
    )


def qt_factorial(n: int) -> Poly:
    """The product [1][2]...[n]; the empty product for n = 0."""
    if n < 0:
        raise ValueError("n must be non-negative")
    out = Poly.one()
    for k in range(1, n + 1):
        out = out * qt_number(k)
    return out
