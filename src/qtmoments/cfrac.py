"""Continued-fraction view of the moment sequences.

A finite-depth J-fraction

    1 / (1 - b_0 z - lam_1 z^2 / (1 - b_1 z - lam_2 z^2 / ( ... )))

with b_n and lam_n taken from Jacobi data reproduces the moment generating
series: the coefficient of z^n is the n-th moment.  A path that reaches depth h
and comes back spends at least 2h powers of z, so depth order // 2 already
pins every coefficient up to z^order; the default depth (order + 1) // 2 + 1
adds one spare level at even orders and two at odd ones.  The expansion
(orthopoly.jfraction_series_from_arrays) keeps only the coefficients of each
level that can still reach z^order.
"""

from __future__ import annotations

from .fock import _Record
from .orthopoly import JacobiParams, _jacobi_arrays, jfraction_series_from_arrays

__all__ = [
    "InsufficientDepth",
    "ContinuedFractionSpec",
    "cf_spec",
    "cf_series",
    "render_cf",
]


class InsufficientDepth(ValueError):
    """The requested series order can see below the truncation depth."""


class ContinuedFractionSpec(_Record):
    """Truncated J-fraction data: b holds b_0..b_depth, lam holds lam_1..lam_depth."""

    __slots__ = _fields = ("b", "lam")

    def __init__(self, b: tuple, lam: tuple):
        if len(b) != len(lam) + 1:
            raise ValueError("need exactly one more b entry than lam entries")
        object.__setattr__(self, "b", tuple(b))
        object.__setattr__(self, "lam", tuple(lam))

    @property
    def depth(self) -> int:
        return len(self.lam)


def cf_spec(j: JacobiParams, depth: int) -> ContinuedFractionSpec:
    """Truncate the J-fraction of the Jacobi data at the given depth (>= 1)."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    b, lam = _jacobi_arrays(j, depth)
    return ContinuedFractionSpec(b, lam)


def cf_series(spec: ContinuedFractionSpec, order: int) -> list:
    """Series coefficients z^0..z^order of the truncated fraction.

    Independent of the truncation depth once depth >= order // 2; shallower
    truncations would silently drop reachable levels, so they raise.
    """
    needed = order // 2
    if spec.depth < needed:
        raise InsufficientDepth(f"order {order} needs depth >= {needed}, got {spec.depth}")
    return jfraction_series_from_arrays(list(spec.b), list(spec.lam), order)


def render_cf(spec: ContinuedFractionSpec) -> str:
    """The truncated fraction as nested text, one level per line."""
    lines = ["1 /"]
    for h in range(spec.depth + 1):
        indent = "  " * (h + 1)
        b_str = str(spec.b[h])
        if h < spec.depth:
            lam_str = str(spec.lam[h])
            lines.append(f"{indent}(1 - ({b_str}) z - ({lam_str}) z^2 /")
        else:
            lines.append(f"{indent}(1 - ({b_str}) z" + ")" * (spec.depth + 1))
    return "\n".join(lines)
