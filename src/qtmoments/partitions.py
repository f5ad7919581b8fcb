"""Set partitions of {1..n}, their crossing/nesting statistics, and the
partition-sum moment formula.

A partition is stored as a restricted growth string (rgs): entry k is the
block index of element k+1, blocks numbered 0,1,... in order of first
appearance.  Enumeration is in lexicographic rgs order, which is deterministic.

Statistics are computed on the arc diagram: each block {b1 < b2 < ... < bm}
contributes the arcs (b1,b2), ..., (b_{m-1},b_m).  For arcs (a,c) and (b,d)
with a < b:

  * crossing:  a < b < c < d   (the arcs properly cross)
  * nesting:   a < b < d < c   (the second arc sits strictly inside the first)

Two nesting conventions are shipped, because the quadruple definition above
and the closed moment tables in circulation disagree on singletons.  Each is
named by the operator gauge it matches (:class:`qtmoments.fock.ScalarGauge`):

  * IDENTITY  (strict)  counts nesting arc pairs only;
  * T_POWER_N (covered) additionally counts every pair (arc (a,c),
                        singleton e) with a < e < c.

IDENTITY is the scalar part lambda*1 (third moment
lambda^3 + 3*lambda^2 + lambda); T_POWER_N is the scalar part lambda*t^N and
reproduces the closed tables (third moment lambda^3 + (2+t)*lambda^2 + lambda).

Per partition the statistics come from one left-to-right sweep over the rgs
(:func:`_statistics`); the moment sum carries them down the rgs search
instead (:func:`_weight_census`).
"""

from __future__ import annotations

import warnings
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator, Sequence

from .fock import ScalarGauge
from .ring import Poly

__all__ = [
    "SetPartition",
    "enumerate_partitions",
    "restricted_crossings",
    "restricted_nestings",
    "moment_by_partitions",
    "partition_record",
]

#: Above this size the Bell-number explosion makes enumeration impractical.
SOFT_LIMIT = 16


@dataclass(frozen=True)
class SetPartition:
    """A partition of {1..n} in restricted-growth-string form."""

    n: int
    rgs: tuple

    def __post_init__(self):
        if self.n < 1 or len(self.rgs) != self.n:
            raise ValueError("rgs length must equal n >= 1")
        top = -1
        for v in self.rgs:
            if v < 0 or v > top + 1:
                raise ValueError(f"not a restricted growth string: {self.rgs}")
            top = max(top, v)

    @classmethod
    def _trusted(cls, n: int, rgs: tuple) -> "SetPartition":
        """A partition from a growth string this library generated itself,
        built without the checks of ``__post_init__``."""
        p = object.__new__(cls)
        object.__setattr__(p, "n", n)
        object.__setattr__(p, "rgs", rgs)
        return p

    @classmethod
    def from_blocks(cls, blocks: Sequence[Sequence[int]]) -> "SetPartition":
        """Build from blocks given as iterables of 1-based elements."""
        elems = sorted(e for b in blocks for e in b)
        n = len(elems)
        if elems != list(range(1, n + 1)):
            raise ValueError("blocks must partition {1..n}")
        owner = {}
        for b in blocks:
            lead = min(b)
            for e in b:
                owner[e] = lead
        order = {}
        rgs = []
        for e in range(1, n + 1):
            lead = owner[e]
            if lead not in order:
                order[lead] = len(order)
            rgs.append(order[lead])
        return cls(n, tuple(rgs))

    @property
    def block_count(self) -> int:
        return max(self.rgs) + 1

    def blocks(self) -> list:
        out: list = [[] for _ in range(self.block_count)]
        for i, b in enumerate(self.rgs):
            out[b].append(i + 1)
        return out

    def __str__(self) -> str:
        return "{" + ", ".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks()) + "}"


def _statistics(rgs: Sequence[int]) -> tuple:
    """(blocks, crossings, strict nestings, covered-singleton pairs) of one rgs,
    in one left-to-right sweep.

    Element e joining the block ending at a closes the arc (a,e), which is
    compared once with each arc closed before it: a < a' is a nesting, and
    a' < a < c' a crossing.  The new arc covers the singletons so far above a;
    if a was one, the closed arcs covering it (those the new arc crosses) no
    longer cover a singleton.
    """
    last: list = []  # last element of each block
    closed: list = []  # closed arcs
    singles: list = []  # elements alone in their block so far, ascending
    rc = rn = cov = 0
    for e, b in enumerate(rgs, 1):
        if b == len(last):
            last.append(e)
            singles.append(e)
            continue
        a = last[b]
        last[b] = e
        crossed = 0
        for a1, c1 in closed:
            if a < a1:
                rn += 1
            elif a < c1:
                crossed += 1
        rc += crossed
        i = bisect_right(singles, a)
        cov += len(singles) - i
        if i and singles[i - 1] == a:
            cov -= crossed
            del singles[i - 1]
        closed.append((a, e))
    return len(last), rc, rn, cov


def _rgs_stream(n: int) -> Iterator[tuple]:
    """All restricted growth strings of length n, lex order."""
    # iterative DFS keeping lexicographic order; the last entry is expanded
    # in place rather than pushed
    stack = [((0,), 0)]
    while stack:
        cur, top = stack.pop()
        if len(cur) == n:
            yield cur
        elif len(cur) == n - 1:
            for v in range(top + 2):
                yield cur + (v,)
        else:
            stack.append((cur + (top + 1,), top + 1))
            for v in range(top, -1, -1):
                stack.append((cur + (v,), top))


def enumerate_partitions(n: int) -> Iterator[SetPartition]:
    """Every partition of {1..n} exactly once, in lexicographic rgs order."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > SOFT_LIMIT:
        warnings.warn(f"enumerating partitions of {n} elements (Bell-number blowup)")
    trusted = SetPartition._trusted
    for rgs in _rgs_stream(n):
        yield trusted(n, rgs)


def restricted_crossings(p: SetPartition) -> int:
    """Number of crossing arc pairs (a < b < c < d with arcs (a,c) and (b,d))."""
    return _statistics(p.rgs)[1]


def restricted_nestings(p: SetPartition, gauge: ScalarGauge = ScalarGauge.IDENTITY) -> int:
    """Number of nesting arc pairs; under T_POWER_N also the covered singletons."""
    _, _, rn, cov = _statistics(p.rgs)
    return rn + cov if gauge is ScalarGauge.T_POWER_N else rn


def _weight_census(n: int) -> dict:
    """Histogram {(blocks, crossings, strict nestings, covered-singleton pairs): count}
    over the partitions of {1..n}.

    Element e joining the block ending at a closes the arc (a,e).  Each closed
    arc (a',c') ends before e: a' < a < c' is a crossing, a < a' a nesting.
    The arc covers the singletons above a; if a was one, the closed arcs
    covering it (those the new arc crosses) no longer cover a singleton.
    """
    census: dict = {}
    last: list = []  # last element of each block
    arcs: list = []  # closed arcs

    def grow(e: int, rc: int, rn: int, cov: int, singles: tuple) -> None:
        if e > n:
            key = (len(last), rc, rn, cov)
            census[key] = census.get(key, 0) + 1
            return
        blocks = len(last)
        for b in range(blocks + 1):
            if b == blocks:
                last.append(e)
                grow(e + 1, rc, rn, cov, singles + (e,))
                last.pop()
                continue
            a = last[b]
            crossed = nested = 0
            for a2, c2 in arcs:
                if a2 > a:
                    nested += 1
                elif a < c2:
                    crossed += 1
            i = bisect_right(singles, a)
            covered = len(singles) - i
            rest = singles
            if i and singles[i - 1] == a:
                covered -= crossed
                rest = singles[: i - 1] + singles[i:]
            arcs.append((a, e))
            last[b] = e
            grow(e + 1, rc + crossed, rn + nested, cov + covered, rest)
            last[b] = a
            arcs.pop()

    grow(1, 0, 0, 0, ())
    return census


def _census_to_moment(census: dict, gauge: ScalarGauge) -> Poly:
    acc: dict = {}
    covered = gauge is ScalarGauge.T_POWER_N
    for (blocks, rc, rn, cov), count in census.items():
        key = (blocks, rc, rn + cov if covered else rn)
        acc[key] = acc.get(key, 0) + count
    return Poly.from_terms(
        (count, {"lambda": b, "q": rc, "t": rn})
        for (b, rc, rn), count in acc.items()
    )


def moment_by_partitions(n: int, gauge: ScalarGauge = ScalarGauge.IDENTITY) -> Poly:
    """The n-th moment as the partition sum of lambda^blocks q^rc t^rn."""
    if n < 1:
        raise ValueError("n must be positive")
    return _census_to_moment(_weight_census(n), gauge)


def partition_record(p: SetPartition) -> dict:
    """The JSON-line record used by the CLI listing."""
    blocks, rc, rn, cov = _statistics(p.rgs)
    return {
        "rgs": list(p.rgs),
        "blocks": blocks,
        "rc": rc,
        "rn_strict": rn,
        "rn_covered": rn + cov,
    }
