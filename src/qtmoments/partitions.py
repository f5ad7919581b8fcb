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

The listing (:func:`enumerate_partitions`) carries the statistics down the
rgs search, closing each new arc against the arcs closed before it; a
partition built by hand gets them from one left-to-right sweep
(:func:`_statistics`).  The moment sum (:func:`_weight_census`) carries
more: each open block holds what joining the next element to it would add,
so a join scans no arcs.  One census serves both conventions, so each n is
walked once per process.
"""

from __future__ import annotations

import warnings
from bisect import bisect_right
from collections import Counter
from functools import cache, cached_property
from typing import Iterator, Sequence

from .fock import ScalarGauge, _covered, _Record
from .ring import Poly, _monomial_key, _wrap

__all__ = [
    "SetPartition",
    "enumerate_partitions",
    "moment_by_partitions",
    "partition_record",
]

#: Above this size the Bell-number explosion makes enumeration impractical.
SOFT_LIMIT = 16


class SetPartition(_Record):
    """A partition of {1..n}, n = len(rgs), in restricted-growth-string form."""

    # no __slots__: the fields and the cached statistics live in __dict__
    _fields = ("rgs",)

    def __init__(self, rgs: Sequence[int]):
        rgs = tuple(rgs)
        if not rgs:
            raise ValueError("a partition needs at least one element")
        top = -1
        for v in rgs:
            if v < 0 or v > top + 1:
                raise ValueError(f"not a restricted growth string: {rgs}")
            top = max(top, v)
        self.__dict__["rgs"] = rgs

    @classmethod
    def _trusted(cls, rgs: tuple, statistics: tuple | None = None) -> "SetPartition":
        """A partition from a growth string this library generated itself,
        built without the checks of ``__init__``, with its
        :attr:`statistics` if the caller already knows them."""
        p = object.__new__(cls)
        fields = p.__dict__
        fields["rgs"] = rgs
        if statistics is not None:
            fields["statistics"] = statistics
        return p

    @cached_property
    def statistics(self) -> tuple:
        """(blocks, crossings, strict nestings, covered-singleton pairs)."""
        return _statistics(self.rgs)

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


def _join(a: int, arcs: Sequence, singles: tuple) -> tuple:
    """Close the arc (a,e) after the closed ``arcs``, which all end before e:
    (crossings, nestings, covered singletons, singletons left).

    A closed arc (a',c') with a' < a < c' is crossed and one with a < a' is
    nested.  The new arc covers the singletons above a; if a was one, the
    closed arcs covering it (those the new arc crosses) no longer cover a
    singleton.
    """
    crossed = nested = 0
    for a1, c1 in arcs:
        if a < a1:
            nested += 1
        elif a < c1:
            crossed += 1
    i = bisect_right(singles, a)
    covered = len(singles) - i
    if i and singles[i - 1] == a:
        covered -= crossed
        singles = singles[: i - 1] + singles[i:]
    return crossed, nested, covered, singles


def _statistics(rgs: Sequence[int]) -> tuple:
    """(blocks, crossings, strict nestings, covered-singleton pairs) of one rgs,
    in one left-to-right sweep."""
    last: list = []  # last element of each block
    arcs: list = []  # closed arcs
    singles: tuple = ()  # elements alone in their block so far, ascending
    rc = rn = cov = 0
    for e, b in enumerate(rgs, 1):
        if b == len(last):
            last.append(e)
            singles += (e,)
            continue
        crossed, nested, covered, singles = _join(last[b], arcs, singles)
        rc, rn, cov = rc + crossed, rn + nested, cov + covered
        arcs.append((last[b], e))
        last[b] = e
    return len(last), rc, rn, cov


def enumerate_partitions(n: int) -> Iterator[SetPartition]:
    """Every partition of {1..n} exactly once, in lexicographic rgs order,
    each carrying the :attr:`~SetPartition.statistics` its search path built."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > SOFT_LIMIT:
        warnings.warn(f"enumerating partitions of {n} elements (Bell-number blowup)")
    trusted = SetPartition._trusted
    # a node is (rgs, last element of each block, closed arcs, singletons, rc, rn, cov);
    # children are pushed in reverse so they pop in lex order, and the choices
    # for element n are yielded in place rather than pushed
    stack = [((), (), (), (), 0, 0, 0)]
    while stack:
        rgs, last, arcs, singles, rc, rn, cov = stack.pop()
        e = len(rgs) + 1
        blocks = len(last)
        if e == n:
            for b, a in enumerate(last):
                crossed = nested = 0
                for a2, c2 in arcs:
                    if a2 > a:
                        nested += 1
                    elif a < c2:
                        crossed += 1
                i = bisect_right(singles, a)
                covered = len(singles) - i
                if i and singles[i - 1] == a:
                    covered -= crossed
                yield trusted(rgs + (b,), (blocks, rc + crossed, rn + nested, cov + covered))
            yield trusted(rgs + (blocks,), (blocks + 1, rc, rn, cov))
            continue
        stack.append((rgs + (blocks,), last + (e,), arcs, singles + (e,), rc, rn, cov))
        for b in range(blocks - 1, -1, -1):
            a = last[b]
            crossed, nested, covered, rest = _join(a, arcs, singles)
            stack.append((rgs + (b,), last[:b] + (e,) + last[b + 1:], arcs + ((a, e),),
                          rest, rc + crossed, rn + nested, cov + covered))


def _weight_census(n: int) -> dict:
    """Histogram {(blocks, crossings, strict nestings, covered-singleton pairs): count}
    over the partitions of {1..n}.

    A path packs its statistics into one int key, in fields ``w`` bits wide:
    covered singletons lowest, then nestings, crossings and blocks.  Every
    total is below n*n < 2**w, and fields are only added, so an int whose
    covered part is negative just borrows from the field above.  The open
    blocks are kept in the order of their last elements, and each carries in
    ``ds`` what joining the next element to it adds to the key.  Closing the
    arc (a,e) from block i nests it inside every later arc from a block below
    i and crosses every one from a block above i; a singleton above i is now
    covered by the arc, which a later join of it takes back (``incs``, a new
    arc's cost to each block: ``crs - 1`` for a singleton), and if block i was
    a singleton, the blocks below it lose a covered singleton.  No closed arc
    is scanned.  The node above the leaves counts element n's choices in
    place, still one by one per partition.
    """
    w = (n * n).bit_length()
    nst, crs, blk = 1 << w, 1 << 2 * w, 1 << 3 * w
    counts = Counter({blk: 1} if n == 1 else ())

    def grow(e: int, key: int, ds: list, incs: list) -> None:
        up = [d + c for d, c in zip(ds, incs)]  # each block after an arc from below it
        if e == n - 1:
            keys = []
            for i, d in enumerate(ds):
                k = key + d
                lo = k + incs[i] + nst - crs
                keys += [lo + x for x in ds[:i]]
                keys += [k + u for u in up[i + 1:]]
                keys += (k, k + blk)  # n joins e, or opens a block
            k = key + blk  # e opens a block, a singleton above every other one
            keys += [k + 1 + x for x in ds]
            keys += (k, k + blk)
            counts.update(keys)
            return
        for i, d in enumerate(ds):
            lo = incs[i] + nst - crs
            grow(e + 1, key + d, [lo + x for x in ds[:i]] + up[i + 1:] + [0],
                 incs[:i] + incs[i + 1:] + [crs])
        grow(e + 1, key + blk, [d + 1 for d in ds] + [0], incs + [crs - 1])

    if n > 1:
        grow(1, 0, [], [])
    m = nst - 1
    return {(k >> 3 * w, k >> 2 * w & m, k >> w & m, k & m): c for k, c in counts.items()}


def _histogram_moments(histogram: dict) -> tuple:
    """(strict, covered) moments from {(blocks, q-exponent, strict t-exponent,
    covered-singleton t-exponent): count > 0}; only the covered one adds the last."""
    strict: dict = {}
    covered: dict = {}
    for (b, qe, te, cov), count in histogram.items():
        key = _monomial_key(b, te, qe)
        strict[key] = strict.get(key, 0) + count
        key = _monomial_key(b, te + cov, qe)
        covered[key] = covered.get(key, 0) + count
    return _wrap(strict), _wrap(covered)


@cache
def _partition_moments(n: int) -> tuple:
    return _histogram_moments(_weight_census(n))


def moment_by_partitions(n: int, gauge: ScalarGauge = ScalarGauge.IDENTITY) -> Poly:
    """The n-th moment as the partition sum of lambda^blocks q^rc t^rn; the
    census of each n is taken once and serves both conventions."""
    covered = _covered(gauge)
    if n < 1:
        raise ValueError("n must be positive")
    return _partition_moments(n)[covered]


def partition_record(p: SetPartition) -> dict:
    """The JSON-line record used by the CLI listing."""
    blocks, rc, rn, cov = p.statistics
    return {
        "rgs": list(p.rgs),
        "blocks": blocks,
        "rc": rc,
        "rn_strict": rn,
        "rn_covered": rn + cov,
    }
