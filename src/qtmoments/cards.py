"""Card-arrangement calculus: expand operator words into weighted diagrams
whose line concatenation produces a set partition.

Each letter of a contributor word gets one card at its level i (the number of
open lines when the letter acts).  A card is its printed name, such as C0, S2,
A3_2 or I2_1: the letter, the level i and, for A and I, the line choice j:

    creation card      C_i       weight lambda             opens a new line
    annihilation card  A_i_j     weight t^(i-j) q^(j-1)    ends the j-th line
    intermediate card  I_i_j     weight t^(i-j) q^(j-1)    re-anchors the j-th line
    singleton card     S_i       weight lambda             its own one-point block
                                 (lambda t^i under the T_POWER_N gauge)

The weights follow the rescaled basis of :mod:`qtmoments.fock`, where a
creation weighs lambda, and j counts lines from the bottom of the stack, the
bottom line being the most recently opened one.  Ending the j-th line crosses
the j-1 lines below it (counted by q) and passes under the i-j lines above it
(counted by t); this is exactly how the arrangement weight reproduces
lambda^blocks q^crossings t^nestings of the induced partition.

The open-line stack evolves as:

    creation      push a new block at the bottom
    annihilation  element joins block j, line removed
    intermediate  element joins block j, line moved back to the bottom
    singleton     element is its own block, stack untouched

Summing arrangement weights over all contributors of length n gives the n-th
moment; across all contributors the induced partitions enumerate every
partition of {1..n} exactly once.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cache
from itertools import product
from typing import Iterator

from .fock import OperatorWord, ScalarGauge, _covered
from .partitions import SetPartition, _histogram_moments
from .ring import Poly

__all__ = [
    "NotContributor",
    "CardArrangement",
    "enumerate_contributors",
    "contributor_count",
    "expand_arrangements",
    "moment_by_cards",
    "arrangement_record",
]

SOFT_LIMIT = 14


class NotContributor(Exception):
    """The word has zero vacuum expectation, so it has no card arrangements."""


@dataclass(frozen=True)
class CardArrangement:
    """One admissible card choice for a contributor: its card names in
    application order, its weight (the product of its card weights) and the
    induced partition."""

    word: OperatorWord
    cards: tuple
    weight: Poly
    partition: SetPartition


def _contributor_letter_stream(n: int) -> Iterator[str]:
    """DFS over application-order letter strings satisfying the level rules."""
    # letters are pushed in reverse so they pop in the order C, A, N, S,
    # which fixes the deterministic enumeration order
    todo = [("", 0)]
    while todo:
        acc, level = todo.pop()
        remaining = n - len(acc)
        if not remaining:
            if level == 0:
                yield acc
            continue
        if level <= remaining - 1:
            todo.append((acc + "S", level))
            if level:
                todo.append((acc + "N", level))
        if level:
            todo.append((acc + "A", level - 1))
        if level + 1 <= remaining - 1:  # else it cannot come back down to 0 in time
            todo.append((acc + "C", level + 1))


def enumerate_contributors(n: int) -> Iterator[OperatorWord]:
    """Every length-n word with nonzero vacuum expectation, deterministic order."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > SOFT_LIMIT:
        warnings.warn(f"enumerating contributors of length {n} (4^n search space)")
    for letters in _contributor_letter_stream(n):
        yield OperatorWord(letters[::-1])


def contributor_count(n: int) -> int:
    """Number of contributors of length n (level-sequence count, no expansion)."""
    return sum(1 for _ in _contributor_letter_stream(n))


def _expansion_states(word: OperatorWord, covered: bool = False) -> Iterator[tuple]:
    """DFS over the line choices of a word: (card names, block_of_element, exps)
    per arrangement, exps its weight's (lambda, q, t) exponents.

    block_of_element[k] is the 0-based block id of element k+1.  lambda counts
    the blocks, q and t the crossings and nestings from annihilation and
    intermediate cards, plus the singleton levels under ``covered``
    (T_POWER_N).  The open lines are a tuple, bottom line first.  Every
    arrangement of a word has the same levels, so the first path meets an
    annihilation or number letter at level 0, or lines still open at the end,
    before anything is yielded, and raises :class:`NotContributor`.
    """
    if not word.letters:
        raise ValueError("the empty word has no card arrangements")
    letters = word.application_order()
    n = len(letters)
    # Each position's card names, once per word: one for C and S, [j] for A and N (I cards).
    names = [f"{letter}{level}" if letter in "CS"
             else [None] + [f"{letter.replace('N', 'I')}{level}_{j}" for j in range(1, level + 1)]
             for letter, level in zip(letters, word.levels)]
    todo = [(0, (), 0, (), (), 0, 0)]
    while todo:
        pos, stack, next_block, cards, owner, q_exp, t_exp = todo.pop()
        # creation and singleton cards have no choice: lay them in place
        while pos < n and letters[pos] in "CS":
            level = len(stack)
            owner += (next_block,)
            cards += (names[pos],)
            if letters[pos] == "C":
                stack = (next_block,) + stack
            elif covered:
                t_exp += level
            next_block += 1
            pos += 1
        level = len(stack)
        if pos == n:
            if level:
                raise NotContributor(word.to_string())
            yield cards, owner, (next_block, q_exp, t_exp)  # one block per C or S card
            continue
        if not level:
            raise NotContributor(word.to_string())
        letter, choices = letters[pos], names[pos]
        # choices are pushed from j = level down so that j = 1 is walked first
        for j in range(level, 0, -1):
            line = stack[j - 1]
            rest = stack[: j - 1] + stack[j:]
            if letter == "N":  # intermediate card: line re-anchored at the bottom
                rest = (line,) + rest
            todo.append((pos + 1, rest, next_block, cards + (choices[j],),
                         owner + (line,), q_exp + j - 1, t_exp + level - j))


def expand_arrangements(
    word: OperatorWord, gauge: ScalarGauge = ScalarGauge.IDENTITY
) -> list:
    """All admissible card arrangements of a contributor, with weights and
    induced partitions.  Raises :class:`NotContributor` otherwise."""
    n = len(word)
    trusted = SetPartition._trusted
    out = []
    for cards, owner, (lam, q, t) in _expansion_states(word, _covered(gauge)):
        weight = Poly.from_terms([(1, {"lambda": lam, "q": q, "t": t})])
        # block ids are created in order of first appearance, which is
        # exactly the restricted-growth normalization
        out.append(CardArrangement(word, cards, weight, trusted(n, owner)))
    return out


@cache
def _card_moments(n: int) -> tuple:
    """(strict, covered) moments from one walk over the line choices of every
    contributor of length n.

    Every arrangement of every contributor is still enumerated: each tuple of
    line choices is one arrangement, and its q-exponent is counted.  Only the
    weight of each arrangement is kept, not its cards or partition.
    """
    histogram: dict = {}
    for app_letters in _contributor_letter_stream(n):
        levels = []  # the level of each annihilation/intermediate card
        level = t_shift = 0
        for letter in app_letters:
            if letter == "C":
                level += 1
            elif letter == "S":
                t_shift += level
            else:
                levels.append(level)
                if letter == "A":
                    level -= 1
        lam = n - len(levels)  # one block per creation or singleton card
        # choice j at level i adds j-1 to q and i-j to t, which sum to i-1
        t_top = sum(levels) - len(levels)
        for q_exp in map(sum, product(*[range(i) for i in levels])):
            key = (lam, q_exp, t_top - q_exp, t_shift)
            histogram[key] = histogram.get(key, 0) + 1
    return _histogram_moments(histogram)


def moment_by_cards(n: int, gauge: ScalarGauge = ScalarGauge.IDENTITY) -> Poly:
    """The n-th moment as the sum of arrangement weights over all contributors;
    singleton cards add their levels to t only under T_POWER_N, so one walk
    per n serves both conventions."""
    covered = _covered(gauge)
    if n < 1:
        raise ValueError("n must be positive")
    if n > 10:
        warnings.warn(f"card expansion at n={n} touches every partition of {n} elements")
    return _card_moments(n)[covered]


def arrangement_record(arr: CardArrangement) -> dict:
    """The JSON-line record used by the CLI dump (cards in application order)."""
    return {
        "word": arr.word.to_string(),
        "cards": list(arr.cards),
        "weight": arr.weight.canonical_str(),
        "partition": arr.partition.blocks(),
    }
