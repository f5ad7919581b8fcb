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

Two walks visit every arrangement.  :func:`expand_arrangements` and the CLI
listing take each word's line choices depth first and build every
arrangement's cards and induced partition.  :func:`moment_by_cards` keeps only
the weights: all arrangements of a word share their blocks and their q + t, so
the contributor DFS itself (:func:`_contributor_walk`) carries down each
prefix one q-exponent byte per arrangement, and ``bytes.count`` counts them for
all words that share their other exponents at once.
"""

from __future__ import annotations

import warnings
from collections import defaultdict
from functools import cache
from typing import Iterable, Iterator

from .fock import OperatorWord, ScalarGauge, _covered, _Record
from .partitions import SetPartition, _histogram_moments
from .ring import Poly

__all__ = [
    "NotContributor",
    "CardArrangement",
    "enumerate_contributors",
    "expand_arrangements",
    "moment_by_cards",
    "arrangement_record",
]

SOFT_LIMIT = 14


class NotContributor(ValueError):
    """The word has zero vacuum expectation, so it has no card arrangements."""


class CardArrangement(_Record):
    """One admissible card choice for a contributor: its card names in
    application order, its weight (the product of its card weights) and the
    induced partition."""

    __slots__ = _fields = ("word", "cards", "weight", "partition")

    def __init__(self, word: OperatorWord, cards: tuple, weight: Poly, partition: SetPartition):
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "cards", tuple(cards))
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "partition", partition)


def _contributor_walk(n: int) -> Iterator[tuple]:
    """DFS over application-order letter strings satisfying the level rules:
    (letters, q_exps, blocks, t_top, t_shift) per contributor.

    q_exps holds one q-exponent byte per arrangement of the letters so far:
    an A or N letter at level i joins i copies, the j-th raised by j, and both
    children share that one string.  blocks counts the C and S letters, t_top
    the i-1 each A or N letter adds to q + t, and t_shift the levels of the S
    letters.  t_top bounds every byte; a reader checks it, as bytes wrap at 256.
    """
    # levels stay at most n // 2, so j < n // 2; table j adds j modulo 256
    shift = [bytes(range(j, 256)) + bytes(range(j)) for j in range(n // 2)]
    # letters are pushed in reverse so they pop in the order C, A, N, S,
    # which fixes the deterministic enumeration order
    todo = [("", 0, b"\0", 0, 0, 0)]
    while todo:
        acc, level, q_exps, blocks, t_top, t_shift = todo.pop()
        remaining = n - len(acc)
        if not remaining:  # the rules below leave no line open at the end
            yield acc, q_exps, blocks, t_top, t_shift
            continue
        if level > 1:
            moved = b"".join([q_exps.translate(shift[j]) for j in range(level)])
        elif level:
            moved = q_exps
        if level < remaining:
            todo.append((acc + "S", level, q_exps, blocks + 1, t_top, t_shift + level))
            if level:
                todo.append((acc + "N", level, moved, blocks, t_top + level - 1, t_shift))
        if level:
            todo.append((acc + "A", level - 1, moved, blocks, t_top + level - 1, t_shift))
        if level + 1 < remaining:  # else it cannot come back down to 0 in time
            todo.append((acc + "C", level + 1, q_exps, blocks + 1, t_top, t_shift))


def _contributor_letter_stream(n: int) -> Iterator[str]:
    """The letters of each contributor, in :func:`_contributor_walk` order."""
    return (walked[0] for walked in _contributor_walk(n))


def enumerate_contributors(n: int) -> Iterator[OperatorWord]:
    """Every length-n word with nonzero vacuum expectation, deterministic order."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > SOFT_LIMIT:
        warnings.warn(f"enumerating the Catalan({n}) contributors of length {n}")
    for letters in _contributor_letter_stream(n):
        yield OperatorWord(letters[::-1])


def _expansion_states(words: Iterable[str], covered: bool = False) -> Iterator[tuple]:
    """DFS over the line choices of each word, given as its letters in
    application order: (word, card names, block_of_element, exps) per
    arrangement, with word the written text and exps the weight's (lambda, q,
    t) exponents.

    block_of_element[k] is the 0-based block id of element k+1.  lambda counts
    the blocks, q and t the crossings and nestings from annihilation and
    intermediate cards, plus the singleton levels under ``covered``
    (T_POWER_N).  The open lines are a tuple, bottom line first.  Every
    arrangement of a word has the same levels, so one pass over the letters
    names the cards and fixes q + t, and the first path meets an annihilation
    or number letter at level 0, or lines still open at the end, before
    anything is yielded, and raises :class:`NotContributor`.
    """
    known: dict = {}  # (letter, level) -> card name, or [None, name for j = 1, ..]
    for letters in words:
        if not letters:
            raise ValueError("the empty word has no card arrangements")
        word, n = letters[::-1], len(letters)
        names = []
        level = t_exp = 0
        for letter in letters:
            name = known.get((letter, level))
            if name is None:
                name = known[letter, level] = (
                    f"{letter}{level}" if letter in "CS" else
                    [None] + [f"{letter.replace('N', 'I')}{level}_{j}" for j in range(1, level + 1)])
            names.append(name)
            if letter == "C":
                level += 1
            elif letter == "S":
                if covered:
                    t_exp += level
            else:
                t_exp += level - 1  # choice j adds j-1 to q and level-j to t
                if letter == "A":
                    level -= 1
        todo = [(0, (), 0, (), (), 0)]
        while todo:
            pos, stack, next_block, cards, owner, q_exp = todo.pop()
            while True:
                # creation and singleton cards have no choice: lay them in place
                while pos < n and letters[pos] in "CS":
                    owner += (next_block,)
                    cards += (names[pos],)
                    if letters[pos] == "C":
                        stack = (next_block,) + stack
                    next_block += 1
                    pos += 1
                level = len(stack)
                if pos == n:
                    if level:
                        raise NotContributor(word)
                    # one block per C or S card
                    yield word, cards, owner, (next_block, q_exp, t_exp - q_exp)
                    break
                if not level:
                    raise NotContributor(word)
                choices = names[pos]
                moved = letters[pos] == "N"  # intermediate card: line re-anchored at the bottom
                # pushed from j = level down, so they pop from j = 2 up after
                # j = 1, which is walked first, in place
                for j in range(level, 1, -1):
                    line = stack[j - 1]
                    rest = stack[: j - 1] + stack[j:]
                    todo.append((pos + 1, (line,) + rest if moved else rest, next_block,
                                 cards + (choices[j],), owner + (line,), q_exp + j - 1))
                cards += (choices[1],)
                owner += stack[:1]
                if not moved:
                    stack = stack[1:]
                pos += 1


def expand_arrangements(
    word: OperatorWord, gauge: ScalarGauge = ScalarGauge.IDENTITY
) -> list:
    """All admissible card arrangements of a contributor, with weights and
    induced partitions.  Raises :class:`NotContributor` otherwise."""
    trusted = SetPartition._trusted
    out = []
    for _, cards, owner, (lam, q, t) in _expansion_states([word.application_order()],
                                                          _covered(gauge)):
        weight = Poly.from_terms([(1, {"lambda": lam, "q": q, "t": t})])
        # block ids are created in order of first appearance, which is
        # exactly the restricted-growth normalization
        out.append(CardArrangement(word, cards, weight, trusted(owner)))
    return out


@cache
def _card_moments(n: int) -> tuple:
    """(strict, covered) moments from one :func:`_contributor_walk` of the
    contributors of length n.

    Every arrangement of every contributor is still counted one by one, with
    no grouping of contributors.  A choice j at level i adds j-1 to q and i-j
    to t, so all arrangements of a word share their blocks, q + t from the
    annihilation and intermediate cards (``t_top``) and singleton levels
    (``t_shift``); only q differs, one walked byte per arrangement.  One
    ``bytes.count`` per q-exponent on each row's joined strings counts them; a
    t_top past 255 (first at n = 41) raises rather than count wrapped bytes.
    """
    rows = defaultdict(list)  # (blocks, t_top, t_shift) -> the q_exps of its words
    for _, q_exps, blocks, t_top, t_shift in _contributor_walk(n):
        rows[blocks, t_top, t_shift].append(q_exps)
    top = max(t_top for _, t_top, _ in rows)
    if top > 255:
        raise OverflowError(f"q-exponents up to {top} at n={n} do not fit a byte")
    return _histogram_moments({(blocks, q_exp, t_top - q_exp, t_shift): count
                               for (blocks, t_top, t_shift), words in rows.items()
                               for q_exp, count in enumerate(map(b"".join(words).count,
                                                                 range(t_top + 1))) if count})


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
        "word": arr.word.letters,
        "cards": list(arr.cards),
        "weight": arr.weight.canonical_str(),
        "partition": arr.partition.blocks(),
    }
