"""Truncated one-mode deformed Fock space with polynomial coefficients, plus an
exact-rational multi-mode layer for inner-product, adjointness, commutation and
positivity checks.

One-mode layer
--------------
A vector sum_k c_k f_k is its coefficient list [c_0, c_1, ..], where f_k is
the level-k basis vector rescaled by lambda^(-k/2).  In this basis every
operator entry is a lambda-polynomial and no square roots ever materialize:

    Creation      f_k -> lambda * f_{k+1}
    Annihilation  f_k -> [k] * f_{k-1}        (f_0 -> 0)
    Number        f_k -> [k] * f_k
    Scalar        f_k -> lambda * f_k         (IDENTITY gauge)
                  f_k -> lambda t^k * f_k     (T_POWER_N gauge)

The deformed Poisson operator is the sum of the four letters; its vacuum
moments are the coefficient of f_0 after n applications.  ``_letter_step``
(one letter) and ``_poisson_step`` (all four) map a list to one a level longer
over any ring, with [k] and the scalars from ``_poisson_data``; words walk the
first from the vacuum [1], moments the second.  A :class:`FockVector` has a top
level, past which creation raises :class:`TruncationOverflow`.

Words are text over C, A, N, S (creation, annihilation, number, scalar),
written with the leftmost character applied last (operator product order),
e.g. "AASNCC" applies two creations first.

Multi-mode layer
----------------
For alphabet size d and level cap n, basis vectors are words over {0..d-1} of
length <= n.  All arithmetic is over ints, with one denominator per word
length, divided out only in the rationals returned (:class:`_WordForm`).  The
deformed inner product of two equal-length words u, v with one-particle Gram g
is defined as

    sum over permutations sigma of  q^inv(sigma) t^(M - inv(sigma))
        * prod_k g[u_k][v_sigma(k)],      M = m(m-1)/2.

One loop, ``_permutation_sum``, computes that definition: with symbolic q and t
for :func:`qt_inner_product`, and with scaled ints for the words
(:meth:`_WordForm.words`, :func:`word_inner_product`).

Creation prepends a letter; annihilation of letter i removes slot k
(0-based) of a length-m word v with weight q^k t^(m-1-k) g[i][v_k].  That one
rule is :meth:`_WordForm.lower`, and it is the only recursion: expanding the
definition by the first letter of u gives the same weights.

Words of different lengths are orthogonal, so the Gram matrix is
block-diagonal by length.  :func:`multimode_gram` builds the length-m block
from the length-(m-1) block by pairing the first letter of u with each slot of
v, with the weights of ``lower``: m terms per entry instead of m!.  The
leading minors then come from one elimination that skips zero entries, so the
positivity check reaches d = 2, n = 7 (255 words) and d = 3, n = 5 (364 words).

That recursion is the statement that annihilation is the adjoint of creation.
:func:`check_adjointness` tests it on basis words against the definition: the
permutation sum of (i, u) against v must equal the sum over ``lower(i, v)`` of
weight times the permutation sum of u against the shortened word.  So a wrong
weight in ``lower`` breaks both the Gram recursion and this check, and a wrong
permutation weight breaks this check and the symbolic inner product alike.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cache
from operator import getitem
from typing import Sequence

from .qtnum import qt_number
from .ring import LAMBDA, Poly, Q, T, _folded

__all__ = [
    "LETTERS",
    "ScalarGauge",
    "OperatorWord",
    "FockVector",
    "TruncationOverflow",
    "apply_letter",
    "apply_word",
    "apply_poisson",
    "vacuum_expectation_word",
    "moment_by_operator",
    "qt_inner_product",
    "CheckReport",
    "check_commutation",
    "basis_words",
    "word_inner_product",
    "check_adjointness",
    "multimode_gram",
    "determinant",
    "leading_principal_minors",
    "check_gram_positivity",
]

LETTERS = "CANS"  # creation, annihilation, number, scalar


class ScalarGauge(Enum):
    """The nesting convention, named by how the scalar letter acts.

    IDENTITY (lambda*1) counts strict nestings; T_POWER_N (lambda*t^N) also
    counts singletons covered by an arc (see :mod:`qtmoments.partitions`).
    Every route takes this one switch.
    """

    IDENTITY = "identity"
    T_POWER_N = "tpowern"


def _covered(gauge: ScalarGauge) -> bool:
    """Whether ``gauge`` is T_POWER_N; a value that is not a ScalarGauge member
    is rejected, so no route reads a wrong value as either convention."""
    if not isinstance(gauge, ScalarGauge):
        raise ValueError(f"not a ScalarGauge member: {gauge!r}")
    return gauge is ScalarGauge.T_POWER_N


class TruncationOverflow(Exception):
    """Creation applied at the top truncation level with a nonzero coefficient."""


@dataclass(frozen=True)
class OperatorWord:
    """A product of operator letters, written as text over C, A, N, S;
    ``letters[0]`` is applied last.  A word is a contributor when its
    :func:`vacuum_expectation_word` is nonzero."""

    letters: str

    def __post_init__(self):
        if not isinstance(self.letters, str) or not set(self.letters).issubset(LETTERS):
            raise ValueError(f"not a word over {LETTERS}: {self.letters!r}")

    @classmethod
    def from_string(cls, text: str) -> "OperatorWord":
        return cls(text.strip().upper())

    def to_string(self) -> str:
        return self.letters

    def __len__(self) -> int:
        return len(self.letters)

    def application_order(self) -> str:
        """The letters in the order they act (rightmost first)."""
        return self.letters[::-1]

    def __str__(self) -> str:
        return self.to_string()


class FockVector:
    """A vector in the truncated space: coefficients of f_0 .. f_D."""

    __slots__ = ("dim", "coeffs")

    def __init__(self, dim: int, coeffs: Sequence[Poly] | None = None):
        if dim < 0:
            raise ValueError("dim must be >= 0")
        self.dim = dim
        if coeffs is None:
            self.coeffs = [Poly.zero()] * (dim + 1)
        else:
            if len(coeffs) != dim + 1:
                raise ValueError("need dim+1 coefficients")
            self.coeffs = [Poly._coerce(c) for c in coeffs]
            if any(c is NotImplemented for c in self.coeffs):
                raise TypeError(f"coefficients must be Poly or int, got {list(coeffs)!r}")

    @classmethod
    def vacuum(cls, dim: int) -> "FockVector":
        return cls.basis(dim, 0)

    @classmethod
    def basis(cls, dim: int, k: int) -> "FockVector":
        v = cls(dim)
        v.coeffs[k] = Poly.one()
        return v

    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FockVector):
            return NotImplemented
        return self.dim == other.dim and self.coeffs == other.coeffs

    def __add__(self, other: "FockVector") -> "FockVector":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return FockVector(self.dim, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def scaled(self, factor) -> "FockVector":
        return FockVector(self.dim, [c * factor for c in self.coeffs])

    def __repr__(self) -> str:
        body = ", ".join(f"f{k}: {c}" for k, c in enumerate(self.coeffs) if not c.is_zero)
        return f"FockVector({body or '0'})"


def apply_letter(
    letter: str, v: FockVector, gauge: ScalarGauge = ScalarGauge.IDENTITY
) -> FockVector:
    """Apply one operator letter (one of C, A, N, S) to a vector in the rescaled basis."""
    data = _poisson_data(gauge, v.dim + 1)
    if letter not in ("C", "A", "N", "S"):  # not LETTERS: "" and "CA" are in "CANS"
        raise ValueError(f"not an operator letter: {letter!r}")
    if letter == "C" and not v.coeffs[v.dim].is_zero:
        raise TruncationOverflow(f"creation past level {v.dim}")
    return FockVector(v.dim, _letter_step(letter, v.coeffs, LAMBDA, *data)[:-1])


def apply_word(
    w: OperatorWord, v: FockVector, gauge: ScalarGauge = ScalarGauge.IDENTITY
) -> FockVector:
    """Apply a word, rightmost letter first."""
    _covered(gauge)  # the empty word applies no letter that would check it
    for letter in w.application_order():
        v = apply_letter(letter, v, gauge)
    return v


def _poisson_data(gauge: ScalarGauge, top: int) -> tuple:
    """[k] and the scalar letter's weight (lambda, or lambda t^k) at each level k < top."""
    scalars = [LAMBDA] * top
    if _covered(gauge):
        scalars = list(itertools.accumulate(scalars, lambda s, _: s * T))
    return [qt_number(k) for k in range(top)], scalars


def _letter_step(letter: str, coeffs: list, lam, nums: Sequence, scalars: Sequence) -> list:
    """One letter on sum_k coeffs[k] f_k, as coefficients of f_0 .. f_len(coeffs),
    over any ring: creation weighs ``lam`` onto f_(k+1), annihilation nums[k] =
    [k] onto f_(k-1), the number letter nums[k] and the scalar scalars[k] onto f_k."""
    zero = nums[0]  # [0] = 0, in the data's own ring
    if letter == "C":
        return [zero] + [c * lam if c else zero for c in coeffs]
    weights = scalars if letter == "S" else nums
    out = [c * w if c else zero for c, w in zip(coeffs, weights)]
    return out[1:] + [zero, zero] if letter == "A" else out + [zero]


def _poisson_step(coeffs: list, lam, nums: Sequence, scalars: Sequence) -> list:
    """The Poisson operator on sum_k coeffs[k] f_k, as coefficients of f_0 ..
    f_len(coeffs), over any ring: creation weighs ``lam``, the scalar letter
    ``scalars[k]``, and one product c_k nums[k] = c_k [k] serves both the
    number letter (onto f_k) and annihilation (onto f_(k-1)).  Where the
    scalar equals ``lam`` (every level of the IDENTITY gauge), the creation
    product c_k lam serves the scalar letter too."""
    out = [lam * 0] * (len(coeffs) + 1)
    for k, c in enumerate(coeffs):
        if not c:
            continue
        created = c * lam
        own = created if scalars[k] == lam else c * scalars[k]
        if k:
            shared = c * nums[k]
            out[k - 1] += shared
            own += shared
        out[k] += own
        out[k + 1] = created  # no earlier level has reached f_(k+1) yet
    return out


def apply_poisson(v: FockVector, gauge: ScalarGauge = ScalarGauge.IDENTITY) -> FockVector:
    """Apply the deformed Poisson operator (sum of the four letters)."""
    nums, scalars = _poisson_data(gauge, v.dim)
    if not v.coeffs[v.dim].is_zero:
        raise TruncationOverflow(f"creation past level {v.dim}")
    return FockVector(v.dim, _poisson_step(v.coeffs[:-1], LAMBDA, nums, scalars))


def vacuum_expectation_word(
    w: OperatorWord, gauge: ScalarGauge = ScalarGauge.IDENTITY
) -> Poly:
    """Coefficient of the vacuum in w applied to the vacuum; 0 for non-contributors."""
    data = _poisson_data(gauge, len(w) // 2 + 1)
    coeffs = [Poly.one()]
    # letters[left] acts with ``left`` letters still to come: a level above
    # that can no longer reach the vacuum, so no kept level exceeds n/2
    for left, letter in reversed(list(enumerate(w.letters))):
        coeffs = _letter_step(letter, coeffs, LAMBDA, *data)[: left + 1]
    return coeffs[0]


def moment_by_operator(n: int, gauge: ScalarGauge = ScalarGauge.IDENTITY) -> Poly:
    """The n-th vacuum moment of the deformed Poisson operator, by steps on
    q-folded data (:mod:`qtmoments.ring`), where [k] is one term."""
    data = _poisson_data(gauge, n)
    if n < 0:
        raise ValueError("n must be non-negative")

    def walk(lam, nums, scalars):
        coeffs = [1]  # the vacuum
        for left in range(n - 1, -1, -1):
            # ``left`` steps remain: a level above that can no longer reach the vacuum.
            coeffs = _poisson_step(coeffs, lam[0], nums, scalars)[: left + 1]
        return coeffs[:1]

    return _folded(walk, [LAMBDA], *data)[0]


# -- deformed inner product ----------------------------------------------------


@cache
def _inversion_counts(n: int) -> bytes:
    """inv(sigma) per permutation of range(n) in itertools order, one byte each."""
    return bytes(
        sum(a > b for a, b in itertools.combinations(sigma, 2))
        for sigma in itertools.permutations(range(n))
    )


def _inversion_weights(n: int, q, t) -> list:
    """q^i t^(M-i) for i = 0..M, M = n(n-1)/2: the weight of i inversions."""
    top = n * (n - 1) // 2
    return [q**i * t ** (top - i) for i in range(top + 1)]


def _permutation_sum(rows: Sequence[Sequence], weights: list):
    """sum over sigma of weights[inv(sigma)] * prod_k rows[k][sigma(k)], adding the
    products per inversion count and stopping each at its first zero factor."""
    n = len(rows)
    sums = [0] * len(weights)
    for sigma, inv in zip(itertools.permutations(range(n)), _inversion_counts(n)):
        factors = map(getitem, rows, sigma)
        prod = next(factors, 1)  # 1: the empty product, for n = 0
        for x in factors:
            if not prod:
                break
            prod *= x
        if prod:
            # prod on the left: int + Poly takes the slower reflected add
            sums[inv] = prod + sums[inv]
    return sum((w * s for w, s in zip(weights, sums) if s), weights[0] * 0)


def qt_inner_product(gram: Sequence[Sequence]) -> Poly:
    """The deformed inner product, symbolically in q and t.

    ``gram[i][j]`` is the scalar product of the i-th left vector with the j-th
    right vector (integers or polynomials).  The result is

        sum over sigma of q^inv(sigma) t^(M-inv(sigma)) prod_k gram[k][sigma(k)]

    with M = n(n-1)/2, so t-exponents are never negative.
    """
    n = len(gram)
    if any(len(row) != n for row in gram):
        raise ValueError("gram must be square")
    return _permutation_sum(gram, _inversion_weights(n, Q, T))


# -- check reports --------------------------------------------------------------


@dataclass
class CheckReport:
    """Outcome of an exact verification: what was checked and what failed."""

    name: str
    checked: int = 0
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.checked > 0 and not self.failures

    def record(self, ok: bool, message) -> None:
        """Count one check; ``message``, text or a callable giving it, is read on failure only."""
        self.checked += 1
        if not ok:
            self.failures.append(message() if callable(message) else message)

    def __str__(self) -> str:
        status = "ok" if self.passed else f"{len(self.failures)} failure(s)"
        if not self.checked:
            status = "nothing checked"
        return f"{self.name}: {self.checked} checks, {status}"


def check_commutation(depth: int) -> CheckReport:
    """Verify (A A* - q A* A) f_k = t^k f_k for 0 <= k < depth, symbolically.

    Runs on the unscaled ladder (creation raises by one with weight 1,
    annihilation lowers with weight [k]); the identity reduces to
    [k+1] - q [k] = t^k.  It holds as a polynomial identity, so at every
    rational q and t as well; positivity statements elsewhere are what need
    |q| < t <= 1.
    """
    report = CheckReport(name="commutation")
    for k in range(depth):
        lhs = qt_number(k + 1) - Q * qt_number(k)
        rhs = T**k
        report.record(lhs == rhs, lambda: f"level {k}: {lhs} != {rhs}")
    return report


# -- multi-mode rational layer ---------------------------------------------------


def _check_gram_shape(d: int, gram: Sequence[Sequence]) -> None:
    if len(gram) != d or any(len(row) != d for row in gram):
        raise ValueError("gram must be a d x d matrix")


def basis_words(d: int, n: int) -> list:
    """All words over {0..d-1} of length <= n, ordered by (length, lex)."""
    out = []
    for m in range(n + 1):
        out.extend(itertools.product(range(d), repeat=m))
    return out


class _WordForm:
    """The multi-mode inner product and annihilation at one exact (gram, q, t),
    over ints: ``q``, ``t`` and ``g`` hold q D, t D and g G, for D and G the lcms
    of the denominators of q, t and of the Gram.  A length-m permutation sum then
    has the one denominator ``scale(m)`` = D^M G^m, M = m(m-1)/2, and a slot weight
    of ``lower`` D^(m-1) G; both weights are tabulated once per word length."""

    def __init__(self, gram: Sequence[Sequence], q: Fraction, t: Fraction):
        g, q, t = [[Fraction(x) for x in row] for row in gram], Fraction(q), Fraction(t)
        self.dqt = math.lcm(q.denominator, t.denominator)
        self.dg = math.lcm(*(x.denominator for row in g for x in row))
        self.g = [[int(x * self.dg) for x in row] for row in g]
        self.q, self.t = int(q * self.dqt), int(t * self.dqt)
        self.weights: dict = {}  # m -> [q^i t^(M-i) for i = 0..M]
        self.slot_weights: dict = {}  # m -> [q^k t^(m-1-k) for k = 0..m-1]

    def scale(self, m: int) -> int:
        """The one denominator of every length-m permutation sum."""
        return self.dqt ** (m * (m - 1) // 2) * self.dg**m

    def words(self, u: Sequence[int], v: Sequence[int]) -> int:
        if len(u) != len(v):
            return 0
        m = len(u)
        if m not in self.weights:
            self.weights[m] = _inversion_weights(m, self.q, self.t)
        return _permutation_sum([[self.g[a][b] for b in v] for a in u], self.weights[m])

    def lower(self, i: int, v: tuple) -> list:
        """Annihilation of letter i on the basis word v: ``(weight, v without
        slot k)`` for each slot k whose weight q^k t^(m-1-k) g[i][v_k] is nonzero."""
        m = len(v)
        if m not in self.slot_weights:
            self.slot_weights[m] = [self.q**k * self.t ** (m - 1 - k) for k in range(m)]
        gi = self.g[i]
        return [
            (w, v[:k] + v[k + 1 :])
            for k, s in enumerate(self.slot_weights[m])
            if (w := s * gi[v[k]])
        ]


def word_inner_product(
    u: Sequence[int], v: Sequence[int], gram: Sequence[Sequence], q: Fraction, t: Fraction
) -> Fraction:
    """Deformed inner product of two basis words (0 when lengths differ)."""
    d = len(gram)
    _check_gram_shape(d, gram)
    if not all(a in range(d) for a in (*u, *v)):
        raise ValueError(f"words {tuple(u)}, {tuple(v)} have a letter outside range({d})")
    form = _WordForm(gram, q, t)
    return Fraction(form.words(u, v), form.scale(len(u)))


def check_adjointness(
    d: int, n: int, gram: Sequence[Sequence], q: Fraction, t: Fraction
) -> CheckReport:
    """Verify <A*(xi_i) u | v> = <u | A(xi_i) v> on all basis pairs, exactly.

    Both sides are permutation sums; the right one takes its annihilation
    weights from :meth:`_WordForm.lower`.  Past the level cap, (i, u) is longer
    than every v, so both sides are 0.  They are compared as ints over the one
    denominator scale(len(v)), as M_m = M_(m-1) + (m-1).
    """
    _check_gram_shape(d, gram)
    report = CheckReport(name=f"adjointness(d={d}, n={n}, q={q}, t={t})")
    form = _WordForm(gram, q, t)
    words = basis_words(d, n)
    for i in range(d):
        lowered = [form.lower(i, v) for v in words]
        for u in words:
            for v, low in zip(words, lowered):
                lhs = form.words((i, *u), v)
                rhs = sum(w * form.words(u, rest) for w, rest in low)
                report.record(lhs == rhs, lambda: "letter {}, u={}, v={}: {} != {}".format(
                    i, u, v, *(Fraction(x, form.scale(len(v))) for x in (lhs, rhs))))
    return report


def multimode_gram(
    d: int, n: int, gram: Sequence[Sequence], q: Fraction, t: Fraction
) -> list:
    """Gram matrix of all basis words up to level n, exact rationals.

    Words of different lengths are orthogonal, so the matrix is block-diagonal
    by length.  The length-m block comes from the length-(m-1) block by pairing
    the first letter of u with each slot k of v, with the weights of
    :meth:`_WordForm.lower`:

        G_m[u][v] = sum_k q^k t^(m-1-k) g[u_0][v_k] G_{m-1}[u_1..u_{m-1}][v without v_k],

    m terms per entry in place of the m! of the permutation sum.  Block m is
    built over ints and divided by its one denominator scale(m) at the end.
    """
    _check_gram_shape(d, gram)
    form = _WordForm(gram, q, t)
    zero = Fraction(0)
    blocks = [[[1]]]
    shorter = [()]
    for m in range(1, n + 1):
        index = {w: i for i, w in enumerate(shorter)}
        words = list(itertools.product(range(d), repeat=m))
        block = []
        for a in range(d):
            cols = [[(w, index[rest]) for w, rest in form.lower(a, v)] for v in words]
            for below in blocks[-1]:
                block.append([sum(c * below[j] for c, j in col if below[j]) for col in cols])
        blocks.append(block)
        shorter = words
    size = sum(len(block) for block in blocks)
    matrix = []
    offset = 0
    for m, block in enumerate(blocks):
        pad, scale = size - offset - len(block), form.scale(m)
        rows = ([Fraction(x, scale) if x else zero for x in row] for row in block)
        matrix.extend([zero] * offset + row + [zero] * pad for row in rows)
        offset += len(block)
    return matrix


def leading_principal_minors(matrix: Sequence[Sequence[Fraction]]) -> list:
    """Determinants of the leading k-by-k blocks, k = 1..n, from one elimination.

    Column k is cleared by the first row not yet used that is nonzero there.
    Its multiples go only to later rows, which leaves every leading minor
    unchanged.  Minor k is then the product of the first k pivots, signed by
    the inversions of their row order, when those rows are exactly 0..k-1,
    and 0 otherwise.  A column that no unused row can clear makes every later
    minor 0.  A pivot row updates only the columns where it is nonzero, and
    only the rows nonzero in its column, so on a block-diagonal matrix the
    work stays inside each block.
    """
    n = len(matrix)
    # Fraction(x) of a Fraction costs a full construction; share it instead
    work = [[x if type(x) is Fraction else Fraction(x) for x in row[:n]] for row in matrix]
    unused = list(range(n))
    pivots: list = []
    minors: list = []
    det = Fraction(1)
    for k in range(n):
        r = next((r for r in unused if work[r][k] != 0), None)
        if r is None:
            return minors + [Fraction(0)] * (n - k)
        unused.remove(r)
        top = work[r]
        det *= top[k] * (-1) ** sum(p > r for p in pivots)
        pivots.append(r)
        minors.append(det if max(pivots) == k else Fraction(0))
        cols = [c for c in range(k + 1, n) if top[c] != 0]
        for row in (work[i] for i in unused):
            if row[k] != 0:
                factor = row[k] / top[k]
                for c in cols:
                    row[c] -= factor * top[c]
    return minors


def determinant(matrix: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant: the last of :func:`leading_principal_minors`, 1 when empty."""
    return (leading_principal_minors(matrix) or [Fraction(1)])[-1]


def check_gram_positivity(
    d: int, n: int, gram: Sequence[Sequence], q: Fraction, t: Fraction
) -> CheckReport:
    """All leading principal minors of the multi-mode Gram matrix are positive."""
    report = CheckReport(name=f"gram positivity(d={d}, n={n}, q={q}, t={t})")
    minors = leading_principal_minors(multimode_gram(d, n, gram, q, t))
    for k, minor in enumerate(minors, start=1):
        report.record(minor > 0, lambda: f"leading minor {k} = {minor} not positive")
    return report
