"""Independent oracles for the test suite.

Each helper recomputes a quantity by a different route than the code under
test: schoolbook convolution for products, counting recurrences for Bell and
Catalan numbers, explicit matrix powers for path-weighted moments, the
Motzkin recursion over ``Fraction`` for rational Jacobi data, full-order
series inversion for J-fractions, and exhaustive scans for small
combinatorial counts, full products under the moment functional for
orthogonality, block-by-block elimination with row exchanges for leading
minors, cofactor expansion for determinants, the sum over all permutations
for the deformed inner product, the recursive card walk and a per-name card
weight table, factor-by-factor text for canonical strings, the four letters'
basis rules written out on coefficient lists, each applied on its own, for
the Poisson step and for words, a running sum of level changes for
a word's levels, unfolded polynomial arithmetic for the q-folded routes, a
two-term recurrence for the moments at q = -t written down by hand, and the
Touchard, Narayana and lambda (1 + lambda)^(n-1) polynomials from their
counting formulas.  The weight census is the plain recursive walk that calls
once per partition; past it, the n = 11 and n = 12 histograms are pinned by
digest.  Tests freeze values from these, never from the implementation being
checked.
"""

from __future__ import annotations

import itertools
import re
from bisect import bisect_right
from fractions import Fraction
from math import comb

from qtmoments.fock import LETTERS, ScalarGauge, TruncationOverflow
from qtmoments.partitions import SetPartition
from qtmoments.ring import LAMBDA, VARIABLES, Poly, Q, T, X


def graded_lex_terms(p: Poly) -> list:
    """(exponent tuple, coefficient) pairs, total degree first, then the
    exponents in ``VARIABLES`` order, both descending."""
    return sorted(p.terms(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)


def poly_from_json(data) -> Poly:
    """The polynomial of a ``Poly.to_json_dict`` record, whose coefficients are
    decimal strings."""
    return Poly.from_terms((int(entry["coeff"]), entry["exps"]) for entry in data["terms"])


def partition_from_blocks(blocks) -> SetPartition:
    """The partition with these blocks of 1-based elements, through the
    checked constructor."""
    n = sum(len(b) for b in blocks)
    rgs = [None] * n
    for index, block in enumerate(sorted(blocks, key=min)):
        for e in block:
            rgs[e - 1] = index
    return SetPartition(rgs)


def schoolbook_mul(a_terms: list, b_terms: list) -> Poly:
    """Product via explicit term-pair convolution over (coeff, exps) lists."""
    out: dict = {}
    for ca, ea in a_terms:
        for cb, eb in b_terms:
            exps = dict(ea)
            for name, e in eb.items():
                exps[name] = exps.get(name, 0) + e
            key = tuple(sorted(exps.items()))
            out[key] = out.get(key, 0) + ca * cb
    return Poly.from_terms((c, dict(k)) for k, c in out.items() if c)


def factorwise_canonical_str(p: Poly) -> str:
    """Canonical text built term by term from the exponent tuples, formatting
    every factor afresh."""
    pieces = []
    for mono, coeff in graded_lex_terms(p):
        factors = [name if e == 1 else f"{name}^{e}" for name, e in zip(VARIABLES, mono) if e]
        mag = abs(coeff)
        if factors:
            body = "*".join(factors) if mag == 1 else "*".join([str(mag)] + factors)
        else:
            body = str(mag)
        if pieces:
            pieces.append((" - " if coeff < 0 else " + ") + body)
        else:
            pieces.append(("-" if coeff < 0 else "") + body)
    return "".join(pieces) or "0"


def word_levels(word) -> tuple:
    """The level before each letter of an operator word acts, then the level
    after its last, in application order (rightmost letter first): each C
    raises the level by one and each A lowers it by one."""
    levels = [0]
    for letter in reversed(word.letters):
        levels.append(levels[-1] + (letter == "C") - (letter == "A"))
    return tuple(levels)


def _bracket(k: int) -> Poly:
    """[k] = q^(k-1) + q^(k-2) t + .. + t^(k-1), term by term."""
    return sum((Q**i * T ** (k - 1 - i) for i in range(k)), Poly.zero())


def letterwise_image(letter: str, coeffs: list, gauge) -> list:
    """One letter on sum_k coeffs[k] f_k, in the same truncated space, by the
    basis rules of :mod:`qtmoments.fock` written out: C f_k = lambda f_(k+1),
    A f_k = [k] f_(k-1), N f_k = [k] f_k, and S f_k = lambda f_k, or lambda t^k
    f_k under T_POWER_N.  Creation from a nonzero top level raises
    TruncationOverflow."""
    out = [Poly.zero()] * len(coeffs)
    for k, c in enumerate(coeffs):
        if not c:
            continue
        if letter == "C":
            if k + 1 == len(coeffs):
                raise TruncationOverflow(f"creation past level {k}")
            out[k + 1] += LAMBDA * c
        elif letter == "A":
            if k:  # f_0 -> 0
                out[k - 1] += _bracket(k) * c
        elif letter == "N":
            out[k] += _bracket(k) * c
        else:
            out[k] += LAMBDA * T**k * c if gauge is ScalarGauge.T_POWER_N else LAMBDA * c
    return out


def letterwise_poisson(coeffs: list, gauge) -> list:
    """The Poisson step as the sum of the four letters, each applied on its own."""
    images = [letterwise_image(letter, coeffs, gauge) for letter in LETTERS]
    return [sum(column, Poly.zero()) for column in zip(*images)]


def letterwise_moments(n_max: int, gauge) -> list:
    """Vacuum moments 0..n_max: n_max letterwise Poisson steps on the whole
    truncated space, with no level dropped, reading f_0 after each."""
    coeffs = [Poly.one()] + [Poly.zero()] * (n_max + 1)
    out = [coeffs[0]]
    for _ in range(n_max):
        coeffs = letterwise_poisson(coeffs, gauge)
        out.append(coeffs[0])
    return out


def letterwise_word(word, gauge) -> Poly:
    """The vacuum coefficient of ``word`` applied to the vacuum, letter by
    letter (rightmost first) on a space no word of its length overflows."""
    coeffs = [Poly.one()] + [Poly.zero()] * len(word)
    for letter in reversed(word.letters):
        coeffs = letterwise_image(letter, coeffs, gauge)
    return coeffs[0]


def recurrence_polys(j, n_max: int) -> tuple:
    """Monic P_0..P_{n_max} from P_{n+1} = (x - alpha_n) P_n - omega_n P_{n-1},
    over plain polynomials, with no folding."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    polys = [Poly.one()]
    if n_max >= 1:
        polys.append(X - j.alpha(0))
    for n in range(1, n_max):
        nxt = (X - j.alpha(n)) * polys[n] - j.omega(n) * polys[n - 1]
        polys.append(nxt)
    return tuple(polys)


def collapse_recurrence(covered: bool) -> tuple:
    """(tau, delta) with m_(n+1) = tau m_n - delta m_(n-1), n >= 1, for the
    moments at q = -t, written down by hand.  There [k] is t^(k-1) for odd k
    and 0 for even k, so omega_2 = lambda [2] = 0 and only heights 0 and 1 are
    reachable: the moments are those of the 2x2 array [[alpha_0, omega_1],
    [1, alpha_1]] with alpha_0 = lambda, omega_1 = lambda and alpha_1 =
    lambda + 1 (covered: lambda t + 1), and by Cayley-Hamilton tau is its trace
    and delta its determinant."""
    lam = Poly.variable("lambda")
    if covered:
        return lam + lam * T + 1, lam**2 * T
    return 2 * lam + 1, lam**2


def touchard(n: int) -> Poly:
    """sum_k S(n,k) lambda^k, with S(n,k) = k S(n-1,k) + S(n-1,k-1): every
    partition of {1..n} counted by its blocks (the strict moment at q = t = 1)."""
    row = [1]  # S(0, 0)
    for m in range(1, n + 1):
        row.append(0)  # S(m-1, m)
        row = [0] + [k * row[k] + row[k - 1] for k in range(1, m + 1)]
    return Poly.from_terms((s, {"lambda": k}) for k, s in enumerate(row))


def narayana(n: int) -> Poly:
    """sum_k C(n,k) C(n,k-1)/n lambda^k: the noncrossing partitions of {1..n}
    counted by their blocks (the moment at q = 0, t = 1 in both conventions)."""
    return Poly.from_terms((comb(n, k) * comb(n, k - 1) // n, {"lambda": k})
                           for k in range(1, n + 1))


def covered_chain(n: int) -> Poly:
    """lambda (1 + lambda)^(n-1) = sum_k C(n-1,k-1) lambda^k: the partitions of
    {1..n} into intervals, the only ones with no crossing, no nesting and no
    covered singleton (the covered moment at q = t = 0)."""
    return Poly.from_terms((comb(n - 1, k - 1), {"lambda": k}) for k in range(1, n + 1))


def bell_numbers(n_max: int) -> list:
    """B(0)..B(n_max) via B(n+1) = sum_k C(n,k) B(k)."""
    bell = [1]
    for n in range(n_max):
        bell.append(sum(comb(n, k) * bell[k] for k in range(n + 1)))
    return bell


def catalan_numbers(n_max: int) -> list:
    """C(0)..C(n_max) via C(n+1) = sum_i C(i) C(n-i)."""
    cat = [1]
    for n in range(n_max):
        cat.append(sum(cat[i] * cat[n - i] for i in range(n + 1)))
    return cat


def tridiagonal_moments(alpha, omega, n_max: int) -> list:
    """(0,0) entries of the powers 0..n_max of the tridiagonal array
    (sub-diagonal 1, diagonal alpha_i, super-diagonal omega_{i+1}).

    The row e_0 M^k is carried over the whole (n_max+1)-square array, with no
    pruning of rows that can no longer return to row 0.
    """
    size = n_max + 1
    zero = alpha(0) * 0
    matrix = [[zero] * size for _ in range(size)]
    for i in range(size):
        matrix[i][i] = alpha(i)
        if i + 1 < size:
            matrix[i][i + 1] = omega(i + 1)
            matrix[i + 1][i] = zero + 1

    row = [zero + 1] + [zero] * n_max
    out = [row[0]]
    for _ in range(n_max):
        nxt = [zero] * size
        for i, ri in enumerate(row):
            if ri == 0:
                continue
            for j in range(size):
                if matrix[i][j] != 0:
                    nxt[j] = nxt[j] + ri * matrix[i][j]
        row = nxt
        out.append(row[0])
    return out


def fraction_motzkin_moments(j, n_max: int) -> list:
    """Moments 0..n_max by the Motzkin path recursion over the data's own
    ring: for rational data, a ``Fraction`` add and multiply (and their gcd)
    at every step."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    one = j.alpha(0) * 0 + 1
    # A path of length n_max that ends at height 0 never climbs above n_max // 2.
    top = n_max // 2
    alpha = [j.alpha(h) for h in range(top + 1)]
    omega = [None] + [j.omega(h) for h in range(1, top + 1)]
    out = [one]
    state = {0: one}
    for left in range(n_max - 1, -1, -1):
        # ``left`` steps remain after this one; a path above that height can
        # no longer come back down, so no level above it is kept.
        new: dict = {}
        for level, w in state.items():
            if level < left:
                new[level + 1] = new.get(level + 1, 0) + w  # up step, weight 1
            if level <= left:
                new[level] = new.get(level, 0) + w * alpha[level]
            if level >= 1:
                new[level - 1] = new.get(level - 1, 0) + w * omega[level]
        state = new
        out.append(state.get(0, one * 0))
    return out


def unpruned_jfraction_series(b, lam, order: int) -> list:
    """Coefficients z^0..z^order of 1/(1 - b0 z - lam1 z^2/(1 - b1 z - ...)).

    Every level of the truncated fraction, from the deepest up, is expanded to
    the full order z^0..z^order and inverted as a series, with no pruning of
    coefficients or levels that cannot reach z^order.
    """
    zero = b[0] * 0
    inner = [zero] * (order + 1)
    for h in range(len(b) - 1, -1, -1):
        w = [zero] * (order + 1)  # b_h z + lam_{h+1} z^2 S_{h+1}
        if order >= 1:
            w[1] = b[h]
        if h < len(lam):
            for k in range(2, order + 1):
                w[k] = lam[h] * inner[k - 2]
        series = [zero + 1]
        for k in range(1, order + 1):
            acc = zero
            for i in range(1, k + 1):
                acc = acc + w[i] * series[k - i]
            series.append(acc)
        inner = series
    return inner


def tridiagonal_moment(alpha, omega, n: int):
    """(0,0) entry of the n-th power of the tridiagonal array
    (sub-diagonal 1, diagonal alpha_i, super-diagonal omega_{i+1})."""
    size = n + 1
    matrix = [[None] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            if i == j:
                matrix[i][j] = alpha(i)
            elif j == i + 1:
                matrix[i][j] = omega(i + 1)
            elif j == i - 1:
                matrix[i][j] = alpha(0) * 0 + 1
            else:
                matrix[i][j] = alpha(0) * 0

    power = [[alpha(0) * 0 + (1 if i == j else 0) for j in range(size)] for i in range(size)]
    for _ in range(n):
        nxt = [[alpha(0) * 0 for _ in range(size)] for _ in range(size)]
        for i in range(size):
            for k in range(size):
                pik = power[i][k]
                if pik == 0:
                    continue
                for j in range(size):
                    if matrix[k][j] != 0:
                        nxt[i][j] = nxt[i][j] + pik * matrix[k][j]
        power = nxt
    return power[0][0]


def product_orthogonality_values(polys, moments) -> dict:
    """L(P_n P_m) for every pair (n, m) of the given polynomials: each product
    is formed in full and every x^k in it is replaced by moments[k]."""
    out = {}
    for n, pn in enumerate(polys):
        for m, pm in enumerate(polys):
            prod = pn * pm
            value = Poly.zero()
            for k in range(prod.degree("x") + 1):
                value = value + prod.coefficient_of("x", k) * moments[k]
            out[n, m] = value
    return out


def laplace_determinant(matrix, cols=None):
    """det by cofactor expansion along the first row, recursively over the
    rows below and the columns left (all of them at first)."""
    cols = list(range(len(matrix))) if cols is None else cols
    if not cols:
        return Fraction(1)
    row = matrix[len(matrix) - len(cols)]
    return sum(((-1) ** i * row[c] * laplace_determinant(matrix, cols[:i] + cols[i + 1:])
                for i, c in enumerate(cols) if row[c]), Fraction(0))


def exchange_determinant(matrix) -> Fraction:
    """det by fraction Gaussian elimination that swaps the first nonzero row
    into each pivot slot; each pivot row updates only the rows and columns
    where the matrix is nonzero, and Fraction entries are shared, not copied."""
    n = len(matrix)
    work = [[x if type(x) is Fraction else Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for k in range(n):
        pivot_row = next((r for r in range(k, n) if work[r][k] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != k:
            work[k], work[pivot_row] = work[pivot_row], work[k]
            det = -det
        top = work[k]
        det *= top[k]
        cols = [c for c in range(k + 1, n) if top[c] != 0]
        for row in work[k + 1:]:
            if row[k] != 0:
                factor = row[k] / top[k]
                for c in cols:
                    row[c] -= factor * top[c]
    return det


def blockwise_leading_minors(matrix) -> list:
    """Leading principal minors, each k-by-k block eliminated on its own
    (row exchanges allowed) by :func:`exchange_determinant`."""
    return [exchange_determinant([row[: k + 1] for row in matrix[: k + 1]])
            for k in range(len(matrix))]


def permutation_inner_product(gram, q=Q, t=T):
    """sum over sigma of q^inv(sigma) t^(M - inv(sigma)) prod_k gram[k][sigma(k)],
    M = n(n-1)/2, by brute force over all n! permutations.

    Symbolic in q and t by default (integer or polynomial entries); with
    rational q and t and rational entries it is the multi-mode word inner
    product at that point.
    """
    n = len(gram)
    top = n * (n - 1) // 2
    total = q * 0
    for sigma in itertools.permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if sigma[i] > sigma[j])
        prod = q**inv * t ** (top - inv)
        for k in range(n):
            prod = prod * gram[k][sigma[k]]
        total = total + prod
    return total


def inversion_sum(n: int) -> Poly:
    """Sum over all permutations of q^inv t^(n(n-1)/2 - inv), by brute force."""
    top = n * (n - 1) // 2
    acc: dict = {}
    for sigma in itertools.permutations(range(n)):
        inv = sum(
            1
            for i in range(n)
            for j in range(i + 1, n)
            if sigma[i] > sigma[j]
        )
        acc[inv] = acc.get(inv, 0) + 1
    return Poly.from_terms((c, {"q": i, "t": top - i}) for i, c in acc.items())


def quadruple_crossings(blocks: list) -> int:
    """Crossings straight from the definition: quadruples a<b<c<d where c
    follows a in one block and d follows b in another."""
    follows = _follow_pairs(blocks)
    count = 0
    for (a, c) in follows:
        for (b, d) in follows:
            if a < b < c < d:
                count += 1
    return count


def quadruple_nestings(blocks: list) -> int:
    """Nestings straight from the definition: quadruples a<b<c<d where d
    follows a in one block and c follows b in another."""
    follows = _follow_pairs(blocks)
    count = 0
    for (a, d) in follows:
        for (b, c) in follows:
            if a < b and c < d:
                count += 1
    return count


def quadruple_covered_singletons(blocks: list) -> int:
    """Covered singletons straight from the definition: pairs (a<e<c) where c
    follows a in one block and e is alone in its block."""
    singles = [b[0] for b in blocks if len(b) == 1]
    return sum(1 for (a, c) in _follow_pairs(blocks) for e in singles if a < e < c)


def recursive_weight_census(n: int) -> dict:
    """{(blocks, crossings, strict nestings, covered singletons): count} by a
    recursive walk that closes each arc against every arc closed before it
    and counts each partition in a call of its own."""
    census: dict = {}
    last: list = []
    arcs: list = []

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


#: sha256 of ``repr(sorted(histogram.items()))`` for the n = 11 and n = 12
#: histograms {(blocks, crossings, strict nestings, covered singletons): count},
#: past the recursive census's reach.  Recorded from two routes that agree on
#: both: the census that closed each arc against every arc closed before it, and
#: the card walk that expanded each word's q-exponents letter by letter.  At
#: n = 12 a statistic first exceeds 15.
CENSUS_SHA256 = {
    11: "3445bdcb080ed23604b2e9a1dce0737152d2c5dedfe063903f1a8fdec06f56cb",
    12: "968169b6443b50502df5988301b33b245b9f48800842d1740f283b6575c9335e",
}


def _follow_pairs(blocks: list) -> list:
    pairs = []
    for block in blocks:
        elems = sorted(block)
        pairs.extend(zip(elems, elems[1:]))
    return pairs


def recursive_contributor_letters(n: int):
    """Application-order letter strings of the length-n contributors, by a
    recursive DFS trying the letters in the order C, A, N, S."""

    def walk(pos: int, level: int, acc: list):
        if pos == n:
            if level == 0:
                yield "".join(acc)
            return
        remaining = n - pos
        for letter in LETTERS:
            if letter == "C":
                if level + 1 > remaining - 1:
                    continue  # cannot come back down to 0 in time
                acc.append(letter)
                yield from walk(pos + 1, level + 1, acc)
                acc.pop()
            elif letter == "A":
                if level < 1:
                    continue
                acc.append(letter)
                yield from walk(pos + 1, level - 1, acc)
                acc.pop()
            else:
                if letter == "N" and level < 1:
                    continue
                if level > remaining - 1:
                    continue
                acc.append(letter)
                yield from walk(pos + 1, level, acc)
                acc.pop()

    yield from walk(0, 0, [])


_CARD_NAME = re.compile(r"([CS])(\d+)|([AI])(\d+)_(\d+)")


def card_weight(name: str, gauge=ScalarGauge.IDENTITY) -> Poly:
    """The weight of one card, by its name, in the rescaled basis of the
    operator: lambda for C_i, lambda (lambda t^i under T_POWER_N) for S_i, and
    t^(i-j) q^(j-1) for A_i_j and I_i_j.  Raises ValueError on a malformed
    name or a line choice j outside 1..i."""
    match = _CARD_NAME.fullmatch(name)
    if match is None:
        raise ValueError(f"malformed card name {name!r}")
    letter, level, _, choice_level, choice = match.groups()
    if letter == "S" and gauge is ScalarGauge.T_POWER_N:
        return Poly.from_terms([(1, {"lambda": 1, "t": int(level)})])
    if letter:
        return Poly.from_terms([(1, {"lambda": 1})])
    i, j = int(choice_level), int(choice)
    if not 1 <= j <= i:
        raise ValueError(f"line choice {j} outside 1..{i} in {name!r}")
    return Poly.from_terms([(1, {"t": i - j, "q": j - 1})])


def recursive_expansion_states(word):
    """(card names, block_of_element, q_exp, t_exp, singleton_levels) of every
    card arrangement of a contributor, by a recursive DFS over the line
    choices (j = 1 first), each name built from its letter, level and j."""
    letters = word.application_order()
    n = len(letters)

    def walk(pos, stack, next_block, cards, owner, q_exp, t_exp, single_lv):
        if pos == n:
            yield tuple(cards), tuple(owner), q_exp, t_exp, single_lv
            return
        letter = letters[pos]
        level = len(stack)
        if letter == "C":
            cards.append(f"C{level}")
            owner.append(next_block)
            yield from walk(pos + 1, (next_block,) + stack, next_block + 1,
                            cards, owner, q_exp, t_exp, single_lv)
            cards.pop()
            owner.pop()
        elif letter == "S":
            cards.append(f"S{level}")
            owner.append(next_block)
            yield from walk(pos + 1, stack, next_block + 1,
                            cards, owner, q_exp, t_exp, single_lv + level)
            cards.pop()
            owner.pop()
        elif letter == "A":
            for j in range(1, level + 1):
                cards.append(f"A{level}_{j}")
                owner.append(stack[j - 1])
                yield from walk(pos + 1, stack[: j - 1] + stack[j:], next_block,
                                cards, owner, q_exp + j - 1, t_exp + level - j, single_lv)
                cards.pop()
                owner.pop()
        else:  # N -> intermediate card: block re-anchored at the bottom
            for j in range(1, level + 1):
                cards.append(f"I{level}_{j}")
                owner.append(stack[j - 1])
                moved = (stack[j - 1],) + stack[: j - 1] + stack[j:]
                yield from walk(pos + 1, moved, next_block,
                                cards, owner, q_exp + j - 1, t_exp + level - j, single_lv)
                cards.pop()
                owner.pop()

    yield from walk(0, (), 0, [], [], 0, 0, 0)


def classical_binomial_moments(m: int, p: Fraction, n_max: int) -> list:
    """Moments of the classical binomial law: sum_k C(m,k) p^k (1-p)^(m-k) k^n."""
    p = Fraction(p)
    out = []
    for n in range(n_max + 1):
        total = Fraction(0)
        for k in range(m + 1):
            total += comb(m, k) * p**k * (1 - p) ** (m - k) * Fraction(k) ** n
        out.append(total)
    return out
