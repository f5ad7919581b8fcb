"""One-mode operator layer, deformed inner product, multi-mode rational checks."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from qtmoments.fock import (
    FockVector,
    LETTERS,
    OperatorWord,
    ScalarGauge,
    TruncationOverflow,
    apply_letter,
    apply_poisson,
    apply_word,
    basis_words,
    check_adjointness,
    check_commutation,
    check_gram_positivity,
    determinant,
    leading_principal_minors,
    moment_by_operator,
    multimode_gram,
    qt_inner_product,
    vacuum_expectation_word,
    word_inner_product,
    _WordForm,
)
from qtmoments.cards import expand_arrangements, moment_by_cards
from qtmoments.orthopoly import charlier_strict, check_orthogonality, moments_by_motzkin
from qtmoments.partitions import SetPartition, moment_by_partitions, restricted_nestings
from qtmoments.qtnum import qt_factorial, qt_number
from qtmoments.ring import LAMBDA, Poly, Q, T

from oracles import (
    blockwise_leading_minors,
    inversion_sum,
    laplace_determinant,
    letterwise_poisson,
    permutation_inner_product,
    word_levels,
)

IDENTITY = ScalarGauge.IDENTITY
TPOWER = ScalarGauge.T_POWER_N


def test_letter_actions():
    v = FockVector.basis(4, 2)
    assert apply_letter("N", v).coeffs[2] == T + Q
    assert apply_letter("C", v).coeffs[3] == LAMBDA
    assert apply_letter("A", v).coeffs[1] == T + Q
    assert apply_letter("S", v).coeffs[2] == LAMBDA
    assert apply_letter("S", v, TPOWER).coeffs[2] == LAMBDA * T**2


@pytest.mark.parametrize(
    "letter, gauge, expected",
    [
        ("C", IDENTITY, "f3: lambda"),
        ("A", IDENTITY, "f1: t + q"),
        ("N", IDENTITY, "f2: t + q"),
        ("S", IDENTITY, "f2: lambda"),
        ("S", TPOWER, "f2: lambda*t^2"),
    ],
)
def test_apply_letter_acts_by_its_character(letter, gauge, expected):
    assert repr(apply_letter(letter, FockVector.basis(4, 2), gauge)) == f"FockVector({expected})"


@pytest.mark.parametrize("bad", ["X", "", "CA", "c", None], ids=repr)
def test_apply_letter_rejects_anything_but_one_letter(bad):
    with pytest.raises(ValueError, match="not an operator letter"):
        apply_letter(bad, FockVector.basis(4, 2))


_CONVENTION_TAKERS = {
    "apply_letter": lambda g: apply_letter("S", FockVector.basis(2, 1), g),
    "apply_poisson": lambda g: apply_poisson(FockVector.vacuum(2), g),
    "apply_word-empty": lambda g: apply_word(OperatorWord(""), FockVector.vacuum(1), g),
    "vacuum_expectation_word": lambda g: vacuum_expectation_word(OperatorWord("ASC"), g),
    "vacuum_expectation_word-empty": lambda g: vacuum_expectation_word(OperatorWord(""), g),
    "moment_by_operator": lambda g: moment_by_operator(3, g),
    "moment_by_operator-n0": lambda g: moment_by_operator(0, g),
    "restricted_nestings": lambda g: restricted_nestings(SetPartition(3, (0, 1, 0)), g),
    "moment_by_partitions": lambda g: moment_by_partitions(3, g),
    "expand_arrangements": lambda g: expand_arrangements(OperatorWord("ASC"), g),
    "moment_by_cards": lambda g: moment_by_cards(3, g),
}


@pytest.mark.parametrize("bad", [None, "tpowern", True], ids=repr)
@pytest.mark.parametrize("route", _CONVENTION_TAKERS)
def test_every_route_rejects_a_convention_that_is_not_a_gauge(route, bad):
    # a wrong value must not be read as either convention, and a member's own
    # value ("tpowern") is no second spelling of it
    with pytest.raises(ValueError, match=f"not a ScalarGauge member: {bad!r}"):
        _CONVENTION_TAKERS[route](bad)


@pytest.mark.parametrize("bad", ["CX", "A C", ("C", "A"), None], ids=repr)
def test_word_rejects_text_outside_the_alphabet(bad):
    with pytest.raises(ValueError, match="not a word over CANS"):
        OperatorWord(bad)


def test_annihilation_kills_vacuum():
    v = FockVector.vacuum(3)
    assert apply_letter("A", v).is_zero()


def test_creation_then_annihilation_gives_lambda():
    v = FockVector.vacuum(2)
    v = apply_letter("C", v)
    v = apply_letter("A", v)
    assert v.coeffs[0] == LAMBDA


def test_truncation_overflow():
    v = FockVector.basis(2, 2)
    with pytest.raises(TruncationOverflow):
        apply_letter("C", v)


@pytest.mark.parametrize("bad", [Fraction(1, 2), 0.5], ids=repr)
def test_fock_vector_rejects_a_coefficient_outside_the_ring(bad):
    # The ring holds integer polynomials only; a rational or float coefficient
    # must fail at construction, not later in repr or apply_poisson.
    with pytest.raises(TypeError):
        FockVector(1, [bad, 0])
    assert FockVector(1, [LAMBDA, 2]).coeffs == [LAMBDA, Poly.constant(2)]


def test_word_parsing_and_levels():
    w = OperatorWord.from_string("AASNCC")
    assert w.to_string() == "AASNCC"
    assert word_levels(w) == (0, 1, 2, 2, 2, 1, 0)
    assert not vacuum_expectation_word(w).is_zero


def test_single_creation_is_not_a_contributor():
    w = OperatorWord.from_string("C")
    assert word_levels(w) == (0, 1)
    assert vacuum_expectation_word(w) == Poly.zero()


def test_empty_word_is_identity():
    w = OperatorWord("")
    assert vacuum_expectation_word(w) == Poly.one()


def test_worked_word_example():
    w = OperatorWord.from_string("AASNCC")
    assert vacuum_expectation_word(w, IDENTITY) == LAMBDA**3 * qt_number(2) ** 2


def test_number_letter_needs_level_one():
    assert word_levels(OperatorWord.from_string("N")) == (0, 0)
    assert vacuum_expectation_word(OperatorWord.from_string("N")) == Poly.zero()


def test_moment_small_values():
    assert moment_by_operator(0, IDENTITY) == Poly.one()
    assert moment_by_operator(1, IDENTITY) == LAMBDA
    assert moment_by_operator(2, IDENTITY) == LAMBDA**2 + LAMBDA
    assert moment_by_operator(2, TPOWER) == LAMBDA**2 + LAMBDA


def test_fourth_moment_tpower_matches_table():
    expected = Poly.parse(
        "lambda^3*t^2 + lambda^4 + 2*lambda^3*t + 3*lambda^3"
        " + 3*lambda^2*t + lambda^2*q + 3*lambda^2 + lambda"
    )
    assert moment_by_operator(4, TPOWER) == expected


def test_moment_equals_sum_over_all_words():
    # the operator power expands into exactly the 4^n letter words
    for gauge in (IDENTITY, TPOWER):
        for n in range(7):
            total = Poly.zero()
            for letters in map("".join, itertools.product(LETTERS, repeat=n)):
                total = total + vacuum_expectation_word(OperatorWord(letters), gauge)
            assert total == moment_by_operator(n, gauge)


def test_gauge_statistic_correspondence():
    for n in range(1, 9):
        assert moment_by_operator(n, IDENTITY) == moment_by_partitions(n, IDENTITY)
        assert moment_by_operator(n, TPOWER) == moment_by_partitions(n, TPOWER)


def test_number_letter_expands_to_creation_annihilation():
    # replacing N by CA (annihilate, then create) preserves the vacuum
    # expectation once lambda is set to 1, for every contributor
    from qtmoments.cards import enumerate_contributors

    for n in range(1, 7):
        for w in enumerate_contributors(n):
            if "N" not in w.letters:
                continue
            expanded = OperatorWord.from_string(
                w.to_string().replace("N", "CA")
            )
            lhs = vacuum_expectation_word(w).substitute("lambda", 1)
            rhs = vacuum_expectation_word(expanded).substitute("lambda", 1)
            assert lhs == rhs, w.to_string()


def test_inner_product_single_entry():
    assert qt_inner_product([[7]]) == Poly.constant(7)


def test_inner_product_identity_gram():
    assert qt_inner_product([[1, 0], [0, 1]]) == T


def test_inner_product_all_ones_matches_factorial():
    for n in range(1, 9):
        gram = [[1] * n for _ in range(n)]
        assert qt_inner_product(gram) == qt_factorial(n) == inversion_sum(n)


# zeros twice as likely, so that products often stop at a zero factor
_ring_entries = st.sampled_from([0, 0, 1, -1, 2, Q, T - 1, 2 * Q * T + LAMBDA])


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 6).flatmap(
        lambda n: st.lists(st.lists(_ring_entries, min_size=n, max_size=n), min_size=n, max_size=n)
    )
)
def test_symbolic_inner_product_matches_permutation_sum(gram):
    assert qt_inner_product(gram) == permutation_inner_product(gram)


def test_commutation_symbolic_and_rational():
    assert check_commutation(12).passed


def test_word_inner_product_one_mode_reduces_to_factorial():
    g = [[Fraction(1)]]
    q, t = Fraction(1, 3), Fraction(1, 2)
    for n in range(5):
        word = (0,) * n
        expected = qt_factorial(n).eval({"q": q, "t": t})
        assert word_inner_product(word, word, g, q, t) == expected


def test_lower_weights_each_slot_of_a_word():
    # a non-symmetric Gram with a zero entry and q != t pin the slot order,
    # the exponents q^k t^(m-1-k) and which Gram entry each slot takes; a weight
    # on a length-3 word is an int over the form's scale(3) / scale(2)
    form = _WordForm([[2, 1], [0, 3]], Fraction(1, 3), Fraction(1, 2))
    v = (0, 1, 1)
    unit = form.scale(3) // form.scale(2)
    lowered = {i: form.lower(i, v) for i in (0, 1)}
    assert all(type(w) is int for low in lowered.values() for w, _ in low)
    as_rationals = {i: [(Fraction(w, unit), rest) for w, rest in low] for i, low in lowered.items()}
    assert as_rationals[0] == [
        (Fraction(1, 2), (1, 1)),  # t^2 g[0][0]
        (Fraction(1, 6), (0, 1)),  # q t g[0][1]
        (Fraction(1, 9), (0, 1)),  # q^2 g[0][1]
    ]
    # g[1][0] = 0 drops slot 0
    assert as_rationals[1] == [(Fraction(1, 2), (0, 1)), (Fraction(1, 3), (0, 1))]
    assert form.lower(0, ()) == []


def _agrees_with_the_oracle(d, n, gram, q, t):
    """Every word pair's inner product and Gram entry equal the n! sum, and
    adjointness passes."""
    words = basis_words(d, n)
    matrix = multimode_gram(d, n, gram, q, t)
    for u, row in zip(words, matrix):
        for v, entry in zip(words, row):
            expected = 0
            if len(u) == len(v):
                expected = permutation_inner_product([[gram[a][b] for b in v] for a in u], q, t)
            assert word_inner_product(u, v, gram, q, t) == entry == expected, (u, v)
    report = check_adjointness(d, n, gram, q, t)
    assert report.passed and report.checked == d * len(words) ** 2, report.failures[:3]


@pytest.mark.parametrize("q, t", [("1/3", "1/2"), ("-2/5", "3/4"), ("0", "2/7")])
def test_gram_with_its_own_denominators_over_ints(q, t):
    # the Gram's denominators (2, 3, 4) are not those of q and t, so the one
    # denominator of a length-m word must carry both: D^M G^m
    gram = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(0), Fraction(5, 4)]]
    _agrees_with_the_oracle(2, 3, gram, Fraction(q), Fraction(t))


_rationals = st.fractions(min_value=-2, max_value=2, max_denominator=6)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 3),
    st.lists(st.lists(_rationals, min_size=2, max_size=2), min_size=2, max_size=2),
    _rationals,
    _rationals,
)
def test_random_rational_points_over_ints(n, gram, q, t):
    _agrees_with_the_oracle(2, n, gram, q, t)


def _lower_with_q_and_t_swapped(self, i, v):
    m = len(v)
    weights = [self.q ** (m - 1 - k) * self.t**k * self.g[i][v[k]] for k in range(m)]
    return [(w, v[:k] + v[k + 1 :]) for k, w in enumerate(weights) if w]


def test_wrong_annihilation_weights_fail_both_multimode_routes(monkeypatch):
    # adjointness and the Gram recursion take their weights from lower; with
    # the q and t exponents swapped, both must disagree with the permutation sum
    monkeypatch.setattr(_WordForm, "lower", _lower_with_q_and_t_swapped)
    identity, q, t = [[1, 0], [0, 1]], Fraction(1, 3), Fraction(1, 2)
    report = check_adjointness(2, 3, identity, q, t)
    assert report.checked == 450 and len(report.failures) == 20
    # each side is shown as the rational it stands for: <01|01> = t, but the
    # swapped slot-0 weight of lower(0, 01) is q
    assert report.failures[:2] == [
        "letter 0, u=(1,), v=(0, 1): 1/2 != 1/3",
        "letter 0, u=(1,), v=(1, 0): 1/3 != 1/2",
    ]
    words = basis_words(2, 3)
    matrix = multimode_gram(2, 3, identity, q, t)
    wrong = [
        (u, v)
        for u, row in zip(words, matrix)
        for v, entry in zip(words, row)
        if len(u) == len(v)
        and entry != permutation_inner_product([[identity[a][b] for b in v] for a in u], q, t)
    ]
    assert wrong


def test_adjointness_samples():
    identity = [[1, 0], [0, 1]]
    for q, t in [(Fraction(1, 3), Fraction(1, 2)), (Fraction(-1, 4), Fraction(2, 3))]:
        report = check_adjointness(2, 4, identity, q, t)
        assert report.passed, report.failures[:3]


def test_adjointness_one_mode():
    report = check_adjointness(1, 4, [[1]], Fraction(1, 3), Fraction(1, 2))
    assert report.passed


def test_adjointness_with_nontrivial_gram():
    gram = [[Fraction(1), Fraction(1, 2)], [Fraction(1, 2), Fraction(1)]]
    report = check_adjointness(2, 3, gram, Fraction(1, 3), Fraction(1, 2))
    assert report.passed


def test_gram_positivity_samples():
    identity = [[1, 0], [0, 1]]
    samples = [
        (Fraction(1, 3), Fraction(1, 2)),
        (Fraction(-1, 4), Fraction(1, 2)),
        (Fraction(0), Fraction(1)),
        (Fraction(9, 10), Fraction(1)),
    ]
    for q, t in samples:
        assert check_gram_positivity(2, 4, identity, q, t).passed
        assert check_gram_positivity(1, 4, [[1]], q, t).passed


def test_a_check_that_checks_nothing_fails():
    for report in (
        check_commutation(0),
        check_adjointness(0, 3, [], Fraction(1, 3), Fraction(1, 2)),
    ):
        assert report.checked == 0
        assert not report.passed
        assert str(report) == f"{report.name}: 0 checks, nothing checked"


def _unformattable(self):
    raise AssertionError("a passing check formatted a value")


def test_passing_checks_format_no_failure_text(monkeypatch):
    # a failure's text renders Polys and Fractions; a passing check must build
    # none of it (integer q and t keep the report names free of Fraction text)
    j = charlier_strict()
    moments = moments_by_motzkin(j, 12)
    gram = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(0), Fraction(5, 4)]]
    monkeypatch.setattr(Poly, "canonical_str", _unformattable)
    monkeypatch.setattr(Fraction, "__str__", _unformattable)
    with pytest.raises(AssertionError, match="formatted a value"):
        str(Fraction(1, 3))
    reports = [
        check_orthogonality(j, 6, moments),
        check_adjointness(2, 3, gram, 0, 1),
        check_gram_positivity(2, 3, [[1, 0], [0, 1]], 0, 1),
        check_commutation(8),
    ]
    assert all(report.passed for report in reports)


def test_multimode_gram_matches_symbolic_inner_product():
    # a non-symmetric integer Gram and q != t pin which letter pairs and which
    # permutation weight q^inv t^(M-inv) each term gets
    gram = [[2, 1], [0, 3]]
    q, t = Fraction(1, 3), Fraction(1, 2)
    matrix = multimode_gram(2, 3, gram, q, t)
    for u, row in zip(basis_words(2, 3), matrix):
        for v, entry in zip(basis_words(2, 3), row):
            if len(u) == len(v):
                pairs = [[gram[a][b] for b in v] for a in u]
                expected = permutation_inner_product(pairs).eval({"q": q, "t": t})
            else:
                expected = 0
            assert entry == expected, (u, v)


# zeros twice as likely, so that zero pivots and zero minors are common
_small_entries = st.sampled_from([Fraction(x) for x in ("0", "0", "1", "-1", "2", "1/2", "-1/3")])


def _square(n: int):
    row = st.lists(_small_entries, min_size=n, max_size=n)
    return st.lists(row, min_size=n, max_size=n)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(_square))
@example([[0, 1], [1, 0]])  # zero first pivot, then a negative minor
@example([[1, 1, 0], [1, 1, 1], [0, 1, 1]])  # zero pivot inside, minors 1, 0, -1
@example([[1, 2], [2, 4]])  # singular: last minor 0
@example([[0, 1, 0], [1, 0, 0], [0, 0, 1]])  # pivots out of row order: 0, -1, -1
@example([[0, 0, 1], [0, 1, 0], [1, 0, 0]])  # rows 2, 1, 0 as pivots: 0, 0, -1
@example([[0, 0], [0, 1]])  # a zero column: 0, 0
@example([])  # no minors, determinant 1
def test_one_pass_minors_match_blockwise_determinants(matrix):
    minors = leading_principal_minors(matrix)
    assert minors == blockwise_leading_minors(matrix)
    # the last minor is the determinant; cofactor expansion checks it apart
    # from both eliminations
    assert determinant(matrix) == laplace_determinant(matrix) == (minors[-1] if matrix else 1)


@pytest.mark.parametrize(
    "q, sign",
    [(Fraction(-1), 0), (Fraction(-2), -1)],
    ids=["zero-minor", "negative-minor"],
)
def test_gram_positivity_fails_with_blockwise_messages(q, sign):
    # at t = 1 the two-letter word 00 has norm [2] = 1 + q: 0 at q = -1, -1 at q = -2
    identity, t = [[1, 0], [0, 1]], Fraction(1)
    minors = blockwise_leading_minors(multimode_gram(2, 4, identity, q, t))
    assert any((m > 0) - (m < 0) == sign for m in minors)
    report = check_gram_positivity(2, 4, identity, q, t)
    assert report.checked == 31
    assert report.failures == [
        f"leading minor {k} = {m} not positive" for k, m in enumerate(minors, 1) if not m > 0
    ]


_qt_values = st.sampled_from([Fraction(x) for x in ("0", "1", "-1", "1/3", "-1/2", "2")])


@st.composite
def _multimode_case(draw):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(0, 3 if d == 3 else 4))
    return d, n, draw(_square(d)), draw(_qt_values), draw(_qt_values)


@settings(max_examples=20, deadline=None)
@given(_multimode_case())
def test_block_recursion_matches_permutation_sum(case):
    # a non-symmetric rational Gram with zeros, at points with q or t zero or
    # negative: every entry, in or out of the length blocks, against the n! sum
    d, n, gram, q, t = case
    words = basis_words(d, n)
    matrix = multimode_gram(d, n, gram, q, t)
    assert len(matrix) == len(words) and all(len(row) == len(words) for row in matrix)
    for u, row in zip(words, matrix):
        for v, entry in zip(words, row):
            if len(u) == len(v):
                expected = permutation_inner_product([[gram[a][b] for b in v] for a in u], q, t)
            else:
                expected = 0
            assert entry == expected, (u, v)


@st.composite
def _word_pair(draw):
    d = draw(st.integers(1, 3))
    m = draw(st.integers(0, 5))
    word = st.lists(st.integers(0, d - 1), min_size=m, max_size=m).map(tuple)
    return draw(word), draw(word), draw(_square(d)), draw(_qt_values), draw(_qt_values)


@settings(max_examples=100, deadline=None)
@given(_word_pair())
@example(((0, 1, 1), (1, 1, 0), [[2, 1], [0, 3]], Fraction(1, 3), Fraction(1, 2)))
def test_word_inner_product_matches_permutation_sum(case):
    # a non-symmetric rational Gram with zeros and negative entries, at points
    # with q or t zero or negative, against the oracle's n! sum
    u, v, gram, q, t = case
    expected = permutation_inner_product([[gram[a][b] for b in v] for a in u], q, t)
    assert word_inner_product(u, v, gram, q, t) == expected


@pytest.mark.parametrize(
    "d, gram",
    [
        (3, [[1, 0], [0, 1]]),
        (2, [[1, 0], [0]]),
        (2, [[1]]),
        (1, [[1, 5], [5, 1]]),
        (1, [[1, 0]]),
    ],
    ids=["too-small", "ragged", "one-by-one", "too-large", "one-by-two"],
)
def test_gram_of_wrong_size_is_rejected(d, gram):
    for check in (check_gram_positivity, check_adjointness, multimode_gram):
        with pytest.raises(ValueError, match="gram must be a d x d matrix"):
            check(d, 2, gram, Fraction(1, 3), Fraction(1, 2))
    # two words carry no d: their Gram is wrong only when it is not square
    if any(len(row) != len(gram) for row in gram):
        with pytest.raises(ValueError, match="gram must be a d x d matrix"):
            word_inner_product((0,), (0,), gram, Fraction(1, 3), Fraction(1, 2))


@pytest.mark.parametrize(
    "u, v",
    [((-1,), (1,)), ((2,), (1,)), ((0,), (2,)), ((0, 1), (1, -2))],
    ids=["negative-left", "too-large-left", "too-large-right", "negative-in-second-slot"],
)
def test_word_letter_outside_the_gram_is_rejected(u, v):
    # a negative letter must not index the Gram from its end
    with pytest.raises(ValueError, match=r"letter outside range\(2\)"):
        word_inner_product(u, v, [[1, 0], [0, 1]], Fraction(1, 3), Fraction(1, 2))


_REACH_POINTS = {
    "q1/3-t1/2": (Fraction(1, 3), Fraction(1, 2), 1),
    "q-1/2-t3/4": (Fraction(-1, 2), Fraction(3, 4), 1),
    "q9/10-t1": (Fraction(9, 10), Fraction(1), 1),
    "zero-minor": (Fraction(-1), Fraction(1), 0),
    "negative-minor": (Fraction(-2), Fraction(1), -1),
}
_REACH_SIZES = {"d2-n6": (2, 6, 127), "d3-n4": (3, 4, 121), "d2-n7": (2, 7, 255), "d3-n5": (3, 5, 364)}
# every point at the two smaller sizes; at the larger ones one point inside and one
# zero-minor control
_REACH_CASES = [(size, point) for size in ("d2-n6", "d3-n4") for point in _REACH_POINTS]
_REACH_CASES += [
    (size, point) for size in ("d2-n7", "d3-n5") for point in ("q1/3-t1/2", "zero-minor")
]


@pytest.mark.parametrize(
    "d, n, words, q, t, sign",
    [
        pytest.param(*_REACH_SIZES[size], *_REACH_POINTS[point], id=f"{size}-{point}")
        for size, point in _REACH_CASES
    ],
)
def test_gram_positivity_reach(d, n, words, q, t, sign):
    # all minors positive inside |q| < t <= 1; at t = 1 outside it, the first
    # failure is the minor that closes on the word 00, whose norm is 1 + q
    identity = [[int(a == b) for b in range(d)] for a in range(d)]
    report = check_gram_positivity(d, n, identity, q, t)
    assert report.checked == words
    if sign > 0:
        assert report.passed, report.failures[:3]
        return
    assert (1 + q > 0) - (1 + q < 0) == sign
    assert report.failures[0] == f"leading minor {d + 2} = {1 + q} not positive"
    if sign < 0:
        # every minor, not just the first failure, against block-by-block elimination
        matrix = multimode_gram(d, n, identity, q, t)
        assert leading_principal_minors(matrix) == blockwise_leading_minors(matrix)


_small_polys = st.lists(
    st.tuples(
        st.integers(-9, 9),
        st.fixed_dictionaries({}, optional={v: st.integers(0, 3) for v in ("lambda", "t", "q")}),
    ),
    max_size=4,
).map(Poly.from_terms)


@st.composite
def _fock_vectors(draw):
    dim = draw(st.integers(0, 6))
    coeffs = draw(st.lists(_small_polys, min_size=dim, max_size=dim))
    # a nonzero top level makes the creation letter overflow
    top = draw(st.one_of(st.just(Poly.zero()), _small_polys))
    return FockVector(dim, coeffs + [top])


@settings(max_examples=100, deadline=None)
@given(_fock_vectors(), st.sampled_from([IDENTITY, TPOWER]))
def test_poisson_step_matches_letterwise_sum(v, gauge):
    if v.coeffs[v.dim].is_zero:
        assert apply_poisson(v, gauge) == letterwise_poisson(v, gauge)
        return
    for step in (apply_poisson, letterwise_poisson):
        with pytest.raises(TruncationOverflow):
            step(v, gauge)


def test_apply_word_matches_letterwise():
    w = OperatorWord.from_string("ANC")
    v = FockVector.vacuum(4)
    step = apply_letter("C", v)
    step = apply_letter("N", step)
    step = apply_letter("A", step)
    assert apply_word(w, v) == step
