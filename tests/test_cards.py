"""Card arrangements: expansion, weights, induced partitions, bijection."""

import hashlib
import itertools
import re
from functools import reduce
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

import qtmoments.cards as cards
from qtmoments.cards import (
    NotContributor,
    _contributor_letter_stream,
    _contributor_walk,
    arrangement_record,
    enumerate_contributors,
    expand_arrangements,
    moment_by_cards,
)
from qtmoments.fock import (
    LETTERS,
    OperatorWord,
    ScalarGauge,
    vacuum_expectation_word,
)
from qtmoments.partitions import (
    SetPartition,
    _histogram_moments,
    _weight_census,
    enumerate_partitions,
    moment_by_partitions,
)
from qtmoments.orthopoly import charlier_strict, charlier_t_gauge, moments_by_motzkin
from qtmoments.ring import Poly

from oracles import (
    CENSUS_SHA256,
    bell_numbers,
    card_weight,
    catalan_numbers,
    partition_from_blocks,
    recursive_contributor_letters,
    recursive_expansion_states,
    word_levels,
)

IDENTITY = ScalarGauge.IDENTITY
TPOWER = ScalarGauge.T_POWER_N


def _brute_force_contributors(n: int) -> list:
    """Independent route: a word contributes iff its vacuum expectation is nonzero."""
    out = []
    for letters in map("".join, itertools.product(LETTERS, repeat=n)):
        w = OperatorWord(letters)
        if not vacuum_expectation_word(w).is_zero:
            out.append(w.letters)
    return sorted(out)


def test_single_letter_contributors():
    words = [w.letters for w in enumerate_contributors(1)]
    assert words == ["S"]
    assert _brute_force_contributors(1) == ["S"]


def test_two_letter_contributors_brute_force():
    # exhaustive scan over all 16 words: only SS and the
    # annihilation-after-creation word survive
    assert _brute_force_contributors(2) == ["AC", "SS"]
    assert sorted(w.letters for w in enumerate_contributors(2)) == ["AC", "SS"]


def test_contributor_enumeration_matches_brute_force():
    for n in range(1, 7):
        expected = _brute_force_contributors(n)
        got = sorted(w.letters for w in enumerate_contributors(n))
        assert got == expected


def test_letter_stream_matches_recursive_oracle():
    for n in range(1, 10):
        assert list(_contributor_letter_stream(n)) == list(recursive_contributor_letters(n)), n


def test_contributors_are_counted_by_catalan():
    cat = catalan_numbers(10)
    for n in range(1, 11):
        assert sum(1 for _ in enumerate_contributors(n)) == cat[n], n
        assert sum(1 for _ in _contributor_letter_stream(n)) == cat[n], n


@pytest.mark.parametrize("n", [0, -2])
def test_enumerate_contributors_rejects_a_size_below_one(n):
    with pytest.raises(ValueError, match="n must be positive"):
        list(enumerate_contributors(n))


def test_expansion_matches_recursive_oracle():
    for n in range(1, 8):
        for word in enumerate_contributors(n):
            states = list(recursive_expansion_states(word))
            for gauge in (IDENTITY, TPOWER):
                arrs = expand_arrangements(word, gauge)
                assert len(arrs) == len(states), word.letters
                for arr, (cards, owner, q_exp, t_exp, single_lv) in zip(arrs, states):
                    lam = sum(1 for name in cards if name[0] in "CS")
                    t_total = t_exp + (single_lv if gauge is TPOWER else 0)
                    assert arr.word == word
                    assert arr.cards == cards
                    assert arr.partition == SetPartition(owner)
                    assert arr.weight == Poly.from_terms(
                        [(1, {"lambda": lam, "q": q_exp, "t": t_total})]
                    ), word.letters


def test_empty_word_has_no_arrangements():
    with pytest.raises(ValueError, match="empty word"):
        expand_arrangements(OperatorWord(""), IDENTITY)


def test_enumeration_is_deterministic():
    first = [w.letters for w in enumerate_contributors(6)]
    second = [w.letters for w in enumerate_contributors(6)]
    assert first == second
    assert len(first) == len(set(first))


def test_worked_example_is_a_contributor():
    assert not vacuum_expectation_word(OperatorWord.from_string("AASNCC")).is_zero


def test_worked_example_expansion():
    arrs = expand_arrangements(OperatorWord.from_string("AASNCC"), IDENTITY)
    got = {
        (a.cards, a.weight.canonical_str(), str(a.partition))
        for a in arrs
    }
    assert got == {
        (("C0", "C1", "I2_1", "S2", "A2_1", "A1_1"), "lambda^3*t^2",
         "{{1,6}, {2,3,5}, {4}}"),
        (("C0", "C1", "I2_1", "S2", "A2_2", "A1_1"), "lambda^3*t*q",
         "{{1,5}, {2,3,6}, {4}}"),
        (("C0", "C1", "I2_2", "S2", "A2_1", "A1_1"), "lambda^3*t*q",
         "{{1,3,5}, {2,6}, {4}}"),
        (("C0", "C1", "I2_2", "S2", "A2_2", "A1_1"), "lambda^3*q^2",
         "{{1,3,6}, {2,5}, {4}}"),
    }


def test_ten_letter_example_arrangement():
    word = OperatorWord.from_string("AASACNNNCC")
    target = partition_from_blocks([[1, 3, 4, 7], [2, 5, 10], [6, 9], [8]])
    matches = [a for a in expand_arrangements(word, IDENTITY) if a.partition == target]
    assert len(matches) == 1
    assert matches[0].weight == Poly.parse("lambda^4*t^2*q^4")


def test_second_ten_letter_example_arrangement():
    word = OperatorWord.from_string("AAACNSNNCC")
    target = partition_from_blocks([[1, 4, 6, 9], [2, 3, 10], [5], [7, 8]])
    matches = [a for a in expand_arrangements(word, IDENTITY) if a.partition == target]
    assert len(matches) == 1
    assert matches[0].weight == Poly.parse("lambda^4*t^5*q")


def test_scalar_word_expansion():
    arrs = expand_arrangements(OperatorWord.from_string("S"), IDENTITY)
    assert len(arrs) == 1
    assert arrs[0].weight == Poly.parse("lambda")
    assert arrs[0].partition == SetPartition((0,))


def test_non_contributor_raises():
    # CAC and ASAC fail only after a choice card; the walk raises on its first path.
    for text in ("A", "N", "C", "CA", "CAC", "ASAC"):
        for gauge in (IDENTITY, TPOWER):
            with pytest.raises(NotContributor, match=f"^{text}$"):
                expand_arrangements(OperatorWord.from_string(text), gauge)


def test_expansion_count_is_product_of_levels():
    word = OperatorWord.from_string("AASNCC")
    levels = word_levels(word)
    letters = word.application_order()
    expected = 1
    for k, letter in enumerate(letters):
        if letter in ("A", "N"):
            expected *= levels[k]
    assert len(expand_arrangements(word, IDENTITY)) == expected == 4


def test_bijection_with_partitions():
    for n in range(1, 8):
        seen = {}
        for word in enumerate_contributors(n):
            for arr in expand_arrangements(word, IDENTITY):
                seen[arr.partition.rgs] = seen.get(arr.partition.rgs, 0) + 1
        universe = [p.rgs for p in enumerate_partitions(n)]
        assert sorted(seen) == universe
        assert all(count == 1 for count in seen.values())


def test_weight_equals_partition_statistics():
    for n in range(1, 8):
        for word in enumerate_contributors(n):
            for gauge in (IDENTITY, TPOWER):
                for arr in expand_arrangements(word, gauge):
                    p = arr.partition
                    blocks, rc, rn, cov = p.statistics
                    expected = Poly.from_terms([(1, {
                        "lambda": blocks,
                        "q": rc,
                        "t": rn + cov if gauge is TPOWER else rn,
                    })])
                    assert arr.weight == expected, (word.letters, str(p))


def _card_product(arr, gauge) -> Poly:
    return reduce(mul, (card_weight(name, gauge) for name in arr.cards), Poly.one())


def test_arrangement_weights_sum_to_vacuum_expectation():
    for n in range(1, 8):
        for word in enumerate_contributors(n):
            for gauge in (IDENTITY, TPOWER):
                total = Poly.zero()
                for arr in expand_arrangements(word, gauge):
                    assert _card_product(arr, gauge) == arr.weight, word.letters
                    total = total + arr.weight
                assert total == vacuum_expectation_word(word, gauge), word.letters


@st.composite
def contributor_words(draw, max_len: int = 10):
    """A random contributor, built letter by letter in application order: each
    letter keeps the level non-negative and able to return to 0 in time."""
    n = draw(st.integers(1, max_len))
    letters, level = "", 0
    for pos in range(n):
        remaining = n - pos - 1  # letters still to come after this one
        allowed = []
        if level + 1 <= remaining:
            allowed.append("C")
        if level >= 1:
            allowed.append("A")
        if level <= remaining:
            if level >= 1:
                allowed.append("N")
            allowed.append("S")
        letter = draw(st.sampled_from(allowed))
        letters += letter
        level += {"C": 1, "A": -1}.get(letter, 0)
    return OperatorWord(letters[::-1])


@given(contributor_words(), st.sampled_from([IDENTITY, TPOWER]))
@settings(max_examples=60, deadline=None)
def test_card_weight_sum_is_vacuum_expectation(word, gauge):
    assert not vacuum_expectation_word(word, gauge).is_zero
    total = sum((_card_product(arr, gauge) for arr in expand_arrangements(word, gauge)),
                Poly.zero())
    assert total == vacuum_expectation_word(word, gauge)


def test_intermediate_card_is_annihilation_then_creation():
    # on a stack of i generic lines, the intermediate card at choice j acts
    # like ending line j and immediately reopening the same block at the bottom
    for i in range(1, 7):
        for j in range(1, i + 1):
            stack = tuple(range(i))  # distinct line ids, bottom first
            intermediate = (stack[j - 1],) + stack[: j - 1] + stack[j:]
            after_annihilation = stack[: j - 1] + stack[j:]
            after_creation = (stack[j - 1],) + after_annihilation
            assert intermediate == after_creation


def test_card_validation():
    for name in ("A2_3", "I3_0"):  # line choice outside 1..i
        with pytest.raises(ValueError, match="outside"):
            card_weight(name)
    for name in ("C1_1", "S", "N1_1"):  # a creation takes no line choice; no level; no such card
        with pytest.raises(ValueError, match="malformed"):
            card_weight(name)


def test_card_names_follow_the_walk():
    # each name is its letter and the level the word gives it, then 1 <= j <= i for A and I
    pattern = re.compile(r"C\d+|S\d+|[AI]\d+_\d+")
    card_letter = {"C": "C", "A": "A", "N": "I", "S": "S"}
    checked = 0
    for n in range(1, 9):
        for word in enumerate_contributors(n):
            levels = word_levels(word)  # levels[k] is the level before the k-th applied letter
            heads = [f"{card_letter[letter]}{level}"
                     for letter, level in zip(word.application_order(), levels)]
            for gauge in (IDENTITY, TPOWER):
                for arr in expand_arrangements(word, gauge):
                    assert len(arr.cards) == n
                    for name, head, level in zip(arr.cards, heads, levels):
                        assert type(name) is str and pattern.fullmatch(name), name
                        head_got, _, j = name.partition("_")
                        assert head_got == head, (word.letters, arr.cards)
                        assert not j or 1 <= int(j) <= level, name
                        checked += 1
    assert checked == 2 * sum(n * bell for n, bell in enumerate(bell_numbers(8)))


def test_card_weights():
    # the rescaled operator basis: a creation weighs lambda, an annihilation
    # only its crossing/nesting monomial
    assert card_weight("C0") == Poly.parse("lambda")
    assert card_weight("C2", TPOWER) == Poly.parse("lambda")
    assert card_weight("S2") == Poly.parse("lambda")
    assert card_weight("S2", TPOWER) == Poly.from_terms([(1, {"lambda": 1, "t": 2})])
    assert card_weight("A3_2") == Poly.from_terms([(1, {"t": 1, "q": 1})])
    assert card_weight("A1_1") == Poly.one()
    assert card_weight("I3_1") == Poly.from_terms([(1, {"t": 2})])


def test_moment_by_cards_small():
    assert moment_by_cards(2, IDENTITY) == Poly.parse("lambda^2 + lambda")
    assert moment_by_cards(3, IDENTITY) == Poly.parse("lambda^3 + 3*lambda^2 + lambda")
    assert moment_by_cards(4, TPOWER) == moment_by_partitions(4, TPOWER)


def test_arrangement_record():
    word = OperatorWord.from_string("AASNCC")
    arr = expand_arrangements(word, IDENTITY)[0]
    record = arrangement_record(arr)
    assert record["word"] == "AASNCC"
    assert record["cards"][0] == "C0"
    assert record["partition"][0][0] == 1


def test_moment_by_cards_matches_expanded_weights():
    for n in range(1, 9):
        for gauge in (IDENTITY, TPOWER):
            total = Poly.zero()
            for word in enumerate_contributors(n):
                for arr in expand_arrangements(word, gauge):
                    total = total + arr.weight
            assert moment_by_cards(n, gauge) == total, (n, gauge)


def _recursive_card_moment(n: int, gauge) -> Poly:
    terms = []
    for letters in recursive_contributor_letters(n):
        word = OperatorWord(letters[::-1])
        lam = sum(1 for c in letters if c in "CS")
        for _, _, q_exp, t_exp, single_lv in recursive_expansion_states(word):
            t_total = t_exp + (single_lv if gauge is TPOWER else 0)
            terms.append((1, {"lambda": lam, "q": q_exp, "t": t_total}))
    return Poly.from_terms(terms)


def test_one_card_walk_serves_both_conventions(monkeypatch):
    walks = []

    def counted(n):
        walks.append(n)
        return _contributor_walk(n)

    monkeypatch.setattr(cards, "_contributor_walk", counted)
    cards._card_moments.cache_clear()
    for n in (6, 7):
        for gauge in (IDENTITY, TPOWER, IDENTITY):
            assert moment_by_cards(n, gauge) == _recursive_card_moment(n, gauge), (n, gauge)
    assert walks == [6, 7]


def test_card_walk_counts_every_arrangement_once(monkeypatch):
    histograms = []

    def kept(histogram):
        histograms.append(histogram)
        return _histogram_moments(histogram)

    monkeypatch.setattr(cards, "_histogram_moments", kept)
    cards._card_moments.cache_clear()
    try:
        for n in range(1, 11):
            cards._card_moments(n)
    finally:
        cards._card_moments.cache_clear()
    assert [sum(h.values()) for h in histograms] == bell_numbers(10)[1:]
    assert all(count > 0 for h in histograms for count in h.values())
    # the joint histogram, not only its two projected moments, is the census's
    for n, histogram in enumerate(histograms, 1):
        assert histogram == _weight_census(n), n


def test_card_walk_refuses_a_q_exponent_past_a_byte(monkeypatch):
    # t_top bounds a word's q-exponents, one byte each; from 256 they would wrap
    monkeypatch.setattr(cards, "_contributor_walk", lambda n: iter([("CA", b"\0", 1, 256, 0)]))
    cards._card_moments.cache_clear()
    try:
        with pytest.raises(OverflowError, match="256"):
            cards._card_moments(2)
    finally:
        cards._card_moments.cache_clear()


def test_card_walk_histogram_at_n11_matches_its_pinned_digest(monkeypatch):
    histograms = []
    monkeypatch.setattr(cards, "_histogram_moments", histograms.append)
    cards._card_moments.cache_clear()
    try:
        cards._card_moments(11)
    finally:
        cards._card_moments.cache_clear()
    digest = hashlib.sha256(repr(sorted(histograms[0].items())).encode()).hexdigest()
    assert digest == CENSUS_SHA256[11]


def test_partitions_cards_and_motzkin_agree_at_n10():
    for gauge, preset in ((IDENTITY, charlier_strict), (TPOWER, charlier_t_gauge)):
        motzkin = moments_by_motzkin(preset(), 10)[10]
        assert moment_by_partitions(10, gauge) == motzkin
        assert moment_by_cards(10, gauge) == motzkin
