"""Partition enumeration, crossing/nesting statistics, and the moment sum."""

import functools
import hashlib

import pytest
from hypothesis import given, settings, strategies as st

import qtmoments.partitions as partitions
from qtmoments.fock import ScalarGauge
from qtmoments.partitions import (
    SetPartition,
    _statistics,
    _weight_census,
    enumerate_partitions,
    moment_by_partitions,
    partition_record,
)
from qtmoments.ring import LAMBDA, Poly

from oracles import (
    CENSUS_SHA256,
    bell_numbers,
    catalan_numbers,
    partition_from_blocks,
    quadruple_covered_singletons,
    quadruple_crossings,
    quadruple_nestings,
    recursive_weight_census,
    tridiagonal_moment,
)

STRICT = ScalarGauge.IDENTITY
COVERED = ScalarGauge.T_POWER_N


def test_counts_match_bell_recurrence():
    bell = bell_numbers(10)
    assert sum(1 for _ in enumerate_partitions(1)) == 1
    assert sum(1 for _ in enumerate_partitions(3)) == bell[3] == 5
    assert sum(1 for _ in enumerate_partitions(10)) == bell[10] == 115975


def test_enumeration_is_lexicographic_and_unique():
    seen = [p.rgs for p in enumerate_partitions(5)]
    assert seen == sorted(seen)
    assert len(seen) == len(set(seen))


def test_rgs_validation():
    with pytest.raises(ValueError):
        SetPartition((0, 2, 0))  # skips block index 1
    with pytest.raises(ValueError):
        SetPartition((1, 0))


def test_from_blocks_round_trip():
    p = partition_from_blocks([[1, 3, 4, 7], [2, 5, 10], [6, 9], [8]])
    assert p.blocks() == [[1, 3, 4, 7], [2, 5, 10], [6, 9], [8]]
    assert p.block_count == 4


def test_worked_statistics_examples():
    p1 = partition_from_blocks([[1, 3, 4, 7], [2, 5, 10], [6, 9], [8]])
    assert p1.statistics[1:3] == (4, 2)

    p2 = partition_from_blocks([[1, 4, 6, 9], [2, 3, 10], [5], [7, 8]])
    assert p2.statistics[1:3] == (1, 5)


def test_all_singletons_have_no_statistics():
    p = SetPartition((0, 1, 2, 3, 4))
    assert p.statistics == (5, 0, 0, 0)


def test_covered_singleton_mode():
    # strict nestings 0; the covered convention adds the covered singleton
    _, _, rn, cov = partition_from_blocks([[1, 3], [2]]).statistics
    assert (rn, rn + cov) == (0, 1)


def test_statistics_match_quadruple_definition():
    for p in enumerate_partitions(7):
        blocks = p.blocks()
        assert p.statistics[1:3] == (quadruple_crossings(blocks), quadruple_nestings(blocks))


def test_statistics_bounds():
    from math import comb

    for p in enumerate_partitions(7):
        arc_count = len(p.rgs) - p.block_count
        bound = comb(arc_count, 2)
        _, rc, rn, _ = p.statistics
        assert 0 <= rc <= bound
        assert 0 <= rn <= bound


def test_first_moment_is_lambda():
    assert moment_by_partitions(1, STRICT) == LAMBDA
    assert moment_by_partitions(1, COVERED) == LAMBDA


def test_second_moment_both_modes():
    expected = LAMBDA**2 + LAMBDA
    assert moment_by_partitions(2, STRICT) == expected
    assert moment_by_partitions(2, COVERED) == expected


def test_third_moment_covered_matches_table():
    expected = Poly.parse("lambda^3 + lambda^2*t + 2*lambda^2 + lambda")
    assert moment_by_partitions(3, COVERED) == expected


def test_third_moment_strict_matches_tridiagonal_oracle():
    from qtmoments.orthopoly import charlier_strict

    j = charlier_strict()
    assert moment_by_partitions(3, STRICT) == tridiagonal_moment(j.alpha, j.omega, 3)
    assert moment_by_partitions(3, STRICT) == Poly.parse("lambda^3 + 3*lambda^2 + lambda")


def test_fourth_moment_covered_matches_table():
    expected = Poly.parse(
        "lambda^3*t^2 + lambda^4 + 2*lambda^3*t + 3*lambda^3"
        " + 3*lambda^2*t + lambda^2*q + 3*lambda^2 + lambda"
    )
    assert moment_by_partitions(4, COVERED) == expected


def test_crossing_nesting_duality():
    # In strict mode the joint distribution of (rc, rn) is symmetric:
    # swapping q and t leaves each moment unchanged.
    for n in range(1, 9):
        p = moment_by_partitions(n, STRICT)
        assert p.rename({"q": "t", "t": "q"}) == p


def test_bell_specialization():
    bell = bell_numbers(8)
    for gauge in (STRICT, COVERED):
        for n in range(1, 8):
            value = moment_by_partitions(n, gauge).eval({"q": 1, "t": 1, "lambda": 1})
            assert value == bell[n]


def test_catalan_specialization():
    cat = catalan_numbers(10)
    for n in range(1, 10):
        value = moment_by_partitions(n, STRICT).eval({"q": 0, "t": 1, "lambda": 1})
        assert value == cat[n]


def test_partition_record():
    p = partition_from_blocks([[1, 3], [2]])
    assert partition_record(p) == {
        "rgs": [0, 1, 0],
        "blocks": 2,
        "rc": 0,
        "rn_strict": 0,
        "rn_covered": 1,
    }


@functools.cache
def _oracle_census(n: int) -> tuple:
    """(rgs, (blocks, crossings, strict nestings, covered singletons)) for every
    partition of {1..n}, each statistic taken from the quadruple oracles."""
    out = []
    for p in enumerate_partitions(n):
        blocks = p.blocks()
        stats = (
            len(blocks),
            quadruple_crossings(blocks),
            quadruple_nestings(blocks),
            quadruple_covered_singletons(blocks),
        )
        out.append((p.rgs, stats))
    return tuple(out)


def test_moment_matches_quadruple_oracle_sum():
    for n in range(1, 9):
        for gauge in (STRICT, COVERED):
            expected = Poly.from_terms(
                (1, {"lambda": b, "q": rc, "t": rn + cov if gauge is COVERED else rn})
                for _, (b, rc, rn, cov) in _oracle_census(n)
            )
            assert moment_by_partitions(n, gauge) == expected, (n, gauge)


@st.composite
def growth_strings(draw, min_len: int = 1, max_len: int = 12) -> tuple:
    """A restricted growth string: each entry at most one above the running max."""
    rgs = [0]
    for _ in range(draw(st.integers(min_len, max_len)) - 1):
        rgs.append(draw(st.integers(0, max(rgs) + 1)))
    return tuple(rgs)


@settings(max_examples=200, deadline=None)
@given(growth_strings())
def test_random_rgs_statistics_match_quadruple_oracles(rgs):
    p = SetPartition(rgs)
    blocks = p.blocks()
    nestings = quadruple_nestings(blocks)
    _, rc, rn, cov = p.statistics
    assert rc == quadruple_crossings(blocks)
    assert rn == nestings
    covered = quadruple_covered_singletons(blocks)
    assert rn + cov == nestings + covered
    assert partition_record(p) == {
        "rgs": list(rgs),
        "blocks": len(blocks),
        "rc": quadruple_crossings(blocks),
        "rn_strict": nestings,
        "rn_covered": nestings + covered,
    }


def test_enumerated_partitions_pass_the_checks_and_match_oracles():
    for n in range(1, 9):
        listed = list(enumerate_partitions(n))
        census = _oracle_census(n)
        assert len(listed) == len(census)
        for p, (rgs, (blocks, rc, rn, cov)) in zip(listed, census):
            assert SetPartition(p.rgs) == p
            assert partition_record(p) == {
                "rgs": list(rgs),
                "blocks": blocks,
                "rc": rc,
                "rn_strict": rn,
                "rn_covered": rn + cov,
            }, rgs


def test_census_matches_brute_force():
    for n in range(1, 9):
        expected: dict = {}
        for _, stats in _oracle_census(n):
            expected[stats] = expected.get(stats, 0) + 1
        assert _weight_census(n) == expected, n


def test_census_matches_recursive_oracle():
    for n in range(1, 10):
        assert _weight_census(n) == recursive_weight_census(n), n


@pytest.mark.parametrize("n", sorted(CENSUS_SHA256))
def test_census_past_the_oracle_matches_its_pinned_digest(n):
    digest = hashlib.sha256(repr(sorted(_weight_census(n).items())).encode()).hexdigest()
    assert digest == CENSUS_SHA256[n]


def test_enumerated_partitions_carry_their_statistics():
    for n in range(1, 10):
        for p in enumerate_partitions(n):
            assert p.__dict__["statistics"] == _statistics(p.rgs), p.rgs
            assert partition_record(p) == partition_record(SetPartition(p.rgs))


def test_one_census_serves_both_conventions(monkeypatch):
    walks = []

    def counted(n):
        walks.append(n)
        return _weight_census(n)

    monkeypatch.setattr(partitions, "_weight_census", counted)
    partitions._partition_moments.cache_clear()
    for n in (6, 7):
        for gauge in (STRICT, COVERED, STRICT):
            expected = Poly.from_terms(
                (1, {"lambda": b, "q": rc, "t": rn + cov if gauge is COVERED else rn})
                for _, (b, rc, rn, cov) in _oracle_census(n)
            )
            assert moment_by_partitions(n, gauge) == expected, (n, gauge)
    assert walks == [6, 7]
