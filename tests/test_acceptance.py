"""Acceptance suite: every exit criterion at its stated tolerance.

All comparisons are exact (polynomial identity or rational equality); there
are no numeric tolerances anywhere.  Each criterion prints one pass/fail line
(run pytest with -s to see them live).
"""

from fractions import Fraction

import pytest

from qtmoments import (
    LAMBDA,
    OperatorWord,
    Poly,
    Q,
    ScalarGauge,
    T,
    X,
    charlier_strict,
    charlier_t_gauge,
    check_adjointness,
    check_charlier_fock_identity,
    check_commutation,
    check_gram_positivity,
    check_orthogonality,
    enumerate_contributors,
    enumerate_partitions,
    expand_arrangements,
    moment_by_partitions,
    moments_by_motzkin,
    poisson_limit_check,
    qt_factorial,
    qt_number,
    three_term_polys,
    word_inner_product,
)
from qtmoments.cli import CHECKS

from oracles import inversion_sum

STRICT = ScalarGauge.IDENTITY
COVERED = ScalarGauge.T_POWER_N


def report(criterion: int, ok: bool, description: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion:2d}: {description}")
    assert ok, f"criterion {criterion} failed: {description}"


@pytest.fixture(scope="module")
def strict_moments():
    return {n: moment_by_partitions(n, STRICT) for n in range(1, 11)}


@pytest.fixture(scope="module")
def covered_moments():
    return {n: moment_by_partitions(n, COVERED) for n in range(1, 11)}


def test_criterion_01_five_way_agreement():
    # verify's moments row: one report per convention and n, each comparing
    # the operator, card, Motzkin and J-fraction routes with the partition sum.
    (check,) = [check for suite, check, _ in CHECKS if suite == "moments"]
    reports = list(check(10))
    ok = len(reports) == 20 and all(r.passed and r.checked == 4 for r in reports)
    report(1, ok, "five moment routes agree exactly for n <= 10, both modes")


def test_criterion_02_table_reproduction(strict_moments, covered_moments):
    m2 = LAMBDA**2 + LAMBDA
    m3_covered = LAMBDA**3 + (2 + T) * LAMBDA**2 + LAMBDA
    m4_covered = (
        LAMBDA**4
        + (3 + T**2 + 2 * T) * LAMBDA**3
        + (3 + 3 * T + Q) * LAMBDA**2
        + LAMBDA
    )
    m3_strict = LAMBDA**3 + 3 * LAMBDA**2 + LAMBDA
    ok = (
        strict_moments[2] == m2
        and covered_moments[2] == m2
        and covered_moments[3] == m3_covered
        and covered_moments[4] == m4_covered
        and strict_moments[3] == m3_strict
        and strict_moments[3] != covered_moments[3]
        and strict_moments[1] == LAMBDA
        and covered_moments[1] == LAMBDA
    )
    report(2, ok, "closed moment tables reproduced; modes differ as documented; m_1 = lambda")


def test_criterion_03_charlier_polynomials():
    seq = three_term_polys(charlier_strict(), 3)
    expected = [
        Poly.one(),
        X - LAMBDA,
        X**2 - (2 * LAMBDA + 1) * X + LAMBDA**2,
        X**3
        - (3 * LAMBDA + T + Q + 1) * X**2
        + (3 * LAMBDA**2 + (T + Q) * (LAMBDA + 1) + LAMBDA) * X
        - LAMBDA**3,
    ]
    ok = list(seq) == expected
    report(3, ok, "first three deformed Charlier polynomials match the printed forms")


def test_criterion_04_orthogonality():
    ok = True
    for preset_fn in (charlier_strict, charlier_t_gauge):
        preset = preset_fn()
        moments = moments_by_motzkin(preset, 12)
        rep = check_orthogonality(preset, 6, moments)
        if not rep.passed:
            ok = False
        # the norm is the product of omega_i = lambda [i]
        seq = three_term_polys(preset, 6)
        from qtmoments import moment_functional

        for n in range(7):
            norm = Poly.one()
            for i in range(1, n + 1):
                norm = norm * (LAMBDA * qt_number(i))
            if moment_functional(seq[n] * seq[n], moments) != norm:
                ok = False
    report(4, ok, "L(C_n C_m) = delta prod lambda [i] for n,m <= 6, both pairings")


def test_criterion_05_operator_identity():
    rep = check_charlier_fock_identity(8)
    report(5, rep.passed, "C_n(operator) vacuum = lambda^n f_n exactly for n <= 8")


def test_criterion_06_specialization_ladder(strict_moments):
    catalan = [1, 1, 2, 5, 14, 42, 132]
    bell = [1, 1, 2, 5, 15, 52, 203]
    ok = True
    for n in range(1, 7):
        if strict_moments[n].eval({"q": 0, "t": 1, "lambda": 1}) != catalan[n]:
            ok = False
        if strict_moments[n].eval({"q": 1, "t": 1, "lambda": 1}) != bell[n]:
            ok = False
    # t = 1 symbolic moments match the q-deformed Jacobi data
    j = charlier_strict()
    q_alpha = lambda n: LAMBDA + qt_number(n).substitute("t", 1)
    q_omega = lambda n: LAMBDA * qt_number(n).substitute("t", 1)
    from qtmoments import JacobiParams, moments_by_motzkin as motzkin

    q_charlier = JacobiParams(name="q-charlier", alpha=q_alpha, omega=q_omega)
    reduced = motzkin(q_charlier, 6)
    for n in range(1, 7):
        if strict_moments[n].substitute("t", 1) != reduced[n]:
            ok = False
    report(6, ok, "lambda=1 strict ladder: Catalan at (0,1), Bell at (1,1); t=1 matches q-data")


def test_criterion_07_inner_product_factorial():
    ok = True
    points = [(Fraction(1, 3), Fraction(1, 2)), (Fraction(-1, 4), Fraction(2, 3))]
    for n in range(1, 9):
        if inversion_sum(n) != qt_factorial(n):
            ok = False
        # the one-mode word inner product is the same sum at an exact point
        word = (0,) * n
        for q, t in points:
            value = qt_factorial(n).eval({"q": q, "t": t})
            if word_inner_product(word, word, [[1]], q, t) != value:
                ok = False
    report(7, ok, "inversion sum over S_n equals the (q,t)-factorial for n <= 8")


def test_criterion_08_commutation():
    rep = check_commutation(13)
    ok = rep.passed
    for k in range(13):
        if qt_number(k + 1) - Q * qt_number(k) != T**k:
            ok = False
    report(8, ok, "(A A* - q A* A) f_k = t^k f_k symbolically for k <= 12")


def test_criterion_09_adjointness():
    identity = [[1, 0], [0, 1]]
    samples = [(Fraction(1, 3), Fraction(1, 2)), (Fraction(-1, 4), Fraction(2, 3))]
    ok = all(check_adjointness(4, identity, q, t).passed for q, t in samples)
    ok = ok and all(check_adjointness(4, [[1]], q, t).passed for q, t in samples)
    report(9, ok, "creation/annihilation adjoint on all basis pairs, d <= 2, n <= 4")


def test_criterion_10_gram_positivity():
    identity = [[1, 0], [0, 1]]
    samples = [
        (Fraction(1, 3), Fraction(1, 2)),
        (Fraction(-1, 4), Fraction(1, 2)),
        (Fraction(0), Fraction(1)),
        (Fraction(9, 10), Fraction(1)),
    ]
    ok = all(check_gram_positivity(4, identity, q, t).passed for q, t in samples)
    ok = ok and all(check_gram_positivity(4, [[1]], q, t).passed for q, t in samples)
    report(10, ok, "leading principal Gram minors positive at the four sample points")


def test_criterion_11_card_bijection():
    ok = True
    for n in range(1, 8):
        seen: dict = {}
        for word in enumerate_contributors(n):
            for gauge in (STRICT, COVERED):
                for arr in expand_arrangements(word, gauge):
                    blocks, rc, rn, cov = arr.partition.statistics
                    expected = Poly.from_terms([(1, {
                        "lambda": blocks,
                        "q": rc,
                        "t": rn + cov if gauge is COVERED else rn,
                    })])
                    if arr.weight != expected:
                        ok = False
                    if gauge is ScalarGauge.IDENTITY:
                        key = arr.partition.rgs
                        seen[key] = seen.get(key, 0) + 1
        universe = [p.rgs for p in enumerate_partitions(n)]
        if sorted(seen) != universe or any(c != 1 for c in seen.values()):
            ok = False
    report(11, ok, "arrangements enumerate partitions once each with the statistic weights")


def test_criterion_12_poisson_limit():
    rep = poisson_limit_check(
        6, Fraction(1), [10, 100, 1000], q=Fraction(1, 3), t=Fraction(2, 3)
    )
    report(12, rep.passed, "binomial parameters and moments converge to the Poisson family")
