"""Three-term recurrences, Motzkin/J-fraction moments, orthogonality, limits."""

from fractions import Fraction
from functools import cache
from math import prod

import pytest
from hypothesis import example, given, settings, strategies as st

from qtmoments import cli, orthopoly, ring
from qtmoments.fock import (
    ScalarGauge,
    _poisson_data,
    _poisson_step,
    leading_principal_minors,
    moment_by_operator,
)
from qtmoments.orthopoly import (
    InsufficientMoments,
    JacobiParams,
    binomial,
    charlier_strict,
    charlier_t_gauge,
    check_charlier_fock_identity,
    check_orthogonality,
    default_jfraction_depth,
    ejsmont,
    jfraction_series,
    jfraction_series_from_arrays,
    moment_functional,
    moments_by_motzkin,
    poisson_limit_check,
    specialize,
    three_term_polys,
)
from qtmoments.partitions import moment_by_partitions
from qtmoments.qtnum import qt_number
from qtmoments.ring import LAMBDA, Poly, Q, T, X

from oracles import (
    bell_numbers,
    catalan_numbers,
    classical_binomial_moments,
    fraction_motzkin_moments,
    product_orthogonality_values,
    tridiagonal_moment,
    tridiagonal_moments,
    unpruned_jfraction_series,
)


def test_first_charlier_polynomials_match_printed_forms():
    seq = three_term_polys(charlier_strict(), 3)
    assert seq[0] == Poly.one()
    assert seq[1] == X - LAMBDA
    assert seq[2] == X**2 - (2 * LAMBDA + 1) * X + LAMBDA**2
    expected_c3 = (
        X**3
        - (3 * LAMBDA + T + Q + 1) * X**2
        + (3 * LAMBDA**2 + (T + Q) * (LAMBDA + 1) + LAMBDA) * X
        - LAMBDA**3
    )
    assert seq[3] == expected_c3


def test_polynomials_are_monic_and_satisfy_recurrence():
    j = charlier_strict()
    seq = three_term_polys(j, 8)
    for k, p in enumerate(seq):
        assert p.coefficient_of("x", k) == Poly.one()
        assert p.degree("x") == k
    for n in range(1, 8):
        lhs = seq[n + 1]
        rhs = (X - j.alpha(n)) * seq[n] - j.omega(n) * seq[n - 1]
        assert lhs == rhs


def test_ejsmont_recurrence():
    seq = three_term_polys(ejsmont(), 3)
    assert seq[1] == X
    assert seq[2] == X**2 - X - 1  # alpha_1 = omega_1 = [1] = 1
    # (x - [n]) P_n = P_{n+1} + [n] P_{n-1}
    j = ejsmont()
    for n in range(1, 3):
        assert (X - j.alpha(n)) * seq[n] == seq[n + 1] + j.omega(n) * seq[n - 1]


def test_motzkin_moments_basic():
    j = charlier_strict()
    assert moments_by_motzkin(j, 0)[0] == Poly.one()
    assert moments_by_motzkin(j, 1)[1] == LAMBDA
    assert moments_by_motzkin(j, 2)[2] == LAMBDA**2 + LAMBDA


def test_motzkin_matches_tridiagonal_power_oracle():
    for preset in (charlier_strict, charlier_t_gauge, ejsmont):
        j = preset()
        for n in range(7):
            assert moments_by_motzkin(j, n)[n] == tridiagonal_moment(j.alpha, j.omega, n)


#: Orders of the folded routes' checks: each run has its own slot width, and
#: the small ones have the fewest spare bits.
FOLDED_ORDERS = (0, 1, 2, 3, 4, 7, 10, 14)


@pytest.mark.parametrize("preset", [charlier_strict, charlier_t_gauge, ejsmont])
def test_pruned_motzkin_matches_unpruned_tridiagonal_powers(preset):
    j = preset()
    expected = tridiagonal_moments(j.alpha, j.omega, 14)
    for n in FOLDED_ORDERS:
        assert moments_by_motzkin(j, n) == expected[: n + 1]


@pytest.mark.parametrize(
    "preset, gauge",
    [(charlier_strict, ScalarGauge.IDENTITY), (charlier_t_gauge, ScalarGauge.T_POWER_N)],
)
def test_pruned_operator_matches_motzkin_at_large_n(preset, gauge):
    motzkin = moments_by_motzkin(preset(), 18)
    for n in (16, 18):
        assert moment_by_operator(n, gauge) == motzkin[n]


def test_motzkin_matches_partition_sum():
    assert moments_by_motzkin(charlier_strict(), 4)[4] == moment_by_partitions(
        4, ScalarGauge.IDENTITY
    )
    assert moments_by_motzkin(charlier_t_gauge(), 4)[4] == moment_by_partitions(
        4, ScalarGauge.T_POWER_N
    )


def test_moment_functional_values():
    j = charlier_strict()
    moments = moments_by_motzkin(j, 8)
    seq = three_term_polys(j, 2)
    assert moment_functional(seq[1], moments) == Poly.zero()
    assert moment_functional(seq[2] * seq[2], moments) == LAMBDA**2 * (T + Q)
    assert moment_functional(seq[2] * seq[1], moments) == Poly.zero()


def test_moment_functional_requires_enough_moments():
    with pytest.raises(InsufficientMoments):
        moment_functional(X**3, [Poly.one(), LAMBDA])


def test_orthogonality_both_pairings():
    strict = charlier_strict()
    report = check_orthogonality(strict, 6, moments_by_motzkin(strict, 12))
    assert report.passed, report.failures[:3]

    tgauge = charlier_t_gauge()
    report = check_orthogonality(tgauge, 6, moments_by_motzkin(tgauge, 12))
    assert report.passed, report.failures[:3]


def test_orthogonality_norm_is_omega_product():
    j = charlier_strict()
    moments = moments_by_motzkin(j, 12)
    seq = three_term_polys(j, 6)
    for n in range(1, 7):
        norm = Poly.one()
        for i in range(1, n + 1):
            norm = norm * (LAMBDA * qt_number(i))
        assert moment_functional(seq[n] * seq[n], moments) == norm


def test_mismatched_pairing_fails_at_one_two():
    strict = charlier_strict()
    wrong_moments = moments_by_motzkin(charlier_t_gauge(), 4)
    report = check_orthogonality(strict, 2, wrong_moments)
    assert not report.passed
    assert any("L(P_1 P_2)" in msg for msg in report.failures)
    # the discrepancy is exactly (t - 1) lambda^2
    seq = three_term_polys(strict, 2)
    value = moment_functional(seq[1] * seq[2], wrong_moments)
    assert value == (T - 1) * LAMBDA**2


def _corrupted(moments: list, k: int) -> list:
    return moments[:k] + [moments[k] + LAMBDA * Q] + moments[k + 1 :]


def _charlier_broken_omega3() -> JacobiParams:
    j = charlier_strict()
    return JacobiParams(
        name="charlier-broken-omega3",
        alpha=j.alpha,
        omega=lambda n: j.omega(n) + LAMBDA * Q if n == 3 else j.omega(n),
    )


@pytest.mark.parametrize(
    "preset, moment_preset, n_max, corrupt",
    [
        (charlier_strict, charlier_strict, 6, None),
        (charlier_t_gauge, charlier_t_gauge, 6, None),
        (ejsmont, ejsmont, 6, None),
        (charlier_strict, charlier_t_gauge, 4, None),
        (charlier_t_gauge, charlier_t_gauge, 4, 5),
        (_charlier_broken_omega3, charlier_strict, 5, None),
    ],
    ids=["strict", "tgauge", "ejsmont", "mismatched", "corrupted-mu5", "broken-omega3"],
)
def test_orthogonality_matches_product_oracle(preset, moment_preset, n_max, corrupt):
    j = preset()
    moments = moments_by_motzkin(moment_preset(), 2 * n_max)
    if corrupt is not None:
        moments = _corrupted(moments, corrupt)
    values = product_orthogonality_values(three_term_polys(j, n_max), moments)
    norms = [Poly.one()]
    for i in range(1, n_max + 1):
        norms.append(norms[-1] * j.omega(i))
    expected_failures = []
    for (n, m), value in values.items():
        expected = norms[n] if n == m else Poly.zero()
        if value != expected:
            expected_failures.append(f"L(P_{n} P_{m}) = {value}, expected {expected}")
    assert (preset is moment_preset and corrupt is None) == (not expected_failures)

    report = check_orthogonality(j, n_max, moments)
    assert report.checked == (n_max + 1) ** 2
    assert report.failures == expected_failures


def test_orthogonality_rejects_short_moment_lists_before_any_work():
    def untouched(n):
        raise AssertionError("Jacobi data read before the moment count was checked")

    j = JacobiParams(name="untouched", alpha=untouched, omega=untouched)
    moments = moments_by_motzkin(charlier_strict(), 6)
    for n_max in (4, 5):
        with pytest.raises(InsufficientMoments):
            check_orthogonality(j, n_max, moments)
    assert check_orthogonality(charlier_strict(), 3, moments).passed


def test_charlier_fock_identity():
    report = check_charlier_fock_identity(8)
    assert report.passed, report.failures[:3]


def test_charlier_fock_identity_fails_without_the_number_letter(monkeypatch):
    def no_number_step(coeffs, lam, nums, scalars):
        out = [lam * 0] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            out[k] += c * scalars[k]  # scalar letter
            if k:
                out[k - 1] += c * nums[k]  # annihilation
            out[k + 1] += c * lam  # creation
        return out

    monkeypatch.setattr(orthopoly, "_poisson_step", no_number_step)
    report = check_charlier_fock_identity(8)
    assert report.checked == 9
    # P_1 = x - lambda never meets the number letter, which vanishes on the vacuum
    assert report.failures == [
        f"P_{n}(operator) vacuum differs from lambda^{n} f_{n}" for n in range(2, 9)
    ]


def test_orthopoly_requests_never_judge_a_product_fold(monkeypatch, capsys):
    # every orthopoly route and check runs folded as a whole, so Poly.__mul__
    # never reaches its per-product fold on these requests
    judged = []
    fold_pays = ring._fold_pays

    def counted(a, b):
        judged.append((len(a), len(b)))
        return fold_pays(a, b)

    monkeypatch.setattr(ring, "_fold_pays", counted)
    requests = [["verify", "--suite", "orthopoly", "--n-max", "8"]] + [
        ["charlier", "--n-max", "10", "--preset", preset] for preset in ("strict", "tgauge")
    ]
    for argv in requests:
        assert cli.main(argv) == 0
    assert "charlier-fock(n_max=8): 9 checks" in capsys.readouterr().out
    assert judged == []


HANKEL_POINT = {"q": Fraction(1, 3), "t": Fraction(2, 3), "lambda": Fraction(3, 2)}


def _omega_hankel_products(j: JacobiParams, k_max: int) -> list:
    """prod_{i <= k} omega_i^(k+1-i) at HANKEL_POINT, for k = 0..k_max."""
    j = specialize(j, HANKEL_POINT)
    return [prod(j.omega(i) ** (k + 1 - i) for i in range(1, k + 1)) for k in range(k_max + 1)]


@pytest.mark.parametrize(
    "preset, gauge",
    [(charlier_strict, ScalarGauge.IDENTITY), (charlier_t_gauge, ScalarGauge.T_POWER_N)],
    ids=["strict", "covered"],
)
def test_operator_hankel_minors_are_omega_products(preset, gauge):
    # det[m_(i+j)]_(i,j <= k) = prod_(i <= k) omega_i^(k+1-i) (Viennot 1983) for
    # k <= 20; the operator step never reads alpha or omega, so this ties it to the
    # omegas.  Moments 0..40 by the step over Fraction at the point.
    nums, scalars = ([p.eval(HANKEL_POINT) for p in data] for data in _poisson_data(gauge, 40))
    moments, coeffs = [Fraction(1)], [Fraction(1)]
    for _ in range(40):
        coeffs = _poisson_step(coeffs, HANKEL_POINT["lambda"], nums, scalars)
        moments.append(coeffs[0])
    minors = hankel_minors(moments, 20)
    assert minors == _omega_hankel_products(preset(), 20)
    broken = _omega_hankel_products(_charlier_broken_omega3(), 20)
    assert [k for k in range(21) if minors[k] != broken[k]] == list(range(3, 21))


def test_q_charlier_specialization_at_t_equal_one():
    # at t = 1 the Jacobi data must collapse to the q-number forms
    j = charlier_strict()
    for n in range(8):
        q_num = qt_number(n).substitute("t", 1)
        assert j.alpha(n).substitute("t", 1) == LAMBDA + q_num
        if n >= 1:
            assert j.omega(n).substitute("t", 1) == LAMBDA * q_num
    # and the moments, symbolically in q and lambda
    for n in range(7):
        lhs = moments_by_motzkin(j, n)[n].substitute("t", 1)
        rhs = tridiagonal_moment(
            lambda k: LAMBDA + qt_number(k).substitute("t", 1),
            lambda k: LAMBDA * qt_number(k).substitute("t", 1),
            n,
        )
        assert lhs == rhs


def test_free_and_classical_specializations():
    cat = catalan_numbers(8)
    bell = bell_numbers(8)
    j = specialize(charlier_strict(), {"q": Fraction(0), "t": Fraction(1), "lambda": Fraction(1)})
    free = moments_by_motzkin(j, 8)
    assert free == [Fraction(c) for c in cat[:9]]
    j = specialize(charlier_strict(), {"q": Fraction(1), "t": Fraction(1), "lambda": Fraction(1)})
    classical = moments_by_motzkin(j, 8)
    assert classical == [Fraction(b) for b in bell[:9]]


def test_binomial_preset_values():
    q, t = Fraction(1, 3), Fraction(2, 3)
    j = binomial(Fraction(10), Fraction(1, 10), q, t)
    assert j.alpha(0) == 1  # m p
    one = qt_number(1).eval({"q": q, "t": t})
    assert j.omega(1) == one * 10 * Fraction(1, 10) * Fraction(9, 10)


def hankel_minors(moments, k_max: int) -> list:
    """det[m_{i+j}] for the leading blocks of sizes 1..k_max+1."""
    size = range(k_max + 1)
    return leading_principal_minors([[moments[i + j] for j in size] for i in size])


def test_binomial_clamp_gives_finite_support():
    # q = t = 1 collapses to the classical binomial: [n] = n, and the clamp
    # coincides with the natural zero of omega at n = m + 1
    m, p = 3, Fraction(1, 4)
    j = binomial(Fraction(m), p, Fraction(1), Fraction(1))
    assert j.omega(m) != 0
    assert j.omega(m + 1) == 0
    assert j.omega(m + 2) == 0  # clamped; unclamped it would go negative
    moments = moments_by_motzkin(j, 8)
    assert moments == classical_binomial_moments(m, p, 8)
    # finite support of size <= m+1 forces a vanishing Hankel determinant
    hankel = hankel_minors(moments, m + 1)
    assert all(h > 0 for h in hankel[: m + 1])
    assert hankel[m + 1] == 0


def test_binomial_clamp_at_deformed_sample():
    # with q = 1/2, t = 1 and m = [2] the clamp bites from n = 3 on
    q, t = Fraction(1, 2), Fraction(1)
    m = qt_number(2).eval({"q": q, "t": t})
    j = binomial(m, Fraction(1, 5), q, t)
    assert j.omega(2) != 0
    assert j.omega(3) == 0
    moments = moments_by_motzkin(j, 6)
    hankel = hankel_minors(moments, 3)
    assert hankel[3] == 0


def test_poisson_limit_check():
    q, t, lam = Fraction(1, 3), Fraction(2, 3), Fraction(1)
    report = poisson_limit_check(6, lam, [10, 100, 1000], q, t)
    assert report.name == "poisson-limit"
    assert report.passed, report.failures[:3]
    # deviations visibly shrink about linearly in 1/m
    point = {"q": q, "t": t, "lambda": lam}
    poisson = moments_by_motzkin(specialize(charlier_strict(), point), 6)
    devs = [[abs(b - p) for b, p in zip(moments_by_motzkin(binomial(m, lam / m, q, t), 6), poisson)]
            for m in (10, 100, 1000)]
    for order in (2, 3, 4):
        assert devs[0][order] > devs[1][order] > devs[2][order] > 0


def test_poisson_limit_fails_when_deviation_grows(monkeypatch):
    # Negative control: an alpha that drifts further from lambda + [n] as m grows.
    def drifting(m, p, q, t):
        j = binomial(m, p, q, t)
        return JacobiParams(j.name, lambda n: j.alpha(n) + m / 10, j.omega)

    monkeypatch.setattr(orthopoly, "binomial", drifting)
    report = poisson_limit_check(4, Fraction(1), [10, 100, 1000])
    assert not report.passed
    assert any("deviation" in message for message in report.failures)


def test_poisson_limit_rational_lambda():
    report = poisson_limit_check(4, Fraction(3, 2), [10, 100, 1000])
    assert report.passed


def test_poisson_limit_rejects_small_m():
    with pytest.raises(ValueError):
        poisson_limit_check(4, Fraction(12), [10, 100])
    with pytest.raises(ValueError):
        # m = 21/2 would otherwise be truncated to 10 and compared as such.
        poisson_limit_check(3, 1, [Fraction(21, 2), 100])


@pytest.mark.parametrize("m_values", [[], [10], [10, 10]], ids=str)
def test_poisson_limit_needs_two_distinct_m(m_values):
    # One m value or none compares no convergence, so it cannot pass.
    with pytest.raises(ValueError):
        poisson_limit_check(6, Fraction(1), m_values)


def test_jfraction_series_basics():
    j = charlier_strict()
    assert jfraction_series(j, 0) == [Poly.one()]
    assert jfraction_series(j, 2) == [Poly.one(), LAMBDA, LAMBDA**2 + LAMBDA]


def test_jfraction_matches_motzkin_for_all_presets():
    for preset in (charlier_strict, charlier_t_gauge, ejsmont):
        j = preset()
        series = jfraction_series(j, 12)
        moments = moments_by_motzkin(j, 12)
        assert series == moments


def test_jfraction_rational_data():
    j = binomial(Fraction(10), Fraction(1, 10), Fraction(1, 3), Fraction(2, 3))
    assert jfraction_series(j, 8) == moments_by_motzkin(j, 8)


@pytest.mark.parametrize("preset", [charlier_strict, charlier_t_gauge])
def test_jfraction_matches_motzkin_at_order_16(preset):
    j = preset()
    assert jfraction_series(j, 16) == moments_by_motzkin(j, 16)


@pytest.mark.parametrize(
    "jacobi",
    [
        charlier_strict,
        charlier_t_gauge,
        ejsmont,
        lambda: binomial(Fraction(10), Fraction(1, 10), Fraction(1, 3), Fraction(2, 3)),
        # omega = 2/3, 8/9, 2/3, 0, 0, ...: the fraction stops inside the order
        lambda: binomial(Fraction(3), Fraction(1, 3), Fraction(1), Fraction(1)),
    ],
    ids=["strict", "tgauge", "ejsmont", "binomial-10", "binomial-3-clamped"],
)
def test_pruned_jfraction_matches_unpruned_expansion(jacobi):
    j = jacobi()
    for order in range(11):
        # the default depth, and a truncation shallower than order // 2
        for depth in (default_jfraction_depth(order), 1):
            b = [j.alpha(h) for h in range(depth + 1)]
            lam = [j.omega(h) for h in range(1, depth + 1)]
            expected = unpruned_jfraction_series(b, lam, order)
            assert jfraction_series_from_arrays(b, lam, order) == expected, (order, depth)


def test_hankel_positivity_samples():
    samples = [
        (Fraction(1, 3), Fraction(2, 3), Fraction(1)),
        (Fraction(-1, 4), Fraction(1, 2), Fraction(2)),
        (Fraction(0), Fraction(1), Fraction(1)),
    ]
    for q, t, lam in samples:
        j = specialize(charlier_strict(), {"q": q, "t": t, "lambda": lam})
        hankel = hankel_minors(moments_by_motzkin(j, 10), 5)
        assert all(h > 0 for h in hankel), (q, t, lam)


SYMBOLIC_PRESETS = {p().name: p for p in (charlier_strict, charlier_t_gauge, ejsmont)}


@cache
def _symbolic_moments(preset: str, n: int) -> list:
    return moments_by_motzkin(SYMBOLIC_PRESETS[preset](), n)


_point_values = st.fractions(min_value=-3, max_value=3, max_denominator=9)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(SYMBOLIC_PRESETS)), st.integers(0, 12),
       _point_values, _point_values, _point_values)
@example("charlier-strict", 12, Fraction(-1, 2), Fraction(5, 4), Fraction(4, 3))
@example("charlier-tgauge", 11, Fraction(-2, 3), Fraction(3, 2), Fraction(3, 4))
@example("ejsmont", 12, Fraction(-1, 4), Fraction(7, 3), Fraction(1, 2))
def test_specialized_motzkin_equals_evaluated_symbolic_moments(preset, n, q, t, lam):
    """Evaluation is a ring homomorphism, so the order does not matter."""
    point = {"q": q, "t": t, "lambda": lam}
    direct = moments_by_motzkin(specialize(SYMBOLIC_PRESETS[preset](), point), n)
    evaluated = [p.eval(point) for p in _symbolic_moments(preset, n)]
    assert direct == evaluated
    assert all(isinstance(v, Fraction) for v in direct)
    assert [str(v) for v in direct] == [str(v) for v in evaluated]


#: Rational points (q, t, lambda) for the specialized Charlier presets.
RATIONAL_POINTS = [
    (Fraction(1, 3), Fraction(2, 3), Fraction(3, 2)),
    (Fraction(-1, 4), Fraction(2, 3), Fraction(3, 2)),
    (Fraction(5, 6), Fraction(1, 6), Fraction(1)),
]


@pytest.mark.parametrize("preset", [charlier_strict, charlier_t_gauge], ids=["strict", "tgauge"])
@pytest.mark.parametrize("point", RATIONAL_POINTS, ids=lambda p: ",".join(map(str, p)))
def test_rational_motzkin_matches_jfraction_and_evaluated_moments(preset, point):
    point = dict(zip(("q", "t", "lambda"), point))
    j = specialize(preset(), point)
    moments = moments_by_motzkin(j, 40)
    assert moments == jfraction_series(j, 40)
    assert moments[:15] == [p.eval(point) for p in _symbolic_moments(preset().name, 14)]


#: Random rational Jacobi entries: Fractions of either sign, plain ints, and
#: zero (an omega of zero is the binomial clamp).
_jacobi_entries = st.one_of(
    st.fractions(min_value=-4, max_value=4, max_denominator=12),
    st.integers(-5, 5),
    st.just(Fraction(0)),
)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 30), st.lists(_jacobi_entries, min_size=31, max_size=31))
@example(30, [Fraction(1, 3), 2, Fraction(-5, 7), 0] * 7 + [Fraction(0), -1, Fraction(9, 4)])
@example(12, [3, -2, 1, 0, 4, 1, -1] * 4 + [2, 2, 2])
def test_integer_motzkin_equals_fraction_recursion(n, entries):
    # alpha_0..alpha_15 first, then omega_1..omega_15
    j = JacobiParams("random", lambda h: entries[h], lambda h: entries[15 + h])
    moments = moments_by_motzkin(j, n)
    expected = fraction_motzkin_moments(j, n)
    assert moments == expected
    assert [str(v) for v in moments] == [str(v) for v in expected]


#: (m, p, q, t) cases of the rational binomial family, clamped and unclamped.
BINOMIAL_CASES = [
    ("10", "1/10", "1/3", "2/3"),
    ("7/2", "2/5", "-1/2", "3/4"),
    ("5", "1/2", "1/2", "1/2"),
    ("12", "1/4", "2/3", "1/3"),
    ("3", "1/3", "-1/4", "1"),
    ("8", "3/5", "1/5", "4/5"),
    ("20", "1/20", "3/4", "1/2"),
    ("9/2", "1/6", "-1/3", "2/3"),
    ("6", "2/3", "1/4", "5/4"),
    ("15", "1/5", "2/5", "3/5"),
    ("4", "1/8", "-2/3", "1/2"),
    ("11", "3/10", "1/6", "5/6"),
]


@pytest.mark.parametrize("m, p, q, t", BINOMIAL_CASES, ids=lambda v: v)
def test_binomial_moments_unchanged_by_integer_motzkin(m, p, q, t):
    j = binomial(*map(Fraction, (m, p, q, t)))
    moments = moments_by_motzkin(j, 24)
    expected = fraction_motzkin_moments(j, 24)
    assert moments == expected
    assert [str(v) for v in moments] == [str(v) for v in expected]
