"""The q-folded symbolic routes: the ring's fold and its one decoder, each
folded route against an unfolded oracle, the Poisson step over rational data,
and the collapse of the moments at q = -t to a two-term recurrence."""

from fractions import Fraction
from functools import cache
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from qtmoments import ring
from qtmoments.cards import moment_by_cards
from qtmoments.fock import FockVector, ScalarGauge, _poisson_data, _poisson_step, moment_by_operator
from qtmoments.orthopoly import (
    JacobiParams,
    charlier_strict,
    charlier_t_gauge,
    check_orthogonality,
    default_jfraction_depth,
    ejsmont,
    jfraction_series,
    jfraction_series_from_arrays,
    moments_by_motzkin,
    specialize,
    three_term_polys,
)
from qtmoments.partitions import enumerate_partitions, moment_by_partitions
from qtmoments.ring import LAMBDA, VARIABLES, Poly, Q, T

from oracles import (
    bell_numbers,
    collapse_recurrence,
    letterwise_moments,
    recurrence_polys,
    tridiagonal_moments,
    unpruned_jfraction_series,
)
from test_orthopoly import FOLDED_ORDERS, RATIONAL_POINTS

PRESETS = {p().name: p for p in (charlier_strict, charlier_t_gauge, ejsmont)}
#: convention -> (operator gauge, Jacobi preset)
MODES = {
    "strict": (ScalarGauge.IDENTITY, charlier_strict),
    "covered": (ScalarGauge.T_POWER_N, charlier_t_gauge),
}


# -- the fold and its decoder ----------------------------------------------------


def _round_trip(p: Poly, width: int) -> Poly:
    return ring._wrap(ring._undiagonals(ring._diagonals(p._terms, width), width))


@st.composite
def _slot_filling_polys(draw):
    """(width, poly) with every coefficient within +-(2^(width-1) - 1), often at the ends."""
    width = draw(st.integers(2, 80))
    top = 2 ** (width - 1) - 1
    coeffs = st.one_of(st.sampled_from([top, -top]), st.integers(-top, top))
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 6)] * len(VARIABLES)), coeffs,
                                 max_size=12))  # one coefficient per monomial
    return width, Poly.from_terms((c, dict(zip(VARIABLES, mono))) for mono, c in terms.items())


@given(_slot_filling_polys())
@settings(max_examples=80, deadline=None)
@example((2, T - Q + T**2 * Q - Q**3))
@example((64, (2**63 - 1) * (T**3 - Q**3) - (2**63 - 1) * T * Q**2))
def test_fold_then_decode_round_trips(case):
    width, p = case
    assert _round_trip(p, width) == p


@pytest.mark.parametrize("width", [2, 8, 64])
def test_a_coefficient_of_half_a_slot_does_not_round_trip(width):
    half = 2 ** (width - 1)
    # the digit reads as -2^(W-1) and carries one into the q^1 slot
    assert _round_trip(half * T, width) == -half * T + Q
    assert _round_trip((half - 1) * T, width) == (half - 1) * T


def test_width_one_decodes_only_zero():
    # at width 1 the digit 1 reads as -1 and borrows 1 back: the int never empties
    [key] = T._terms
    with pytest.raises(ValueError, match="width-1"):
        ring._undiagonals({key: 1}, 1)
    assert ring._undiagonals({key: 0}, 1) == {}
    # a walk whose outputs are all 0 has norm bound 0, so the fold asks for width 1
    assert ring._folded(lambda a: [a[0] * 0, a[0] - a[0]], [T - Q]) == [Poly.zero()] * 2


def test_folded_routes_reject_rational_data_by_name():
    j = specialize(charlier_strict(), {"q": Fraction(1, 3), "t": Fraction(2, 3), "lambda": 1})
    message = "^a folded walk takes Poly or int data$"
    with pytest.raises(TypeError, match=message):
        three_term_polys(j, 3)
    with pytest.raises(TypeError, match=message):
        check_orthogonality(j, 2, moments_by_motzkin(j, 4))


# -- each folded route against its unfolded oracle --------------------------------
# (the Motzkin route: test_orthopoly.test_pruned_motzkin_matches_unpruned_tridiagonal_powers)

@pytest.mark.parametrize("mode", MODES)
def test_folded_operator_matches_unpruned_letterwise_steps(mode):
    gauge, _ = MODES[mode]
    expected = letterwise_moments(14, gauge)
    assert [moment_by_operator(n, gauge) for n in range(15)] == expected


@pytest.mark.parametrize("preset", PRESETS)
def test_folded_jfraction_matches_unpruned_expansion(preset):
    j = PRESETS[preset]()
    # depth 7 = 14 // 2 pins every coefficient up to z^14
    b = [j.alpha(h) for h in range(8)]
    lam = [j.omega(h) for h in range(1, 8)]
    expected = unpruned_jfraction_series(b, lam, 14)
    for order in FOLDED_ORDERS:
        assert jfraction_series(j, order) == expected[: order + 1]


@pytest.mark.parametrize("preset", PRESETS)
def test_folded_three_term_polys_match_the_plain_recurrence(preset):
    j = PRESETS[preset]()
    expected = recurrence_polys(j, 14)
    for n in FOLDED_ORDERS:
        assert three_term_polys(j, n) == expected[: n + 1]


# small terms in lambda, t and q with signed coefficients, some of them large
_signed_terms = st.tuples(
    st.one_of(st.integers(-9, 9), st.integers(-(10**12), 10**12)),
    st.fixed_dictionaries(
        {}, optional={"lambda": st.integers(0, 2), "t": st.integers(0, 3), "q": st.integers(0, 3)}
    ),
)
_signed_polys = st.lists(_signed_terms, min_size=1, max_size=4).map(Poly.from_terms)


@given(st.lists(_signed_polys, min_size=9, max_size=9),
       st.lists(_signed_polys, min_size=8, max_size=8), st.integers(0, 8))
@settings(max_examples=30, deadline=None)
@example([T - Q] * 9, [Q - T] * 8, 8)  # every diagonal digit signed
@example([-T * Q - 5] * 9, [-(T**2) + 2 * Q**2] * 8, 7)
@example([5 * T - Q] + [Poly.zero()] * 8, [Poly.zero()] * 8, 1)  # m_1 holds most of the bound
def test_folded_routes_match_unfolded_on_signed_integer_data(alphas, omegas, n):
    j = JacobiParams(name="signed", alpha=lambda h: alphas[h], omega=lambda h: omegas[h - 1])
    assert moments_by_motzkin(j, n) == tridiagonal_moments(j.alpha, j.omega, n)
    depth = default_jfraction_depth(n)
    b, lam = alphas[: depth + 1], omegas[:depth]
    assert jfraction_series_from_arrays(b, lam, n) == unpruned_jfraction_series(b, lam, n)
    assert three_term_polys(j, n) == recurrence_polys(j, n)


# -- the Poisson step over rational data --------------------------------------------

@pytest.mark.parametrize("point", RATIONAL_POINTS, ids=lambda p: ",".join(map(str, p)))
@pytest.mark.parametrize("mode", MODES)
def test_poisson_step_over_fractions_gives_the_evaluated_moment(point, mode):
    gauge, _ = MODES[mode]
    q, t, lam = point
    at = {"q": q, "t": t, "lambda": lam}
    nums, scalars = ([p.eval(at) for p in data] for data in _poisson_data(gauge, 12))
    coeffs = [Fraction(1)]  # the vacuum; no level is dropped here
    for n in range(1, 13):
        coeffs = _poisson_step(coeffs, lam, nums, scalars)
        assert all(isinstance(c, Fraction) for c in coeffs)
        assert coeffs[0] == moment_by_operator(n, gauge).eval(at)
    with pytest.raises(TypeError):
        FockVector(1, [0.5, 0])


# -- the collapse at q = -t ------------------------------------------------------------


@cache
def _collapsed(mode: str, n_max: int) -> list:
    """m_0..m_n_max at q = -t from m_0 = 1, m_1 = lambda and the recurrence alone."""
    tau, delta = collapse_recurrence(mode == "covered")
    values = [Poly.one(), LAMBDA]
    while len(values) <= n_max:
        values.append(tau * values[-1] - delta * values[-2])
    return values


@cache
def _motzkin_at(mode: str, sign: int, n: int) -> list:
    """The Motzkin moments 0..n of ``mode`` with q set to sign * t."""
    return [m.substitute("q", sign * T) for m in moments_by_motzkin(MODES[mode][1](), n)]


@pytest.mark.parametrize("mode", MODES)
def test_moments_at_q_minus_t_follow_the_two_term_recurrence(mode):
    gauge, preset = MODES[mode]
    expected = _collapsed(mode, 24)
    assert _motzkin_at(mode, -1, 24) == expected
    assert [m.substitute("q", -T) for m in jfraction_series(preset(), 20)] == expected[:21]
    for n in (1, 2, 3, 4, 24):
        assert moment_by_operator(n, gauge).substitute("q", -T) == expected[n], n


@pytest.mark.parametrize("mode", MODES)
def test_brute_force_moments_at_q_minus_t_follow_the_two_term_recurrence(mode):
    gauge, _ = MODES[mode]
    expected = _collapsed(mode, 10)
    for n in range(1, 11):
        assert moment_by_partitions(n, gauge).substitute("q", -T) == expected[n], n
        assert moment_by_cards(n, gauge).substitute("q", -T) == expected[n], n


@pytest.mark.parametrize("n", range(1, 10))
def test_partitions_with_a_crossing_or_a_nesting_cancel_at_q_minus_t(n):
    # q^rc t^rn at q = -t is (-1)^rc t^(rc + rn); the rest are the
    # C(2n-b-1, 2n-2b) partitions with b blocks and neither
    tangled = [p.statistics for p in enumerate_partitions(n) if p.statistics[1] + p.statistics[2]]
    signed = Poly.from_terms(((-1) ** rc, {"lambda": b, "t": rc + rn}) for b, rc, rn, _ in tangled)
    assert signed == 0
    plain = sum(comb(2 * n - b - 1, 2 * n - 2 * b) for b in range(1, n + 1))
    assert len(tangled) == bell_numbers(n)[n] - plain


def test_strict_moments_at_q_minus_t_have_the_binomial_closed_form():
    for n, m in enumerate(_motzkin_at("strict", -1, 24)[1:], start=1):
        assert m == sum(comb(2 * n - b - 1, 2 * n - 2 * b) * LAMBDA**b for b in range(1, n + 1))


@pytest.mark.parametrize("mode", MODES)
def test_moments_at_q_plus_t_do_not_collapse(mode):
    # negative control: at q = t, [2] = 2t is not 0, so m_4 is the first to
    # leave the recurrence; m_0 .. m_3 do not depend on q
    at_q_plus_t = _motzkin_at(mode, 1, 10)
    assert at_q_plus_t[:4] == _collapsed(mode, 3)
    assert all(m != c for m, c in zip(at_q_plus_t[4:], _collapsed(mode, 10)[4:]))
