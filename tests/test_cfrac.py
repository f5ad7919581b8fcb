"""Continued-fraction spec, series, depth behavior, rendering."""

from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from qtmoments.cfrac import ContinuedFractionSpec, InsufficientDepth, cf_series, cf_spec, render_cf
from qtmoments.fock import ScalarGauge
from qtmoments.orthopoly import (
    binomial,
    charlier_strict,
    charlier_t_gauge,
    ejsmont,
    jfraction_series_from_arrays,
    moments_by_motzkin,
    specialize,
)
from qtmoments.partitions import moment_by_partitions
from qtmoments.qtnum import qt_number
from qtmoments.ring import LAMBDA, Poly


def test_cf_spec_charlier():
    spec = cf_spec(charlier_strict(), 2)
    assert spec.b == (LAMBDA, LAMBDA + 1, LAMBDA + qt_number(2))
    assert spec.lam == (LAMBDA, LAMBDA * qt_number(2))
    assert spec.depth == 2


def test_cf_spec_ejsmont():
    spec = cf_spec(ejsmont(), 2)
    assert spec.b == (Poly.zero(), qt_number(1), qt_number(2))
    assert spec.lam == (qt_number(1), qt_number(2))


def test_cf_spec_binomial_head():
    j = binomial(Fraction(7), Fraction(1, 7), Fraction(1, 3), Fraction(2, 3))
    spec = cf_spec(j, 1)
    assert spec.b[0] == 1  # m p with [0] = 0


def test_cf_series_first_orders():
    spec = cf_spec(charlier_strict(), 3)
    assert cf_series(spec, 1) == [Poly.one(), LAMBDA]


def test_cf_series_matches_partition_moments():
    spec = cf_spec(charlier_strict(), 6)
    series = cf_series(spec, 10)
    for n in range(1, 11):
        assert series[n] == moment_by_partitions(n, ScalarGauge.IDENTITY)


def test_depth_insensitivity():
    shallow = cf_series(cf_spec(charlier_strict(), 2), 4)
    deep = cf_series(cf_spec(charlier_strict(), 5), 4)
    assert shallow == deep


def test_insufficient_depth_raises():
    spec = cf_spec(charlier_strict(), 2)
    with pytest.raises(InsufficientDepth):
        cf_series(spec, 6)
    # order 4 needs depth 2 exactly
    assert cf_series(spec, 4)[4] == moments_by_motzkin(charlier_strict(), 4)[4]


@pytest.mark.parametrize("preset", [charlier_strict, charlier_t_gauge])
def test_depth_half_the_order_is_exact_and_tight(preset):
    j = preset()
    moments = moments_by_motzkin(j, 11)
    for order in range(12):
        assert cf_series(cf_spec(j, max(1, order // 2)), order) == moments[: order + 1]
        if order // 2 > 1:
            shallow = cf_spec(j, order // 2 - 1)
            with pytest.raises(InsufficientDepth):
                cf_series(shallow, order)
            # the check is needed: one level less changes the series
            series = jfraction_series_from_arrays(list(shallow.b), list(shallow.lam), order)
            assert series != moments[: order + 1]


PRESETS = {"strict": charlier_strict, "tgauge": charlier_t_gauge, "ejsmont": ejsmont}


@cache
def _deep_series(preset: str, order: int) -> list:
    return cf_series(cf_spec(PRESETS[preset](), order // 2 + 4), order)


@st.composite
def _order_and_depth(draw):
    order = draw(st.integers(0, 12))
    return order, draw(st.integers(max(1, order // 2), order // 2 + 4))


_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=7)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(PRESETS)), _order_and_depth(), _rationals, _rationals, _rationals)
def test_series_ignores_depth_and_specializes(preset, order_depth, lam, q, t):
    order, depth = order_depth
    series = cf_series(cf_spec(PRESETS[preset](), depth), order)
    assert series == _deep_series(preset, order)
    point = {"lambda": lam, "q": q, "t": t}
    strict = cf_spec(specialize(charlier_strict(), point), depth)
    assert cf_series(strict, order) == [c.eval(point) for c in _deep_series("strict", order)]


def test_spec_validation():
    with pytest.raises(ValueError):
        ContinuedFractionSpec(b=(LAMBDA,), lam=(LAMBDA,))
    with pytest.raises(ValueError):
        cf_spec(charlier_strict(), 0)


def test_series_matches_motzkin_all_presets():
    for preset in (charlier_strict, charlier_t_gauge, ejsmont):
        j = preset()
        spec = cf_spec(j, 7)
        assert cf_series(spec, 12) == moments_by_motzkin(j, 12)


def test_render_layout():
    # b_h = lambda + [h] and lam_h = lambda [h] agree at h = 0 only
    assert render_cf(cf_spec(charlier_strict(), 2)).splitlines() == [
        "1 /",
        "  (1 - (lambda) z - (lambda) z^2 /",
        "    (1 - (lambda + 1) z - (lambda*t + lambda*q) z^2 /",
        "      (1 - (lambda + t + q) z)))",
    ]
