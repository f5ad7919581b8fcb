"""Argument checks: every rejected input of the public entry points, with its
exact message, and the three size warnings of the brute-force routes."""

import re
import warnings
from fractions import Fraction

import pytest

from qtmoments import cards
from qtmoments.cards import NotContributor, enumerate_contributors, moment_by_cards
from qtmoments.cfrac import InsufficientDepth, cf_series, cf_spec
from qtmoments.fock import FockVector, moment_by_operator
from qtmoments.orthopoly import (
    InsufficientMoments,
    charlier_strict,
    jfraction_series,
    jfraction_series_from_arrays,
    moments_by_motzkin,
    poisson_limit_check,
)
from qtmoments.partitions import enumerate_partitions, moment_by_partitions
from qtmoments.qtnum import qt_factorial, qt_number
from qtmoments.ring import Poly, Q, T

#: (id, call, exception, exact message) per rejected argument.
REJECTED = [
    ("enumerate_partitions(0)", lambda: next(enumerate_partitions(0)),
     ValueError, "n must be positive"),
    ("moment_by_partitions(0)", lambda: moment_by_partitions(0), ValueError, "n must be positive"),
    ("moment_by_cards(0)", lambda: moment_by_cards(0), ValueError, "n must be positive"),
    ("moment_by_operator(-1)", lambda: moment_by_operator(-1),
     ValueError, "n must be non-negative"),
    ("qt_number(-1)", lambda: qt_number(-1), ValueError, "n must be non-negative"),
    ("qt_factorial(-1)", lambda: qt_factorial(-1), ValueError, "n must be non-negative"),
    ("moments_by_motzkin(j, -1)", lambda: moments_by_motzkin(charlier_strict(), -1),
     ValueError, "n_max must be >= 0"),
    ("jfraction_series(j, -1)", lambda: jfraction_series(charlier_strict(), -1),
     ValueError, "order must be >= 0"),
    # a negative order far enough below 0 that the default depth is negative too
    ("jfraction_series(j, -5)", lambda: jfraction_series(charlier_strict(), -5),
     ValueError, "order must be >= 0"),
    ("cf_series(spec, -1)", lambda: cf_series(cf_spec(charlier_strict(), 1), -1),
     ValueError, "order must be >= 0"),
    ("jfraction_series_from_arrays lengths", lambda: jfraction_series_from_arrays([1, 2], [3, 4], 2),
     ValueError, "need exactly one lam entry per level below the surface"),
    ("jfraction_series_from_arrays order -1", lambda: jfraction_series_from_arrays([1, 2], [3], -1),
     ValueError, "order must be >= 0"),
    ("poisson_limit_check lam 0", lambda: poisson_limit_check(4, 0, [10, 100]),
     ValueError, "lambda must be positive"),
    ("poisson_limit_check lam -1", lambda: poisson_limit_check(4, -1, [10, 100]),
     ValueError, "lambda must be positive"),
    ("Poly ** -1", lambda: (Q + T) ** -1, ValueError, "negative power"),
    ("Poly.from_terms negative exponent", lambda: Poly.from_terms([(1, {"t": 1, "q": -1})]),
     ValueError, "negative exponent for 'q'"),
    ("Poly.variable negative power", lambda: Poly.variable("q", -1),
     ValueError, "negative exponent for 'q'"),
    ("Poly.variable float power", lambda: Poly.variable("q", 1.5),
     TypeError, "exponent for 'q' must be an int, got 1.5"),
    ("Poly.from_terms float exponent", lambda: Poly.from_terms([(1, {"t": 2.0})]),
     TypeError, "exponent for 't' must be an int, got 2.0"),
    ("Poly.from_terms Fraction exponent", lambda: Poly.from_terms([(1, {"q": Fraction(1, 2)})]),
     TypeError, "exponent for 'q' must be an int, got Fraction(1, 2)"),
    ("Poly.from_terms str exponent", lambda: Poly.from_terms([(1, {"lambda": "2"})]),
     TypeError, "exponent for 'lambda' must be an int, got '2'"),
    ("substitute a float", lambda: (Q + T).substitute("q", 0.5),
     TypeError, "replacement must be a Poly or int"),
    ("rename not injective", lambda: (Q + T).rename({"q": "lambda", "t": "lambda"}),
     ValueError, "rename mapping must be injective"),
    ("rename collides", lambda: (Q * T).rename({"q": "t"}),
     ValueError, "rename collides with an existing variable"),
    ("FockVector(-1)", lambda: FockVector(-1), ValueError, "dim must be >= 0"),
    ("FockVector coefficient count", lambda: FockVector(2, [Q, T]),
     ValueError, "need dim+1 coefficients"),
]


@pytest.mark.parametrize("call, exception, message", [row[1:] for row in REJECTED],
                         ids=[row[0] for row in REJECTED])
def test_rejected_argument_names_its_fault(call, exception, message):
    with pytest.raises(exception, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("error", [NotContributor, InsufficientDepth, InsufficientMoments])
def test_model_errors_are_value_errors(error):
    # the CLI reports every ValueError as a usage error (exit 2)
    assert issubclass(error, ValueError)


#: (id, route at n, the first size that warns, exact warning text at that size).
SIZE_WARNINGS = [
    ("partitions", lambda n: next(enumerate_partitions(n)), 17,
     "enumerating partitions of 17 elements (Bell-number blowup)"),
    ("contributors", lambda n: next(enumerate_contributors(n)), 15,
     "enumerating the Catalan(15) contributors of length 15"),
    ("cards", lambda n: moment_by_cards(n), 11,
     "card expansion at n=11 touches every partition of 11 elements"),
]


@pytest.fixture
def stub_card_moments(monkeypatch):
    # the warning comes before the walk, so the walk is not run at all
    monkeypatch.setattr(cards, "_card_moments", lambda n: ("strict", "covered"))


@pytest.mark.parametrize("route, n, text", [row[1:] for row in SIZE_WARNINGS],
                         ids=[row[0] for row in SIZE_WARNINGS])
def test_size_warning_from_its_first_size(stub_card_moments, route, n, text):
    with pytest.warns(UserWarning, match=f"^{re.escape(text)}$") as caught:
        route(n)
    assert len(caught) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        route(n - 1)


@pytest.mark.parametrize("listing", [enumerate_partitions, enumerate_contributors])
def test_listing_warns_at_its_first_item_not_its_call(listing):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        items = listing(20)
    with pytest.warns(UserWarning):
        next(items)
