"""Ring substrate: exact arithmetic, ordering, serialization, evaluation."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from qtmoments import ring
from qtmoments.fock import (
    _WordForm,
    check_adjointness,
    check_gram_positivity,
    leading_principal_minors,
    multimode_gram,
    word_inner_product,
)
from qtmoments.orthopoly import binomial, charlier_strict, poisson_limit_check, specialize
from qtmoments.qtnum import qt_number
from qtmoments.ring import (
    LAMBDA,
    MissingVariable,
    Poly,
    Q,
    T,
    VARIABLES,
    X,
)

from oracles import factorwise_canonical_str, graded_lex_terms, poly_from_json, schoolbook_mul


# Random polynomials over a few variables with small degrees.
_exps = st.fixed_dictionaries(
    {},
    optional={
        "lambda": st.integers(0, 3),
        "t": st.integers(0, 3),
        "q": st.integers(0, 3),
        "x": st.integers(0, 2),
    },
)
_term = st.tuples(st.integers(-9, 9), _exps)
polys = st.lists(_term, max_size=6).map(Poly.from_terms)
rationals = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=7
)
points = st.fixed_dictionaries(
    {"lambda": rationals, "t": rationals, "q": rationals, "x": rationals}
)


def test_mul_binomial_square():
    assert (T + Q) * (T + Q) == T**2 + 2 * T * Q + Q**2


def test_mul_by_zero():
    assert Poly.zero() * (LAMBDA**3 + T) == Poly.zero()


def test_mul_against_schoolbook_oracle():
    a = [(1, {"lambda": 1}), (1, {})]           # lambda + 1
    b = [(1, {"lambda": 1}), (-1, {}), (2, {})]  # lambda - 1 + 2
    expected = schoolbook_mul(a, b)
    assert Poly.from_terms(a) * Poly.from_terms(b) == expected
    assert expected == LAMBDA**2 + 2 * LAMBDA + 1


@given(polys, polys)
@settings(max_examples=60, deadline=None)
def test_mul_matches_schoolbook(a, b):
    a_terms = [(c, {k: v for k, v in zip(VARIABLES, m) if v}) for m, c in a.terms()]
    b_terms = [(c, {k: v for k, v in zip(VARIABLES, m) if v}) for m, c in b.terms()]
    assert a * b == schoolbook_mul(a_terms, b_terms)


@given(polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_eval_simple():
    assert (T + Q).eval({"q": Fraction(1, 2), "t": Fraction(3, 4)}) == Fraction(5, 4)
    assert (LAMBDA**2 + LAMBDA).eval({"lambda": 1}) == 2


def test_eval_missing_variable():
    with pytest.raises(MissingVariable):
        (T + Q).eval({"t": 1})


_HALF = Fraction(1, 2)

#: Each exact-rational entry point, called with v in one argument, and its
#: values at v = 1 and v = 1/2, worked out by hand.
_RATIONAL_TAKERS = {
    "Poly.eval": (lambda v: (Q * Q).eval({"q": v}), 1, Fraction(1, 4)),
    # scale(2) = D^1 G^2, with G the Gram's denominator
    "_WordForm": (lambda v: _WordForm([[v]], 1, 1).scale(2), 1, 4),
    # <00|00> = [2] = q + t
    "word_inner_product": (lambda v: word_inner_product((0, 0), (0, 0), [[1]], v, 1), 2, 1 + _HALF),
    "check_adjointness": (lambda v: check_adjointness(2, [[v]], Fraction(1, 3), 1).passed, True, True),
    # the norm of 00 at q = 0, t = 1 is g^2
    "multimode_gram": (lambda v: multimode_gram(2, [[v]], 0, 1)[-1][-1], 1, Fraction(1, 4)),
    "check_gram_positivity": (lambda v: check_gram_positivity(2, [[1]], v, 1).passed, True, True),
    "leading_principal_minors": (lambda v: leading_principal_minors([[v, 1], [1, 1]]), [1, 0], [_HALF, -_HALF]),
    # alpha_2 = lambda + q + t
    "specialize": (lambda v: specialize(charlier_strict(), {"q": v, "t": 1, "lambda": 1}).alpha(2), 3, 2 + _HALF),
    # alpha_1 = m p + (1 - 2p) [1] = 8p + 1 at m = 10
    "binomial": (lambda v: binomial(10, v, _HALF, _HALF).alpha(1), 9, 5),
    "poisson_limit_check-lambda": (lambda v: poisson_limit_check(4, v, [10, 100]).passed, True, True),
    "poisson_limit_check-q": (lambda v: poisson_limit_check(4, 1, [10, 100], q=v).passed, True, True),
    "poisson_limit_check-m": (lambda v: poisson_limit_check(4, 1, [10, 200 * v]).passed, True, True),
}


@pytest.mark.parametrize("taker", _RATIONAL_TAKERS)
def test_rational_entry_points_take_int_and_fraction_only(taker):
    # Fraction(0.5) would read the float's binary expansion; only exact values pass
    call, at_one, at_half = _RATIONAL_TAKERS[taker]
    with pytest.raises(TypeError, match="not an exact rational"):
        call(0.5)
    assert call(1) == call(Fraction(1)) == at_one
    assert call(_HALF) == at_half


@pytest.mark.parametrize("coeff", [0.5, 2.9, Fraction(5, 2), Fraction(4, 2), "3"], ids=repr)
@pytest.mark.parametrize("build", [
    lambda c: Poly.constant(c),
    lambda c: Poly.from_terms([(c, {"q": 1})]),
], ids=["constant", "from_terms"])
def test_coefficients_are_ints_only(build, coeff):
    # int() would truncate 0.5 to 0 and 5/2 to 2, and read "3" as 3: none is a ring element
    with pytest.raises(TypeError):
        build(coeff)


@given(polys, polys, points)
@settings(max_examples=60, deadline=None)
def test_eval_is_ring_homomorphism(a, b, pt):
    assert (a * b).eval(pt) == a.eval(pt) * b.eval(pt)
    assert (a + b).eval(pt) == a.eval(pt) + b.eval(pt)


def test_canonical_string_examples():
    assert (LAMBDA**2 + LAMBDA).canonical_str() == "lambda^2 + lambda"
    assert (T + Q).canonical_str() == "t + q"
    assert Poly.zero().canonical_str() == "0"
    assert (-LAMBDA + 1).canonical_str() == "-lambda + 1"
    assert (3 * LAMBDA * T**2).canonical_str() == "3*lambda*t^2"


def test_canonical_order_is_graded_then_lex():
    # degree decides first, then the fixed variable priority
    p = X**2 + LAMBDA * X + LAMBDA**2 + X
    assert p.canonical_str() == "lambda^2 + lambda*x + x^2 + x"


@given(polys)
@settings(max_examples=100, deadline=None)
def test_parse_round_trip(p):
    assert Poly.parse(p.canonical_str()) == p


@given(polys)
@settings(max_examples=100, deadline=None)
def test_json_round_trip(p):
    assert poly_from_json(p.to_json_dict()) == p


@given(polys, polys)
@settings(max_examples=60, deadline=None)
def test_serialization_injective(a, b):
    if a != b:
        assert a.canonical_str() != b.canonical_str()


def test_json_shape():
    p = LAMBDA**2 * T + Poly.constant(12)
    assert p.to_json_dict() == {
        "terms": [
            {"coeff": "1", "exps": {"lambda": 2, "t": 1}},
            {"coeff": "12", "exps": {}},
        ]
    }


def test_substitute():
    p = T**2 + Q
    assert p.substitute("t", 1) == Q + 1
    assert p.substitute("t", Q) == Q**2 + Q
    assert (LAMBDA * X**2).substitute("x", T + 1) == LAMBDA * (T**2 + 2 * T + 1)


def test_rename_swap():
    p = T**2 * Q + T
    assert p.rename({"t": "q", "q": "t"}) == Q**2 * T + Q


def test_coefficient_of():
    p = (T + 1) * X**2 + Q * X + 5
    assert p.coefficient_of("x", 2) == T + 1
    assert p.coefficient_of("x", 1) == Q
    assert p.coefficient_of("x", 0) == Poly.constant(5)


def test_pow_and_degree():
    p = (LAMBDA + T) ** 3
    assert p.degree() == 3
    assert p.degree("lambda") == 3
    assert Poly.zero().degree() == 0


def test_big_coefficients_are_exact():
    p = (LAMBDA + 1) ** 64
    assert p.coefficient_of("lambda", 32) == Poly.constant(1832624140942590534)


@pytest.mark.parametrize("c", [0, 3, -(2**70)])
def test_constant_hashes_like_the_int_it_equals(c):
    p = Poly.constant(c)
    assert p == c and hash(p) == hash(c)
    assert len({c, p}) == 1


# -- packed exponent vectors ---------------------------------------------------

_ALL_VARS = ("lambda", "t", "q", "x")


def _polys_over(names, max_exp, coeffs, max_size):
    exps = st.fixed_dictionaries({}, optional={n: st.integers(0, max_exp) for n in names})
    return st.lists(st.tuples(coeffs, exps), max_size=max_size).map(Poly.from_terms)


_big = st.integers(-(10**30), 10**30)
wide_polys = _polys_over(_ALL_VARS, 40, _big, 8)
# small exponents make many terms share a total degree, so the tie-break shows
dense_polys = _polys_over(_ALL_VARS, 2, st.integers(-9, 9), 12)


@given(st.one_of(dense_polys, wide_polys))
@settings(max_examples=100, deadline=None)
def test_sorted_terms_is_graded_lex_over_all_variables(p):
    expected = graded_lex_terms(p)
    listed = [(tuple(entry["exps"].get(v, 0) for v in VARIABLES), int(entry["coeff"]))
              for entry in p.to_json_dict()["terms"]]
    assert listed == expected
    assert all(len(mono) == 4 for mono, _ in expected)


@given(wide_polys)
@settings(max_examples=100, deadline=None)
def test_packed_text_round_trip(p):
    assert Poly.parse(p.canonical_str()) == p


@given(wide_polys)
@settings(max_examples=100, deadline=None)
def test_packed_json_round_trip(p):
    assert poly_from_json(p.to_json_dict()) == p


# wide exponents and coefficients, with +-1 often; an optional exponent is
# often absent, so a term's (lambda, t) or (q, x) half is often zero
_printed_polys = _polys_over(
    _ALL_VARS, 300, st.one_of(st.sampled_from([1, -1]), _big), 8
)


@given(_printed_polys)
@settings(max_examples=200, deadline=None)
@example(Poly.zero())
@example(Poly.constant(1))
@example(Poly.constant(-1))
@example(Poly.constant(-(10**30)))
# t*x and lambda*q have equal half keys, so one table for both halves would show
@example(T * X - LAMBDA * Q + T - X + 1)
@example(-(LAMBDA**300) * T**300 + Q**300 * X**300 - 10**30 * LAMBDA * X - 1)
def test_canonical_str_matches_factorwise_oracle(p):
    text = p.canonical_str()
    assert text == factorwise_canonical_str(p)
    assert Poly.parse(text) == p


def _chunk_poly(n_terms, constant, sign):
    """``n_terms - 1`` monomials of degree 1..15 in canonical order, then a
    constant: each chunk starts on a +-1 coefficient, the leading one of ``sign``."""
    monos = sorted(
        ((a, b, c, d) for a in range(16) for b in range(16 - a) for c in range(16 - a - b)
         for d in range(16 - a - b - c) if a + b + c + d),
        key=lambda e: (sum(e), *e), reverse=True,
    )[: n_terms - 1]
    size = ring._TEXT_CHUNK
    coeffs = [sign * (-1) ** (i // size) if i % size == 0 else (-1) ** i * (i % 5 + 1)
              for i in range(n_terms - 1)]
    terms = [(c, dict(zip(VARIABLES, e))) for c, e in zip(coeffs, monos)]
    return Poly.from_terms(terms + [(constant, {})])


@pytest.mark.parametrize("sign", [-1, 1])
@pytest.mark.parametrize("n_terms, constant", [
    (3876, 7),  # every monomial of degree <= 15: the last chunk ends on the constant
    (3 * ring._TEXT_CHUNK + 1, -1),  # the constant -1 alone starts the fourth chunk
])
def test_canonical_text_chunks_join_across_boundaries(n_terms, constant, sign):
    p = _chunk_poly(n_terms, constant, sign)
    assert len(p) == n_terms
    chunks = list(p._text_chunks())
    assert len(chunks) == -(-n_terms // ring._TEXT_CHUNK) > 2
    text = "".join(chunks)
    assert text == p.canonical_str() == factorwise_canonical_str(p)
    assert text.startswith("-lambda^15 - " if sign < 0 else "lambda^15 - ")
    assert Poly.parse(text) == p


@given(wide_polys, wide_polys, st.integers(-5, 5))
@settings(max_examples=100, deadline=None)
def test_sub_matches_negated_add(a, b, n):
    assert a - b == a + (-b)
    assert all(c for _, c in (a - b).terms())
    # full and partial cancellation leave no zero coefficients behind
    assert (a - a).is_zero
    assert a - (a + b) == -b and len(a - (a + b)) == len(b)
    assert a - n == a + (-n) and n - a == -(a - n)


def _to_sympy(p, sympy, gens):
    return sympy.Poly.from_dict(dict(p.terms()) or {(0,) * 4: 0}, *gens, domain="ZZ")


@given(wide_polys, wide_polys)
@settings(max_examples=60, deadline=None)
def test_mul_matches_sympy(a, b):
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols("lambda t q x")
    expected = (_to_sympy(a, sympy, gens) * _to_sympy(b, sympy, gens)).as_dict()
    assert dict((a * b).terms()) == {mono: int(c) for mono, c in expected.items() if c}


_point4 = st.fixed_dictionaries({name: rationals for name in _ALL_VARS})


@given(wide_polys, _point4)
@settings(max_examples=60, deadline=None)
def test_eval_matches_sympy(p, point):
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols("lambda t q x")
    value = _to_sympy(p, sympy, gens).eval(
        {g: sympy.Rational(point[name].numerator, point[name].denominator)
         for g, name in zip(gens, _ALL_VARS)}
    )
    assert p.eval(point) == Fraction(int(value.p), int(value.q))


@given(st.integers(0, 30000), st.integers(0, 30000), st.integers(0, 30000))
@example(2**16 - 1, 0, 0)
@example(0, 0, 2**16 - 1)
@example(40000, 25535, 0)
@example(40000, 25535, 1)
def test_monomial_key_is_the_packed_key_or_overflows(lam, t, q):
    if lam + t + q < 2**16:
        assert ring._monomial_key(lam, t, q) == ring._pack_exps({"lambda": lam, "t": t, "q": q})
    else:
        with pytest.raises(OverflowError):
            ring._monomial_key(lam, t, q)


def test_packed_degree_limit():
    with pytest.raises(OverflowError):
        Poly.variable("lambda", 40000) * Poly.variable("t", 30000)
    with pytest.raises(OverflowError):
        Poly.from_terms([(1, {"lambda": 40000, "q": 25536})])
    with pytest.raises(OverflowError):
        Poly.from_terms([(1, {"x": 2**16})])
    below = Poly.variable("lambda", 40000) * Poly.variable("t", 25535)
    assert below.degree() == 2**16 - 1
    assert list(below.terms()) == [((40000, 25535, 0, 0), 1)]
    # x is the least significant field: a full one must not carry into q
    top = Poly.variable("x", 2**16 - 1)
    assert top.degree("x") == 2**16 - 1 and top.degree("q") == 0
    assert top.degree("lambda") == 0 and list(top.terms()) == [((0, 0, 0, 2**16 - 1), 1)]
    # s and m are not ring variables: every constructor rejects them
    assert VARIABLES == ("lambda", "t", "q", "x")
    for name in ("s", "m"):
        with pytest.raises(ValueError, match="unknown variable"):
            Poly.parse(f"{name}^2 + 1")
        with pytest.raises(ValueError, match="unknown variable"):
            Poly.from_terms([(1, {name: 1})])
        with pytest.raises(ValueError, match="unknown variable"):
            Poly.variable(name)


# -- folded products (the "packed_mul" in test names: products of packed diagonals) --


def _schoolbook(monkeypatch, a, b):
    """``a * b`` through ``__mul__``'s schoolbook loop, whatever the operand sizes."""
    with monkeypatch.context() as m:
        m.setattr(ring, "_PACKED_MIN", (float("inf"), float("inf")))
        return a * b


def _fold_product(a, b):
    """``a * b`` through the one-product fold, whatever the operand sizes."""
    [product] = ring._folded(lambda x, y: [x[0] * y[0]], [a], [b])
    return product


def _sized(n, shift=0):
    """A signed polynomial with exactly n terms, several to a (q+t)-diagonal."""
    return Poly.from_terms(
        ((-1) ** i * (i + 1 + shift), {"lambda": i // 12, "t": i % 12 // 3, "q": i % 3 + shift % 2})
        for i in range(n)
    )


@pytest.fixture
def fold_calls(monkeypatch):
    """The term counts of the data of every ``_folded`` call."""
    calls = []
    real = ring._folded

    def counting(walk, *data):
        calls.append([len(Poly._coerce(d)) for arg in data for d in arg])
        return real(walk, *data)

    monkeypatch.setattr(ring, "_folded", counting)
    return calls


@pytest.fixture
def schoolbook_calls(monkeypatch):
    calls = []
    real = ring._schoolbook_mul

    def counting(a, b):
        calls.append((len(a), len(b)))
        return real(a, b)

    monkeypatch.setattr(ring, "_schoolbook_mul", counting)
    return calls


def test_diagonals_pack_a_qt_number_into_one_int():
    # 5[4] - 2t^3 is 3t^3 + 5qt^2 + 5q^2t + 5q^3: one (q+t)-diagonal, keyed by t^3
    [(key, packed)] = ring._diagonals((5 * qt_number(4) - 2 * T**3)._terms, 8).items()
    assert ring._wrap({key: 1}) == T**3
    assert packed == 3 + (5 << 8) + (5 << 16) + (5 << 24)
    # lambda, x and the total degree are kept apart
    assert len(ring._diagonals((T + LAMBDA + X + T**2)._terms, 8)) == 4


# small exponents crowd terms onto few diagonals; wide ones leave gaps in them
_nonzero_big = st.one_of(_polys_over(_ALL_VARS, 3, _big, 12), wide_polys).filter(bool)


@given(_nonzero_big, _nonzero_big)
@settings(max_examples=150, deadline=None)
@example(Poly.constant(-1), Poly.constant(-(10**30)))
@example(T - Q, T + Q)  # t^2 - q^2: the middle of the diagonal cancels
def test_packed_mul_matches_schoolbook_and_sympy(a, b):
    sympy = pytest.importorskip("sympy")
    got = _fold_product(a, b)
    as_exps = [[(c, dict(zip(VARIABLES, m))) for m, c in p.terms()] for p in (a, b)]
    assert got == schoolbook_mul(*as_exps)
    gens = sympy.symbols("lambda t q x")
    expected = (_to_sympy(a, sympy, gens) * _to_sympy(b, sympy, gens)).as_dict()
    assert dict(got.terms()) == {mono: int(c) for mono, c in expected.items() if c}


@pytest.mark.parametrize(
    "sizes, packed",
    [((4, 100), False), ((5, 99), False), ((5, 100), True), ((100, 5), True), ((120, 130), True)],
)
def test_mul_threshold(monkeypatch, fold_calls, sizes, packed):
    assert ring._PACKED_MIN == (5, 100)
    a, b = _sized(sizes[0]), _sized(sizes[1], shift=7)
    assert (len(a), len(b)) == sizes
    expected = _schoolbook(monkeypatch, a, b)
    assert not fold_calls
    assert a * b == expected
    # folded operands hold no q, so the product inside the fold does not fold again
    assert fold_calls == ([list(sizes)] if packed else [])


def test_q_free_products_never_fold(fold_calls, schoolbook_calls):
    # the sizes of the folded routes' own products: nothing there to fold
    a = sum(LAMBDA**i * T ** (2 * i) for i in range(5))
    b = sum((-1) ** i * (i + 1) * LAMBDA ** (i // 10) * T ** (i % 10) * X for i in range(100))
    assert (len(a), len(b)) == (5, 100) and ring._PACKED_MIN == (5, 100)
    product = a * b
    assert fold_calls == [] and schoolbook_calls == [(5, 100)]
    assert product == _fold_product(a, b)
    as_exps = [[(c, dict(zip(VARIABLES, m))) for m, c in p.terms()] for p in (a, b)]
    assert product == schoolbook_mul(*as_exps)


def test_packed_mul_cancels_whole_diagonals(fold_calls):
    a = sum(k * LAMBDA**k * qt_number(k + 4) for k in range(1, 13))
    b = X * sum((-1) ** k * LAMBDA**k * qt_number(k + 3) for k in range(1, 13))
    product = (a + b) * (a - b)
    assert product == a * a - b * b
    # a*b holds every x^1 diagonal, and the two cross products cancel it
    assert (a * b).coefficient_of("x", 1) and not product.coefficient_of("x", 1)
    assert len(fold_calls) == 4 and min(map(min, fold_calls)) >= 100


def test_packed_mul_degree_limit(monkeypatch, fold_calls, schoolbook_calls):
    # q and t near the top of their fields: each diagonal spans some 30000 slots
    # for a handful of terms, so the product takes the schoolbook loop
    a = sum(Q ** (30000 + i) * T ** (4 - i) for i in range(5))
    b = sum((i + 1) * Q ** (35531 - i) * T**i for i in range(100))
    product = a * b
    assert product.degree() == 2**16 - 1
    assert fold_calls == [] and schoolbook_calls == [(5, 100)]
    assert product == _schoolbook(monkeypatch, a, b) == _fold_product(a, b)
    with pytest.raises(OverflowError):
        a * (b * T)


@pytest.mark.parametrize("gap, fallback", [(1, False), (4, False), (64, True), (20000, True)])
def test_packed_mul_takes_the_schoolbook_loop_on_gapped_diagonals(
    fold_calls, schoolbook_calls, gap, fallback
):
    # every diagonal is t^gap +- q^gap: two terms gap slots apart in one int
    a = sum(LAMBDA**i * (T**gap + Q**gap) for i in range(5))
    b = sum(LAMBDA ** (i % 10) * X ** (i // 10) * (T**gap - Q**gap) for i in range(50))
    product = a * b
    # folded, the 5 and 50 diagonals multiply in the schoolbook loop
    assert fold_calls == ([] if fallback else [[10, 100]])
    assert schoolbook_calls == [(10, 100) if fallback else (5, 50)]
    as_exps = [[(c, dict(zip(VARIABLES, m))) for m, c in p.terms()] for p in (a, b)]
    assert product == schoolbook_mul(*as_exps)



def test_a_gapped_larger_operand_takes_the_schoolbook_loop(fold_calls, schoolbook_calls):
    # the smaller operand is one dense diagonal, [10]; each diagonal of the larger
    # one is t^20000 +- q^20000, two terms 20000 slots apart in one folded int
    a = qt_number(10)
    b = sum(LAMBDA**i * (T**20000 + (-1) ** i * Q**20000) for i in range(50))
    assert (len(a), len(b)) == (10, 100)
    product = a * b
    assert fold_calls == [] and schoolbook_calls == [(10, 100)]
    as_exps = [[(c, dict(zip(VARIABLES, m))) for m, c in p.terms()] for p in (a, b)]
    assert product == schoolbook_mul(*as_exps) == _fold_product(a, b)

def test_packed_mul_degree_limit_with_dense_diagonals(monkeypatch, fold_calls, schoolbook_calls):
    # t near the top of its field, q low: each diagonal's int is gap-free, so it folds
    a = T**60000 * qt_number(5)
    b = sum((i + 1) * Q**i * T ** (5531 - i) for i in range(100))
    product = a * b
    assert product.degree() == 2**16 - 1
    # one diagonal each: folded, the product is a single-term one
    assert fold_calls == [[5, 100]] and schoolbook_calls == []
    assert product == _schoolbook(monkeypatch, a, b)
    with pytest.raises(OverflowError):
        a * (b * T)


@pytest.mark.parametrize("text", ["", " ", "-", "+", " + "])
def test_parse_rejects_text_without_terms(text):
    with pytest.raises(ValueError, match="no term"):
        Poly.parse(text)


@pytest.mark.parametrize(
    "text, message",
    [("q +", "empty term"), ("q - ", "empty term"), ("++q", "empty term")]
    + [(text, "malformed factor") for text in ("q*", "2**q", "q^", "q^-1", "q 2", "3q", "q^2^3")],
)
def test_parse_rejects_malformed_text(text, message):
    with pytest.raises(ValueError, match=message):
        Poly.parse(text)


@pytest.mark.parametrize(
    "call",
    [
        lambda p: p.degree("y"),
        lambda p: p.coefficient_of("y", 1),
        lambda p: p.substitute("y", T),
        lambda p: p.rename({"y": "t"}),
        lambda p: p.rename({"t": "y"}),
        lambda p: p.eval({"y": 1, "t": 1}),
        lambda p: Poly.variable("y"),
        lambda p: Poly.from_terms([(1, {"y": 1})]),
    ],
)
def test_unknown_variable_is_a_value_error(call):
    with pytest.raises(ValueError, match="unknown variable 'y'"):
        call(T + 1)
