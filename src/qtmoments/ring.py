"""Exact sparse multivariate polynomial arithmetic over arbitrary-precision integers.

A polynomial lives in Z[lambda, t, q, x] and is stored sparsely as a mapping
from exponent vectors to nonzero integer coefficients.  Terms are kept in a
fixed graded-lexicographic order (total degree first, then exponents with
lambda most significant), so equal polynomials always serialize identically.

Each exponent vector is stored packed into one int of five 16-bit fields,

    [total degree | lambda | t | q | x]

with the total degree most significant (Monagan & Pearce, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors", CASC
2007).  Multiplying two monomials is then one int addition, and comparing
two packed ints is exactly the graded-lexicographic comparison.  Every field
is bounded by the total degree, so a total degree below 2^16 keeps every
field from carrying into its neighbour; building or multiplying into a
monomial of total degree 2^16 or more raises :class:`OverflowError`.  The
public API still speaks in exponent tuples aligned with ``VARIABLES``.

Routes and large products run on q-folded data (one-way Kronecker substitution;
Harvey, JSC 2009), as a (q,t)-number [n] lies on one (q+t)-diagonal.
``_diagonals`` is the fold q = 2^W t, a ring homomorphism Z[lambda,t,q,x] ->
Z[lambda,t,x] moving a term's q exponent j into its t field and its coefficient
to bit W*j of its diagonal's int.  ``_undiagonals``, the one decoder, reads
balanced W-bit digits back, exact for coefficients in [-2^(W-1), 2^(W-1)).
``_folded`` runs a route, or one product, folded at the one width rule
W = bits(B) + 1, B the walk run on the data's L1 norms.  ``__mul__`` folds once
both operands reach ``_PACKED_MIN`` terms, one holds a q and the diagonals of
both are dense (``_GAP_LIMIT``); folded operands hold no q, so never fold.
Every route and check already runs folded as a whole, so no workload request
reaches that per-product fold: its traffic is the unfolded test oracles and
callers' own products of large Polys.

Printing reads a key's (lambda, t) half (bits 32-63) and (q, x) half (bits 0-31)
from two ``dict`` tables whose ``__missing__`` stores a half's text on first
sight, each factor led by ``"*"``, ``""`` for a zero half: at most (d+1)(d+2)/2
entries up to total degree d, 511 and 287 after the eight bench tables.  A term
is one f-string of its signed coefficient and two halves; a +-1 coefficient
drops its ``1*``, a constant prints its digits.  ``charlier`` streams the text
in chunks of ``_TEXT_CHUNK`` terms, each built by one list comprehension.

Rational values (exact parameter samples) are plain :class:`fractions.Fraction`
objects; evaluation of a polynomial at rational points is exact.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import reduce
from operator import index
from typing import Iterable, Iterator, Mapping

__all__ = [
    "VARIABLES",
    "Poly",
    "MissingVariable",
    "LAMBDA",
    "T",
    "Q",
    "X",
]

#: Fixed variable order, most significant first.  This order defines the
#: graded-lexicographic comparison used everywhere (canonical strings, JSON).
VARIABLES = ("lambda", "t", "q", "x")

_NVARS = len(VARIABLES)
_BITS = 16
_MASK = (1 << _BITS) - 1
#: Total degrees from this value on do not fit the packed fields.
_DEGREE_LIMIT = 1 << _BITS
_DEG_SHIFT = _BITS * _NVARS
#: (variable, bit offset of its field); lambda sits just below the degree.
_NAMED_SHIFTS = tuple((name, _BITS * (_NVARS - 1 - i)) for i, name in enumerate(VARIABLES))
_SHIFT = dict(_NAMED_SHIFTS)
_HALF = 2 * _BITS
_HALF_MASK = (1 << _HALF) - 1
#: Adding ``j * _FOLD`` to a key moves its q exponent j into the t field.
_FOLD = (1 << _SHIFT["t"]) - (1 << _SHIFT["q"])
#: ``__mul__`` folds once its operands reach (smaller, larger) terms; no workload
#: request does, only the tests' unfolded oracles and callers' own products.
_PACKED_MIN = (5, 100)
#: Slots per term in either operand's diagonals past which ``__mul__`` takes
#: the schoolbook loop: those products keep under 1, and at 4 the two cost the same.
_GAP_LIMIT = 4
#: Terms per piece of canonical text, so a long polynomial prints in bounded pieces.
_TEXT_CHUNK = 1024


class _HalfText(dict):
    """Each half key's text so far, every factor led by "*"; "" for a zero half."""

    def __init__(self, names: tuple):
        self.names = names

    def __missing__(self, half: int) -> str:
        pairs = zip(self.names, (half >> _BITS, half & _MASK))
        text = self[half] = "".join(f"*{n}" if e == 1 else f"*{n}^{e}" for n, e in pairs if e)
        return text


#: Text of each (lambda, t) and each (q, x) half key printed so far.
_HIGH_TEXT, _LOW_TEXT = _HalfText(VARIABLES[:2]), _HalfText(VARIABLES[2:])

class MissingVariable(KeyError):
    """Raised when evaluating a polynomial with an incomplete assignment."""


def _check_degree(deg: int) -> None:
    if deg >= _DEGREE_LIMIT:
        raise OverflowError(f"total degree {deg} does not fit a packed monomial (< 2^{_BITS})")


def _shift_of(name: str) -> int:
    shift = _SHIFT.get(name)
    if shift is None:
        raise ValueError(f"unknown variable {name!r}")
    return shift


def _rational(value) -> Fraction:
    """``value`` as a Fraction.  Only int and Fraction are exact: Fraction(0.1)
    would silently read the float's binary expansion, so any other type raises."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"not an exact rational (int or Fraction): {value!r}")
    return value if type(value) is Fraction else Fraction(value)


def _pack_exps(exps: Mapping[str, int]) -> int:
    """Packed key of a {variable: exponent} mapping."""
    key = deg = 0
    for name, e in exps.items():
        shift = _shift_of(name)
        try:
            e = index(e)
        except TypeError:
            raise TypeError(f"exponent for {name!r} must be an int, got {e!r}") from None
        if e < 0:
            raise ValueError(f"negative exponent for {name!r}")
        key += e << shift
        deg += e
    _check_degree(deg)
    return key | deg << _DEG_SHIFT


def _monomial_key(lam: int, t: int, q: int) -> int:
    """Packed key of lambda^lam t^t q^q, for non-negative exponents."""
    _check_degree(deg := lam + t + q)
    return (((deg << _BITS | lam) << _BITS | t) << _BITS | q) << _BITS


def _unpack(key: int) -> tuple:
    return tuple((key >> shift) & _MASK for _, shift in _NAMED_SHIFTS)


def _key_to_exps(key: int) -> dict:
    out = {}
    for name, shift in _NAMED_SHIFTS:
        e = (key >> shift) & _MASK
        if e:
            out[name] = e
    return out


def _diagonals(terms: dict, width: int) -> dict:
    """Each (q+t)-diagonal of a term dict as one int: its q^j coefficient at bit width*j."""
    out: dict = {}
    get = out.get
    for key, coeff in terms.items():
        j = (key >> _SHIFT["q"]) & _MASK
        diag = key + j * _FOLD
        out[diag] = get(diag, 0) + (coeff << width * j)
    return out


def _schoolbook_mul(a: dict, b: dict) -> dict:
    """Product of two term dicts, one product per pair of terms."""
    out: dict = {}
    get = out.get
    b_items = b.items()
    for ka, ca in a.items():
        for kb, cb in b_items:
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def _fold_pays(a: dict, b: dict) -> bool:
    """Whether the product of ``a`` and ``b`` should fold: one holds a q, and
    the (q+t)-diagonals of each span at most ``_GAP_LIMIT`` slots per term.  On
    a diagonal a higher q exponent means a smaller key, so over falling keys
    the last exponent kept for a diagonal is its highest."""
    q = _SHIFT["q"]
    if not any(key >> q & _MASK for terms in (a, b) for key in terms):
        return False
    for terms in (a, b):
        top = {key + (j := (key >> q) & _MASK) * _FOLD: j for key in sorted(terms, reverse=True)}
        if len(top) + sum(top.values()) > _GAP_LIMIT * len(terms):
            return False
    return True


def _undiagonals(diags: dict, width: int) -> dict:
    """The inverse of ``_diagonals``: each int read as balanced width-bit digits."""
    if width < 2 and any(diags.values()):
        raise ValueError(f"a width-{width} digit cannot hold a nonzero coefficient")
    out = {}
    mask, half = (1 << width) - 1, 1 << (width - 1)
    for key, packed in diags.items():
        while packed:
            coeff = packed & mask
            if not coeff:  # jump over a run of zero digits in one shift
                zeros = ((packed & -packed).bit_length() - 1) // width
                packed >>= zeros * width
                key -= zeros * _FOLD
                continue
            packed >>= width
            if coeff >= half:  # a negative digit: it borrowed one from the next
                coeff -= mask + 1
                packed += 1
            out[key] = coeff
            key -= _FOLD
    return out


def _folded(walk, *data: list) -> Iterator["Poly"]:
    """The Polys ``walk(*data)`` returns, computed on q-folded data.

    ``walk`` uses + and * alone on lists of Polys or ints.  The L1 norm (sum
    of |coefficients|) is sub-additive and sub-multiplicative, so the largest
    output B of ``walk`` on the data's norms bounds every output coefficient.
    Both walks run now; each output is decoded only when the iterator reaches it.
    """
    if not all(isinstance(d, (Poly, int)) for arg in data for d in arg):
        raise TypeError("a folded walk takes Poly or int data")
    terms = lambda d: Poly._coerce(d)._terms
    norms = walk(*([sum(map(abs, terms(d).values())) for d in arg] for arg in data))
    width = max(norms).bit_length() + 1
    folded = walk(*([_wrap({k: v for k, v in _diagonals(terms(d), width).items() if v})
                     for d in arg] for arg in data))
    return (_wrap(_undiagonals(terms(v), width)) for v in folded)


def _wrap(terms: dict) -> "Poly":
    """A Poly over an already-clean packed-key dict (no zero coefficients)."""
    res = Poly.__new__(Poly)
    res._terms = terms
    return res


class Poly:
    """Immutable sparse polynomial with big-integer coefficients.

    Every constructor drops zero coefficients (``Poly()`` is zero); arithmetic
    returns new objects, so instances are safe to share across threads or processes.
    Integers mix freely with polynomials in ``+``, ``-`` and ``*``.
    """

    __slots__ = ("_terms",)

    def __init__(self):
        self._terms = {}

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def one(cls) -> "Poly":
        return _wrap({0: 1})

    @classmethod
    def constant(cls, c: int) -> "Poly":
        c = index(c)  # an int only: a float, Fraction or str raises TypeError
        return _wrap({0: c} if c else {})

    @classmethod
    def variable(cls, name: str, power: int = 1) -> "Poly":
        return _wrap({_pack_exps({name: power}): 1})

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[int, Mapping[str, int]]]) -> "Poly":
        """Build from (coefficient, {variable: exponent}) pairs, combining duplicates;
        a coefficient that is not an int raises TypeError."""
        acc: dict = {}
        for coeff, exps in terms:
            key = _pack_exps(exps)
            acc[key] = acc.get(key, 0) + index(coeff)
        return _wrap({k: c for k, c in acc.items() if c})

    @staticmethod
    def _coerce(value) -> "Poly":
        if isinstance(value, Poly):
            return value
        if isinstance(value, int):
            return Poly.constant(value)
        return NotImplemented  # type: ignore[return-value]

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def degree(self, var: str | None = None) -> int:
        """Total degree, or the maximum exponent of one variable.  Zero poly has degree 0."""
        if not self._terms:
            return 0
        if var is None:
            return max(self._terms) >> _DEG_SHIFT
        shift = _shift_of(var)
        return max((k >> shift) & _MASK for k in self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = Poly.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        terms = self._terms
        if terms.keys() <= {0}:  # a constant equals its int, so hashes like it
            return hash(terms.get(0, 0))
        return hash(frozenset(terms.items()))

    # -- ring arithmetic ---------------------------------------------------

    def __add__(self, other) -> "Poly":
        other = Poly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for key, coeff in other._terms.items():
            new = out.get(key, 0) + coeff
            if new:
                out[key] = new
            elif key in out:
                del out[key]
        return _wrap(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _wrap({k: -c for k, c in self._terms.items()})

    def __sub__(self, other) -> "Poly":
        other = Poly._coerce(other)
        return NotImplemented if other is NotImplemented else self + -other

    def __rsub__(self, other) -> "Poly":
        other = Poly._coerce(other)
        return NotImplemented if other is NotImplemented else other + -self

    def __mul__(self, other) -> "Poly":
        other = Poly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._terms, other._terms
        if not a or not b:
            return _wrap({})
        _check_degree((max(a) >> _DEG_SHIFT) + (max(b) >> _DEG_SHIFT))
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            # adding one fixed key is injective and Z has no zero divisors,
            # so nothing collides or cancels
            [(ka, ca)] = a.items()
            return _wrap({ka + kb: ca * cb for kb, cb in b.items()})
        if len(a) >= _PACKED_MIN[0] and len(b) >= _PACKED_MIN[1] and _fold_pays(a, b):
            return next(_folded(lambda x, y: [x[0] * y[0]], [self], [other]))
        return _wrap(_schoolbook_mul(a, b))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        result = Poly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- structural operations ----------------------------------------------

    def coefficient_of(self, var: str, power: int) -> "Poly":
        """The coefficient of ``var**power``, as a polynomial in the other variables."""
        shift = _shift_of(var)
        strip = (power << shift) + (power << _DEG_SHIFT)
        return _wrap({
            k - strip: c for k, c in self._terms.items() if ((k >> shift) & _MASK) == power
        })

    def substitute(self, var: str, replacement) -> "Poly":
        """Substitute a polynomial (or integer) for one variable, exactly."""
        rep = Poly._coerce(replacement)
        if rep is NotImplemented:
            raise TypeError("replacement must be a Poly or int")
        shift = _shift_of(var)
        by_power: dict = {}
        for k, c in self._terms.items():
            e = (k >> shift) & _MASK
            by_power.setdefault(e, {})[k - (e << shift) - (e << _DEG_SHIFT)] = c
        out = Poly.zero()
        power, acc = 0, Poly.one()
        for e in sorted(by_power):
            while power < e:
                acc = acc * rep
                power += 1
            out = out + _wrap(by_power[e]) * acc
        return out

    def rename(self, mapping: Mapping[str, str]) -> "Poly":
        """Rename variables (e.g. swap q and t).  The mapping must be injective."""
        perm = {shift: shift for _, shift in _NAMED_SHIFTS}
        for old, new in mapping.items():
            perm[_shift_of(old)] = _shift_of(new)
        if len(set(mapping.values())) != len(mapping):
            raise ValueError("rename mapping must be injective")
        out: dict = {}
        for key, coeff in self._terms.items():
            moved = key >> _DEG_SHIFT << _DEG_SHIFT
            for src, dst in perm.items():
                e = (key >> src) & _MASK
                if e:
                    if (moved >> dst) & _MASK:
                        raise ValueError("rename collides with an existing variable")
                    moved |= e << dst
            out[moved] = coeff
        return _wrap(out)

    # -- evaluation ----------------------------------------------------------

    def eval(self, assignment: Mapping[str, Fraction | int]) -> Fraction:
        """Exact rational value at a point covering every variable of the polynomial."""
        values = {}
        for name, v in assignment.items():
            values[_shift_of(name)] = _rational(v)
        terms = self._terms
        # Bring every term over the common denominator prod d_i^top, top the total
        # degree, so the sum runs over ints and one Fraction is built at the end.
        top = max(terms, default=0) >> _DEG_SHIFT
        present = reduce(int.__or__, terms, 0)  # which variables occur
        factors = []  # (shift, [num^e * den^(top - e) for e = 0..top])
        denominator = 1
        for name, shift in _NAMED_SHIFTS:
            if not present >> shift & _MASK:
                continue
            value = values.get(shift)
            if value is None:
                raise MissingVariable(name)
            num, den = value.numerator, value.denominator
            factors.append((shift, [num**e * den ** (top - e) for e in range(top + 1)]))
            denominator *= den**top
        total = 0
        for key, coeff in terms.items():
            for shift, scaled_pows in factors:
                coeff *= scaled_pows[(key >> shift) & _MASK]
            total += coeff
        return Fraction(total, denominator)

    # -- serialization ---------------------------------------------------------

    def canonical_str(self) -> str:
        """Deterministic, round-trippable text form (terms in canonical order)."""
        return "".join(self._text_chunks())

    def _text_chunks(self) -> Iterator[str]:
        """``canonical_str`` in consecutive pieces of up to ``_TEXT_CHUNK`` terms."""
        terms = self._terms
        keys = sorted(terms, reverse=True)
        if not keys:
            yield "0"
        high, low = _HIGH_TEXT, _LOW_TEXT
        for start in range(0, len(keys), _TEXT_CHUNK):
            pieces = [  # a +-1 coefficient drops its "1*", a constant prints its digits
                f" + {c}{hi}{lo}" if c > 1 else f" - {-c}{hi}{lo}" if c < -1
                else (" + " if c > 0 else " - ") + (f"{hi}{lo}"[1:] or "1")
                for key in keys[start : start + _TEXT_CHUNK] for c in [terms[key]]
                for hi in [high[key >> _HALF & _HALF_MASK]] for lo in [low[key & _HALF_MASK]]
            ]
            if not start:  # the leading term carries no " + " and a bare "-"
                pieces[0] = pieces[0][3:] if pieces[0][1] == "+" else "-" + pieces[0][3:]
            yield "".join(pieces)

    def __str__(self) -> str:
        return self.canonical_str()

    def __repr__(self) -> str:
        return f"Poly({self.canonical_str()})"

    @classmethod
    def parse(cls, text: str) -> "Poly":
        """Parse the canonical text form back into a polynomial.

        Accepts exactly the grammar produced by :meth:`canonical_str`
        (integer coefficients, ``*``-joined factors, ``^`` exponents),
        with arbitrary whitespace.
        """
        # a factor is an integer, or a variable with an optional ^exponent
        factor_re = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)(?:\s*\^\s*(\d+))?)\s*")
        parts = re.split(r"([+-])", text)  # body, sign, body, sign, ...
        if parts[0].strip():
            parts.insert(0, "+")
        else:
            del parts[0]  # a leading sign, or no term at all
        if not any(body.strip() for body in parts[1::2]):
            raise ValueError(f"no term in {text!r}")
        acc: list = []
        for sign, body in zip(parts[::2], parts[1::2]):
            if not body.strip():
                raise ValueError(f"empty term in {text!r}")
            coeff, exps = (-1 if sign == "-" else 1), {}
            for factor in body.split("*"):
                match = factor_re.fullmatch(factor)
                if match is None:
                    raise ValueError(f"malformed factor {factor.strip()!r} in {text!r}")
                digits, name, e = match.groups()
                if digits:
                    coeff *= int(digits)
                elif name not in _SHIFT:
                    raise ValueError(f"unknown variable {name!r} in {text!r}")
                else:
                    exps[name] = exps.get(name, 0) + int(e or 1)
            acc.append((coeff, exps))
        return cls.from_terms(acc)

    def to_json_dict(self) -> dict:
        """JSON form: coefficients as decimal strings, exponents as name->int maps."""
        terms = self._terms
        return {
            "terms": [
                {"coeff": str(terms[k]), "exps": _key_to_exps(k)}
                for k in sorted(terms, reverse=True)
            ]
        }

    def terms(self) -> Iterator[tuple[tuple, int]]:
        """(exponents aligned with ``VARIABLES``, coefficient) for each term."""
        return ((_unpack(k), c) for k, c in self._terms.items())


# Handy singletons for building expressions.
LAMBDA = Poly.variable("lambda")
T = Poly.variable("t")
Q = Poly.variable("q")
X = Poly.variable("x")
