"""Monic orthogonal polynomials from three-term recurrences, their moment
sequences via weighted Motzkin paths and J-fraction series, and the exact
verification routines built on top (orthogonality, operator identity,
binomial-to-Poisson limit).

A family is described by its Jacobi data: diagonal terms alpha_n (n >= 0) and
super-diagonal terms omega_n (n >= 1), with

    P_0 = 1,   P_1 = x - alpha_0,
    P_{n+1} = (x - alpha_n) P_n - omega_n P_{n-1}.

The recurrence is written once, ``_recurrence`` on a_n = -alpha_n and
w_n = -omega_n, and runs q-folded for the polynomials (x multiplies), the
orthogonality check (x shifts coefficient rows and the moment list) and the
operator identity (x is the Poisson step on Fock coefficients).

The moment sequence of the orthogonalizing functional is recovered in two
independent ways that must agree:

  * weighted Motzkin paths: flat step at height h weighs alpha_h, down step
    from height h weighs omega_h, up steps weigh 1 (equivalently the (0,0)
    entry of powers of the tridiagonal array with unit sub-diagonal);
  * the J-fraction  1/(1 - alpha_0 z - omega_1 z^2/(1 - alpha_1 z - ...)),
    expanded as a power series with exact polynomial coefficients.

Presets
-------
    charlier_strict     alpha_n = lambda + [n],      omega_n = lambda [n]
    charlier_t_gauge    alpha_n = lambda t^n + [n],  omega_n = lambda [n]
    ejsmont             alpha_n = [n],               omega_n = [n]
    binomial(m,p; q,t)  alpha_n = m p + (1-2p) [n],
                        omega_n = [n] (m - [n-1]) p (1-p)

charlier_strict is the deformed Poisson family (scalar gauge lambda*1);
charlier_t_gauge is its lambda*t^N sibling whose moments count covered
singletons as nestings.  The binomial family takes rational parameters (its
coefficients are not integral, so it lives outside the symbolic ring) and
clamps omega_n to 0 once [n-1] >= m, after which the measure has finitely
many atoms.  With p = lambda epsilon, epsilon = 1/m, the unclamped data are
polynomials in epsilon, and so are their moments; poisson_limit_check proves
that the epsilon^0 part of every moment is the charlier_strict moment (the
Poisson limit m -> infinity) and that the epsilon moments at 1/m are exactly
the binomial moments at each sampled m.

The symbolic presets read their entries from memoised module functions, as
``qt_number`` does: every caller shares one immutable Poly per n.  The
binomial forms m p, 1 - 2p and p (1 - p), the factors free of n, once per call.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import accumulate, chain, repeat
from math import lcm
from operator import mul
from typing import Callable, Iterator, Mapping, Sequence

from .fock import CheckReport, ScalarGauge, _poisson_data, _poisson_step, _Record
from .qtnum import qt_number
from .ring import LAMBDA, Poly, T, X, _folded, _rational

__all__ = [
    "JacobiParams",
    "charlier_strict",
    "charlier_t_gauge",
    "ejsmont",
    "binomial",
    "specialize",
    "three_term_polys",
    "moments_by_motzkin",
    "InsufficientMoments",
    "moment_functional",
    "check_orthogonality",
    "check_charlier_fock_identity",
    "poisson_limit_check",
    "default_jfraction_depth",
    "jfraction_series",
    "jfraction_series_from_arrays",
]


class JacobiParams(_Record):
    """Recurrence data: alpha(n) for n >= 0 and omega(n) for n >= 1.

    Symbolic presets return Poly and rationally specialized ones Fraction;
    three_term_polys and check_orthogonality run folded, on Poly or int data only.
    A preset's entries are memoised and shared, so they must not be mutated.
    """

    __slots__ = _fields = ("name", "alpha", "omega")

    def __init__(self, name: str, alpha: Callable, omega: Callable):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "omega", omega)


@cache
def _charlier_alpha(n: int) -> Poly:
    return LAMBDA + qt_number(n)


@cache
def _t_gauge_alpha(n: int) -> Poly:
    return LAMBDA * T**n + qt_number(n)


@cache
def _charlier_omega(n: int) -> Poly:
    return LAMBDA * qt_number(n)


def charlier_strict() -> JacobiParams:
    return JacobiParams(name="charlier-strict", alpha=_charlier_alpha, omega=_charlier_omega)


def charlier_t_gauge() -> JacobiParams:
    return JacobiParams(name="charlier-tgauge", alpha=_t_gauge_alpha, omega=_charlier_omega)


def ejsmont() -> JacobiParams:
    return JacobiParams(name="ejsmont", alpha=qt_number, omega=qt_number)


def specialize(j: JacobiParams, point: Mapping[str, Fraction | int]) -> JacobiParams:
    """The symbolic Jacobi data of ``j`` evaluated at a rational point.

    ``point`` assigns every variable the data uses, for the Charlier presets
    ``{"q": q, "t": t, "lambda": lam}``; each entry is evaluated once and
    memoised.  Evaluation at a point is a ring homomorphism Z[lambda, t, q]
    -> Q, and the Motzkin and J-fraction routes build every moment from alpha
    and omega with + and * alone.  So the moments of the specialized data,
    computed over Fraction, are exactly the symbolic moments evaluated at the
    point, and no polynomial product is formed on the way;
    :func:`moments_by_motzkin` runs such data over integers.
    """
    point = {name: _rational(v) for name, v in point.items()}
    label = ", ".join(f"{name}={v}" for name, v in point.items())
    return JacobiParams(
        name=f"{j.name}({label})",
        alpha=cache(lambda n: j.alpha(n).eval(point)),
        omega=cache(lambda n: j.omega(n).eval(point)),
    )


def binomial(m: Fraction, p: Fraction, q: Fraction, t: Fraction) -> JacobiParams:
    """Rational binomial Jacobi data with the finite-support clamp.

    omega_n is set to exactly 0 whenever [n-1] >= m at the given (q, t);
    from that index on the recurrence truncates and the moments are those of
    a finitely supported measure.
    """
    m, p, q, t = map(_rational, (m, p, q, t))
    num = cache(lambda k: qt_number(k).eval({"q": q, "t": t}))  # k -> [k] at (q, t)
    mean, drift, variance = m * p, 1 - 2 * p, p * (1 - p)  # the factors free of n

    def alpha(n: int) -> Fraction:
        return mean + drift * num(n)

    def omega(n: int) -> Fraction:
        if num(n - 1) >= m:
            return Fraction(0)
        return num(n) * (m - num(n - 1)) * variance

    return JacobiParams(name=f"binomial(m={m}, p={p})", alpha=alpha, omega=omega)


def _jacobi_arrays(j: JacobiParams, depth: int) -> tuple:
    """The lists [alpha_0 .. alpha_depth] and [omega_1 .. omega_depth] of ``j``."""
    return [j.alpha(h) for h in range(depth + 1)], [j.omega(h) for h in range(1, depth + 1)]


def _recurrence(x: Callable, first: list, a: Sequence, w: Sequence) -> list:
    """Rows u_0 = ``first``, u_1, .. from u_(n+1) = x(u_n) + a_n u_n + w_n u_(n-1),
    u_(-1) = 0, one per pair (a_n, w_n).  Rows are lists of ring elements and ``x``
    sets each one's length: entry i of x(u_n) meets entry i of u_n and of u_(n-1),
    zero past their ends.  Only + and * are used, so rows run folded."""
    rows, below = [first], []
    for a_n, w_n in zip(a, w):
        cur = rows[-1]
        pad, pad_below = chain(cur, repeat(0)), chain(below, repeat(0))
        rows.append([xu + a_n * u + w_n * v for xu, u, v in zip(x(cur), pad, pad_below)])
        below = cur
    return rows


def _signed(j: JacobiParams, n_max: int, n_omega: int) -> tuple:
    """a_n = -alpha_n for n < n_max, and w_0 = 0, w_n = -omega_n for 0 < n < n_omega."""
    return [-j.alpha(n) for n in range(n_max)], [0] + [-j.omega(n) for n in range(1, n_omega)]


def three_term_polys(j: JacobiParams, n_max: int) -> tuple:
    """Monic P_0..P_{n_max}, P_k of degree k in x, exactly from the recurrence
    P_{n+1} = x P_n + a_n P_n + w_n P_{n-1} on q-folded a_n = -alpha_n, w_n = -omega_n."""
    return tuple(_three_term_rows(j, n_max))


def _three_term_rows(j: JacobiParams, n_max: int) -> Iterator[Poly]:
    """``three_term_polys`` as an iterator: the walk runs now, each P_k is decoded when reached."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")

    def walk(x, a, w):  # one product per row, (x + a_n) P_n; the shift adds 0
        return [u[0] for u in _recurrence(lambda u: [0], [1], [x[0] + a_n for a_n in a], w)]

    return _folded(walk, [X], *_signed(j, n_max, n_max))


def moments_by_motzkin(j: JacobiParams, n_max: int) -> list:
    """Moments 0..n_max by the weighted Motzkin path recursion.

    Rational data (``Fraction`` or ``int``) run the recursion over integers:
    with D the lcm of the denominators, flat steps weigh alpha D and down
    steps omega D^2, so every path of length k gains exactly D^k and moment k
    is M_k / D^k, with no gcd inside the loop.  Symbolic data run it q-folded.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    # A path of length n_max that ends at height 0 never climbs above n_max // 2.
    alpha, omega = _jacobi_arrays(j, n_max // 2)
    if not all(isinstance(v, (int, Fraction)) for v in alpha + omega):
        return list(_folded(lambda a, w: _motzkin_walk(a, w, n_max), alpha, omega))
    d = lcm(*(v.denominator for v in alpha + omega))
    alpha = [v.numerator * (d // v.denominator) for v in alpha]
    omega = [v.numerator * (d // v.denominator) * d for v in omega]
    return [Fraction(m, d**k) for k, m in enumerate(_motzkin_walk(alpha, omega, n_max))]


def _motzkin_walk(alpha: list, omega: list, n_max: int) -> list:
    """Path sums 0..n_max: flat steps at h weigh alpha[h], down steps omega[h - 1]."""
    out = [1]
    state = {0: 1}
    for left in range(n_max - 1, -1, -1):
        # ``left`` steps remain after this one; a path above that height can
        # no longer come back down, so no level above it is kept.
        new: dict = {}
        for level, w in state.items():
            if level < left:
                new[level + 1] = new.get(level + 1, 0) + w  # up step, weight 1
            if level <= left:
                new[level] = new.get(level, 0) + w * alpha[level]
            if level >= 1:
                new[level - 1] = new.get(level - 1, 0) + w * omega[level - 1]
        state = new
        out.append(state.get(0, 0))
    return out


class InsufficientMoments(ValueError):
    """The moment list does not reach the x-degree of the polynomial."""


def moment_functional(p: Poly, moments: Sequence):
    """Apply the moment functional: replace x^k linearly by moments[k]."""
    deg = p.degree("x")
    if deg >= len(moments):
        raise InsufficientMoments(f"need moments up to degree {deg}, got {len(moments)}")
    total = Poly.zero()
    for k in range(deg + 1):
        coeff = p.coefficient_of("x", k)
        if not coeff.is_zero:
            total = total + coeff * moments[k]
    return total


def check_orthogonality(j: JacobiParams, n_max: int, moments: Sequence) -> CheckReport:
    """Verify L(P_n P_m) = delta_{nm} prod_{i<=n} omega_i exactly for n,m <= n_max.

    No product P_n P_m is formed.  L is linear, so the mixed moments
    mixed[n][k] = L(x^k P_n) follow from the three-term recurrence itself, as
    in the modified Chebyshev algorithm (Gautschi, *Orthogonal Polynomials:
    Computation and Approximation*, 2004):

        mixed[0][k]   = mu_k,                                 k <= 2 n_max,
        mixed[n+1][k] = mixed[n][k+1] - alpha_n mixed[n][k]
                        - omega_n mixed[n-1][k],              k <= 2 n_max - n - 1.

    That is ``_recurrence`` with x shifting the moment list left, and with x
    shifting coefficient rows right it gives p_{n,k}, the x^k coefficient of P_n.
    Then L(P_n P_m) = sum_{k <= lo} p_{lo,k} mixed[hi][k], lo = min(n, m) and
    hi = max(n, m), as P_n P_m = P_m P_n.  One q-folded walk forms the rows,
    the values and w_1 ... w_n = (-1)^n norm_n.  For any moment list each
    value equals ``moment_functional(P_n * P_m, moments)``.
    """
    top = 2 * n_max
    if len(moments) <= top:
        raise InsufficientMoments(f"need moments up to degree {top}, got {len(moments)}")
    report = CheckReport(name=f"orthogonality({j.name}, n_max={n_max})")
    pairs = [(lo, hi) for hi in range(n_max + 1) for lo in range(hi + 1)]

    def walk(mu, a, w):
        rows = _recurrence(lambda u: [0] + u, [1], a, w)
        mixed = _recurrence(lambda u: u[1:], mu, a, w)
        values = [sum(map(mul, rows[lo], mixed[hi])) for lo, hi in pairs]
        return values + list(accumulate(w[1:], mul, initial=1))

    out = list(_folded(walk, moments[: top + 1], *_signed(j, n_max, n_max + 1)))
    values = dict(zip(pairs, out))
    norms = [-v if n % 2 else v for n, v in enumerate(out[len(pairs):])]
    zero = Poly.zero()
    for n in range(n_max + 1):
        for m in range(n_max + 1):
            value = values[min(n, m), max(n, m)]
            expected = norms[n] if n == m else zero
            report.record(value == expected, lambda: f"L(P_{n} P_{m}) = {value}, expected {expected}")
    return report


def check_charlier_fock_identity(n_max: int) -> CheckReport:
    """Verify P_n(operator) vacuum = lambda^n f_n in the rescaled basis.

    Runs the strict Poisson family against the IDENTITY-gauge operator:
    ``_recurrence`` with x the Poisson step on coefficients of f_0, f_1, ..,
    run q-folded from the vacuum, must land exactly on the scaled basis vectors.
    """
    report = CheckReport(name=f"charlier-fock(n_max={n_max})")

    def walk(lam, nums, scalars, a, w):
        step = lambda u: _poisson_step(u, lam[0], nums, scalars)
        return [c for row in _recurrence(step, [1], a, w) for c in row]

    data = _poisson_data(ScalarGauge.IDENTITY, n_max)
    flat = list(_folded(walk, [LAMBDA], *data, *_signed(charlier_strict(), n_max, n_max)))
    report.record(flat[:1] == [1], "P_0 vacuum is the vacuum")
    for n in range(1, n_max + 1):
        row = flat[n * (n + 1) // 2 : (n + 1) * (n + 2) // 2]  # row n holds f_0 .. f_n
        report.record(
            row == [0] * n + [LAMBDA**n],
            f"P_{n}(operator) vacuum differs from lambda^{n} f_{n}",
        )
    return report


#: Unclamped binomial data at p = lambda x, the ring variable x standing for 1/m.
_BINOMIAL_EPSILON = JacobiParams(
    name="binomial-epsilon",
    alpha=lambda n: LAMBDA + (1 - 2 * LAMBDA * X) * qt_number(n),
    omega=lambda n: LAMBDA * qt_number(n) * (1 - X * qt_number(n - 1)) * (1 - LAMBDA * X),
)


def poisson_limit_check(
    n_max: int,
    lam: Fraction,
    m_values: Sequence[int],
    q: Fraction = Fraction(1, 3),
    t: Fraction = Fraction(2, 3),
) -> CheckReport:
    """Verify the binomial-to-Poisson limit as one exact identity in epsilon = 1/m.

    With p = lambda epsilon and x for epsilon, the binomial data are alpha_n =
    lambda + (1 - 2 lambda x) [n] and omega_n = lambda [n] (1 - x [n-1]) (1 - lambda x),
    whose Motzkin moments 0..n_max are polynomials in x, lambda, q and t.  Their
    x^0 parts, the limit m -> infinity, must be the charlier_strict moments for
    every lambda, q and t; at x = 1/m, lambda = lam and (q, t) they must be the
    moments of binomial(m, lam/m, q, t) for each sampled m.  ValueError: lam <= 0,
    an m not an integer above lam, fewer than two distinct m, or an m that
    binomial clamps where the walk reads ([k-1] >= m, 1 <= k <= n_max // 2).
    """
    lam, q, t = _rational(lam), _rational(q), _rational(t)
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if any(_rational(mv) <= lam or _rational(mv).denominator != 1 for mv in m_values):
        raise ValueError("every m must be an integer above lambda")
    m_values = sorted({int(mv) for mv in m_values})
    if len(m_values) < 2:
        raise ValueError("need at least two distinct m values to compare")
    point = {"q": q, "t": t, "lambda": lam}
    if any(qt_number(k).eval(point) >= m_values[0] for k in range(n_max // 2)):
        raise ValueError(f"the clamp of m={m_values[0]} acts where an order-{n_max} walk reads")

    report = CheckReport(name="poisson-limit")
    moments = moments_by_motzkin(_BINOMIAL_EPSILON, n_max)
    for k, (mk, pk) in enumerate(zip(moments, moments_by_motzkin(charlier_strict(), n_max))):
        report.record(mk.coefficient_of("x", 0) == pk, f"order {k}: epsilon^0 part is not Poisson")
    for m in map(Fraction, m_values):
        at_m = {**point, "x": 1 / m}
        binom = moments_by_motzkin(binomial(m, lam / m, q, t), n_max)
        for k, (mk, bk) in enumerate(zip(moments, binom)):
            report.record(mk.eval(at_m) == bk, f"order {k}: epsilon moment at m={m} is not binomial")
    return report


# -- J-fraction series ---------------------------------------------------------


def default_jfraction_depth(order: int) -> int:
    """Truncation depth used when none is given: (order + 1) // 2 + 1, one
    level past order // 2 at even orders and two at odd ones (4 at order 5)."""
    return (order + 1) // 2 + 1


def jfraction_series_from_arrays(b: Sequence, lam: Sequence, order: int) -> list:
    """Coefficients z^0..z^order of 1/(1 - b0 z - lam1 z^2/(1 - b1 z - ...)).

    ``b`` holds b_0..b_depth and ``lam`` holds lam_1..lam_depth.  The fraction
    is expanded bottom-up, one level at a time: the series S_h of level h is
    the inverse of 1 - b_h z - lam_{h+1} z^2 S_{h+1}.  S_h enters the surface
    series only through the factor lam_1 ... lam_h z^(2h), so only its
    coefficients z^0..z^(order-2h) can reach z^order; higher ones are never
    formed, and levels deeper than order // 2 are skipped.  Poly data run folded.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if len(lam) != len(b) - 1:
        raise ValueError("need exactly one lam entry per level below the surface")
    if any(isinstance(v, Poly) for v in (*b, *lam)):
        return list(_folded(lambda b, lam: _jfraction_walk(b, lam, order), b, lam))
    return _jfraction_walk(b, lam, order)


def _jfraction_walk(b: list, lam: list, order: int) -> list:
    zero = b[0] * 0
    inner: list = []  # the kept part of the level below; empty below the last
    for h in range(min(len(lam), order // 2), -1, -1):
        # w = b_h z + lam_{h+1} z^2 S_{h+1}; lam[h] is lam_{h+1}.
        w = [zero, b[h]] + [lam[h] * c for c in inner]
        series = [zero + 1]
        for k in range(1, order - 2 * h + 1):
            acc = zero
            for j in range(1, min(k, len(w) - 1) + 1):
                if w[j]:
                    acc = acc + w[j] * series[k - j]
            series.append(acc)
        inner = series
    return inner


def jfraction_series(j: JacobiParams, order: int) -> list:
    """Moment series from the J-fraction of the Jacobi data (default depth)."""
    return jfraction_series_from_arrays(*_jacobi_arrays(j, default_jfraction_depth(order)), order)
