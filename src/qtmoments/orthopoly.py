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
many atoms.  Taking m -> infinity with m p = lambda fixed recovers the
Poisson family; poisson_limit_check verifies this symbolically (with the
1/m denominators cleared) and numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate, chain, repeat
from math import lcm
from operator import mul
from typing import Callable, Iterator, Mapping, Sequence

from .fock import CheckReport, ScalarGauge, _poisson_data, _poisson_step
from .qtnum import qt_number
from .ring import LAMBDA, Poly, T, X, _folded

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


@dataclass(frozen=True)
class JacobiParams:
    """Recurrence data: alpha(n) for n >= 0 and omega(n) for n >= 1.

    Symbolic presets return Poly and rationally specialized ones Fraction;
    three_term_polys and check_orthogonality run folded, on Poly or int data only.
    """

    name: str
    alpha: Callable
    omega: Callable


def charlier_strict() -> JacobiParams:
    return JacobiParams(
        name="charlier-strict",
        alpha=lambda n: LAMBDA + qt_number(n),
        omega=lambda n: LAMBDA * qt_number(n),
    )


def charlier_t_gauge() -> JacobiParams:
    return JacobiParams(
        name="charlier-tgauge",
        alpha=lambda n: LAMBDA * T**n + qt_number(n),
        omega=lambda n: LAMBDA * qt_number(n),
    )


def ejsmont() -> JacobiParams:
    return JacobiParams(
        name="ejsmont",
        alpha=lambda n: qt_number(n),
        omega=lambda n: qt_number(n),
    )


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
    point = {name: Fraction(v) for name, v in point.items()}
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
    m, p, q, t = Fraction(m), Fraction(p), Fraction(q), Fraction(t)
    num = specialize(ejsmont(), {"q": q, "t": t}).alpha  # k -> [k] at (q, t)

    def alpha(n: int) -> Fraction:
        return m * p + (1 - 2 * p) * num(n)

    def omega(n: int) -> Fraction:
        if num(n - 1) >= m:
            return Fraction(0)
        return num(n) * (m - num(n - 1)) * p * (1 - p)

    return JacobiParams(name=f"binomial(m={m}, p={p})", alpha=alpha, omega=omega)


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

    def walk(x, a, w):
        return [u[0] for u in _recurrence(lambda u: [x[0] * u[0]], [1], a, w)]

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
    top = n_max // 2
    alpha = [j.alpha(h) for h in range(top + 1)]
    omega = [j.omega(h) for h in range(1, top + 1)]
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


class InsufficientMoments(Exception):
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


def poisson_limit_check(
    n_max: int,
    lam: Fraction,
    m_values: Sequence[int],
    q: Fraction = Fraction(1, 3),
    t: Fraction = Fraction(2, 3),
) -> CheckReport:
    """Verify the binomial family converges to the Poisson family as m grows.

    Symbolic part: write lambda = a/b and p = lambda/m.  Clearing the 1/m
    denominators,

        (b m)   * alpha_n = a m + (b m - 2 a) [n]
        (b m)^2 * omega_n = a [n] (m - [n-1]) (b m - a)

    must have leading coefficients a + b [n]  (= b (lambda + [n])) in m and
    a b [n]  (= b^2 lambda [n]) in m^2, with no higher m-terms: exactly the
    statement that alpha_n -> lambda + [n] and omega_n -> lambda [n].  Each
    cleared form is also cross-checked against :func:`binomial` at every
    sampled m.  The ring variable x stands for m; no other polynomial of this
    check contains x.

    Numeric part: at the given rational (q, t, lambda) the absolute deviation
    of each binomial moment from the Poisson moment must strictly decrease
    along the distinct m_values, ascending, whenever it is nonzero.  Fewer
    than two distinct values compare nothing and raise ValueError, as does
    an m that is not an integer above lambda.

    Both parts record into one :class:`CheckReport` named "poisson-limit",
    one check per cleared form, per sample and per consecutive pair of m.
    """
    lam = Fraction(lam)
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if any(Fraction(mv) <= lam or Fraction(mv).denominator != 1 for mv in m_values):
        raise ValueError("every m must be an integer above lambda")
    m_values = sorted({int(mv) for mv in m_values})
    if len(m_values) < 2:
        raise ValueError("need at least two distinct m values to compare")
    a, b = lam.numerator, lam.denominator

    report = CheckReport(name="poisson-limit")
    alpha_scaled = {}
    omega_scaled = {}
    for n in range(n_max + 1):
        num = qt_number(n)
        scaled_a = a * X + (b * X - 2 * a) * num
        alpha_scaled[n] = scaled_a
        report.record(
            scaled_a.coefficient_of("x", 1) == a + b * num and scaled_a.degree("x") <= 1,
            f"alpha_{n}: leading m-term is not lambda + [{n}]",
        )
        if n >= 1:
            scaled_w = a * num * (X - qt_number(n - 1)) * (b * X - a)
            omega_scaled[n] = scaled_w
            report.record(
                scaled_w.coefficient_of("x", 2) == a * b * num
                and scaled_w.degree("x") <= 2,
                f"omega_{n}: leading m^2-term is not lambda [{n}]",
            )

    poisson = specialize(charlier_strict(), {"q": q, "t": t, "lambda": lam})
    poisson_moments = moments_by_motzkin(poisson, n_max)
    deviations = []  # (m, |binomial moment - Poisson moment| per order)
    for mv in m_values:
        p = lam / mv
        binom = binomial(Fraction(mv), p, q, t)
        for n in range(n_max + 1):
            lhs = alpha_scaled[n].eval({"x": mv, "q": q, "t": t}) / (b * mv)
            report.record(
                lhs == binom.alpha(n),
                f"alpha_{n} cleared form mismatch at m={mv}",
            )
            if n >= 1:
                lhs = omega_scaled[n].eval({"x": mv, "q": q, "t": t}) / (b * mv) ** 2
                report.record(
                    lhs == binom.omega(n),
                    f"omega_{n} cleared form mismatch at m={mv}",
                )
        binom_moments = moments_by_motzkin(binom, n_max)
        deviations.append((mv, [abs(bm - pm) for bm, pm in zip(binom_moments, poisson_moments)]))
    for (m1, devs1), (m2, devs2) in zip(deviations, deviations[1:]):
        for k, (d1, d2) in enumerate(zip(devs1, devs2)):
            report.record(
                d2 < d1 or d1 == d2 == 0,
                lambda: f"order {k}: deviation {d2} at m={m2} is not below {d1} at m={m1}",
            )
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
    if order < 0:
        raise ValueError("order must be >= 0")
    depth = default_jfraction_depth(order)
    b = [j.alpha(h) for h in range(depth + 1)]
    lam = [j.omega(h) for h in range(1, depth + 1)]
    return jfraction_series_from_arrays(b, lam, order)
