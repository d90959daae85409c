"""Power-series side of q-zeta values.

A q-zeta value is the number zeta_q(k) = sum_{n>=1} sigma_{k-1}(n) q^n for
0 < |q| < 1.  This module provides the series itself (three structurally
different expansions that must agree coefficient by coefficient), the
Eulerian-type polynomials rho_k driving the third expansion, its value at a
rational q as an Enclosure of a requested radius (exact partial sum ± a
proven tail bound, over the fewest terms that bound meets), and the
classical-limit check (1-q)^k zeta_q(k) -> (k-1)! zeta(k) as q -> 1.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .dyadic import Enclosure
from .parith import PPoly


def sigma(k: int, n: int) -> int:
    """Divisor power sum: sum of d**(k-1) over the divisors d of n."""
    if k < 1 or n < 1:
        raise ValueError("sigma(k, n) needs k >= 1 and n >= 1")
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d ** (k - 1)
            e = n // d
            if e != d:
                total += e ** (k - 1)
        d += 1
    return total


@lru_cache(maxsize=None)
def rho(k: int) -> PPoly:
    """The degree k-1 numerator polynomial of sum_{m>=1} m^(k-1) x^m.

    rho_1 = 1 and rho_{k+1} = (1 + (k-1)x) rho_k + x(1-x) rho_k'.
    """
    if k < 1:
        raise ValueError("rho(k) needs k >= 1")
    if k == 1:
        return PPoly((1,))
    prev = rho(k - 1).coeffs
    j = k - 1  # stepping from rho_j to rho_{j+1}
    out = [0] * (len(prev) + 1)
    for i, c in enumerate(prev):
        # (1 + (j-1)x) rho_j contributes c at x^i and (j-1)c at x^{i+1};
        # x(1-x) rho_j' contributes ic at x^i and -ic at x^{i+1}.
        out[i] += (1 + i) * c
        out[i + 1] += (j - 1 - i) * c
    return PPoly(out)


class QSeries(namedtuple("QSeries", "coeffs order")):
    """Truncated power series in q: coefficient of q^n for 0 <= n < order."""

    __slots__ = ()

    def __new__(cls, coeffs, order):
        if len(coeffs) != order:
            raise ValueError("coefficient list does not match truncation order")
        return super().__new__(cls, coeffs, order)

    def __getitem__(self, n: int):
        return self.coeffs[n]


_REPRESENTATIONS = ("divisor-sum", "lambert", "rho")


def zeta_q_series(k: int, order: int, representation: str = "divisor-sum") -> QSeries:
    """Expansion of zeta_q(k) to the given order, by any of three routes."""
    if k < 1:
        raise ValueError("zeta_q(k) needs k >= 1")
    if order < 1:
        raise ValueError("order must be positive")
    if representation not in _REPRESENTATIONS:
        raise ValueError(f"representation must be one of {_REPRESENTATIONS}")
    c = [0] * order
    if representation == "divisor-sum":
        for n in range(1, order):
            c[n] = sigma(k, n)
    elif representation == "lambert":
        # sum_nu nu^(k-1) q^nu / (1 - q^nu)
        for nu in range(1, order):
            w = nu ** (k - 1)
            for e in range(nu, order, nu):
                c[e] += w
    else:
        # sum_nu q^nu rho_k(q^nu) / (1 - q^nu)^k, with the binomial series
        # for (1-y)^(-k) in y = q^nu
        r = rho(k).coeffs
        for nu in range(1, order):
            for i, ri in enumerate(r):
                base = nu * (1 + i)
                if base >= order:
                    break
                m = 0
                e = base
                while e < order:
                    c[e] += ri * math.comb(m + k - 1, k - 1)
                    m += 1
                    e += nu
    return QSeries(tuple(c), order)


def log2_q_series(order: int) -> QSeries:
    """q-analogue of log 2: the alternating Lambert series, both groupings.

    Computes sum_nu (-1)^(nu-1) q^nu / (1 - q^nu) and, independently,
    sum_nu q^nu / (1 + q^nu), and insists they agree before returning.
    """
    if order < 1:
        raise ValueError("order must be positive")
    a = [0] * order
    for nu in range(1, order):
        s = 1 if nu % 2 else -1
        for e in range(nu, order, nu):
            a[e] += s
    b = [0] * order
    for nu in range(1, order):
        sign = 1
        for e in range(nu, order, nu):
            b[e] += sign
            sign = -sign
    if a != b:
        raise AssertionError("the two lambda_q(2) expansions disagree")
    return QSeries(tuple(a), order)


def jacobi_check(order: int) -> bool:
    """Verify 1 + 4*sum_j (-1)^j q^(2j+1)/(1-q^(2j+1)) = (sum q^(n^2))^2.

    The square, counted: each a, b >= 0 with a^2 + b^2 = n, once per sign choice.
    """
    if order < 1:
        raise ValueError("order must be positive")
    lhs = [0] * order
    lhs[0] = 1
    j = 0
    while 2 * j + 1 < order:
        o = 2 * j + 1
        s = 4 if j % 2 == 0 else -4
        for e in range(o, order, o):
            lhs[e] += s
        j += 1
    rhs = [0] * order
    for a in range(math.isqrt(order - 1) + 1):
        for b in range(math.isqrt(order - 1 - a * a) + 1):
            rhs[a * a + b * b] += (2 if a else 1) * (2 if b else 1)
    return lhs == rhs


def _tail_bound(k: int, aq: Fraction, terms: int) -> Fraction | None:
    # sigma_{k-1}(n) <= n^k, and the ratio ((n+1)/n)^k |q| of consecutive
    # n^k |q|^n falls with n, so past n = T+1 the tail is geometric
    ratio = Fraction(terms + 2, terms + 1) ** k * aq
    if ratio >= 1:
        return None
    return (terms + 1) ** k * aq ** (terms + 1) / (1 - ratio)


def zeta_q_value(k: int, q, eps) -> Enclosure:
    """zeta_q(k) at a rational q with 0 < |q| < 1, as an Enclosure of radius at most eps > 0.

    The partial sum sum_{n<=T} sigma_{k-1}(n) q^n is one Fraction over
    den(q)^T, built by integer Horner from the zeta_q_series coefficients.
    The tail is at most sum_{n>T} n^k |q|^n, which is at most
    (T+1)^k |q|^(T+1) / (1 - ((T+2)/(T+1))^k |q|) once that ratio is < 1.
    T is the fewest terms whose tail bound is at most eps, found by doubling
    then bisection (a bound that holds at T holds at every larger T).
    """
    if k < 1:
        raise ValueError("zeta_q(k) needs k >= 1")
    q, eps = Fraction(q), Fraction(eps)
    aq = abs(q)
    if not 0 < aq < 1 or eps <= 0:
        raise ValueError("need 0 < |q| < 1 and eps > 0")

    def enough(t):
        tail = _tail_bound(k, aq, t)
        return tail is not None and tail <= eps

    lo, terms = 0, 1  # invariant: not enough(lo) (or lo = 0), enough(terms)
    while not enough(terms):
        lo, terms = terms, 2 * terms
    while terms - lo > 1:
        mid = (lo + terms) // 2
        lo, terms = (lo, mid) if enough(mid) else (mid, terms)
    coeffs = zeta_q_series(k, terms + 1, "lambert").coeffs  # the divisor sums, by sieve
    num, den = q.numerator, q.denominator
    acc, power = 0, 1
    for c in coeffs[1:]:
        power *= num
        acc = acc * den + c * power
    return Enclosure.around(Fraction(acc, den**terms), _tail_bound(k, aq, terms))


def zeta_ref(k: int) -> Enclosure:
    """Certified enclosure of zeta(k): 1500 terms plus integral-test tail bounds."""
    if k < 2:
        raise ValueError("zeta_ref needs k >= 2")
    terms = 1500
    s = sum(Fraction(1, n**k) for n in range(1, terms + 1))
    hi_tail = Fraction(1, (k - 1) * terms ** (k - 1))
    lo_tail = Fraction(1, (k - 1) * (terms + 1) ** (k - 1))
    return Enclosure(s + lo_tail, s + hi_tail)


# one row of the q -> 1 limit table: enclosures of (1-q)^k zeta_q(k) and (k-1)! zeta(k)
LimitRow = namedtuple("LimitRow", "q value target")


def limit_check(k: int, q_list, rel_tol: float = 1e-9) -> list[LimitRow]:
    """Table of certified (1-q)^k zeta_q(k) enclosures against (k-1)! zeta(k).

    Each enclosure is zeta_q_value's, at the radius that makes its scaled
    width at most rel_tol times the lower end of the (k-1)! zeta(k)
    enclosure (plus the outward rounding).
    """
    if k < 2:
        raise ValueError("the classical limit needs k >= 2")
    target = zeta_ref(k) * math.factorial(k - 1)
    # the exact ends run to thousands of digits near q = 1; rounding them
    # outward to 2^-prec, 64 bits finer than rel_tol, keeps rows printable
    prec = 64 + math.ceil(1 / Fraction(rel_tol)).bit_length()
    rows = []
    for q in q_list:
        q = Fraction(q)
        if not 0 < q < 1:
            raise ValueError("limit_check expects 0 < q < 1")
        scale = (1 - q) ** k
        value = zeta_q_value(k, q, Fraction(rel_tol) * target.lo / (2 * scale))
        rows.append(LimitRow(q, (value * scale).outward(prec), target))
    return rows
