"""Power-series side of q-zeta values.

A q-zeta value is the number zeta_q(k) = sum_{n>=1} sigma_{k-1}(n) q^n for
0 < |q| < 1.  This module provides the series itself (three structurally
different expansions that must agree coefficient by coefficient), the
Eulerian-type polynomials rho_k driving the third expansion, exact rational
evaluation at q = 1/p with a certified tail bound, and the classical-limit
check (1-q)^k zeta_q(k) -> (k-1)! zeta(k) as q -> 1.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .dyadic import Interval
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
    """Verify 1 + 4*sum_j (-1)^j q^(2j+1)/(1-q^(2j+1)) = (sum q^(n^2))^2."""
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
    theta = [0] * order
    theta[0] = 1
    n = 1
    while n * n < order:
        theta[n * n] = 2
        n += 1
    sq = (PPoly(tuple(theta)) * PPoly(tuple(theta))).coeffs
    rhs = list(sq[:order]) + [0] * max(0, order - len(sq))
    return lhs == rhs


class EvalResult(namedtuple("EvalResult", "value tail_bound terms_used")):
    """Exact partial sum of a convergent series plus a proven tail bound."""

    __slots__ = ()

    @property
    def lo(self) -> Fraction:
        return self.value - self.tail_bound

    @property
    def hi(self) -> Fraction:
        return self.value + self.tail_bound


def _tail_bound(k: int, aq: Fraction, terms: int) -> Fraction:
    # |sum_{nu>T} q^nu rho(q^nu)/(1-q^nu)^k| <= sum_{nu>T} y_nu rho(y_nu)/(1-y_nu)^k
    # with y_nu = |q|^nu, and each summand is <= the nu = T+1 summand times
    # |q|^(nu-T-1), hence the closed form below.
    y = aq ** (terms + 1)
    r = rho(k)
    return y * r(y) / ((1 - y) ** k * (1 - aq))


def zeta_q_value(k: int, p: int, terms: int) -> EvalResult:
    """Exact rational partial sum of zeta_q(k) at q = 1/p with tail bound."""
    if abs(p) < 2:
        raise ValueError("need |p| >= 2 so that |q| = 1/|p| < 1")
    return zeta_q_value_at(k, Fraction(1, p), terms)


def zeta_q_value_at(k: int, q: Fraction, terms: int) -> EvalResult:
    """Same as zeta_q_value but at an arbitrary rational q with |q| < 1."""
    if k < 1:
        raise ValueError("zeta_q(k) needs k >= 1")
    q = Fraction(q)
    if not 0 < abs(q) < 1:
        raise ValueError("need 0 < |q| < 1")
    if terms < 1:
        raise ValueError("need at least one term")
    r = rho(k)
    value = Fraction(0)
    for nu in range(1, terms + 1):
        y = q**nu
        value += y * r(y) / (1 - y) ** k
    return EvalResult(value, _tail_bound(k, abs(q), terms), terms)


def zeta_ref(k: int, terms: int = 1500) -> tuple[Fraction, Fraction]:
    """Certified enclosure of zeta(k) by partial sum plus integral-test tail."""
    if k < 2:
        raise ValueError("zeta_ref needs k >= 2")
    s = sum(Fraction(1, n**k) for n in range(1, terms + 1))
    hi_tail = Fraction(1, (k - 1) * terms ** (k - 1))
    lo_tail = Fraction(1, (k - 1) * (terms + 1) ** (k - 1))
    return s + lo_tail, s + hi_tail


# one row of the q -> 1 limit table: enclosure of (1-q)^k zeta_q(k)
LimitRow = namedtuple("LimitRow", "q lo hi target_lo target_hi")


def limit_check(k: int, q_list, rel_tol: float = 1e-9, prec: int = 192) -> list[LimitRow]:
    """Table of certified (1-q)^k zeta_q(k) enclosures against (k-1)! zeta(k).

    Evaluation runs in dyadic interval arithmetic so that q close to 1 (where
    thousands of terms are needed) stays cheap; the enclosures are rigorous.
    """
    if k < 2:
        raise ValueError("the classical limit needs k >= 2")
    zlo, zhi = zeta_ref(k)
    fact = math.factorial(k - 1)
    target_lo, target_hi = fact * zlo, fact * zhi
    r = rho(k)
    rows = []
    for q in q_list:
        q = Fraction(q)
        if not 0 < q < 1:
            raise ValueError("limit_check expects 0 < q < 1")
        scale = (1 - q) ** k
        # number of terms so that the scaled tail is comfortably below rel_tol
        fq = float(q)
        bound = rel_tol * float(scale) * (1.0 - fq) / (4.0 * math.factorial(k))
        terms = max(8, int(math.log(bound) / math.log(fq)) + 2)
        qq = Interval.exact(q, prec)
        power = Interval.exact(1, prec)
        acc = Interval.exact(0, prec)
        for _ in range(terms):
            power = power * qq
            acc = acc + power * r(power) / (1 - power).pow(k)
        tail = _tail_bound(k, q, terms)
        scaled = (acc.widen(tail)) * scale
        rows.append(LimitRow(q, scaled.lo, scaled.hi, target_lo, target_hi))
    return rows
