"""The exact builder: a linear form A·zeta_q(k) − B from its parameters.

build(params) is the one builder for both kinds.  Partial fractions of
the summand S (linforms.summand) in x over Q(p) (p = 1/q) turn the t-sum
into A·zeta_q(1) − B (zeta1: simple poles and a polynomial part) or
A·zeta_q(2) − B (zeta2: simple and double poles), with A, B exact rational
functions of p (forms.RatFunc) whose denominators are products of
cyclotomic polynomials and powers of p.  The division in x works on
Laurent polynomials in p (PPoly, val of either sign).

Residues and prefactors are products ±p^a·prod_l Phi_l(p)^e_l, held as
parith.FactoredPPoly, the one factored type of the package (D_n and Omega
use it too).  Every product RatFunc × FactoredPPoly (a residue, a tail
term or the prefactor) cancels the Phi_l it shares with the denominator
and multiplies by the rest through the binomials p^d - 1.  The B side is
summed by parts, with the tail terms 1/(p^s - 1) of T1 and
p^s/(p^s - 1)^2 of T2, so no tail table is built and no product in a
build is dense.  Everything here is exact.  store.Store is
the one caller: it imports this module only to build a form it cannot
load, so a command that reads its forms from disk, or checks a form
numerically, compiles none of this code.
"""

from __future__ import annotations

import math
from operator import sub

from .forms import LinearForm, RatFunc
from .linforms import Summand, summand
from .params import cvector
from .parith import FactoredPPoly, PPoly, divisors


_ONE = RatFunc(PPoly.const(1))  # _ONE * u turns a FactoredPPoly u into a RatFunc


def _prefactor(s: Summand) -> FactoredPPoly:
    num = math.prod(map(FactoredPPoly.one_minus_q_power, s.prefactor_num), start=FactoredPPoly())
    den = math.prod(map(FactoredPPoly.one_minus_q_power, s.prefactor_den), start=FactoredPPoly())
    return num * den.inv()


# --------------------------------------------------------------------------
# residues, the polynomial part and the builder


def _residue_unit(s: Summand, j: int) -> FactoredPPoly:
    """p^{e·j}·N(p^j) / prod_{i != j} (1 - p^{j-i})^{m_i}, the pole's own factor removed.

    1 - p^d is -prod_{l | d} Phi_l for d > 0, p^d·prod_{l | -d} Phi_l for d < 0.
    """
    exps: dict[int, int] = {}
    p_power, unit = s.expo * j, 1
    for i, w in [(i, 1) for i in s.num_i] + [(i, -m) for i, m in s.mult if i != j]:
        d = j - i
        if d > 0:
            unit *= (-1) ** w
        else:
            p_power += w * d
        for l in divisors(abs(d)):
            exps[l] = exps.get(l, 0) + w
    return FactoredPPoly(exps, p_power, unit)


def _log_derivative_at_pole(s: Summand, j: int) -> RatFunc:
    """Lambda_j(p^j): logarithmic x-derivative of S·(1-q^j x)^{m_j} at x = p^j.

    Terms: expo/x − sum_num q^i/(1−q^i x) + sum_{den, i != j} m_i q^i/(1−q^i x),
    and q^i/(1 − q^i p^j) simplifies to −p^{-i}/(p^{j-i} − 1) for i < j and
    p^{-j}/(p^{i-j} − 1) for i > j.
    """

    def simple(i: int, w: int) -> RatFunc:
        if i < j:
            return RatFunc(PPoly.const(-w), i, dict.fromkeys(divisors(j - i), 1))
        return RatFunc(PPoly.const(w), j, dict.fromkeys(divisors(i - j), 1))

    terms = [RatFunc(PPoly.const(s.expo), j)]
    for i in s.num_i:
        terms.append(simple(i, -1))
    for i, m in s.mult:
        if i != j:
            terms.append(simple(i, m))
    return RatFunc.sum(terms)


def _poly_part(s: Summand) -> list[PPoly]:
    """Polynomial part of S in x: floor(x^e·N(x) / D(x)), ascending in x.

    Floor quotients compose, so D is divided out one factor 1 − q^j x at a
    time, m_j times per pole.  The factor's leading coefficient −q^j is a
    unit monomial, so synthetic division needs no products: from the top,
    Q_{i−1} = p^j·(Q_i − N_i) with Q_d = 0 for a dividend N of degree d.
    Empty when S is a proper rational function.
    """
    if s.expo + len(s.num_i) < sum(m for _, m in s.mult):
        return []
    quot = [PPoly()] * s.expo + _expand_factors(s.num_i)
    for j, m in s.mult:
        for _ in range(m):
            acc = PPoly()
            out = []
            for c in reversed(quot[1:]):
                acc = (acc - c).shift(j)
                out.append(acc)
            quot = out[::-1]
    return quot


def _expand_factors(indices) -> list[PPoly]:
    """The x-coefficients of prod_i (1 - q^i x), ascending."""
    coeffs = [PPoly.const(1)]
    for i in indices:
        coeffs = list(map(sub, coeffs + [PPoly()], [PPoly()] + [c.shift(-i) for c in coeffs]))
    return coeffs


def _t1_kernel(s: int) -> FactoredPPoly:
    """1/(p^s - 1), the term of T1_{<j} = sum_{s<j} 1/(p^s - 1)."""
    return FactoredPPoly(dict.fromkeys(divisors(s), -1))


def _t2_kernel(s: int) -> FactoredPPoly:
    """p^s/(p^s - 1)^2, the term of T2_{<j} = sum_{s<j} p^s/(p^s - 1)^2."""
    return FactoredPPoly(dict.fromkeys(divisors(s), -2), s)


def _tail_sum_by_parts(res: dict[int, RatFunc], kernel) -> tuple[RatFunc, RatFunc]:
    """(R, sum_{j in P} K_{<j}·r_j) for the residues r_j at the poles P, R = sum_j r_j.

    K_{<j} = sum_{s<j} kernel(s) is a tail sum, T1 or T2.  Summed by parts
    (Abel; Graham, Knuth and Patashnik, Concrete Mathematics 2.6) as
    sum_{s=1}^{max P - 1} R_{>s}·kernel(s), R_{>s} = sum_{j > s} r_j built
    from the top down, so each term only widens the denominator of R_{>s}
    (and shifts it by p^s for T2) and no tail table is built.  Below the
    first pole R_{>s} = R, the loop's final suffix; where R is 0 those
    terms are 0 and the sum drops them.
    Denominator and numerator are the direct sum's, unless some R_{>s}
    cancels to 0; a common power of p may then drop from both.
    """
    suffix, terms = RatFunc.zero(), []
    for s in range(max(res, default=0) - 1, -1, -1):
        if s + 1 in res:
            suffix = suffix + res[s + 1]
        if s:
            terms.append(suffix * kernel(s))
    return suffix, RatFunc.sum(terms)


def build(params) -> LinearForm:
    """A·zeta_q(k) − B at params, k = params.k.

    Near pole j, S = f_j/(1 - q^j x)^2 + r1_j/(1 - q^j x) + ....  A double
    pole (zeta2 only) has f_j = g_j and r1_j = f_j − Lambda_j·p^j·f_j, a
    simple one f_j = 0 and r1_j = g_j, g_j the residue unit.  The
    polynomial part c_0 + c_1 x + ... (zeta1 only) adds c_0 per term and
    c_i/(1 - q^i) in all.  The series converges only if c_0 + sum_j r1_j = 0.
    Then A = C·sum_j r1_j (k = 1) or C·sum_j f_j (k = 2), and
    B = C·(sum_j (T1_{<j}·r1_j + T2_{<j}·f_j) − sum_{i>=1} c_i/(1 - q^i)),
    both returned in lowest terms.  The products by C have already
    cancelled most of the Phi_l, so the one reduction pass is short.
    """
    cvector(params)  # rejects inadmissible params before any work
    s = summand(params)
    k = params.k
    if max(m for _, m in s.mult) > k:
        raise AssertionError(f"zeta_q({k}) summand has a pole of order above {k}")
    quot = _poly_part(s)
    if quot and k == 2:
        raise AssertionError("zeta_q(2) summand is not a proper rational function")
    c0 = RatFunc(quot[0]) if quot else RatFunc.zero()
    # sum_{i>=1} c_i/(1 - q^i) over the polynomial part, c_i/(1-q^i) = c_i p^i/(p^i - 1)
    poly_sum = RatFunc.sum(
        RatFunc(c.shift(i), 0, dict.fromkeys(divisors(i), 1)) for i, c in enumerate(quot[1:], 1)
    )
    r1, r2 = {}, {}
    for j, m in s.mult:
        g = _residue_unit(s, j)
        r1[j] = _ONE * g
        if m == 2:
            r2[j] = r1[j]
            r1[j] -= _log_derivative_at_pole(s, j) * (FactoredPPoly(p_power=j) * g)
    total1, b1 = _tail_sum_by_parts(r1, _t1_kernel)
    if not (c0 + total1).is_zero():
        raise AssertionError("c_0 + sum_j r1_j does not cancel; the series would diverge")
    total2, b2 = _tail_sum_by_parts(r2, _t2_kernel)
    c_unit = _prefactor(s)
    A = (total1 if k == 1 else total2) * c_unit
    B = (b1 + b2 - poly_sum) * c_unit
    return LinearForm(params, A.reduced(), B.reduced())
