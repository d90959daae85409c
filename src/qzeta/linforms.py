"""The Heine-type series behind the linear forms, its enclosure and the families.

The basic object is the series

    F(a, b) = C(q) · sum_{t>=0} S(q^t),
    S(x) = x^e · prod_i (1 - q^i x) / prod_j (1 - q^j x)^{m_j},

a rewriting of the q-hypergeometric sum in which every Gamma_q ratio has
been expanded into finite q-Pochhammer products; params.summand gives S
and C for either kind from params.expo and params.pole_runs().  The exact
form A·zeta_q(k) − B that the series equals is built by builders.build.
This module only sums the series: at q = 1/p every term C·S(q^t) is a
ratio of integers, so the enclosure is their exact sum with each term
floored and ceiled once to a dyadic grid, plus the tail.  certify() takes
the gap from it to the Enclosure zeta_q(k)·A(p) − B(p) of a built form,
both sized from the form's denominators.  It imports what it needs of
parith and qseries in its body and never imports builders, so the checker
does not run the code it checks, and a command that only sums the series
(stability) compiles no polynomial code.  The parameter types, the summand
and every per-kind formula live in params, the form as data and its file in
forms.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from typing import TYPE_CHECKING

from .dyadic import Enclosure
from .params import PARAMS, ParamsZ1, ParamsZ2, Summand, summand

if TYPE_CHECKING:
    from .forms import LinearForm


# --------------------------------------------------------------------------
# the series enclosure and certification


def _runs(mult) -> list[tuple[int, int]]:
    """Maximal runs lo..hi of consecutive indices in each multiplicity layer.

    Layer k holds the j with m_j >= k, so an index of multiplicity m lies in
    exactly m runs and prod_j (1 - q^j x)^{m_j} is the product over the runs
    of prod_{lo <= j <= hi} (1 - q^j x).
    """
    runs = []
    for k in range(1, max((m for _, m in mult), default=0) + 1):
        layer = sorted(j for j, m in mult if m >= k)
        lo = prev = layer[0]
        for j in layer[1:]:
            if j != prev + 1:
                runs.append((lo, prev))
                lo = j
            prev = j
        runs.append((lo, prev))
    return runs


def _tail_bound(s: Summand, p: int, terms: int) -> Fraction:
    """sum_{t>=T} |S(q^t)| <= |q|^{eT}/(1-|q|^e) · prod_i(1+|q|^i) / prod_j(1-|q|^{j+T})^{m_j}."""
    a = abs(p)  # num·a^shift / den in ints, normalized once
    num = math.prod(a**i + 1 for i in s.num_i)
    den = (a**s.expo - 1) * math.prod((a ** (j + terms) - 1) ** m for j, m in s.mult)
    shift = s.expo * (1 - terms) - sum(s.num_i) + sum(m * (j + terms) for j, m in s.mult)
    return Fraction(num * a**shift, den) if shift >= 0 else Fraction(num, den * a**-shift)


def _sum_series(s: Summand, p: int, terms: int, prec: int) -> Enclosure:
    """C · sum_{t<T} S(q^t) at q = 1/p from exact terms, each rounded once.

    Every factor is 1 - q^k = (p^k - 1)/p^k, so term t is the exact ratio
    num/(den·p^k) of integers.  The first term is the direct product.  Each
    later one comes from the previous one by the telescoped ratio
    S(q x) = S(x) · q^e · prod over runs, where a run lo..hi of numerator
    factors gives (1 - q^{hi+1} x)/(1 - q^lo x) and a run of pole factors
    (one multiplicity layer) the inverse: num and den are multiplied by
    p^(a+t-1) - 1 for the `up` and `down` indices a, and k moves by
    e + len(num_i) - sum m_j.  Each term is floored and ceiled to the grid
    2^-prec, and the sum is widened by ceil(|C|·_tail_bound·2^prec) units.
    """
    if terms < 0:
        raise ValueError("need terms >= 0")
    cn = math.prod(p**j - 1 for j in s.prefactor_num)
    cd = math.prod(p**j - 1 for j in s.prefactor_den)
    kc = sum(s.prefactor_num) - sum(s.prefactor_den)  # C = cn/(cd·p^kc)
    num = cn * math.prod(p**i - 1 for i in s.num_i)
    den = cd * math.prod((p**j - 1) ** m for j, m in s.mult)
    k = kc + sum(s.num_i) - sum(j * m for j, m in s.mult)
    step = s.expo + len(s.num_i) - sum(m for _, m in s.mult)
    num_runs, pole_runs = _runs([(i, 1) for i in s.num_i]), _runs(s.mult)
    up = [hi + 1 for _, hi in num_runs] + [lo for lo, _ in pole_runs]
    down = [lo for lo, _ in num_runs] + [hi + 1 for _, hi in pole_runs]
    lo = hi = 0  # sums of the terms' floors and ceilings at scale 2^prec
    for t in range(terms):
        if t:
            num *= math.prod(p ** (a + t - 1) - 1 for a in up)
            den *= math.prod(p ** (a + t - 1) - 1 for a in down)
            k += step
        n, d = (num << prec, den * p**k) if k >= 0 else ((num * p**-k) << prec, den)
        lo += n // d
        hi -= -n // d
    abs_c = Fraction(abs(cn), abs(cd)) * Fraction(abs(p)) ** -kc
    w = math.ceil(abs_c * _tail_bound(s, p, terms) * (1 << prec))
    return Enclosure(Fraction(lo - w, 1 << prec), Fraction(hi + w, 1 << prec))


def numeric_form_value(params, p: int, bits: int) -> Enclosure:
    """Certified enclosure of F at q = 1/p, narrower than 2^-bits, or AssertionError.

    It sums the fewest terms whose _tail_bound is at most 2^-(bits+7), scanned
    in integers: from T to T + 1 terms the bound gains the exact ratio
    a^(sum m_j - e)·prod over runs (a^{lo+T} - 1)/(a^{hi+T+1} - 1), a = |p|.  As
    |C| < 2^5 (prod_j (1+2^-j)^2 / prod_j (1-2^-j) < 20), the widening
    2·|C|·_tail_bound is then below 2^-(bits+1).  The rounding adds at most
    one unit 2^-prec per term (its ceiling minus its floor) and less than
    one per end for the ceiled widening: fewer than terms + 2 < 2^L units,
    L the bit length of terms + 2.  At prec = bits + 7 + L those stay below
    2^-(bits+7), as small as the tail before |C|, so the width is below
    2^-(bits+1) + 2^-(bits+7) < 2^-bits.
    """
    if abs(p) < 2:
        raise ValueError("need |p| >= 2")
    s = summand(params)
    bound, a, runs, terms = _tail_bound(s, p, 1), abs(p), _runs(s.mult), 1
    lhs, rhs = bound.numerator << (bits + 7), bound.denominator
    step = sum(m for _, m in s.mult) - s.expo
    while lhs > rhs:
        lhs *= math.prod(a ** (lo + terms) - 1 for lo, _ in runs) * a ** max(step, 0)
        rhs *= math.prod(a ** (hi + terms + 1) - 1 for _, hi in runs) * a ** max(-step, 0)
        terms += 1
    enc = _sum_series(s, p, terms, bits + 7 + (terms + 2).bit_length())
    if enc.width >= Fraction(1, 1 << bits):
        raise AssertionError(f"enclosure of F at {tuple(params)}, p = {p} is not below 2^-{bits}")
    return enc


# gap: distance between the two enclosures (0 when they meet); width: the
# wider of the two; ok: they meet and both are narrower than 2^-target
Certification = namedtuple("Certification", "target gap width ok")


def certify(form: LinearForm, p: int = 2) -> Certification:
    """Check exact A·zeta_q(k) − B at q = 1/p against a direct summation of the series.

    target is 64 plus the bit length of the larger stored denominator
    p^dpow·prod Phi_l^e at p, so a unit in one numerator coefficient moves
    B(p) by at least 2^(64-target), and A(p)·zeta_q(k) by that times
    |zeta_q(k)|.  Both enclosures, A(p)·Z − B(p) with Z from zeta_q_value
    and the summed series from numeric_form_value, are sized below
    2^-target, so they meet only if the form is right to that unit.
    """
    from .parith import FactoredPPoly
    from .qseries import zeta_q_value

    if abs(p) < 2:
        raise ValueError("need |p| >= 2")
    k = form.params.k
    den_bits = max(
        abs(FactoredPPoly(f.dphi, f.dpow).value_at(p)).numerator.bit_length()
        for f in (form.A, form.B)
    )
    target = 64 + den_bits
    eps = Fraction(1, 1 << target)
    a_val, b_val = form.A.value_at(p), form.B.value_at(p)
    zeta = zeta_q_value(k, Fraction(1, p), eps / (4 * max(abs(a_val), 1)))
    lhs, enc = zeta * a_val - b_val, numeric_form_value(form.params, p, target)
    gap, width = lhs.gap(enc), max(lhs.width, enc.width)
    return Certification(target, gap, width, gap == 0 and width < eps)


def _log_abs(x) -> float:
    """log|x| for rationals far outside float range, from the value of x alone.

    |x| = m·2^e, e = 0 inside float range, m correctly rounded to a float,
    and log 2 split as fdlibm's ln2_hi + ln2_lo so that e·ln2_hi is exact.
    """
    x = abs(Fraction(x))
    if x == 0:
        raise ValueError("log of zero")
    e = x.numerator.bit_length() - x.denominator.bit_length()
    if abs(e) < 1000:
        e = 0
    m = x / (1 << e) if e >= 0 else x * (1 << -e)
    return math.fsum((e * 6.93147180369123816490e-01, e * 1.90821492927058770002e-10, math.log(m)))


class Family(namedtuple("Family", "kind rates offsets name")):
    """A one-parameter direction n -> params(n) through parameter space."""

    __slots__ = ()

    def params(self, n: int):
        vals = tuple(r * n + o for r, o in zip(self.rates, self.offsets))
        return PARAMS[self.kind](*vals)


THEOREM1 = Family(ParamsZ1.kind, (8, 6, 8, 15), (1, 1, 1, 1), "theorem1")
THEOREM2 = Family(ParamsZ2.kind, (5, 6, 7, 14, 15), (1, 1, 1, 2, 2), "theorem2")
BV = Family(ParamsZ1.kind, (1, 1, 1, 2), (1, 1, 1, 2), "bv")
APERY = Family(ParamsZ2.kind, (1, 1, 1, 2, 2), (1, 1, 1, 2, 2), "apery")

FAMILIES = {f.name: f for f in (THEOREM1, THEOREM2, BV, APERY)}
