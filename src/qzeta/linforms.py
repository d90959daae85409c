"""How exact linear forms A·zeta_q(k) − B are built out of Heine-type series.

The basic object is the series

    F(a, b) = C(q) · sum_{t>=0} S(q^t),
    S(x) = x^e · prod_i (1 - q^i x) / prod_j (1 - q^j x)^{m_j},

a rewriting of the q-hypergeometric sum in which every Gamma_q ratio has
been expanded into finite q-Pochhammer products.  Partial fractions of S
in x over Q(p) (p = 1/q) turn the t-sum into A·zeta_q(1) − B (simple poles)
or A·zeta_q(2) − B (double poles), with A, B exact rational functions of p
(forms.RatFunc) whose denominators are products of cyclotomic polynomials
and powers of p.  The division in x works on Laurent polynomials in p
(PPoly, val of either sign).

Residues and prefactors are products ±p^a·prod_l Phi_l(p)^e_l, held as
parith.FactoredPPoly, the one factored type of the package (D_n and Omega
use it too).  Every product RatFunc × FactoredPPoly (a residue, a tail
term or the prefactor) multiplies by Phi_l products through the binomials
p^d - 1.  Both builders sum their B side by parts, with the tail terms
1/(p^s - 1) of T1 and p^s/(p^s - 1)^2 of T2, so no tail table is built and
no product in a build is dense.  Everything here is exact.  certify()
checks a form against an enclosure of the series sized from the form's own
denominators.  At q = 1/p every term C·S(q^t) is a ratio of integers, so
the enclosure is their exact sum with each term floored and ceiled once to
a dyadic grid, plus the tail.  The parameter types live in params, the form as data and
its file in forms; this module holds the builders, the series enclosure
and the families.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from operator import sub

from .dyadic import Enclosure
from .forms import LinearForm, RatFunc, determine_M
from .params import ParamsZ1, ParamsZ2, cvector
from .parith import FactoredPPoly, PPoly, divisors


_ONE = RatFunc(PPoly.const(1))  # _ONE * u turns a FactoredPPoly u into a RatFunc


# --------------------------------------------------------------------------
# the summand in product form


# S(x) = x^expo · prod_{i in num_i}(1 - q^i x) / prod_j (1 - q^j x)^{m_j}; mult holds
# the sorted (pole j, m_j), and C = prod (1-q^j) over prefactor_num / over prefactor_den
Summand = namedtuple("Summand", "expo num_i mult prefactor_num prefactor_den")


def _cancel(num: list[int], den: dict[int, int]) -> tuple[list[int], dict[int, int]]:
    keep = []
    for i in num:
        if den.get(i, 0) > 0:
            den[i] -= 1
        else:
            keep.append(i)
    return keep, {j: m for j, m in den.items() if m > 0}


def summand_z1(params: ParamsZ1) -> Summand:
    a0, a1, a2, b = params
    num = list(range(1, a1))
    den = {j: 1 for j in range(a2, b)}
    num, den = _cancel(num, den)
    return Summand(
        a0,
        tuple(num),
        tuple(sorted(den.items())),
        tuple(range(1, b - a2)),
        tuple(range(1, a1)),
    )


def summand_z2(params: ParamsZ2) -> Summand:
    a1, a2, a3, b2, b3 = params
    num = list(range(1, a1))
    den: dict[int, int] = {}
    for j in range(a2, b2):
        den[j] = den.get(j, 0) + 1
    for j in range(a3, b3):
        den[j] = den.get(j, 0) + 1
    num, den = _cancel(num, den)
    return Summand(
        b2 + b3 - a1 - a2 - a3,
        tuple(num),
        tuple(sorted(den.items())),
        tuple(range(1, b2 - a2)) + tuple(range(1, b3 - a3)),
        tuple(range(1, a1)),
    )


def _prefactor(s: Summand) -> FactoredPPoly:
    num = math.prod(map(FactoredPPoly.one_minus_q_power, s.prefactor_num), start=FactoredPPoly())
    den = math.prod(map(FactoredPPoly.one_minus_q_power, s.prefactor_den), start=FactoredPPoly())
    return num * den.inv()


# --------------------------------------------------------------------------
# residues, the polynomial part and the builders


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
    for s in range(max(res) - 1, -1, -1):
        if s + 1 in res:
            suffix = suffix + res[s + 1]
        if s:
            terms.append(suffix * kernel(s))
    return suffix, RatFunc.sum(terms)


def _build_zeta1(params: ParamsZ1) -> LinearForm:
    cv = cvector(params)  # also validates admissibility
    s = summand_z1(params)
    if any(m > 1 for _, m in s.mult):
        raise AssertionError("zeta_q(1) summand acquired a double pole")
    c_unit = _prefactor(s)
    quot = _poly_part(s)
    c0 = RatFunc(quot[0]) if quot else RatFunc.zero()
    # sum_{i>=1} c_i/(1 - q^i) over the polynomial part, c_i/(1-q^i) = c_i p^i/(p^i - 1)
    parts = [RatFunc(c.shift(i), 0, dict.fromkeys(divisors(i), 1)) for i, c in enumerate(quot)]
    poly_sum = RatFunc.sum(parts[1:])
    res = {j: _ONE * _residue_unit(s, j) for j, _ in s.mult}
    total_res, b_res = _tail_sum_by_parts(res, _t1_kernel)
    if not (c0 + total_res).is_zero():
        raise AssertionError(
            "constant term does not cancel the residue sum; the series would diverge"
        )
    A = total_res * c_unit
    B = (b_res - poly_sum) * c_unit
    form = LinearForm("zeta1", params, A, B, cv)
    form.M = determine_M(form)
    return form


def _build_zeta2(params: ParamsZ2) -> LinearForm:
    """A = sum_j f_j and B = sum_j (T1_{<j}·r1_j + T2_{<j}·f_j), both times C.

    At a double pole S = f_j/(1 - q^j x)^2 + e_j/(1 - q^j x) + ..., with
    e_j = −Lambda_j·p^j·f_j; at a simple pole S = g_j/(1 - q^j x) + ....
    So r1_j is g_j at a simple pole and f_j + e_j at a double one, and the
    zeta_q(1) coefficient sum_j r1_j must cancel.
    """
    cv = cvector(params)
    s = summand_z2(params)
    c_unit = _prefactor(s)
    if s.expo + len(s.num_i) >= sum(m for _, m in s.mult):
        raise AssertionError("zeta_q(2) summand is not a proper rational function")
    r1, r2 = {}, {}
    for j, m in s.mult:
        g = _residue_unit(s, j)
        if m == 1:
            r1[j] = _ONE * g
        elif m == 2:
            r2[j] = _ONE * g
            r1[j] = r2[j] - _log_derivative_at_pole(s, j) * (FactoredPPoly(p_power=j) * g)
        else:
            raise AssertionError("pole multiplicity above 2 is not supported")
    zeta1_coeff, b1 = _tail_sum_by_parts(r1, _t1_kernel)
    if not zeta1_coeff.is_zero():
        raise AssertionError("zeta_q(1) contribution failed to cancel")
    total2, b2 = _tail_sum_by_parts(r2, _t2_kernel)
    A = total2 * c_unit
    B = (b1 + b2) * c_unit
    form = LinearForm("zeta2", params, A, B, cv)
    form.M = determine_M(form)
    return form


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
    s = summand_z1(params) if isinstance(params, ParamsZ1) else summand_z2(params)
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
    |zeta_q(k)|.  Both enclosures, A(p)·Z − B(p) ± |A(p)|·tail from
    zeta_q_value and the summed series from numeric_form_value, are sized
    below 2^-target, so they meet only if the form is right to that unit.
    """
    from .qseries import zeta_q_terms, zeta_q_value

    if abs(p) < 2:
        raise ValueError("need |p| >= 2")
    k = 1 if form.kind == "zeta1" else 2
    den_bits = max(
        abs(FactoredPPoly(f.dphi, f.dpow).value_at(p)).numerator.bit_length()
        for f in (form.A, form.B)
    )
    target = 64 + den_bits
    eps = Fraction(1, 1 << target)
    a_val, b_val = form.A.value_at(p), form.B.value_at(p)
    q = Fraction(1, p)
    zeta, tail = zeta_q_value(k, q, zeta_q_terms(k, q, eps / (4 * max(abs(a_val), 1))))
    value, spread = a_val * zeta - b_val, abs(a_val) * tail
    lo, hi = value - spread, value + spread
    enc = numeric_form_value(form.params, p, target)
    gap = max(lo - enc.hi, enc.lo - hi, Fraction(0))
    width = max(hi - lo, enc.width)
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
        return ParamsZ1(*vals) if self.kind == "zeta1" else ParamsZ2(*vals)


THEOREM1 = Family("zeta1", (8, 6, 8, 15), (1, 1, 1, 1), "theorem1")
THEOREM2 = Family("zeta2", (5, 6, 7, 14, 15), (1, 1, 1, 2, 2), "theorem2")
BV = Family("zeta1", (1, 1, 1, 2), (1, 1, 1, 2), "bv")
APERY = Family("zeta2", (1, 1, 1, 2, 2), (1, 1, 1, 2, 2), "apery")

FAMILIES = {f.name: f for f in (THEOREM1, THEOREM2, BV, APERY)}
