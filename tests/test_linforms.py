"""Linear-form tests: exact A, B, c-vectors, inclusions, certification."""

import hashlib
import math
from fractions import Fraction
from functools import cache
from collections import Counter
from itertools import accumulate, chain, count, product, starmap

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_parith import (
    _dense_cyclotomic,
    _dense_expand,
    _dense_mul,
    _dense_ord,
    _dense_power,
    _dense_prod,
    binomial,
    points,
    units,
)

from qzeta import builders, linforms
from qzeta.builders import _expand_factors, _poly_part
from qzeta.dyadic import Enclosure
from qzeta.forms import LinearForm, RatFunc, form_to_json, verify_inclusion
from qzeta.linforms import (
    APERY,
    BV,
    THEOREM1,
    THEOREM2,
    Family,
    Certification,
    Summand,
    _log_abs,
    _sum_series,
    _tail_bound,
    certify,
    numeric_form_value,
    summand,
)
from qzeta.params import ParamsZ1, ParamsZ2, cvector
from qzeta.parith import FactoredPPoly, PPoly, cyclotomic, divisors, dnp
from qzeta.qseries import zeta_q_value
from qzeta.store import Store


def linform(store, params, certify_at=2):
    """The form at params from `store`, certified at p = certify_at unless
    that is None."""
    form = store.form(params)
    if certify_at is not None:
        rep = certify(form, certify_at)
        if not rep.ok:
            raise AssertionError(f"numeric certification failed: {rep}")
    return form


def heine_terms(params, T: int, p: int) -> list[Fraction]:
    """First T summands C·S(q^t) of the series F at q = 1/p, exactly, for
    ParamsZ1 (zeta_q(1)) or ParamsZ2 (zeta_q(2))."""
    if abs(p) < 2:
        raise ValueError("need |p| >= 2")
    if not params.admissible:
        raise ValueError(f"inadmissible parameters {tuple(params)}")
    s = summand(params)
    q = Fraction(1, p)
    c = Fraction(1)
    for j in s.prefactor_num:
        c *= 1 - q**j
    for j in s.prefactor_den:
        c /= 1 - q**j
    out = []
    for t in range(T):
        x = q**t
        v = c * x**s.expo
        for i in s.num_i:
            v *= 1 - q**i * x
        for j, m in s.mult:
            v /= (1 - q**j * x) ** m
        out.append(v)
    return out


def _phi_order(f: RatFunc, l: int) -> int:
    """ord of f at Phi_l: the numerator's minus the denominator's exponent."""
    return f.num.ord_at(l) - f.dphi.get(l, 0)


def _midpoint(iv) -> Fraction:
    return (iv.lo + iv.hi) / 2


def growth_scan(store, family, n_max: int, p: int) -> list[dict]:
    """Per-n growth exponents log|A_n| and log|F_n| against n² log|p|."""
    if abs(p) < 2:
        raise ValueError("need |p| >= 2")
    rows = []
    for n in range(1, n_max + 1):
        form = linform(store, family.params(n), certify_at=None)
        a_val = form.A.value_at(p)
        enc = numeric_form_value(form.params, p, 256)
        mid = _midpoint(enc)
        denom = n * n * math.log(abs(p))
        rows.append(
            {
                "n": n,
                "a_exponent": _log_abs(a_val) / denom,
                "f_exponent": (_log_abs(mid) / denom) if mid else float("-inf"),
                "M": form.M,
            }
        )
    return rows


class TestParams:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ParamsZ1(0, 1, 1, 2)
        with pytest.raises(ValueError):
            ParamsZ2(1, 1, 1, 2, 0)

    def test_admissibility(self):
        assert ParamsZ1(1, 1, 1, 2).admissible
        assert not ParamsZ1(1, 1, 1, 3).admissible  # sum too small
        assert not ParamsZ1(5, 3, 3, 4).admissible  # a1 + a2 > b
        assert ParamsZ2(1, 1, 1, 2, 2).admissible
        assert not ParamsZ2(2, 1, 1, 2, 2).admissible  # a1 >= b2
        assert not ParamsZ2(1, 1, 1, 2, 1).admissible

    def test_cvector_rejects_inadmissible(self):
        with pytest.raises(ValueError):
            cvector(ParamsZ1(1, 1, 1, 3))
        with pytest.raises(ValueError):
            heine_terms(ParamsZ1(1, 1, 1, 3), 5, 2)


class TestCVector:
    def test_zeta1_example(self):
        cv = cvector(ParamsZ1(9, 7, 9, 16))
        assert cv.values == (8, 8, 6, 8, 8, 6)
        assert cv.m == 8
        assert cv["00"] == 8 and cv["11"] == 6 and cv["12"] == 8

    def test_zeta1_all_zero(self):
        assert cvector(ParamsZ1(1, 1, 1, 2)).values == (0,) * 6

    def test_zeta2_example(self):
        cv = cvector(ParamsZ2(6, 7, 8, 16, 17))
        assert cv["00"] == 11
        assert (cv["11"], cv["12"], cv["13"]) == (5, 9, 10)
        assert (cv["21"], cv["22"], cv["23"]) == (6, 8, 9)
        assert (cv["31"], cv["32"], cv["33"]) == (7, 7, 8)
        assert cv.top == (11, 10)
        assert cvector(ParamsZ1(9, 7, 9, 16)).top == (8,)

    def test_weight_sum_matches_parameter_sum(self):
        # sum over the factorial labels is a group invariant; spot-check its value
        cv = cvector(ParamsZ1(9, 7, 9, 16))
        assert sum(cv[l] for l in cv.factorial_labels()) == 9 + 7 + 9 - 16 + 13


def one_minus_p_power(d: int) -> FactoredPPoly:
    """(1 - p^d) for d != 0."""
    if d == 0:
        raise ValueError("1 - p^0 = 0 is not a unit")
    if d < 0:
        return FactoredPPoly.one_minus_q_power(-d)
    return FactoredPPoly(dict.fromkeys(divisors(d), 1), 0, -1)


class TestUnitMono:
    """The unit monomials ±p^a·prod Phi_l^e_l of the residue bookkeeping (FactoredPPoly)."""

    @pytest.mark.parametrize("p", [2, 3, -2])
    def test_one_minus_q_power(self, p):
        q = Fraction(1, p)
        for j in range(1, 8):
            assert FactoredPPoly.one_minus_q_power(j).value_at(p) == 1 - q**j

    @pytest.mark.parametrize("p", [2, 3, -2])
    def test_one_minus_p_power_both_signs(self, p):
        for d in (-5, -2, -1, 1, 2, 5):
            assert one_minus_p_power(d).value_at(p) == 1 - Fraction(p) ** d

    def test_product_and_inverse(self):
        u = FactoredPPoly.one_minus_q_power(3) * one_minus_p_power(2).inv()
        v = u.value_at(5)
        assert v == (1 - Fraction(1, 125)) / (1 - 25)


class TestRatFunc:
    def test_sum_and_value(self):
        # 1/(p-1) + 1/(p^2-1) - p/(p^3-1), common denominator assembled exactly
        t1 = RatFunc(PPoly.const(1), 0, {1: 1})
        t2 = RatFunc(PPoly.const(1), 0, {1: 1, 2: 1})
        t3 = RatFunc(PPoly([0, -1]), 0, {1: 1, 3: 1})
        s = RatFunc.sum([t1, t2, t3])
        for p in (2, 3, 7, -3):
            expect = (
                Fraction(1, p - 1) + Fraction(1, p * p - 1) - Fraction(p, p**3 - 1)
            )
            assert s.value_at(p) == expect

    @settings(deadline=None)
    @given(units, points)
    def test_times_unit_keeps_the_value(self, u, p):
        assert (RatFunc(PPoly.const(1)) * u).value_at(p) == u.value_at(p)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(-9, 9), max_size=8),
        st.integers(0, 3),
        st.dictionaries(st.integers(1, 30), st.integers(1, 2), max_size=3),
        units,
    )
    def test_times_unit_matches_dense_product(self, num, dpow, dphi, u):
        # the product cancels u's Phi_l against r's denominator, the oracle does not
        r = RatFunc(PPoly(num), dpow, dphi)
        got, want = r * u, _dense_times_unit(r, u)
        assert (got - want).is_zero()
        got, want = got.reduced(), want.reduced()
        assert (got - r * u).is_zero()
        assert (got.num, got.dpow, got.dphi) == (want.num, want.dpow, want.dphi)

    def test_ord_p_convention(self):
        assert RatFunc.zero().ord_p() == 0
        assert RatFunc(PPoly([0, 0, 0, 4]), 1).ord_p() == 2
        assert RatFunc(PPoly.const(7), 5).ord_p() == -5

    def test_laurent_numerator_moves_its_p_power_into_dpow(self):
        r = RatFunc(PPoly([3, 1], -2), 1, {1: 1})
        assert (r.num, r.dpow, r.dphi) == (PPoly([3, 1]), 3, {1: 1})
        assert r.value_at(2) == Fraction(3 + 1 * 2, 2**3 * (2 - 1))

    def test_reduce_preserves_value(self):
        raw = RatFunc(binomial(6).shift(2), 1, {1: 1, 2: 1, 6: 1})
        red = raw.reduced()
        assert (red - raw).is_zero()
        for p in (2, 5):
            assert red.value_at(p) == raw.value_at(p)
        # (p^6-1)p^2 / (p (p-1)(p+1) Phi_6) = p Phi_3
        assert red.dpow == 0 and red.dphi == {}

    def test_phi_order(self):
        r = RatFunc(binomial(4), 0, {1: 1})
        assert _phi_order(r, 4) == 1
        assert _phi_order(r, 1) == 0
        assert _phi_order(r, 3) == 0


def _times(a: RatFunc, b: RatFunc) -> RatFunc:
    """Dense oracle product: numerators multiplied, p-powers and Phi exponents added."""
    dphi = dict(a.dphi)
    for l, e in b.dphi.items():
        dphi[l] = dphi.get(l, 0) + e
    return RatFunc(_dense_mul(a.num, b.num), a.dpow + b.dpow, dphi)


def _dense_times_unit(r: RatFunc, u: FactoredPPoly) -> RatFunc:
    """Oracle for RatFunc × FactoredPPoly: u's polynomial part expanded densely."""
    pos = {l: e for l, e in u.exponents.items() if e > 0}
    neg = {l: -e for l, e in u.exponents.items() if e < 0}
    num = _dense_expand(FactoredPPoly(pos, max(u.p_power, 0), u.unit))
    return _times(r, RatFunc(num, max(-u.p_power, 0), neg))


def _flat_sum(terms) -> RatFunc:
    """Oracle: one pass over the terms, each cofactor a dense product of Phi_l powers."""
    terms = [t for t in terms if not t.is_zero()]
    if not terms:
        return RatFunc.zero()
    dpow = max(t.dpow for t in terms)
    dphi: dict[int, int] = {}
    for t in terms:
        for l, e in t.dphi.items():
            if e > dphi.get(l, 0):
                dphi[l] = e
    total = PPoly()
    for t in terms:
        cof = _dense_prod(
            _dense_power(_dense_cyclotomic(l), e - t.dphi.get(l, 0)) for l, e in dphi.items()
        )
        total = total + _dense_mul(t.num, cof).shift(dpow - t.dpow)
    return RatFunc(total, dpow, dphi)


@st.composite
def ratfunc_lists(draw):
    """Small RatFuncs over a few shared denominators, with zero and cancelling terms."""
    denominators = draw(
        st.lists(
            st.tuples(
                st.integers(0, 4),
                st.dictionaries(st.integers(1, 12), st.integers(0, 2), max_size=4),
            ),
            min_size=1,
            max_size=5,
        )
    )
    terms = []
    for _ in range(draw(st.integers(0, 9))):
        dpow, dphi = draw(st.sampled_from(denominators))
        t = RatFunc(PPoly(draw(st.lists(st.integers(-4, 4), max_size=5))), dpow, dphi)
        terms.append(t)
        cancel = draw(st.sampled_from(["none", "same", "other"]))
        if cancel == "same":  # the same value with the opposite sign
            terms.append(-t)
        elif cancel == "other":  # ... over a larger denominator
            l = draw(st.integers(1, 12))
            terms.append(_times(-t, RatFunc(cyclotomic(l).shift(1), 1, {l: 1})))
    return terms


class TestRatFuncSum:
    """The pairwise sum tree against the flat common-denominator loop."""

    @settings(max_examples=300, deadline=None)
    @given(ratfunc_lists())
    def test_matches_flat_sum(self, terms):
        got, want = RatFunc.sum(terms), _flat_sum(terms)
        assert (got.num, got.dpow, got.dphi) == (want.num, want.dpow, want.dphi)

    def test_cancelling_terms_keep_the_denominator(self):
        # 3/(p^2·Phi_4) cancels, 1/Phi_1 comes back over p^2·Phi_1·Phi_4
        t = RatFunc(PPoly.const(3), 2, {4: 1})
        s = RatFunc.sum([t, RatFunc(PPoly.const(1), 0, {1: 1}), -t, RatFunc.zero()])
        assert (s.num, s.dpow, s.dphi) == (PPoly([0, 0, 1, 0, 1]), 2, {1: 1, 4: 1})
        assert RatFunc.sum([t, -t]).dphi == {4: 1}
        assert RatFunc.sum([RatFunc.zero()] * 3).dphi == {}


def _dense_tail_tables(jmax: int) -> tuple[list[RatFunc], list[RatFunc]]:
    """Oracle: T1_{<j} = sum_{s<j} 1/(p^s-1) and T2_{<j} = sum_{s<j} p^s/(p^s-1)^2
    for j = 0..jmax over prod_{l<j} Phi_l and its square, each Phi_j a dense product."""
    t1: list[RatFunc] = [RatFunc.zero(), RatFunc.zero()]
    t2: list[RatFunc] = [RatFunc.zero(), RatFunc.zero()]
    u, x, v = PPoly(), PPoly(), PPoly.const(1)
    vphi: dict[int, int] = {}
    for j in range(1, jmax):
        phi_j = _dense_cyclotomic(j)
        v = _dense_mul(v, phi_j)
        vphi = {**vphi, j: 1}
        cof = v.div_binomial(j)
        u = _dense_mul(u, phi_j) + cof
        x = _dense_prod([phi_j, phi_j], x) + _dense_mul(cof, cof).shift(j)
        t1.append(RatFunc(u, 0, vphi))
        t2.append(RatFunc(x, 0, {l: 2 * e for l, e in vphi.items()}))
    return t1, t2


class TestTailTables:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_partial_sums_exact(self, p):
        t1, t2 = _dense_tail_tables(9)
        for j in range(9):
            want1 = sum((Fraction(1, p**s - 1) for s in range(1, j)), Fraction(0))
            want2 = sum(
                (Fraction(p**s, (p**s - 1) ** 2) for s in range(1, j)), Fraction(0)
            )
            assert t1[j].value_at(p) == want1
            assert t2[j].value_at(p) == want2


def _key(f: RatFunc):
    return f.num, f.dpow, f.dphi


class TestTailSumByParts:
    """sum_j K_{<j}·r_j summed by parts against the direct sum over the dense tail tables."""

    @staticmethod
    def check(s: Summand, cancelling: bool = False):
        res = {j: builders._ONE * builders._residue_unit(s, j) for j, _ in s.mult}
        total, by_parts = builders._tail_sum_by_parts(res, builders._t1_kernel)
        t1, _ = _dense_tail_tables(max(res) + 1)
        direct = RatFunc.sum([_times(t1[j], r) for j, r in res.items()])
        assert by_parts.value_at(5) == direct.value_at(5)
        if cancelling:  # a suffix sum R_{>s} that cancels to 0 takes its denominator along
            suffixes = accumulate(res[j] for j in sorted(res, reverse=True))
            assume(not any(r.is_zero() for r in suffixes))
        assert _key(by_parts) == _key(direct)
        assert _key(total) == _key(RatFunc.sum(res.values()))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 4), st.integers(0, 3))
    def test_on_admissible_params(self, a1, a2, db, da0):
        # b = a1 + a2 + db and a0 = db + 1 + da0 satisfy both admissibility bounds
        self.check(summand(ParamsZ1(db + 1 + da0, a1, a2, a1 + a2 + db)))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 5),
        st.sets(st.integers(1, 14), min_size=1, max_size=7),
        st.sets(st.integers(1, 14), max_size=4),
    )
    @example(2, {3, 7, 8, 12}, {1, 5})  # pole runs 3, 7..8 and 12 with gaps between them
    def test_on_pole_runs_with_gaps(self, expo, poles, num_i):
        self.check(_summand(expo, num_i - poles, dict.fromkeys(poles, 1)), cancelling=True)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.integers(2, 9), st.integers(2, 9)
    )
    @example(1, 2, 2, 3, 3)  # by parts, B keeps one power of p fewer in num and dpow
    def test_zeta2_b_side(self, a1, a2, a3, b2, b3):
        params = ParamsZ2(a1, a2, a3, b2, b3)
        assume(params.admissible)
        s = summand(params)
        r1, r2 = {}, {}
        for j, m in s.mult:
            g = builders._residue_unit(s, j)
            r1[j] = builders._ONE * g
            if m == 2:  # f_j = g_j and e_j = -Lambda_j·p^j·f_j
                r2[j] = r1[j]
                e = -(builders._log_derivative_at_pole(s, j) * (FactoredPPoly(p_power=j) * g))
                r1[j] = r1[j] + e
        zeta1_coeff, b1 = builders._tail_sum_by_parts(r1, builders._t1_kernel)
        total2, b2 = builders._tail_sum_by_parts(r2, builders._t2_kernel)
        t1, t2 = _dense_tail_tables(max(r1) + 1)
        direct = RatFunc.sum(
            [_times(t1[j], r) for j, r in r1.items()] + [_times(t2[j], r) for j, r in r2.items()]
        )
        got = b1 + b2
        assert zeta1_coeff.is_zero()
        assert _key(total2) == _key(RatFunc.sum(r2.values()))
        assert got.value_at(5) == direct.value_at(5)
        assert got.dphi == direct.dphi
        shift = direct.dpow - got.dpow  # a common power of p, never a larger one
        assert shift >= 0
        assert got.num.shift(shift) == direct.num


class TestResidueUnit:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 4), st.sets(st.integers(1, 9), max_size=4), st.data())
    def test_matches_product_of_factors(self, expo, num_i, data):
        mult = data.draw(
            st.dictionaries(
                st.sampled_from(sorted(set(range(1, 12)) - num_i)), st.integers(1, 2), min_size=1
            )
        )
        s = _summand(expo, num_i, mult)
        for j in mult:
            parts = [one_minus_p_power(j - i) for i in s.num_i]
            parts += [one_minus_p_power(j - i).inv() for i, m in s.mult if i != j for _ in range(m)]
            want = math.prod(parts, start=FactoredPPoly(p_power=s.expo * j))
            assert builders._residue_unit(s, j) == want


class TestSummand:
    def test_zeta1_structure(self):
        s = summand(ParamsZ1(9, 7, 9, 16))
        assert s.expo == 9
        assert s.num_i == (1, 2, 3, 4, 5, 6)
        assert s.mult == tuple((j, 1) for j in range(9, 16))
        # symmetric case: prefactor numerator and denominator coincide
        assert s.prefactor_num == s.prefactor_den

    def test_zeta1_cancellation(self):
        # num 1..4 overlaps den 3..7, so 3 and 4 cancel
        s = summand(ParamsZ1(4, 5, 3, 8))
        assert s.num_i == (1, 2)
        assert s.mult == ((5, 1), (6, 1), (7, 1))

    def test_zeta2_double_poles(self):
        s = summand(ParamsZ2(6, 7, 8, 16, 17))
        assert s.expo == 12
        mult = dict(s.mult)
        assert mult[7] == 1 and mult[16] == 1
        assert all(mult[j] == 2 for j in range(8, 16))


def _dense_poly_part(s: Summand) -> list[PPoly]:
    """Oracle: long division of x^e·N(x) by the expanded D(x), one product per
    step, over Laurent polynomials in p (PPoly with a val of either sign)."""
    numx = [PPoly()] * s.expo + _expand_factors(s.num_i)
    denx = _expand_factors([j for j, m in s.mult for _ in range(m)])
    qdeg = len(numx) - len(denx)
    if qdeg < 0:
        return []
    rem = list(numx)
    dd = len(denx) - 1
    lead = denx[dd]
    assert len(lead.body) == 1 and abs(lead.body[0]) == 1
    lead_inv = PPoly(lead.body, -lead.val)
    quot = [PPoly()] * (qdeg + 1)
    for d in range(qdeg, -1, -1):
        c = _dense_mul(rem[d + dd], lead_inv)
        quot[d] = c
        if c:
            for i in range(dd + 1):
                rem[d + i] = rem[d + i] - _dense_mul(c, denx[i])
    return quot


def _summand(expo, num_i, mult):
    return Summand(expo, tuple(sorted(num_i)), tuple(sorted(mult.items())), (), ())


class TestPolyPart:
    """Synthetic division, one pole factor at a time, against dense long division."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 6),
        st.sets(st.integers(1, 8)),
        st.dictionaries(st.integers(1, 8), st.integers(1, 2), min_size=1, max_size=5),
    )
    @example(0, set(), {1: 1})  # qdeg < 0: a proper rational function
    @example(1, set(), {1: 1})  # qdeg = 0: a constant polynomial part
    @example(2, {1, 3}, {2: 2, 5: 1, 7: 1})  # qdeg = 0 through a double pole
    def test_matches_dense_division(self, expo, num_i, mult):
        s = _summand(expo, num_i, mult)
        got, want = _poly_part(s), _dense_poly_part(s)
        assert len(got) == len(want) == max(0, expo + len(num_i) - sum(mult.values()) + 1)
        assert got == want

    def test_empty_and_constant_parts(self):
        assert _poly_part(_summand(0, {2}, {1: 1, 3: 1})) == []
        (c0,) = _poly_part(_summand(1, set(), {1: 1}))
        # x / (1 - q x) = -p + p / (1 - q x)
        assert c0 == PPoly([-1], val=1)


# sha256 of form_to_json for forms whose bytes must not change (lowest terms, v3)
PINNED_FORMS = {
    "theorem1-1": (THEOREM1, 1, "cb5d220ee1ee1ae6f5e916c047549e81717d0a8178fa2c5a1e7fe7cf4f4759f2"),
    "theorem1-2": (THEOREM1, 2, "821f09a932bd8d64a33b017379be594f8cf5fef74ea3f024807a88a913a7c0c0"),
    "theorem1-3": (THEOREM1, 3, "0a13ad4b8c2cbc9463fc90ad9ec12a05d5148639ef19afc6d1326c757fb103c9"),
    "theorem1-4": (THEOREM1, 4, "1636128bd52d7ca9fa7f68e584600ac595af7739f9fb701d8c797c92f4597a4d"),
    "bv-10": (BV, 10, "09f5d0e400ca2586144ab0cc88c1869923b30ab71d78f67fbbef90af37e1845f"),
    "bv-14": (BV, 14, "e1c22a532db0ceab49c2df933292463fdc3a68835485155907801c4bb93d3c41"),
    "bv-25": (BV, 25, "ac7ad27859cde29cb797336b5b717a6f03e2fd2cf15cbeaddae5dc29d914ab31"),
    "theorem2-1": (THEOREM2, 1, "4f665cb38911c88f93c4010abfd1dd341f2433dd0f00e20c0d880803358f07aa"),
    "theorem2-2": (THEOREM2, 2, "89fa8b103b0952d628a885ce9babe6cd83c1d5638202f9b6fb94777a1c3c2d6c"),
    "theorem2-3": (THEOREM2, 3, "857ab99e7c25f99fa0ef81647b14996ff11cf5b662b45ca9ea83d45b41aac862"),
}


@pytest.mark.parametrize("family, n, digest", PINNED_FORMS.values(), ids=list(PINNED_FORMS))
def test_pinned_form_bytes(family, n, digest):
    text = form_to_json(Store().form(family.params(n)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _small_grid() -> list:
    """Every admissible ParamsZ1 in a0 1..5, a1 and a2 1..4, b 2..8 and
    ParamsZ2 in a1 1..2, a2 and a3 1..3, b2 and b3 2..5, in product order."""
    z1 = product(range(1, 6), range(1, 5), range(1, 5), range(2, 9))
    z2 = product(range(1, 3), range(1, 4), range(1, 4), range(2, 6), range(2, 6))
    return [p for p in chain(starmap(ParamsZ1, z1), starmap(ParamsZ2, z2)) if p.admissible]


def test_pinned_small_grid_bytes():
    """One sha256 over the concatenated forms of the small grid.  The grid
    has each build path the family pins do not separate: every zeta1
    summand has a polynomial part, and the zeta2 ones have mixed pole
    orders or double poles only."""
    grid = _small_grid()
    orders = Counter(
        (p.kind, frozenset(m for _, m in summand(p).mult), bool(_poly_part(summand(p))))
        for p in grid
    )
    assert orders == {
        ("zeta1", frozenset({1}), True): 205,
        ("zeta2", frozenset({1, 2}), False): 99,
        ("zeta2", frozenset({2}), False): 18,
    }
    store = Store()
    text = "".join(form_to_json(store.form(p)) for p in grid)
    digest = "86c90ec981b36e1c0bde0dbdbcc5b28f3b4ae70d0ffdd6507cf5f3e7153aebae"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_stored_forms_are_in_lowest_terms(store):
    """On the small grid and the family pins, no Phi_l of a stored denominator
    divides its numerator (by dense long division) and no power of p is
    common to both."""
    pins = [family.params(n) for family, n, _ in PINNED_FORMS.values()]
    for params in _small_grid() + pins:
        form = store.form(params)
        for f in (form.A, form.B):
            if f.is_zero():
                assert (f.dpow, f.dphi) == (0, {})
                continue
            assert min(f.num.val, f.dpow) == 0, params
            for l in f.dphi:
                assert _dense_ord(f.num, l, cap=1) == 0, (params, l)


def test_form_builds_make_no_dense_product():
    """Every product in a build is a lift through the binomials p^d - 1: PPoly
    has no product of two polynomials, and the members still build."""
    assert "__mul__" not in vars(PPoly) and not hasattr(PPoly, "__rmul__")
    store = Store()
    members = [(THEOREM1, 1), (THEOREM1, 2), (THEOREM1, 3), (THEOREM2, 1), (THEOREM2, 2)]
    for family, n in [*members, (BV, 10), (APERY, 2)]:
        form = linform(store, family.params(n))
        assert verify_inclusion(form)


class TestHeineTerms:
    def test_simplest_series(self):
        assert heine_terms(ParamsZ1(1, 1, 1, 2), 3, 2) == [
            Fraction(2),
            Fraction(2, 3),
            Fraction(2, 7),
        ]

    def test_simplest_zeta2_series(self):
        # S(x) = x/(1 - q x)^2 with C = 1
        assert heine_terms(ParamsZ2(1, 1, 1, 2, 2), 3, 2) == [
            Fraction(4),
            Fraction(8, 9),
            Fraction(16, 49),
        ]

    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            heine_terms(ParamsZ1(1, 1, 1, 2), 3, 1)


class TestAnchors:
    """Forms small enough to expand by hand."""

    @pytest.mark.parametrize("p", [2, 3, 5, -2])
    def test_simplest_form(self, store, p):
        f = linform(store, ParamsZ1(1, 1, 1, 2))
        assert f.A.value_at(p) == p
        assert f.B.is_zero()
        assert f.M == 0

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_polynomial_part_form(self, store, p):
        # S(x) = x^2/(1-qx) has a nonzero polynomial part
        f = linform(store, ParamsZ1(2, 1, 1, 2))
        assert f.A.value_at(p) == p * p
        assert f.B.value_at(p) == Fraction(p * p, p - 1)
        assert f.M == 2

    @pytest.mark.parametrize("p", [2, 3, 5, -2])
    def test_simplest_double_pole_form(self, store, p):
        f = linform(store, ParamsZ2(1, 1, 1, 2, 2))
        assert f.A.value_at(p) == p
        assert f.B.is_zero()
        assert f.M == 0

    def test_mixed_pole_orders(self, store):
        # denominators (1-qx)(1-q^2 x)^2: one simple and one double pole
        f = linform(store, ParamsZ2(1, 1, 2, 3, 3), certify_at=2)
        assert f.A.value_at(2) == -8
        assert not f.B.is_zero()

    def test_dispatcher(self, store):
        assert linform(store, ParamsZ1(1, 1, 1, 2)).kind == "zeta1"
        assert linform(store, ParamsZ2(1, 1, 1, 2, 2)).kind == "zeta2"


class TestKindGuards:
    """The builder's guards on summands that no admissible params give."""

    def test_zeta1_rejects_a_double_pole(self, monkeypatch):
        params = ParamsZ1(2, 2, 2, 4)
        s = summand(params)._replace(mult=((2, 2), (3, 1)))
        monkeypatch.setattr(builders, "summand", lambda _: s)
        with pytest.raises(AssertionError, match="pole of order above 1"):
            builders.build(params)

    def test_zeta2_rejects_an_improper_summand(self, monkeypatch):
        params = ParamsZ2(1, 1, 1, 2, 2)  # S(x) = x/(1 - q x)^2, made x^2/(1 - q x)^2
        s = summand(params)._replace(expo=2)
        monkeypatch.setattr(builders, "summand", lambda _: s)
        with pytest.raises(AssertionError, match="not a proper rational function"):
            builders.build(params)


class TestDenominatorData:
    def test_zeta1_exponents(self, store):
        f = linform(store, ParamsZ1(9, 7, 9, 16), certify_at=None)
        assert f.d_exponents() == {l: 1 for l in range(1, 9)}
        for p in (2, 3):
            assert f.d_value(p) == dnp(8).value_at(p)

    def test_zeta2_exponents(self, store):
        f = linform(store, ParamsZ2(6, 7, 8, 16, 17), certify_at=None)
        exps = f.d_exponents()
        assert exps == {l: (2 if l <= 10 else 1) for l in range(1, 12)}

    def test_stored_forms_are_already_reduced(self, store):
        for params in (ParamsZ1(4, 3, 4, 7), ParamsZ2(2, 3, 3, 6, 7)):
            f = linform(store, params, certify_at=None)
            for x in (f.A, f.B):
                y = x.reduced()
                assert (y.num, y.dpow, y.dphi) == (x.num, x.dpow, x.dphi)


class TestInclusion:
    @pytest.mark.parametrize(
        "params",
        [ParamsZ1(1, 1, 1, 2), ParamsZ1(9, 7, 9, 16), ParamsZ2(6, 7, 8, 16, 17)],
    )
    def test_trivial_omega(self, store, params):
        f = linform(store, params, certify_at=None)
        assert verify_inclusion(f)

    def test_oversized_omega_fails_with_witness(self, store):
        f = linform(store, ParamsZ1(9, 7, 9, 16), certify_at=None)
        # degree alone forbids three factors of Phi_101 in either numerator
        omega = FactoredPPoly({101: 3})
        r = verify_inclusion(f, omega)
        assert not r
        assert "Phi_101" in r.witness

    # Hand-built forms at the zeta2 params whose D is Phi_1..Phi_10 squared
    # times Phi_11.  A's denominator holds Phi_2^2 and Phi_3^2 (D's own
    # exponents), and Omega = Phi_2·Phi_13: Omega's Phi_2 and Phi_13 must
    # come from the numerator, once each, while Phi_3 must not be looked for.
    OMEGA_PARAMS = ParamsZ2(6, 7, 8, 16, 17)
    OMEGA = FactoredPPoly({2: 1, 13: 1})

    def _omega_form(self, num_phis):
        num = PPoly((1,)).times_cyclotomics(num_phis)
        return LinearForm(self.OMEGA_PARAMS, RatFunc(num, 0, {2: 2, 3: 2}), RatFunc.zero())

    def test_numerator_carrying_exactly_omega_passes(self):
        f = self._omega_form({2: 1, 13: 1})
        assert f.d_exponents()[2] == f.d_exponents()[3] == 2 and 13 not in f.d_exponents()
        assert verify_inclusion(f, self.OMEGA)

    @pytest.mark.parametrize("missing", [2, 13])
    def test_deficit_of_one_fails_and_names_phi(self, missing):
        f = self._omega_form({l: 1 for l in (2, 13) if l != missing})
        r = verify_inclusion(f, self.OMEGA)
        assert not r
        assert r.witness == f"Phi_{missing} exponent deficit in A: need 1, have 0"

    def test_omega_with_p_power_rejected(self, store):
        f = linform(store, ParamsZ1(1, 1, 1, 2), certify_at=None)
        r = verify_inclusion(f, FactoredPPoly({}, p_power=1))
        assert not r and "power of p" in r.witness


class TestNumerics:
    def test_enclosure_contains_exact_partial_sums(self):
        params = ParamsZ1(3, 2, 3, 5)
        enc = _sum_series(summand(params), 2, 60, 256)
        exact = sum(heine_terms(params, 60, 2))
        tail = _tail_bound(summand(params), 2, 60)  # before |C|
        assert enc.lo < exact < enc.hi
        assert 0 < tail < Fraction(1, 2**100)
        assert enc.width < Fraction(62, 2**256) + 64 * tail  # 60 + 2 roundings, |C| < 2^5

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1000, 4000).flatmap(lambda b: st.integers(1 << b, 1 << (b + 1))),
        st.integers(1, 1 << 900),
        st.booleans(),
    )
    @example(2**320 * 41 + 1, 100 * 2**320 - 7, False)
    def test_log_abs_within_an_ulp_of_60_digits(self, big, small, invert):
        # huge numerators over small denominators and the reverse, against
        # decimal's ln at 60 digits
        from decimal import Decimal, localcontext

        x = Fraction(small, big) if invert else Fraction(big, small)
        with localcontext() as ctx:
            ctx.prec = 60
            ref = float(Decimal(x.numerator).ln() - Decimal(x.denominator).ln())
        assert abs(_log_abs(x) - ref) <= math.ulp(ref)
        assert _log_abs(-x) == _log_abs(x)

    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            numeric_form_value(ParamsZ1(1, 1, 1, 2), 1, 256)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(
            [THEOREM1.params(1), BV.params(1), BV.params(4), ParamsZ1(3, 2, 3, 5)]
            + [THEOREM2.params(1), APERY.params(1), ParamsZ2(1, 2, 1, 3, 4)]
        ),
        st.sampled_from([2, 3, -2, -3, 5]),
        st.integers(1, 400),
    )
    def test_sums_the_fewest_terms_within_the_tail_budget(self, params, p, bits):
        s = summand(params)
        eps = Fraction(1, 1 << (bits + 7))
        terms = next(t for t in count(1) if _tail_bound(s, p, t) <= eps)
        prec = bits + 7 + (terms + 2).bit_length()
        assert numeric_form_value(params, p, bits) == _sum_series(s, p, terms, prec)

    @pytest.mark.parametrize("terms", [-1, -9, -20])
    def test_rejects_negative_terms(self, terms):
        # -9 would divide by 1 - |q|^0 in the tail bound of theorem1 n = 1
        with pytest.raises(ValueError, match="terms >= 0"):
            _sum_series(summand(THEOREM1.params(1)), 2, terms, 256)

    @pytest.mark.parametrize(
        "params",
        [ParamsZ1(17, 13, 17, 31), ParamsZ2(6, 7, 8, 16, 17)],
    )
    def test_certification_tight(self, store, params):
        f = linform(store, params, certify_at=None)
        rep = certify(f, 2)
        assert rep.ok and rep.gap == 0
        assert rep.width < Fraction(1, 2**rep.target) < Fraction(1, 10**30)

    @pytest.mark.parametrize(
        "family, n, p, a_sign",
        [(BV, 3, 2, 1), (BV, 3, -3, -1), (THEOREM2, 1, -2, 1)],
        ids=["bv3-p2", "bv3-p-3", "theorem2-1-p-2"],
    )
    def test_certification_matches_the_hand_formula(self, store, family, n, p, a_sign):
        # the enclosures assembled by hand, a·Z − b ± |a|·tail against the
        # summed series, so a sign slip in Enclosure·rational (bv n = 3 has
        # A(-3) < 0) or a changed subtraction order shows
        form = linform(store, family.params(n), certify_at=None)
        rep = certify(form, p)
        k, q, eps = form.params.k, Fraction(1, p), Fraction(1, 1 << rep.target)
        a, b = form.A.value_at(p), form.B.value_at(p)
        assert (a > 0) - (a < 0) == a_sign
        z = zeta_q_value(k, q, eps / (4 * max(abs(a), 1)))
        zeta, tail = z.mid, z.width / 2
        lo, hi = a * zeta - b - abs(a) * tail, a * zeta - b + abs(a) * tail
        enc = numeric_form_value(form.params, p, rep.target)
        gap, width = max(lo - enc.hi, enc.lo - hi, Fraction(0)), max(hi - lo, enc.width)
        assert rep == Certification(rep.target, gap, width, gap == 0 and width < eps)
        assert rep.ok

    def test_certification_fails_on_a_wide_series_enclosure(self, store, monkeypatch):
        # width is the wider of the two enclosures, and ok needs it below 2^-target
        form = linform(store, BV.params(3), certify_at=None)
        real = linforms.numeric_form_value
        monkeypatch.setattr(
            linforms, "numeric_form_value", lambda *a: Enclosure.around(real(*a).mid, 1)
        )
        rep = certify(form, 2)
        assert rep.gap == 0 and rep.width == 2 and not rep.ok

    @pytest.mark.parametrize("p", [2, 3])
    def test_certification_small_grid(self, store, p):
        # every admissible parameter tuple in a small box
        for b in range(2, 7):
            for a1 in range(1, b):
                for a2 in range(1, b - a1 + 1):
                    for a0 in range(max(1, b + 1 - a1 - a2), b + 1):
                        f = linform(store, ParamsZ1(a0, a1, a2, b), certify_at=None)
                        assert certify(f, p).ok

    def test_certification_zeta2_sample(self, store):
        for params in (
            ParamsZ2(1, 1, 1, 2, 2),
            ParamsZ2(1, 2, 2, 3, 4),
            ParamsZ2(2, 2, 2, 4, 4),
            ParamsZ2(3, 3, 3, 5, 6),
            ParamsZ2(2, 3, 4, 8, 9),
        ):
            f = linform(store, params, certify_at=None)
            assert certify(f, 2).ok
            assert certify(f, 3).ok

    @pytest.mark.parametrize("p", [2, 3, -2])
    @pytest.mark.parametrize(
        "family, n",
        [(THEOREM1, n) for n in (1, 2, 3, 4)]
        + [(THEOREM2, n) for n in (1, 2, 3)]
        + [(BV, 10), (BV, 14)],
        ids=lambda v: v.name if isinstance(v, Family) else str(v),
    )
    def test_certification_rejects_unit_errors(self, store, family, n, p, monkeypatch):
        # +-1 in the constant, middle or top numerator coefficient of A or B
        # moves the value by at least 2^(64 - target); the series enclosure
        # depends on the params alone, so it is summed once per form and p
        monkeypatch.setattr(linforms, "numeric_form_value", cache(linforms.numeric_form_value))
        form = linform(store, family.params(n), certify_at=None)
        assert certify(form, p).ok
        passed = []
        for side in "AB":
            f = getattr(form, side)
            for where in (0, f.num.degree // 2, f.num.degree):
                for d in (1, -1):
                    coeffs = list(f.num.coeffs)
                    coeffs[where] += d
                    g = RatFunc(PPoly(coeffs), f.dpow, f.dphi)
                    A, B = (g, form.B) if side == "A" else (form.A, g)
                    if certify(LinearForm(form.params, A, B), p).ok:
                        passed.append((side, where, d))
        assert not passed, f"unit mutants that certify: {passed}"

    @pytest.mark.parametrize("p", [2, 3, -2, -3])
    @pytest.mark.parametrize(
        "family, n",
        [(BV, 1), (BV, 2), (BV, 3), (THEOREM1, 1), (THEOREM2, 1)],
        ids=["bv1", "bv2", "bv3", "theorem1-1", "theorem2-1"],
    )
    def test_coarse_enclosure_contains_fine_midpoint(self, family, n, p):
        params = family.params(n)
        coarse = numeric_form_value(params, p, 128)
        fine = numeric_form_value(params, p, 320)
        assert coarse.contains(_midpoint(fine))
        assert coarse.width > fine.width


class TestFamilies:
    def test_first_members(self):
        assert THEOREM1.params(1) == (9, 7, 9, 16)
        assert THEOREM2.params(1) == (6, 7, 8, 16, 17)
        assert BV.params(1) == (2, 2, 2, 4)
        assert APERY.params(1) == (2, 2, 2, 4, 4)

    def test_bv_m_values_quadratic(self, store):
        ms = [linform(store, BV.params(n), certify_at=None).M for n in range(1, 7)]
        assert ms == [5, 12, 22, 35, 51, 70]
        second = [ms[i + 2] - 2 * ms[i + 1] + ms[i] for i in range(4)]
        assert all(d == 3 for d in second)

    def test_growth_exponents(self, store):
        rows = growth_scan(store, BV, 6, 2)
        a = [r["a_exponent"] for r in rows]
        assert all(x > y for x, y in zip(a, a[1:]))  # decreasing toward 3
        assert 3 < a[-1] < 3.7
        assert all(abs(r["f_exponent"]) < 0.5 for r in rows)
