"""Series-side tests: expansions, rho polynomials, certified evaluation."""

import math
from fractions import Fraction
from itertools import count

import pytest

from qzeta.dyadic import Enclosure
from qzeta.qseries import (
    jacobi_check,
    limit_check,
    log2_q_series,
    rho,
    sigma,
    zeta_q_series,
    zeta_q_value,
    zeta_ref,
)


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def rho_lambert(k, q, terms):
    """sum_{nu<=T} q^nu rho_k(q^nu) / (1-q^nu)^k in Fractions, and its tail bound.

    The Lambert-series evaluator of zeta_q(k), kept as an oracle for
    zeta_q_value: its denominators are products of (p^nu - 1)^k, not powers
    of den(q).  Past nu = T each summand is at most the nu = T+1 one times
    |q|^(nu-T-1), hence the closed-form tail.
    """
    r = rho(k)
    value = Fraction(0)
    for nu in range(1, terms + 1):
        y = q**nu
        value += y * r(y) / (1 - y) ** k
    aq = abs(q)
    y = aq ** (terms + 1)
    return value, y * r(y) / ((1 - y) ** k * (1 - aq))


class TestSigma:
    def test_small_values(self):
        assert sigma(1, 6) == 4
        assert sigma(2, 6) == 12
        assert sigma(4, 1) == 1

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_against_divisor_enumeration(self, k):
        for n in range(1, 200):
            assert sigma(k, n) == sum(d ** (k - 1) for d in divisors(n))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sigma(0, 5)
        with pytest.raises(ValueError):
            sigma(2, 0)


class TestRho:
    def test_first_few(self):
        assert rho(1).coeffs == (1,)
        assert rho(2).coeffs == (1,)
        assert rho(3).coeffs == (1, 1)
        assert rho(4).coeffs == (1, 4, 1)
        assert rho(5).coeffs == (1, 11, 11, 1)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_value_at_one_is_factorial(self, k):
        assert rho(k)(1) == math.factorial(k - 1)

    @pytest.mark.parametrize("k", range(2, 12))
    def test_symmetric_coefficients(self, k):
        c = rho(k).coeffs
        assert c == tuple(reversed(c))

    @pytest.mark.parametrize("k", range(2, 10))
    def test_generates_power_weighted_geometric_series(self, k):
        # x rho_k(x) / (1-x)^k = sum m^(k-1) x^m, checked through x^40
        order = 41
        r = rho(k).coeffs
        series = [0] * order
        for i, ri in enumerate(r):
            for m in range(order):
                e = 1 + i + m
                if e < order:
                    series[e] += ri * math.comb(m + k - 1, k - 1)
        assert series == [m ** (k - 1) for m in range(order)]


class TestZetaQSeries:
    def test_divisor_counts_for_k1(self):
        assert zeta_q_series(1, 8) == (0, 1, 2, 2, 3, 2, 4, 2)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_representations_agree(self, k):
        a = zeta_q_series(k, 120, "divisor-sum")
        b = zeta_q_series(k, 120, "lambert")
        c = zeta_q_series(k, 120, "rho")
        assert a == b == c

    def test_rejects_unknown_representation(self):
        with pytest.raises(ValueError):
            zeta_q_series(2, 10, "euler-product")


class TestLog2Series:
    def test_leading_coefficients(self):
        assert log2_q_series(6) == (0, 1, 0, 2, -1, 2)

    def test_matches_divisor_parity_formula(self):
        s = log2_q_series(120)
        for n in range(1, 120):
            odd = sum(1 for d in divisors(n) if d % 2)
            even = sum(1 for d in divisors(n) if d % 2 == 0)
            assert s[n] == odd - even


class TestJacobi:
    def test_identity_holds(self):
        assert jacobi_check(200)

    def test_lattice_point_counts(self):
        # r2(n) = 4 * (d_{1 mod 4}(n) - d_{3 mod 4}(n)), the identity behind
        # the check, against brute-force counting of a^2 + b^2 = n
        for n in range(1, 80):
            r2 = sum(
                1
                for a in range(-n, n + 1)
                for b in range(-n, n + 1)
                if a * a + b * b == n
            )
            bychi = 4 * sum(1 if d % 4 == 1 else -1 for d in divisors(n) if d % 2)
            assert r2 == bychi


def tail_bound(k, q, terms):
    """(T+1)^k |q|^(T+1) / (1 - ((T+2)/(T+1))^k |q|), or None when that ratio is >= 1."""
    ratio = Fraction(terms + 2, terms + 1) ** k * abs(q)
    return None if ratio >= 1 else (terms + 1) ** k * abs(q) ** (terms + 1) / (1 - ratio)


class TestZetaQValue:
    def test_worked_example(self):
        # 1/2 + 2/4 + 2/8 + 3/16, tail 5 (1/2)^5 / (1 - (6/5)(1/2)); 3 terms bound 2/3
        z = zeta_q_value(1, Fraction(1, 2), Fraction(25, 64))
        assert z == Enclosure.around(Fraction(23, 16), Fraction(25, 64))
        assert (z.mid, z.width) == (Fraction(23, 16), Fraction(25, 32))
        assert rho_lambert(1, Fraction(1, 2), 4) == (Fraction(54, 35), Fraction(2, 31))

    def test_single_term_k2(self):
        # one term at q = 1/3 bounds the tail by 16/9
        assert zeta_q_value(2, Fraction(1, 3), 2).mid == Fraction(1, 3)
        assert rho_lambert(2, Fraction(1, 2), 1)[0] == 2

    def test_enclosures_nest_and_shrink(self):
        results = [zeta_q_value(3, Fraction(1, 2), Fraction(1, 2**e)) for e in (1, 10, 20, 40, 60)]
        for a, b in zip(results, results[1:]):
            assert a.lo <= b.lo and b.hi <= a.hi
            assert b.width < a.width
        assert results[-1].width < Fraction(2, 10**17)

    def test_rho_route_matches_divisor_sum_route(self):
        # same number from a structurally different series, at q = -1/2
        q = Fraction(-1, 2)
        a, ta = rho_lambert(2, q, 60)
        assert zeta_q_value(2, q, Fraction(1, 2**250)).gap(Enclosure.around(a, ta)) == 0

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("q", ["1/2", "-1/2", "1/3", "-1/3", "9/10"])
    def test_matches_rho_lambert_oracle(self, q, k):
        q = Fraction(q)
        a, ta = rho_lambert(k, q, 200 if q == Fraction(9, 10) else 60)
        b = zeta_q_value(k, q, Fraction(1, 10**30))
        assert ta < Fraction(1, 10**8) and b.width <= Fraction(2, 10**30)
        assert b.gap(Enclosure.around(a, ta)) == 0

    def test_tail_bound_holds(self):
        for k, q in ((1, Fraction(1, 2)), (4, Fraction(-1, 3)), (3, Fraction(9, 10))):
            short = zeta_q_value(k, q, Fraction(1, 10**3))
            longer = zeta_q_value(k, q, Fraction(1, 10**30))
            assert short.lo <= longer.lo and longer.hi <= short.hi

    def test_terms_are_the_fewest_for_the_bound(self):
        # the radius is the tail bound at the least T whose bound is at most eps
        cases = [
            (1, Fraction(1, 2), Fraction(1, 2**200)),
            (3, Fraction(9, 10), Fraction(1, 10**6)),
            (2, Fraction(-1, 3), Fraction(1, 10)),
            (4, Fraction(1, 2), Fraction(5)),
        ]
        for k, q, eps in cases:
            t = next(t for t in count(1) if (b := tail_bound(k, q, t)) is not None and b <= eps)
            z = zeta_q_value(k, q, eps)
            assert z.width / 2 == tail_bound(k, q, t) <= eps
            assert z.mid == sum(sigma(k, n) * q**n for n in range(1, t + 1))

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            zeta_q_value(2, 1, Fraction(1, 10))
        with pytest.raises(ValueError):
            zeta_q_value(2, 0, Fraction(1, 10))

    def test_rejects_a_radius_that_is_not_positive(self):
        for eps in (0, Fraction(-1, 10)):
            with pytest.raises(ValueError, match="eps > 0"):
                zeta_q_value(2, Fraction(1, 2), eps)

    def test_arbitrary_rational_point(self):
        z = zeta_q_value(2, Fraction(1, 3), Fraction(1, 10**15))
        direct = sum(sigma(2, n) * Fraction(1, 3) ** n for n in range(1, 200))
        assert abs(z.mid - direct) <= z.width / 2 + Fraction(200**2, 3**200)


class TestClassicalLimit:
    def test_zeta_ref_brackets_known_values(self):
        z2, z3 = zeta_ref(2), zeta_ref(3)
        assert float(z2.lo) < math.pi**2 / 6 < float(z2.hi)
        assert z2.width < Fraction(1, 10**5)
        assert float(z3.lo) < 1.2020569031595943 < float(z3.hi)

    def test_scaled_values_approach_factorial_times_zeta(self):
        rows = limit_check(2, [Fraction(1, 2), Fraction(9, 10), Fraction(99, 100)])
        mids = [r.value.mid for r in rows]
        target = math.pi**2 / 6
        # certified enclosures are tight, against (2-1)! zeta(2)
        for r in rows:
            assert r.value.width < Fraction(1, 10**6)
            assert r.target == zeta_ref(2)
        # monotone approach from below, last point within 2 percent
        assert mids[0] < mids[1] < mids[2]
        assert float(mids[2]) > 0.98 * target
        assert float(rows[2].value.hi) < target

    def test_enclosure_agrees_with_exact_evaluation(self):
        q = Fraction(1, 2)
        (row,) = limit_check(3, [q])
        value, tail = rho_lambert(3, q, 120)
        scale = (1 - q) ** 3
        assert row.value.lo <= scale * (value + tail)
        assert scale * (value - tail) <= row.value.hi
        assert row.target == Enclosure(2 * zeta_ref(3).lo, 2 * zeta_ref(3).hi)

    def test_rows_are_pinned(self):
        # the exact ends floored and ceiled at 2^-94 (one reduces to 2^-88)
        rows = limit_check(2, [Fraction(1, 2), Fraction(9, 10)]) + limit_check(3, [Fraction(1, 2)])
        ends = [r.value for r in rows]
        got = [(e.lo.numerator, e.hi.numerator, e.lo.denominator, e.hi.denominator) for e in ends]
        assert got == [
            (212309338505433742052477501, 212309338979808949675439555, 2**88, 2**88),
            (28418572164464381298754631743, 28418572195728015842823591363, 2**94, 2**94),
            (17576978732392366366991346349, 17576978759917889083005441363, 2**94, 2**94),
        ]

    def test_rejects_k1(self):
        with pytest.raises(ValueError):
            limit_check(1, [Fraction(1, 2)])
