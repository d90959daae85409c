import math
import random
from fractions import Fraction
from functools import cache, reduce

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qzeta.density import mertens_ratio, phi_block_sum, trigamma
from qzeta.parith import (
    FactoredPPoly,
    PPoly,
    cyclotomic,
    cyclotomic_value,
    divisors,
    dnp,
    gauss_factorial,
    mobius,
    ord_phi_factorial,
    totient,
)

# ---------------------------------------------------------------------------
# polynomial plumbing


def test_product_matches_coefficient_convolution():
    """The dense oracle _dense_mul against a plain coefficient convolution."""
    rng = random.Random(7)
    for _ in range(40):
        la = rng.randrange(1, 120)
        lb = rng.randrange(1, 120)
        a = [rng.randrange(-(10**6), 10**6) for _ in range(la)]
        b = [rng.randrange(-(10**6), 10**6) for _ in range(lb)]
        ref = [0] * (la + lb - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                ref[i + j] += ai * bj
        assert _dense_mul(PPoly(a, 3), PPoly(b, -5)) == PPoly(ref, -2)


# ---------------------------------------------------------------------------
# dense reference implementations (oracles) for the binomial kernel


def _dense_mul(f: PPoly, g: PPoly) -> PPoly:
    """Schoolbook product of two PPolys; the library has none, every product
    there goes through the binomials p^d - 1."""
    out = [0] * (len(f.body) + len(g.body) - 1) if f and g else []
    for i, a in enumerate(f.body):
        for j, b in enumerate(g.body):
            out[i + j] += a * b
    return PPoly(out, f.val + g.val)


def _dense_prod(factors, start: PPoly = PPoly.const(1)) -> PPoly:
    return reduce(_dense_mul, factors, start)


def binomial(d: int) -> PPoly:
    """p^d - 1 as a dense polynomial."""
    return PPoly((-1,) + (0,) * (d - 1) + (1,))


def _try_exact_div(f: PPoly, g: PPoly):
    """Exact quotient f/g if it exists in Z[p], else None, by dense long division.

    Works low-end first, so the constant coefficient of g must be a unit
    (true for every cyclotomic polynomial and p^d - 1); raises ValueError
    otherwise.
    """
    gc = g.coeffs
    if not gc:
        raise ZeroDivisionError("polynomial division by zero")
    g0 = gc[0]
    if g0 not in (1, -1):
        raise ValueError("divisor needs a unit constant coefficient")
    if not f.coeffs:
        return PPoly()
    rem = list(f.coeffs)
    nq = len(rem) - len(gc) + 1
    if nq <= 0:
        return None
    quot = [0] * nq
    for i in range(nq):
        c = rem[i]
        if c:
            c = c * g0
            quot[i] = c
            for k, gk in enumerate(gc):
                rem[i + k] -= c * gk
    if any(rem[nq:]) or any(rem[:nq]):
        return None
    return PPoly(quot)


@cache
def _dense_cyclotomic(l: int) -> PPoly:
    """Phi_l as p^l - 1 over the product of the lower Phi_d, d | l, by dense division."""
    lower = _dense_prod(map(_dense_cyclotomic, divisors(l)[:-1]))
    quot = _try_exact_div(binomial(l), lower)
    if quot is None:
        raise AssertionError(f"cyclotomic division left a remainder at l={l}")
    return quot


def _dense_power(f: PPoly, e: int) -> PPoly:
    return _dense_prod([f] * e)


def _dense_expand(u: FactoredPPoly) -> PPoly:
    """FactoredPPoly.expand by dense products of the dense Phi_l."""
    phis = [_dense_power(_dense_cyclotomic(l), e) for l, e in u.exponents.items()]
    return _dense_prod(phis, PPoly.const(u.unit)).shift(u.p_power)


def test_try_exact_div():
    f = PPoly([1, 2, 2, 1])  # [3]_p!
    g = PPoly([1, 1])
    assert _try_exact_div(f, g) == PPoly([1, 1, 1])
    assert _try_exact_div(PPoly([1, 1, 1]), g) is None
    assert gauss_factorial(6).ord_at(2) == 3


@pytest.mark.parametrize("g", [PPoly([2, 1]), PPoly([0, 1]), PPoly([3])])
def test_try_exact_div_rejects_non_unit_constant(g):
    with pytest.raises(ValueError):
        _try_exact_div(PPoly([1, 2, 1]), g)


_ints = st.lists(st.integers(-50, 50), min_size=1, max_size=40)


@settings(max_examples=60, deadline=None)
@given(_ints, _ints, st.sampled_from([1, -1]))
def test_try_exact_div_round_trip(f, g_rest, g0):
    f, g = PPoly(f), PPoly([g0] + g_rest)
    assert _try_exact_div(_dense_mul(f, g), g) == f
    if g.degree >= 1:  # g cannot divide f*g + 1
        assert _try_exact_div(_dense_mul(f, g) + PPoly.const(1), g) is None


@settings(max_examples=60, deadline=None)
@given(_ints, st.integers(1, 30))
def test_binomial_round_trip(f, d):
    f = PPoly(f)
    g = f.mul_binomial(d)
    assert g == _dense_mul(f, binomial(d))
    assert g.div_binomial(d) == f
    if f:  # p^d - 1 cannot divide f·(p^d - 1) + 1
        assert (g + PPoly.const(1)).div_binomial(d) is None


@settings(max_examples=100, deadline=None)
@given(_ints, st.integers(1, 30))
def test_div_binomial_matches_dense_division(f, d):
    f = PPoly(f)
    assert f.div_binomial(d) == _try_exact_div(f, binomial(d))


def test_binomial_rejects_nonpositive_exponent():
    for op in (PPoly.mul_binomial, PPoly.div_binomial):
        with pytest.raises(ValueError):
            op(PPoly([1, 1]), 0)


# ---------------------------------------------------------------------------
# Laurent polynomials p^val·body against a plain oracle: {exponent: coefficient}


_laurent = st.tuples(st.lists(st.integers(-5, 5), max_size=8), st.integers(-6, 6))


@settings(max_examples=300, deadline=None)
@given(_laurent, st.integers(-2, 10), st.booleans())
@example(([], 0), 3, False)  # zero divides by anything
@example(([1, -1], -4), 2, False)  # a body no longer than d
@example(([2, 0, -1], 5), 1, True)
@example(([1], 0), 0, False)
def test_divisible_by_binomial_matches_div_binomial(f, d, times):
    F = PPoly(*f)
    if d < 1:
        for op in (PPoly.div_binomial, PPoly.divisible_by_binomial):
            with pytest.raises(ValueError, match="exponent must be positive"):
                op(F, d)
        return
    if times:  # f·(p^d - 1) puts the divisible case among the draws
        F = F.mul_binomial(d)
    assert F.divisible_by_binomial(d) == (F.div_binomial(d) is not None)


def _terms(f: PPoly) -> dict[int, int]:
    """f's nonzero coefficients by exponent; checks that body is trimmed at both ends."""
    assert (f.body[0] and f.body[-1]) if f.body else f.val == 0
    return {f.val + i: c for i, c in enumerate(f.body) if c}


def _dense(coeffs, val) -> dict[int, int]:
    return {val + i: c for i, c in enumerate(coeffs) if c}


def _dense_times(f: dict, g: dict) -> dict[int, int]:
    out: dict[int, int] = {}
    for a, x in f.items():
        for b, y in g.items():
            out[a + b] = out.get(a + b, 0) + x * y
    return {e: c for e, c in out.items() if c}


def _dense_quotient(f: dict, g: tuple):
    """f/g by long division from the lowest exponent, g dense with g[0] = ±1; None unless exact."""
    if not f:
        return {}
    lo = min(f)
    rem = [f.get(e, 0) for e in range(lo, max(f) + 1)]
    nq = len(rem) - len(g) + 1
    if nq <= 0:
        return None
    quot = [0] * nq
    for i in range(nq):
        quot[i] = c = rem[i] * g[0]
        for k, gk in enumerate(g):
            rem[i + k] -= c * gk
    return None if any(rem) else _dense(quot, lo)


class TestLaurentAgainstDense:
    @settings(max_examples=200, deadline=None)
    @given(_laurent, _laurent, st.integers(-6, 6))
    def test_ring_operations_and_shift(self, f, g, k):
        F, G, df, dg = PPoly(*f), PPoly(*g), _dense(*f), _dense(*g)
        assert _terms(F) == df
        for got, sign in ((F + G, 1), (F - G, -1)):
            want = {e: df.get(e, 0) + sign * dg.get(e, 0) for e in df | dg}
            assert _terms(got) == {e: c for e, c in want.items() if c}
        assert _terms(_dense_mul(F, G)) == _dense_times(df, dg)
        assert _terms(F.shift(k)) == {e + k: c for e, c in df.items()}
        if F.val >= 0:
            assert F.coeffs == tuple(df.get(e, 0) for e in range(F.degree + 1))

    @settings(max_examples=200, deadline=None)
    @given(_laurent, st.integers(1, 6))
    def test_binomial_kernels(self, f, d):
        F, df = PPoly(*f), _dense(*f)
        binom = (-1,) + (0,) * (d - 1) + (1,)
        assert _terms(F.mul_binomial(d)) == _dense_times(df, _dense(binom, 0))
        assert _terms(F.mul_binomial(d).div_binomial(d)) == df
        q, want = F.div_binomial(d), _dense_quotient(df, binom)
        assert (q is None) == (want is None) and (q is None or _terms(q) == want)

    @settings(max_examples=100, deadline=None)
    @given(_laurent, st.integers(1, 12), st.integers(0, 2), st.sampled_from([None, 1]))
    def test_ord_at(self, f, l, extra, cap):
        phi, df = _dense_cyclotomic(l).coeffs, _dense(*f)
        assume(df)
        for _ in range(extra):
            df = _dense_times(df, _dense(phi, 0))
        n, cur = 0, df
        while (cap is None or n < cap) and (cur := _dense_quotient(cur, phi)) is not None:
            n += 1
        lo = min(df)
        assert PPoly([df.get(e, 0) for e in range(lo, max(df) + 1)], lo).ord_at(l, cap) == n


def _dense_ord(f, l, cap=None):
    """ord at Phi_l by repeated dense division: the oracle for ord_at."""
    n, phi = 0, _dense_cyclotomic(l)
    while cap is None or n < cap:
        q = _try_exact_div(f, phi)
        if q is None:
            return n
        f, n = q, n + 1
    return n


@settings(max_examples=80, deadline=None)
@given(
    st.dictionaries(st.integers(1, 60), st.integers(1, 3), max_size=4),
    st.lists(st.integers(-20, 20), min_size=1, max_size=12).filter(any),
    st.integers(1, 60),
    st.integers(0, 3),
    st.one_of(st.none(), st.integers(0, 4)),
)
def test_ord_at_matches_dense_division(exponents, cofactor, l, extra, cap):
    factors = [PPoly(cofactor), _dense_power(cyclotomic(l), extra)]
    f = _dense_prod(factors, FactoredPPoly(exponents).expand())
    k, rest = f.split_cyclotomic(l, cap)
    assert f.ord_at(l, cap) == k == _dense_ord(f, l, cap)
    assert _dense_mul(rest, _dense_power(_dense_cyclotomic(l), k)) == f
    if cap is None or k < cap:
        assert _try_exact_div(rest, _dense_cyclotomic(l)) is None
    q = f.div_cyclotomic(l)
    assert q == _try_exact_div(f, _dense_cyclotomic(l))


def test_split_cyclotomic_rejects_zero():
    for split in (PPoly().split_cyclotomic, PPoly().ord_at):
        with pytest.raises(ValueError):
            split(3)


def test_chained_sweep_matches_independent_orders():
    """Phi_l divided out from the largest l down, each on the cofactor the
    larger l left, gives every l the order ord_at finds on the whole [n]_p!,
    and leaves 1."""
    for n in range(2, 41):
        fact = rest = gauss_factorial(n)
        for l in range(n, 1, -1):
            k, rest = rest.split_cyclotomic(l)
            assert k == fact.ord_at(l) == n // l
        assert rest == PPoly.const(1)


@settings(max_examples=100, deadline=None)
@given(
    _ints,
    st.dictionaries(st.integers(1, 60), st.integers(0, 3), max_size=5),
)
def test_times_cyclotomics_matches_dense_product(f, exps):
    f = PPoly(f)
    want = _dense_prod([_dense_power(_dense_cyclotomic(l), e) for l, e in exps.items()], f)
    assert f.times_cyclotomics(exps) == want


def gauss_number(n: int) -> PPoly:
    """[n]_p = (p^n - 1)/(p - 1) = 1 + p + ... + p^(n-1), the oracle's factor."""
    if n < 1:
        raise ValueError("gauss_number needs n >= 1")
    return PPoly((1,) * n)


def test_gauss_factorial_matches_product_of_gauss_numbers():
    for n in range(41):
        want = _dense_prod(map(gauss_number, range(1, n + 1)))
        assert gauss_factorial(n) == want


# ---------------------------------------------------------------------------
# factored products of cyclotomics

# unit·p^a·prod_{l<=30} Phi_l^e_l with signed exponents
units = st.builds(
    FactoredPPoly,
    st.dictionaries(st.integers(1, 30), st.integers(-3, 3), max_size=6),
    st.integers(-5, 5),
    st.sampled_from([1, -1]),
)
polynomial_units = st.builds(
    FactoredPPoly,
    st.dictionaries(st.integers(1, 30), st.integers(0, 3), max_size=6),
    st.integers(0, 5),
    st.sampled_from([1, -1]),
)
points = st.sampled_from([2, 3, 5, -2, -3])


class TestFactoredPPoly:
    @settings(deadline=None)
    @given(units, units, points)
    def test_product_value_is_product_of_values(self, u, v, p):
        assert (u * v).value_at(p) == u.value_at(p) * v.value_at(p)

    @given(units)
    def test_times_inverse_is_one(self, u):
        assert u * u.inv() == FactoredPPoly()

    @settings(deadline=None)
    @given(polynomial_units, points)
    def test_expand_agrees_with_value(self, u, p):
        assert u.expand()(p) == u.value_at(p)

    @settings(max_examples=100, deadline=None)
    @given(
        st.dictionaries(st.integers(1, 60), st.integers(0, 4), max_size=5),
        st.integers(0, 6),
        st.sampled_from([1, -1]),
    )
    def test_expand_matches_dense_product(self, exponents, p_power, unit):
        u = FactoredPPoly(exponents, p_power, unit)
        assert u.expand() == _dense_expand(u)

    def test_expand_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            FactoredPPoly({3: -1}).expand()
        with pytest.raises(ValueError):
            FactoredPPoly({3: 1}, p_power=-1).expand()

    def test_zero_exponents_are_dropped(self):
        assert FactoredPPoly({2: 0, 3: 1}) == FactoredPPoly({3: 1})


# ---------------------------------------------------------------------------
# Gaussian numbers and factorials


def test_gauss_number_small():
    assert gauss_number(1) == PPoly([1])
    assert gauss_number(4) == PPoly([1, 1, 1, 1])
    with pytest.raises(ValueError):
        gauss_number(0)


def test_gauss_factorial_example():
    assert gauss_factorial(3) == PPoly([1, 2, 2, 1])
    assert gauss_factorial(0) == PPoly([1])


def test_gauss_factorial_degree_and_value():
    for n in range(1, 12):
        f = gauss_factorial(n)
        assert f.degree == n * (n - 1) // 2
        # at p = 1 the q-analogue degenerates to the ordinary factorial
        assert f(1) == math.factorial(n)


def test_factorial_vs_unnormalized_product():
    # [n]_p! * (p-1)^n = prod_{v<=n} (p^v - 1)
    for n in range(1, 21):
        lhs = _dense_mul(gauss_factorial(n), _dense_power(PPoly([-1, 1]), n))
        rhs = _dense_prod(map(binomial, range(1, n + 1)))
        assert lhs == rhs


# ---------------------------------------------------------------------------
# cyclotomics


def test_cyclotomic_small_values():
    assert cyclotomic(1) == PPoly([-1, 1])
    assert cyclotomic(2) == PPoly([1, 1])
    assert cyclotomic(6) == PPoly([1, -1, 1])
    assert cyclotomic(12) == PPoly([1, 0, -1, 0, 1])


def test_cyclotomic_product_identity():
    for l in list(range(1, 41)) + [48, 60, 105]:
        prod = _dense_prod(map(cyclotomic, divisors(l)))
        assert prod == binomial(l)


def test_cyclotomic_matches_dense_division():
    # 210 and 2310 have omega(l) = 4 and 5: 16 and 32 binomials
    for l in [*range(1, 121), 210, 2310]:
        assert cyclotomic(l) == _dense_cyclotomic(l)


def test_cyclotomic_degree_and_palindrome():
    for l in range(2, 80):
        phi = cyclotomic(l)
        assert phi.degree == totient(l)
        assert phi.coeffs == phi.coeffs[::-1]


def test_cyclotomic_value_cross_check():
    # phi(p) is Horner on the coefficients; at p = ±1 factors of the Moebius
    # product vanish
    for l in range(1, 61):
        phi = cyclotomic(l)
        for p in (2, 3, -2, 10, -1, 0, 1):
            assert phi(p) == cyclotomic_value(l, p), (l, p)


def test_mobius_basics():
    assert [mobius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


# ---------------------------------------------------------------------------
# D_n(p)


def _frac_divrem(f, g):
    """Long division over Q on ascending Fraction coefficient lists."""
    f = [Fraction(c) for c in f]
    g = [Fraction(c) for c in g]
    while g and g[-1] == 0:
        g.pop()
    q = [Fraction(0)] * max(0, len(f) - len(g) + 1)
    r = f[:]
    while len(r) >= len(g) and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) < len(g):
            break
        c = r[-1] / g[-1]
        d = len(r) - len(g)
        q[d] = c
        for i, gc in enumerate(g):
            r[d + i] -= c * gc
        r.pop()
    return q, r


def _frac_gcd(f, g):
    a = [Fraction(c) for c in f]
    b = [Fraction(c) for c in g]
    while any(b):
        _, r = _frac_divrem(a, b)
        while r and r[-1] == 0:
            r.pop()
        a, b = b, r
    while a and a[-1] == 0:
        a.pop()
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def _lcm_of_q_numbers(n):
    """gcd-based lcm of p^v - 1 for v = 1..n, monic over Q."""
    lcm = [Fraction(1)]
    for v in range(1, n + 1):
        f = [Fraction(c) for c in binomial(v).coeffs]
        g = _frac_gcd(lcm, f)
        prod = [Fraction(0)] * (len(lcm) + len(f) - 1)
        for i, a in enumerate(lcm):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        q, r = _frac_divrem(prod, g)
        assert not any(r)
        lcm = q
    return lcm


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12, 20])
def test_dnp_equals_gcd_based_lcm(n):
    expanded = dnp(n).expand()
    assert [Fraction(c) for c in expanded.coeffs] == _lcm_of_q_numbers(n)


def test_dnp_structure():
    assert dnp(1).expand() == PPoly([-1, 1])
    assert dnp(10).expand().degree == 32
    f = dnp(8)
    assert f.expand()(3) == f.value_at(3)
    assert f.exponents == {l: 1 for l in range(1, 9)}


# ---------------------------------------------------------------------------
# orders of cyclotomics in factorials


def test_ord_formula_matches_division_small():
    for n in range(2, 21):
        f = gauss_factorial(n)
        for l in range(2, n + 1):
            assert f.ord_at(l) == ord_phi_factorial(l, n) == n // l


def test_ord_formula_diagonal_n60():
    f = gauss_factorial(60)
    for l in (2, 3, 7, 12, 30, 59, 60):
        assert f.ord_at(l) == 60 // l


def test_ord_rejects_l_one():
    with pytest.raises(ValueError):
        ord_phi_factorial(1, 10)
    # Phi_1 = p - 1 indeed never divides a Gaussian factorial
    assert gauss_factorial(12).ord_at(1) == 0


# ---------------------------------------------------------------------------
# Mertens ratio and totient block sums


def test_mertens_example():
    assert mertens_ratio(2, 2) == pytest.approx(math.log(3) / (4 * math.log(2)))


def test_mertens_tends_to_constant():
    target = 3 / math.pi**2
    assert abs(mertens_ratio(120, 2) - target) < 0.08
    r200 = mertens_ratio(200, 2)
    r100 = mertens_ratio(100, 2)
    assert abs(r200 - target) < abs(r100 - target) + 0.01


def test_phi_block_sum_half_to_one():
    # the [1/2, 1) block carries full density 1 in the limit
    val = phi_block_sum(200, 2, Fraction(1, 2), Fraction(1, 1))
    assert abs(val - 1.0) < 0.15


def test_phi_block_sum_rejects_bad_window():
    with pytest.raises(ValueError):
        phi_block_sum(100, 2, Fraction(0), Fraction(1, 2))
    with pytest.raises(ValueError):
        phi_block_sum(100, 2, Fraction(2, 3), Fraction(1, 3))


# ---------------------------------------------------------------------------
# trigamma


def test_trigamma_closed_forms():
    assert float(trigamma(1).mid) == pytest.approx(math.pi**2 / 6, abs=1e-13)
    assert float(trigamma(Fraction(1, 2)).mid) == pytest.approx(math.pi**2 / 2, abs=1e-13)
    assert float(trigamma(2).mid) == pytest.approx(math.pi**2 / 6 - 1, abs=1e-13)


def test_trigamma_recurrence_grid():
    # psi'(x) = psi'(x+1) + 1/x^2, so the two enclosures meet once shifted
    for i in range(1, 101):
        x = Fraction(i, 20)
        a, b = trigamma(x), trigamma(x + 1)
        assert a.gap(b + 1 / (x * x)) == 0
        assert abs(float(a.mid) - float(b.mid) - float(1 / (x * x))) < 1e-12


def test_trigamma_against_direct_series():
    big = 20000
    for x in (Fraction(1, 3), Fraction(5, 7), Fraction(3, 2)):
        s = sum(1.0 / float((x + j) * (x + j)) for j in range(big))
        lo = s + 1.0 / float(x + big)
        hi = s + 1.0 / float(x + big - 1)
        val = float(trigamma(x).mid)
        assert lo - 1e-9 <= val <= hi + 1e-9


def _bernoulli(n: int) -> list[Fraction]:
    """B_0..B_n from sum_{k<=m} C(m+1, k)·B_k = 0, independently of parith's table."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(math.comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return b


def _trigamma_reference(x: Fraction, shift: int) -> tuple[Fraction, Fraction]:
    """psi'(x) and a bound on its error: trigamma's recurrence moved to
    >= shift, then the asymptotic series through B_14, all exact; the series
    envelops psi', so the first omitted term |B_16|/y^17 bounds the tail."""
    b = _bernoulli(16)
    value, y = Fraction(0), x
    while y < shift:
        value += 1 / (y * y)
        y += 1
    value += 1 / y + 1 / (2 * y * y)
    value += sum(b[2 * k] / y ** (2 * k + 1) for k in range(1, 8))
    return value, abs(b[16]) / y**17


def test_trigamma_abs_err_bounds_the_true_error():
    grid = sorted({Fraction(i, 32) for i in range(1, 641, 11)} | {Fraction(1, 32), Fraction(20)}
                  | {Fraction(i, d) for d in (3, 7, 10) for i in range(1, 20 * d + 1, 9)})  # fmt: skip
    for x in grid:
        ref, tail = _trigamma_reference(x, 64)
        try:
            t = trigamma(x)
        except ValueError:  # a float near psi'(x) > 450 carries no 1e-13 absolute
            assert ref > 450, x
            continue
        assert ref < 451, x
        # the mid's float is within 1e-13 of psi'(x)
        assert abs(Fraction(float(t.mid)) - ref) + tail <= Fraction(1e-13), x
        # the enclosure holds psi'(x), its radius the series' first omitted term at >= 16
        assert abs(t.mid - ref) + tail <= t.width / 2 == _trigamma_reference(x, 16)[1], x


def test_trigamma_rejects_bad_input():
    with pytest.raises(ValueError):
        trigamma(0)
    with pytest.raises(ValueError):
        trigamma(Fraction(-3, 2))
    # psi'(1/32) > 1000, where a float carries no 1e-13 absolute
    with pytest.raises(ValueError, match="exceeded 1e-13"):
        trigamma(Fraction(1, 32))
