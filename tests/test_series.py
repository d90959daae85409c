"""The series enclosure: the telescoped ratio recursion (linforms._sum_series)
against the direct per-term summation (the oracle below) and against exact
partial sums of the series, and the sizing of numeric_form_value."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_linforms import heine_terms

from qzeta import linforms
from qzeta.dyadic import Interval
from qzeta.linforms import (
    BV,
    THEOREM1,
    THEOREM2,
    ParamsZ1,
    ParamsZ2,
    _runs,
    _sum_series,
    numeric_form_value,
    summand_z1,
    summand_z2,
)

# -- oracle -----------------------------------------------------------------


def direct_form_value(params, p: int, terms: int, prec: int) -> tuple[Interval, Fraction]:
    """The earlier series summation: every factor of every term rebuilt."""
    s = summand_z1(params) if isinstance(params, ParamsZ1) else summand_z2(params)
    q = Fraction(1, p)
    qq = Interval.exact(q, prec)
    c = Interval.exact(1, prec)
    for j in s.prefactor_num:
        c = c * (1 - qq.pow(j))
    for j in s.prefactor_den:
        c = c / (1 - qq.pow(j))
    qi = {i: qq.pow(i) for i in s.num_i}
    qj = {j: qq.pow(j) for j, _ in s.mult}
    qe = qq.pow(s.expo)
    acc = Interval.exact(0, prec)
    x = Interval.exact(1, prec)  # q^t
    xe = Interval.exact(1, prec)  # q^(expo·t)
    for _ in range(terms):
        v = c * xe
        for i in s.num_i:
            v = v * (1 - qi[i] * x)
        for j, m in s.mult:
            v = v / (1 - qj[j] * x).pow(m)
        acc = acc + v
        x = x * qq
        xe = xe * qe
    aq = abs(q)
    tail = aq ** (s.expo * terms) / (1 - aq**s.expo)
    for i in s.num_i:
        tail *= 1 + aq**i
    for j, m in s.mult:
        tail /= (1 - aq ** (j + terms)) ** m
    tail_bound = max(abs(c.lo), abs(c.hi)) * tail
    return acc.widen(tail_bound), tail_bound


# -- strategies -------------------------------------------------------------


@st.composite
def params_z1(draw):
    b = draw(st.integers(2, 12))
    a1 = draw(st.integers(1, b - 1))
    a2 = draw(st.integers(1, b - a1))
    a0 = draw(st.integers(max(1, b + 1 - a1 - a2), b + 2))
    return ParamsZ1(a0, a1, a2, b)


@st.composite
def params_z2(draw):
    b2, b3 = draw(st.integers(2, 10)), draw(st.integers(2, 10))
    a = draw(st.lists(st.integers(1, min(b2, b3) - 1), min_size=3, max_size=3))
    params = ParamsZ2(*a, b2, b3)
    assume(params.admissible)
    return params


PS = st.sampled_from([2, 3, -2, -3, 5])


def summand(params):
    return summand_z1(params) if isinstance(params, ParamsZ1) else summand_z2(params)


# -- the recursion against exact sums and the oracle ------------------------


@settings(max_examples=150, deadline=None)
@given(st.one_of(params_z1(), params_z2()), PS, st.integers(0, 40), st.integers(64, 320))
def test_recursion_against_exact_sum_and_oracle(params, p, terms, prec):
    enc, tail = _sum_series(summand(params), p, terms, prec)
    # the exact partial sum, widened by the tail, lies inside the enclosure
    exact = sum(heine_terms(params, terms, p))
    assert enc.lo <= exact - tail and exact + tail <= enc.hi
    # the direct summation gives the same tail, and an enclosure that meets
    # this one and is at least half as wide
    enc_o, tail_o = direct_form_value(params, p, terms, prec)
    assert tail == tail_o
    assert enc.overlaps(enc_o)
    assert enc.width <= 2 * enc_o.width


@pytest.mark.parametrize("p", [2, 3, -3])
@pytest.mark.parametrize(
    "family, n",
    [(BV, 25), (THEOREM1, 3), (THEOREM2, 6)],
    ids=["bv25", "theorem1-3", "theorem2-6"],
)
def test_recursion_against_oracle_on_family_members(family, n, p):
    enc, tail = _sum_series(summand(family.params(n)), p, 200, 320)
    enc_o, tail_o = direct_form_value(family.params(n), p, 200, 320)
    assert tail == tail_o
    assert enc.overlaps(enc_o) and enc.width <= 2 * enc_o.width


def test_first_term_is_the_direct_product():
    # one term is the oracle's first term exactly, before any ratio step
    for params in (THEOREM1.params(1), THEOREM2.params(1), BV.params(3)):
        enc, _ = _sum_series(summand(params), 3, 1, 128)
        enc_o, _ = direct_form_value(params, 3, 1, 128)
        assert (enc.lo, enc.hi) == (enc_o.lo, enc_o.hi)


# -- the sized enclosure ------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.one_of(params_z1(), params_z2()), PS, st.integers(1, 400))
def test_sized_enclosure_is_narrow_and_meets_the_exact_sum(params, p, bits):
    enc = numeric_form_value(params, p, bits)
    assert enc.width < Fraction(1, 1 << bits)
    # F lies within the exact partial sum +- the oracle's tail, at a count
    # whose tail is about 2^-bits
    terms = bits // (summand(params).expo * (abs(p).bit_length() - 1)) + 2
    exact = sum(heine_terms(params, terms, p))
    _, tail = direct_form_value(params, p, terms, bits + 64)
    assert enc.lo <= exact + tail and exact - tail <= enc.hi


@pytest.mark.parametrize("p", [2, -2, 3])
def test_sized_enclosure_on_family_members(p):
    for params in (BV.params(25), THEOREM1.params(3), THEOREM2.params(6)):
        fine, _ = direct_form_value(params, p, 80, 1400)  # width < 2^-1300
        for bits in (1, 64, 320, 1200):
            enc = numeric_form_value(params, p, bits)
            assert enc.width < Fraction(1, 1 << bits)
            assert enc.lo <= fine.hi and fine.lo <= enc.hi


def test_an_enclosure_too_wide_is_refused(monkeypatch):
    # the postcondition, not the caller, catches an undersized summation
    def one_term(s, p, terms, prec):
        return direct_form_value(THEOREM1.params(1), p, 1, prec)

    monkeypatch.setattr(linforms, "_sum_series", one_term)
    with pytest.raises(AssertionError, match=r"not below 2\^-64"):
        numeric_form_value(THEOREM1.params(1), 2, 64)


# -- runs --------------------------------------------------------------------


def rebuilt(runs) -> dict[int, int]:
    """Multiplicity of each index over the runs lo..hi."""
    return dict(Counter(j for lo, hi in runs for j in range(lo, hi + 1)))


def layer_run_count(mult) -> int:
    """Number of maximal runs of consecutive indices, summed over the layers."""
    m = dict(mult)
    return sum(m[j] - min(m[j], m.get(j - 1, 0)) for j in m)


@pytest.mark.parametrize(
    "family, n, num_runs, pole_runs",
    [
        (BV, 25, [(1, 25)], [(26, 51)]),
        (THEOREM1, 1, [(1, 6)], [(9, 15)]),
        (THEOREM2, 6, [(1, 30)], [(37, 91), (43, 85)]),
    ],
    ids=["bv25", "theorem1-1", "theorem2-6"],
)
def test_runs_of_family_members(family, n, num_runs, pole_runs):
    params = family.params(n)
    s = summand_z1(params) if isinstance(params, ParamsZ1) else summand_z2(params)
    assert _runs([(i, 1) for i in s.num_i]) == num_runs
    assert _runs(s.mult) == pole_runs
    assert rebuilt(pole_runs) == dict(s.mult)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.integers(1, 40), st.integers(1, 4), max_size=25))
def test_runs_rebuild_the_multiplicities(m):
    mult = tuple(sorted(m.items()))
    runs = _runs(mult)
    assert rebuilt(runs) == m
    assert len(runs) == layer_run_count(mult)
    assert all(lo <= hi for lo, hi in runs)
