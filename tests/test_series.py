"""The series enclosure of linforms, which needs no form and no builder.

The exact-term kernel `_sum_series` is checked against exact partial sums
of the series (test_linforms.heine_terms), each term floored and ceiled
once (`rounded_ends`); then the sizing of `numeric_form_value`, and
`_runs`, the runs of indices that telescope the ratio of two terms.
"""

import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_linforms import heine_terms

from qzeta import linforms
from qzeta.linforms import (
    BV,
    THEOREM1,
    THEOREM2,
    _runs,
    _sum_series,
    numeric_form_value,
    summand,
)
from qzeta.params import ParamsZ1, ParamsZ2

# -- oracle -----------------------------------------------------------------


def exact_tail(params, p: int, terms: int) -> Fraction:
    """|C| times the bound on sum_{t>=T} |S(q^t)|, all in Fractions."""
    s = summand(params)
    q, aq = Fraction(1, p), Fraction(1, abs(p))
    c = Fraction(1)
    for j in s.prefactor_num:
        c *= 1 - q**j
    for j in s.prefactor_den:
        c /= 1 - q**j
    tail = aq ** (s.expo * terms) / (1 - aq**s.expo)
    for i in s.num_i:
        tail *= 1 + aq**i
    for j, m in s.mult:
        tail /= (1 - aq ** (j + terms)) ** m
    return abs(c) * tail


def rounded_ends(params, p: int, terms: int, prec: int) -> tuple[int, int, int]:
    """Sums of floor and of ceil of the exact terms at scale 2^prec, and the
    widening ceil(|C|·tail·2^prec)."""
    scale = 1 << prec
    exact = heine_terms(params, terms, p)
    lo = sum(math.floor(v * scale) for v in exact)
    hi = sum(math.ceil(v * scale) for v in exact)
    return lo, hi, math.ceil(exact_tail(params, p, terms) * scale)


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


# -- the recursion against exact sums and the oracle ------------------------


def same_as_oracle(params, p: int, terms: int, prec: int):
    """The kernel's enclosure, checked bit for bit against rounded_ends."""
    enc = _sum_series(summand(params), p, terms, prec)
    lo, hi, w = rounded_ends(params, p, terms, prec)
    unit = Fraction(1, 1 << prec)
    assert (enc.lo, enc.hi) == ((lo - w) * unit, (hi + w) * unit)
    return enc


@settings(max_examples=150, deadline=None)
@given(st.one_of(params_z1(), params_z2()), PS, st.integers(0, 40), st.integers(1, 400))
def test_recursion_against_exact_sum_and_oracle(params, p, terms, prec):
    enc = same_as_oracle(params, p, terms, prec)
    # the exact partial sum, widened by |C|·tail, lies inside the enclosure
    exact, tail = sum(heine_terms(params, terms, p)), exact_tail(params, p, terms)
    assert enc.lo <= exact - tail and exact + tail <= enc.hi
    # each term rounds by at most one unit, the widening by less than one per end
    lo, hi, w = rounded_ends(params, p, terms, prec)
    unit = Fraction(1, 1 << prec)
    assert 0 <= hi - lo <= terms
    assert enc.width == (hi - lo + 2 * w) * unit <= (terms + 2) * unit + 2 * tail


@pytest.mark.parametrize("p", [2, 3, -3])
@pytest.mark.parametrize(
    "family, n",
    [(BV, 25), (THEOREM1, 3), (THEOREM2, 6)],
    ids=["bv25", "theorem1-3", "theorem2-6"],
)
def test_recursion_against_oracle_on_family_members(family, n, p):
    same_as_oracle(family.params(n), p, 200, 320)


def test_first_term_is_the_direct_product():
    # one term is the exact first term floored and ceiled, before any ratio step
    for params in (THEOREM1.params(1), THEOREM2.params(1), BV.params(3)):
        enc = same_as_oracle(params, 3, 1, 128)
        (first,) = heine_terms(params, 1, 3)
        assert enc.lo < first < enc.hi


# -- the sized enclosure ------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.one_of(params_z1(), params_z2()), PS, st.integers(1, 400))
def test_sized_enclosure_is_narrow_and_meets_the_exact_sum(params, p, bits):
    enc = numeric_form_value(params, p, bits)
    assert enc.width < Fraction(1, 1 << bits)
    # F lies within the exact partial sum +- |C|·tail, at a count whose tail
    # is about 2^-bits
    terms = bits // (summand(params).expo * (abs(p).bit_length() - 1)) + 2
    exact, tail = sum(heine_terms(params, terms, p)), exact_tail(params, p, terms)
    assert enc.lo <= exact + tail and exact - tail <= enc.hi


@pytest.mark.parametrize("p", [2, -2, 3])
def test_sized_enclosure_on_family_members(p):
    for params in (BV.params(25), THEOREM1.params(3), THEOREM2.params(6)):
        exact, tail = sum(heine_terms(params, 80, p)), exact_tail(params, p, 80)
        assert tail < Fraction(1, 1 << 1300)
        for bits in (1, 64, 320, 1200):
            enc = numeric_form_value(params, p, bits)
            assert enc.width < Fraction(1, 1 << bits)
            assert enc.lo <= exact + tail and exact - tail <= enc.hi


def test_an_enclosure_too_wide_is_refused(monkeypatch):
    # the postcondition, not the caller, catches an undersized summation
    kernel = linforms._sum_series

    def one_term(s, p, terms, prec):
        return kernel(s, p, 1, prec)

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
    s = summand(params)
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
