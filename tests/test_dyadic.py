"""Enclosures with exact Fraction ends, and the one outward rounding.

`outward` is checked against math.floor / math.ceil on signed Fractions, the
predicates against plain Fraction comparisons, and a whole sized series
summation against the exact-term oracle of test_series.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_series import rounded_ends

from qzeta import linforms
from qzeta.dyadic import Enclosure, outward
from qzeta.linforms import BV, THEOREM1, numeric_form_value

PRECS = (0, 1, 8, 64, 256, 320)

scalars = st.one_of(
    st.integers(-(2**80), 2**80),
    st.fractions(max_denominator=10**6),
    st.builds(Fraction, st.integers(-(2**400), 2**400), st.integers(1, 2**400)),
)


def floor_ceil(lo: Fraction, hi: Fraction, prec: int) -> tuple[Fraction, Fraction]:
    scale = 1 << prec
    return Fraction(math.floor(lo * scale), scale), Fraction(math.ceil(hi * scale), scale)


@st.composite
def enclosures(draw):
    lo, hi = sorted(Fraction(draw(scalars)) for _ in range(2))
    return Enclosure(lo, hi)


# -- outward rounding ---------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(scalars, st.sampled_from(PRECS))
def test_exact_matches(v, prec):
    # a single value, of either sign, rounds to its floor and ceiling on the grid
    enc = outward(v, v, prec)
    assert tuple(enc) == floor_ceil(Fraction(v), Fraction(v), prec)
    assert enc.contains(v)
    assert enc.width <= Fraction(1, 1 << prec)


@settings(max_examples=300, deadline=None)
@given(enclosures(), st.sampled_from(PRECS))
def test_outward_rounds_signed_fractions(x, prec):
    enc = outward(x.lo, x.hi, prec)
    assert tuple(enc) == floor_ceil(x.lo, x.hi, prec)
    assert enc.lo <= x.lo and x.hi <= enc.hi
    assert enc.width < x.width + Fraction(2, 1 << prec)
    # the ends are on the grid, so rounding again changes nothing
    assert outward(enc.lo, enc.hi, prec) == enc


def test_int_operands_scale_exactly():
    for v in (0, 1, -1, 2**200, -(3**150)):
        for prec in PRECS:
            assert outward(v, v, prec) == (v, v)
    assert outward(-3, 2**200, 0) == (-3, 2**200)


@settings(max_examples=100, deadline=None)
@given(enclosures(), st.sampled_from(PRECS))
def test_errors_match(x, prec):
    # outward refuses exactly the inverted pairs, on every grid
    if x.lo < x.hi:
        with pytest.raises(ValueError, match="empty"):
            outward(x.hi, x.lo, prec)
    assert outward(x.lo, x.hi, prec).contains(x.hi)


def test_error_cases():
    with pytest.raises(ValueError, match="empty"):
        outward(1, 0, 8)
    with pytest.raises(ValueError, match="empty"):
        outward(Fraction(-1, 3), Fraction(-1, 2), 64)


def test_empty_interval_rejected_before_rounding():
    # rounded first, this inverted pair would have become [0, 1/2]
    with pytest.raises(ValueError, match="empty"):
        outward(Fraction(3, 10), Fraction(1, 5), 1)


# -- predicates ---------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(enclosures(), scalars)
def test_contains_matches(x, v):
    tiny = Fraction(1, 2**500)
    for probe in (v, 0, x.lo, x.hi, (x.lo + x.hi) / 2, x.lo - tiny, x.hi + tiny):
        assert x.contains(probe) == (x.lo <= probe <= x.hi)


def test_contains_zero():
    assert Enclosure(Fraction(-1, 3), Fraction(1, 7)).contains(0)
    assert Enclosure(Fraction(0), Fraction(1, 7)).contains(0)
    assert Enclosure(Fraction(-1, 7), Fraction(0)).contains(0)
    assert not Enclosure(Fraction(1, 2**400), Fraction(1)).contains(0)
    assert not Enclosure(Fraction(-1), Fraction(-1, 2**400)).contains(0)


@settings(max_examples=300, deadline=None)
@given(enclosures(), enclosures())
def test_overlaps_and_readback_match(x, y):
    assert x.overlaps(y) == y.overlaps(x) == (max(x.lo, y.lo) <= min(x.hi, y.hi))
    assert x.overlaps(x)
    assert x.width == x.hi - x.lo >= 0


def test_touching_ends_overlap():
    third = Fraction(1, 3)
    left, right = Enclosure(Fraction(-1), third), Enclosure(third, Fraction(2))
    assert left.overlaps(right) and right.overlaps(left)
    apart = Enclosure(third + Fraction(1, 2**400), Fraction(2))
    assert not left.overlaps(apart) and not apart.overlaps(left)


# -- a whole summation --------------------------------------------------------


@pytest.mark.parametrize("family, n", [(BV, 2), (THEOREM1, 1)])
@pytest.mark.parametrize("p", [2, -3])
def test_series_enclosure_matches(monkeypatch, family, n, p):
    """A whole sized summation gives the exact-term oracle's endpoints."""
    params = family.params(n)
    enc = numeric_form_value(params, p, 256)

    def oracle(s, p, terms, prec):
        lo, hi, w = rounded_ends(params, p, terms, prec)
        return Enclosure(Fraction(lo - w, 1 << prec), Fraction(hi + w, 1 << prec))

    monkeypatch.setattr(linforms, "_sum_series", oracle)
    assert numeric_form_value(params, p, 256) == enc
