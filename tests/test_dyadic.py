"""Enclosures with exact Fraction ends, their arithmetic and the one outward rounding.

`outward` is checked against math.floor / math.ceil on signed Fractions, the
predicates against plain Fraction comparisons, the arithmetic by inclusion
isotonicity (a point of e maps into the image of e), and a whole sized
series summation against the exact-term oracle of test_series.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_series import rounded_ends

from qzeta import linforms
from qzeta.dyadic import Enclosure
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
    enc = Enclosure(v, v).outward(prec)
    assert tuple(enc) == floor_ceil(Fraction(v), Fraction(v), prec)
    assert enc.contains(v)
    assert enc.width <= Fraction(1, 1 << prec)


@settings(max_examples=300, deadline=None)
@given(enclosures(), st.sampled_from(PRECS))
def test_outward_rounds_signed_fractions(x, prec):
    enc = x.outward(prec)
    assert tuple(enc) == floor_ceil(x.lo, x.hi, prec)
    assert enc.lo <= x.lo and x.hi <= enc.hi
    assert enc.width < x.width + Fraction(2, 1 << prec)
    # the ends are on the grid, so rounding again changes nothing
    assert enc.outward(prec) == enc


def test_int_operands_scale_exactly():
    for v in (0, 1, -1, 2**200, -(3**150)):
        for prec in PRECS:
            assert Enclosure(v, v).outward(prec) == (v, v)
    assert Enclosure(-3, 2**200).outward(0) == (-3, 2**200)


@settings(max_examples=100, deadline=None)
@given(enclosures(), st.sampled_from(PRECS))
def test_errors_match(x, prec):
    # an Enclosure refuses exactly the inverted pairs, before any rounding
    if x.lo < x.hi:
        with pytest.raises(ValueError, match="empty"):
            Enclosure(x.hi, x.lo)
    assert x.outward(prec).contains(x.hi)


def test_error_cases():
    with pytest.raises(ValueError, match="empty"):
        Enclosure(1, 0)
    with pytest.raises(ValueError, match="empty"):
        Enclosure(Fraction(-1, 3), Fraction(-1, 2))


def test_empty_interval_rejected_before_rounding():
    # rounded first, this inverted pair would have become [0, 1/2]
    with pytest.raises(ValueError, match="empty"):
        Enclosure(Fraction(3, 10), Fraction(1, 5)).outward(1)


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
    # gap is symmetric, never negative, and 0 exactly when the intervals meet
    meet = max(x.lo, y.lo) <= min(x.hi, y.hi)
    assert x.gap(y) == y.gap(x) >= 0
    assert (x.gap(y) == 0) == meet
    if not meet:
        assert x.gap(y) == max(x.lo, y.lo) - min(x.hi, y.hi)
    assert x.gap(x) == 0
    assert x.width == x.hi - x.lo >= 0
    assert x.mid == (x.lo + x.hi) / 2 and x.contains(x.mid)


def test_touching_ends_overlap():
    third = Fraction(1, 3)
    left, right = Enclosure(Fraction(-1), third), Enclosure(third, Fraction(2))
    assert left.gap(right) == right.gap(left) == 0
    apart = Enclosure(third + Fraction(1, 2**400), Fraction(2))
    assert left.gap(apart) == apart.gap(left) == Fraction(1, 2**400)


# -- arithmetic -----------------------------------------------------------------


signed = st.sampled_from([-1, 0, 1])


@st.composite
def points(draw):
    """An enclosure and a rational inside it."""
    x = draw(enclosures())
    t = draw(st.fractions(0, 1))
    return x, x.lo + t * x.width


@settings(max_examples=300, deadline=None)
@given(points(), scalars, signed)
def test_images_contain_the_images_of_points(point, c, sign):
    # x in e implies x + c in e + c, x - c in e - c and x·c in e·c, for c < 0, c = 0 and c > 0
    (e, x), c = point, sign * abs(Fraction(c))
    assert (e + c).contains(x + c) and (e - c).contains(x - c) and (e * c).contains(x * c)
    # the images are exact: the ends map to the ends
    assert e + c == Enclosure(e.lo + c, e.hi + c)
    assert e * c == Enclosure(*sorted((e.lo * c, e.hi * c)))
    assert (e * c).width == abs(c) * e.width


def test_float_operands_count_as_the_binary_rationals_they_are():
    e = Enclosure(Fraction(1, 3), 1)
    assert e + 0.1 == (Fraction(1, 3) + Fraction(0.1), 1 + Fraction(0.1))
    assert e * 0.1 == (Fraction(1, 3) * Fraction(0.1), Fraction(0.1))


def test_around():
    e = Enclosure.around(Fraction(1, 3), Fraction(1, 7))
    assert e == (Fraction(4, 21), Fraction(10, 21)) and e.mid == Fraction(1, 3)
    assert Enclosure.around(-5, 0) == (-5, -5)
    with pytest.raises(ValueError, match="empty"):
        Enclosure.around(0, Fraction(-1, 2))


def test_scalar_on_the_left_is_the_same_product():
    # without __rmul__, 2 * e would be tuple repetition
    e = Enclosure(Fraction(-1, 2), Fraction(3))
    for c in (2, Fraction(-1, 3), 0):
        assert type(c * e) is Enclosure and c * e == e * c
    assert 2 * e == (-1, 6) and Fraction(-1, 3) * e == (-1, Fraction(1, 6))


def test_enclosures_do_not_combine_as_tuples():
    # Enclosure op Enclosure has no caller; it raises, not tuple concatenation or repetition
    e = Enclosure(0, 1)
    for op in (lambda: e + e, lambda: e - e, lambda: e * e, lambda: e + (1, 2)):
        with pytest.raises(TypeError):
            op()


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
