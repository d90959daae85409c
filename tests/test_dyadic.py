"""Differential tests: mantissa intervals against Fraction-endpoint intervals.

`FractionInterval` below is the earlier implementation, kept verbatim as the
oracle: endpoints are Fractions re-quantized outward after every operation.
The mantissa `Interval` must return exactly the same endpoints.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qzeta import linforms
from qzeta.dyadic import Interval
from qzeta.linforms import BV, THEOREM1, numeric_form_value

# -- oracle -----------------------------------------------------------------


def round_down(x: Fraction, prec: int) -> Fraction:
    return Fraction((x.numerator << prec) // x.denominator, 1 << prec)


def round_up(x: Fraction, prec: int) -> Fraction:
    return Fraction(-((-x.numerator << prec) // x.denominator), 1 << prec)


class FractionInterval:
    """Closed interval [lo, hi] with dyadic endpoints at a fixed precision."""

    __slots__ = ("lo", "hi", "prec")

    def __init__(self, lo, hi, prec: int, quantize: bool = True):
        lo, hi = Fraction(lo), Fraction(hi)
        if quantize:
            lo, hi = round_down(lo, prec), round_up(hi, prec)
        if lo > hi:
            raise ValueError("empty interval")
        self.lo, self.hi, self.prec = lo, hi, prec

    @staticmethod
    def exact(x, prec: int) -> "FractionInterval":
        return FractionInterval(x, x, prec)

    def __repr__(self):
        return f"Interval({float(self.lo)}, {float(self.hi)})"

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, x) -> bool:
        return self.lo <= x <= self.hi

    def overlaps(self, other: "FractionInterval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def __add__(self, other):
        other = _coerce(other, self.prec)
        return FractionInterval(self.lo + other.lo, self.hi + other.hi, self.prec)

    __radd__ = __add__

    def __neg__(self):
        return FractionInterval(-self.hi, -self.lo, self.prec, quantize=False)

    def __sub__(self, other):
        return self + (-_coerce(other, self.prec))

    def __rsub__(self, other):
        return _coerce(other, self.prec) - self

    def __mul__(self, other):
        other = _coerce(other, self.prec)
        cands = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return FractionInterval(min(cands), max(cands), self.prec)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other, self.prec)
        if other.lo <= 0 <= other.hi:
            raise ZeroDivisionError("interval division by interval containing 0")
        cands = (
            self.lo / other.lo,
            self.lo / other.hi,
            self.hi / other.lo,
            self.hi / other.hi,
        )
        return FractionInterval(min(cands), max(cands), self.prec)

    def __rtruediv__(self, other):
        return _coerce(other, self.prec) / self

    def __abs__(self):
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return FractionInterval(0, max(-self.lo, self.hi), self.prec, quantize=False)

    def pow(self, e: int) -> "FractionInterval":
        if e < 0:
            return FractionInterval.exact(1, self.prec) / self.pow(-e)
        result = FractionInterval.exact(1, self.prec)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def widen(self, slack) -> "FractionInterval":
        slack = Fraction(slack)
        if slack < 0:
            raise ValueError("slack must be nonnegative")
        return FractionInterval(self.lo - slack, self.hi + slack, self.prec)


def _coerce(x, prec: int) -> FractionInterval:
    if isinstance(x, FractionInterval):
        return x
    return FractionInterval.exact(Fraction(x), prec)


# -- strategies -------------------------------------------------------------

PRECS = (1, 8, 64, 256, 320)


@st.composite
def pairs(draw, prec=None):
    """(new, oracle) for one dyadic interval, endpoints of either sign."""
    if prec is None:
        prec = draw(st.sampled_from(PRECS))
    bound = 1 << (prec + 12)
    a, b = sorted(draw(st.integers(-bound, bound)) for _ in range(2))
    lo, hi = Fraction(a, 1 << prec), Fraction(b, 1 << prec)
    return Interval(lo, hi, prec), FractionInterval(lo, hi, prec)


@st.composite
def two_pairs(draw):
    prec = draw(st.sampled_from(PRECS))
    return draw(pairs(prec)), draw(pairs(prec))


straddling = pairs().filter(lambda xy: xy[1].lo < 0 < xy[1].hi)

scalars = st.one_of(
    st.integers(-(2**80), 2**80),
    st.fractions(max_denominator=10**6),
    st.builds(Fraction, st.integers(-(2**400), 2**400), st.integers(1, 2**400)),
)


def same(new, old):
    assert isinstance(new, Interval)
    assert (new.lo, new.hi, new.prec) == (old.lo, old.hi, old.prec)


def both(op, new, old):
    """Apply `op` to both sides: equal endpoints, or the same exception type."""
    try:
        expected = op(old)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)):
            op(new)
        return
    same(op(new), expected)


# -- differential -----------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(two_pairs(), st.sampled_from(["+", "-", "*", "/"]))
def test_binary_ops_match(xy, op):
    (x, xo), (y, yo) = xy
    fn = {
        "+": lambda u, v: u + v,
        "-": lambda u, v: u - v,
        "*": lambda u, v: u * v,
        "/": lambda u, v: u / v,
    }[op]
    try:
        expected = fn(xo, yo)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            fn(x, y)
        return
    same(fn(x, y), expected)


@settings(max_examples=300, deadline=None)
@given(pairs(), scalars, st.sampled_from(["+", "-", "*", "/"]), st.booleans())
def test_scalar_operands_match(xy, k, op, reflected):
    x, xo = xy
    fn = {
        "+": lambda u, v: u + v,
        "-": lambda u, v: u - v,
        "*": lambda u, v: u * v,
        "/": lambda u, v: u / v,
    }[op]
    both((lambda u: fn(k, u)) if reflected else (lambda u: fn(u, k)), x, xo)


@settings(max_examples=200, deadline=None)
@given(st.one_of(pairs(), straddling))
def test_neg_and_abs_match(xy):
    x, xo = xy
    same(-x, -xo)
    same(abs(x), abs(xo))


@settings(max_examples=200, deadline=None)
@given(st.one_of(pairs(), straddling), st.integers(-4, 6))
def test_pow_matches(xy, e):
    x, xo = xy
    both(lambda u: u.pow(e), x, xo)


@settings(max_examples=200, deadline=None)
@given(pairs(), st.fractions(min_value=0))
def test_widen_matches(xy, slack):
    x, xo = xy
    same(x.widen(slack), xo.widen(slack))


@settings(max_examples=200, deadline=None)
@given(scalars, st.sampled_from(PRECS))
def test_exact_matches(v, prec):
    same(Interval.exact(v, prec), FractionInterval.exact(v, prec))


@settings(max_examples=300, deadline=None)
@given(pairs(), scalars)
def test_contains_matches(xy, v):
    x, xo = xy
    for probe in (v, 0, xo.lo, xo.hi, xo.midpoint(), xo.lo - Fraction(1, 1 << xo.prec)):
        assert x.contains(probe) == xo.contains(probe)


@settings(max_examples=300, deadline=None)
@given(two_pairs())
def test_overlaps_and_readback_match(xy):
    (x, xo), (y, yo) = xy
    assert x.overlaps(y) == xo.overlaps(yo)
    assert x.overlaps(x)
    assert (x.lo, x.hi, x.width) == (xo.lo, xo.hi, xo.width)
    assert repr(x) == repr(xo)


@pytest.mark.parametrize("family, n", [(BV, 2), (THEOREM1, 1)])
@pytest.mark.parametrize("p", [2, -3])
def test_series_enclosure_matches(monkeypatch, family, n, p):
    """A whole certified summation gives the oracle's endpoints."""
    enc = numeric_form_value(family.params(n), p, 256)
    monkeypatch.setattr(linforms, "Interval", FractionInterval)
    same(enc, numeric_form_value(family.params(n), p, 256))


# -- errors -----------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(pairs())
def test_errors_match(xy):
    x, xo = xy
    for cls in (FractionInterval, Interval):
        if xo.lo < xo.hi:
            with pytest.raises(ValueError, match="empty"):
                cls(xo.hi, xo.lo, xo.prec)
        with pytest.raises(ValueError, match="slack"):
            cls(xo.lo, xo.hi, xo.prec).widen(-Fraction(1, 1 << 400))
        with pytest.raises(ZeroDivisionError):
            cls(xo.lo, xo.hi, xo.prec) / cls.exact(0, xo.prec)
    both(lambda u: 1 / u, x, xo)


def test_error_cases():
    with pytest.raises(ValueError, match="empty"):
        Interval(1, 0, 8)
    x = Interval(-1, 2, 8)
    with pytest.raises(ZeroDivisionError):
        Interval.exact(1, 8) / x
    with pytest.raises(ZeroDivisionError):
        1 / x
    with pytest.raises(ZeroDivisionError):
        x.pow(-1)
    with pytest.raises(ValueError, match="slack"):
        x.widen(Fraction(-1, 3))


def test_empty_interval_rejected_before_rounding():
    # the oracle rounded first and accepted this inverted pair as [0, 1/2]
    with pytest.raises(ValueError, match="empty"):
        Interval(Fraction(3, 10), Fraction(1, 5), 1)


# -- precision --------------------------------------------------------------


@pytest.mark.parametrize(
    "op",
    [
        lambda u, v: u + v,
        lambda u, v: u - v,
        lambda u, v: u * v,
        lambda u, v: u / v,
        lambda u, v: u.overlaps(v),
    ],
    ids=["add", "sub", "mul", "div", "overlaps"],
)
def test_precision_mismatch_raises(op):
    x, y = Interval(1, 2, 64), Interval(3, 4, 65)
    with pytest.raises(ValueError, match="precision"):
        op(x, y)
    with pytest.raises(ValueError, match="precision"):
        op(y, x)


def test_int_operands_scale_exactly():
    x = Interval(Fraction(1, 3), Fraction(1, 2), 64)
    assert (x + 2**200).lo == x.lo + 2**200
    assert (3 - x).hi == 3 - x.lo
    assert (-5 * x).lo == -5 * x.hi
