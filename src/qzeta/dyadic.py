"""Certified interval arithmetic on dyadic rationals.

Endpoints are Fractions with power-of-two denominators, re-quantized after
every operation with outward rounding, so enclosures stay rigorous while
numerators stay bounded by the working precision.  Used wherever a series
value needs a certified enclosure but exact rationals would blow up.
"""

from __future__ import annotations

from fractions import Fraction


def round_down(x: Fraction, prec: int) -> Fraction:
    return Fraction((x.numerator << prec) // x.denominator, 1 << prec)


def round_up(x: Fraction, prec: int) -> Fraction:
    return Fraction(-((-x.numerator << prec) // x.denominator), 1 << prec)


class Interval:
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
    def exact(x, prec: int) -> "Interval":
        return Interval(x, x, prec)

    def __repr__(self):
        return f"Interval({float(self.lo)}, {float(self.hi)})"

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, x) -> bool:
        return self.lo <= x <= self.hi

    def overlaps(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def __add__(self, other):
        other = _coerce(other, self.prec)
        return Interval(self.lo + other.lo, self.hi + other.hi, self.prec)

    __radd__ = __add__

    def __neg__(self):
        return Interval(-self.hi, -self.lo, self.prec, quantize=False)

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
        return Interval(min(cands), max(cands), self.prec)

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
        return Interval(min(cands), max(cands), self.prec)

    def __rtruediv__(self, other):
        return _coerce(other, self.prec) / self

    def __abs__(self):
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return Interval(0, max(-self.lo, self.hi), self.prec, quantize=False)

    def pow(self, e: int) -> "Interval":
        if e < 0:
            return Interval.exact(1, self.prec) / self.pow(-e)
        result = Interval.exact(1, self.prec)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def widen(self, slack) -> "Interval":
        slack = Fraction(slack)
        if slack < 0:
            raise ValueError("slack must be nonnegative")
        return Interval(self.lo - slack, self.hi + slack, self.prec)


def _coerce(x, prec: int) -> Interval:
    if isinstance(x, Interval):
        return x
    return Interval.exact(Fraction(x), prec)
