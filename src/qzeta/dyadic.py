"""Certified enclosures: closed intervals with exact rational ends.

Every certified number in qzeta is an `Enclosure(lo, hi)` of Fractions
lo <= hi, such as `Enclosure.around(partial_sum, tail_bound)`.  A rational
added or multiplied gives the exact image interval (Moore, Kearfott and
Cloud, Introduction to Interval Analysis, 2009); `gap` is 0 exactly when two
enclosures meet, and `outward(prec)` rounds the ends out to multiples of
2^-prec to keep them short.  Only linforms joins this module in the numeric
code that stability loads: no polynomial module.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction


class Enclosure(namedtuple("Enclosure", "lo hi")):
    """Closed interval [lo, hi] with exact Fraction ends."""

    __slots__ = ()

    def __new__(cls, lo, hi):
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError("empty interval")
        return super().__new__(cls, lo, hi)

    @classmethod
    def _make(cls, iterable) -> Enclosure:
        """namedtuple's _make, which _replace calls too, through __new__'s checks."""
        return cls(*iterable)

    @classmethod
    def around(cls, value, radius) -> Enclosure:
        return cls(value - radius, value + radius)

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x) -> bool:
        return self.lo <= x <= self.hi

    def gap(self, other: Enclosure) -> Fraction:
        """Distance between the two intervals: 0 exactly when they meet."""
        return max(self.lo - other.hi, other.lo - self.hi, Fraction(0))

    # x + c and x·c; Fraction(c) refuses an Enclosure c, which tuple would add or repeat
    def __add__(self, c) -> Enclosure:
        c = Fraction(c)
        return Enclosure(self.lo + c, self.hi + c)

    def __sub__(self, c) -> Enclosure:
        return self + -Fraction(c)

    def __mul__(self, c) -> Enclosure:
        c = Fraction(c)
        lo, hi = self.lo * c, self.hi * c
        return Enclosure(lo, hi) if c >= 0 else Enclosure(hi, lo)

    __rmul__ = __mul__

    def outward(self, prec: int) -> Enclosure:
        """This interval rounded outward to multiples of 2^-prec."""
        s, (lo, hi) = 1 << prec, self
        lo, hi = lo.numerator * s // lo.denominator, -(-hi.numerator * s // hi.denominator)
        return Enclosure(Fraction(lo, s), Fraction(hi, s))
