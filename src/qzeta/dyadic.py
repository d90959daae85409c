"""Certified enclosures: closed intervals with exact rational ends.

An `Enclosure(lo, hi)` holds two Fractions lo <= hi.  `outward(lo, hi,
prec)` rounds rationals to a dyadic grid: it floors lo and ceils hi to
multiples of 2^-prec, so the result still contains [lo, hi] while its ends
stay short.  No arithmetic is done on enclosures; the one series that needs
an enclosure (linforms._sum_series) floors and ceils its exact integer
ratios once each, so this module and linforms are all the numeric code
that stability loads: no polynomial module.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction


class Enclosure(namedtuple("Enclosure", "lo hi")):
    """Closed interval [lo, hi] with exact Fraction ends."""

    __slots__ = ()

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def overlaps(self, other: "Enclosure") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def contains(self, x) -> bool:
        return self.lo <= x <= self.hi


def outward(lo, hi, prec: int) -> Enclosure:
    """[lo, hi] rounded outward to multiples of 2^-prec."""
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi:
        raise ValueError("empty interval")
    scale = 1 << prec
    return Enclosure(
        Fraction(lo.numerator * scale // lo.denominator, scale),
        Fraction(-(-hi.numerator * scale // hi.denominator), scale),
    )
