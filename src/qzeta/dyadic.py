"""Certified interval arithmetic at a fixed binary precision.

An `Interval` at precision `prec` holds two int mantissas `a <= b` and
stands for [a/2^prec, b/2^prec].  Sums, differences, negation and `abs` are
exact on the mantissas; products and quotients round outward, the lower end
with a floor shift and the upper end with a ceiling shift, so enclosures
stay rigorous while mantissas stay bounded by the working precision.  This
is the fixed-precision scheme behind Arb (Johansson, IEEE TC 2017).  Floor
and ceiling are monotone, so every endpoint equals the exact rational
result rounded outward to a multiple of 2^-prec.

Both operands of a binary operation must have the same precision; an int
operand is scaled exactly, any other number is rounded outward on entry.
`lo`, `hi` and `width` read the endpoints back as Fractions.
Used wherever a series value needs a certified enclosure but exact
rationals would blow up.
"""

from __future__ import annotations

from fractions import Fraction


def _floor_scaled(x: Fraction, prec: int) -> int:
    """floor(x · 2^prec)."""
    return (x.numerator << prec) // x.denominator


def _ceil_scaled(x: Fraction, prec: int) -> int:
    """ceil(x · 2^prec)."""
    return -((-x.numerator << prec) // x.denominator)


def _make(a: int, b: int, prec: int) -> "Interval":
    """An Interval straight from its mantissas, without the Fraction constructor."""
    iv = object.__new__(Interval)
    iv.a, iv.b, iv.prec = a, b, prec
    return iv


class Interval:
    """Closed interval [a/2^prec, b/2^prec] with int mantissas a <= b."""

    __slots__ = ("a", "b", "prec")

    def __init__(self, lo, hi, prec: int):
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError("empty interval")
        self.a, self.b, self.prec = _floor_scaled(lo, prec), _ceil_scaled(hi, prec), prec

    @staticmethod
    def exact(x, prec: int) -> "Interval":
        return Interval(x, x, prec)

    def __repr__(self):
        scale = 1 << self.prec
        return f"Interval({self.a / scale}, {self.b / scale})"

    @property
    def lo(self) -> Fraction:
        return Fraction(self.a, 1 << self.prec)

    @property
    def hi(self) -> Fraction:
        return Fraction(self.b, 1 << self.prec)

    @property
    def width(self) -> Fraction:
        return Fraction(self.b - self.a, 1 << self.prec)

    def contains(self, x) -> bool:
        n, d = x.as_integer_ratio()
        return self.a * d <= n << self.prec <= self.b * d

    def overlaps(self, other: "Interval") -> bool:
        c, d = self._mantissas(other)
        return self.a <= d and c <= self.b

    def _mantissas(self, x) -> tuple[int, int]:
        """Mantissas of an operand at this interval's precision."""
        if isinstance(x, Interval):
            if x.prec != self.prec:
                raise ValueError(f"precision mismatch: {self.prec} vs {x.prec}")
            return x.a, x.b
        if isinstance(x, int):
            m = x << self.prec
            return m, m
        x = Interval.exact(x, self.prec)
        return x.a, x.b

    def __add__(self, other):
        c, d = self._mantissas(other)
        return _make(self.a + c, self.b + d, self.prec)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self.b, -self.a, self.prec)

    def __sub__(self, other):
        c, d = self._mantissas(other)
        return _make(self.a - d, self.b - c, self.prec)

    def __rsub__(self, other):
        c, d = self._mantissas(other)
        return _make(c - self.b, d - self.a, self.prec)

    def __mul__(self, other):
        c, d = self._mantissas(other)
        a, b, prec = self.a, self.b, self.prec
        cands = (a * c, a * d, b * c, b * d)
        return _make(min(cands) >> prec, -(-max(cands) >> prec), prec)

    __rmul__ = __mul__

    def __truediv__(self, other):
        c, d = self._mantissas(other)
        return _divide(self.a, self.b, c, d, self.prec)

    def __rtruediv__(self, other):
        c, d = self._mantissas(other)
        return _divide(c, d, self.a, self.b, self.prec)

    def __abs__(self):
        if self.a >= 0:
            return self
        if self.b <= 0:
            return -self
        return _make(0, max(-self.a, self.b), self.prec)

    def pow(self, e: int) -> "Interval":
        if e < 0:
            return 1 / self.pow(-e)
        one = 1 << self.prec
        result = _make(one, one, self.prec)
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
        s = _ceil_scaled(slack, self.prec)
        return _make(self.a - s, self.b + s, self.prec)


def _divide(a: int, b: int, c: int, d: int, prec: int) -> Interval:
    """[a, b] / [c, d] on mantissas at scale 2^-prec, rounded outward."""
    if c <= 0 <= d:
        raise ZeroDivisionError("interval division by interval containing 0")
    a, b = a << prec, b << prec
    cands = (a, c), (a, d), (b, c), (b, d)
    return _make(min(x // y for x, y in cands), max(-(-x // y) for x, y in cands), prec)
