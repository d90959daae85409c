"""The 3/pi^2 density of the totients and the trigamma limit behind it.

Moduli l with a fixed fractional part {n/l} carry log|Phi_l(p)| with
density 3/pi^2 per unit of psi'(u) - psi'(v): mertens_ratio and
phi_block_sum measure that at finite n, trigamma encloses psi' itself, and
measures integrates the gain profile against it.  Only the `mertens` and
`eq3` commands and measures load this module, so `ord`, `dnp` and
`cyclotomic` load neither it nor `fractions`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .dyadic import Enclosure
from .parith import cyclotomic_value

# density of l with a fixed fractional part {n/l}, per unit of log Phi_l
DENSITY = 3 / math.pi**2


def mertens_ratio(n: int, p: int) -> float:
    """log|D_n(p)| / (n^2 log|p|), the Mertens-type normalized size of D_n."""
    if n < 1 or abs(p) < 2:
        raise ValueError("need n >= 1 and |p| >= 2")
    total = 0.0
    for l in range(1, n + 1):
        v = abs(cyclotomic_value(l, p))
        if v > 1:
            total += math.log(v)
    return total / (n * n * math.log(abs(p)))


def phi_block_sum(n: int, p: int, u: Fraction, v: Fraction) -> float:
    """Normalized sum of log|Phi_l(p)| over l with {n/l} in [u, v).

    The index l is unbounded above in principle; {n/l} >= u > 0 forces
    l <= n/u, so the sum is finite.  Returns the sum divided by n^2 log|p|.
    """
    u, v = Fraction(u), Fraction(v)
    if not (0 < u < v <= 1):
        raise ValueError("need 0 < u < v <= 1")
    if n < 1 or abs(p) < 2:
        raise ValueError("need n >= 1 and |p| >= 2")
    total = 0.0
    for l in range(1, int(n / u) + 1):
        frac = Fraction(n % l, l)
        if u <= frac < v:
            val = abs(cyclotomic_value(l, p))
            if val > 1:
                total += math.log(val)
    return total / (n * n * math.log(abs(p)))


# ---------------------------------------------------------------------------
# trigamma


# Bernoulli numbers B_2 .. B_14 for the asymptotic series.
_BERNOULLI = (
    Fraction(1, 6),
    Fraction(-1, 30),
    Fraction(1, 42),
    Fraction(-1, 30),
    Fraction(5, 66),
    Fraction(-691, 2730),
    Fraction(7, 6),
)
_TRIGAMMA_SHIFT = 16
# |B_16| = 3617/510; first omitted term bounds the truncation error.
_B16 = Fraction(3617, 510)


def trigamma(x):
    """Enclosure of psi'(x) for rational x > 0.04721, its mid a float within 1e-13.

    Upward recurrence psi'(x) = psi'(x+1) + 1/x^2 moves the argument to
    >= 16, where the exact Bernoulli series through B_14 is off by at most
    its first omitted term, the radius.  From x = 0.04720 down, psi'(x) >
    450.3 and its float carries no 1e-13: ValueError.
    """
    x = Fraction(x)
    if x <= 0:
        raise ValueError("trigamma needs x > 0")
    shift = Fraction(0)
    y = x
    while y < _TRIGAMMA_SHIFT:
        shift += 1 / (y * y)
        y += 1
    inv = 1 / y
    inv2 = inv * inv
    acc = inv + inv2 / 2
    power = inv2 * inv
    for b in _BERNOULLI:
        acc += b * power
        power *= inv2
    exact = shift + acc
    trunc = _B16 * power  # first omitted term, power = y^-(17)
    if float(trunc) + abs(float(exact)) * 2.0**-52 > 1e-13:
        raise ValueError("trigamma certification exceeded 1e-13")
    return Enclosure.around(exact, trunc)
