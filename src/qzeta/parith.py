"""Exact arithmetic in the parameter p: Gaussian integers [n]_p, cyclotomic
polynomials, q-factorials and their common multiples D_n(p).

A PPoly is a Laurent polynomial p^val·body over Z: its p-adic valuation and
the coefficients from p^val up, nonzero at both ends, so the large powers of
p in the linear forms cost no coefficients and a shift is O(1).  The dense
coefficients (read-only `coeffs`) serve form files, reports and q-series.

The binomial p^d - 1, prime to p, is the one multiplication entry point:
PPoly has no product of two polynomials.  mul_binomial and div_binomial
are single O(degree) passes over the body, and exact division by
Phi_l = prod_{d | l} (p^d - 1)^mu(l/d) is 2^omega(l) of them
(div_cyclotomic).  Multiplication by prod_l Phi_l^e_l
nets those Moebius forms into one power of each p^d - 1
(times_cyclotomics); it builds Phi_l itself (cyclotomic), expands a
FactoredPPoly and lifts the terms of forms' RatFunc sums to a common
denominator.  Gaussian factorials grow by f·[v]_p = f·(p^v - 1)/(p - 1).

split_cyclotomic divides Phi_l out while it divides and returns the count
with the cofactor; ord_at is that count, and forms' RatFunc.reduced cancels
with it.  The Phi_l are pairwise coprime, so the ord sweep passes one
shrinking cofactor from the largest l down: the small l, which divide most
often, act on the smallest polynomial.  dnp's certificate divides nothing:
divisible_by_binomial is div_binomial's test alone.

Products ±p^a·prod_l Phi_l(p)^e_l with signed exponents are FactoredPPoly,
the one factored type used for D_n, Omega, residues and prefactors.

Everything here is integer arithmetic, so the module imports no
`fractions`: only the two methods that can return a rational,
PPoly.__call__ at a negative power of p and FactoredPPoly.value_at, import
Fraction when they run, and `ord`, `dnp` and `cyclotomic` never load it.
The 3/pi^2 density and trigamma live in density.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, chain, repeat
from operator import add, sub


# ---------------------------------------------------------------------------
# small multiplicative helpers


@lru_cache(maxsize=None)
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, ascending."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])


@lru_cache(maxsize=None)
def mobius(n: int) -> int:
    """Moebius function."""
    if n == 1:
        return 1
    m, k, d = n, 0, 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            k += 1
        d += 1
    if m > 1:
        k += 1
    return -1 if k % 2 else 1


@lru_cache(maxsize=None)
def totient(n: int) -> int:
    """Euler's totient."""
    result, m, d = n, n, 2
    while d * d <= m:
        if m % d == 0:
            while m % d == 0:
                m //= d
            result -= result // d
        d += 1
    if m > 1:
        result -= result // m
    return result


# ---------------------------------------------------------------------------
# dense integer polynomials in p


def _normal(val: int, out: list) -> "PPoly":
    """p^val·out as a PPoly, taking the list out and stripping its zeros at both ends."""
    hi = len(out)
    while hi and not out[hi - 1]:
        hi -= 1
    lo = next((i for i, c in enumerate(out) if c), 0)
    return PPoly._of(val + lo if hi else 0, out[lo:hi])


class PPoly:
    """Laurent polynomial p^val·(body[0] + body[1]·p + ...) with integer coefficients.

    body is a list nonzero at both ends (empty for zero, whose val is 0),
    never changed once built.  A shift moves val, a sum aligns the vals;
    the binomial kernels and the Phi_l divisions act on body alone.  There
    is no product of two PPolys: every multiplication goes through p^d - 1.
    """

    __slots__ = ("val", "body")

    def __init__(self, coeffs=(), val: int = 0):
        f = _normal(val, list(coeffs))
        self.val, self.body = f.val, f.body

    @classmethod
    def _of(cls, val: int, body: list) -> "PPoly":
        """p^val·body for a body already nonzero at both ends; no copy."""
        f = object.__new__(cls)
        f.val, f.body = val, body
        return f

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(c: int) -> "PPoly":
        return PPoly((c,))

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Dense coefficients from p^0 up, trailing zeros trimmed; needs val >= 0."""
        if self.val < 0:
            raise ValueError("a negative power of p has no dense coefficients")
        return (0,) * self.val + tuple(self.body)

    @property
    def degree(self) -> int:
        """Degree, with deg 0 = -1 for the zero polynomial."""
        return self.val + len(self.body) - 1 if self.body else -1

    def __bool__(self):
        return bool(self.body)

    def __eq__(self, other):
        return isinstance(other, PPoly) and (self.val, self.body) == (other.val, other.body)

    def __repr__(self):
        return f"PPoly({self.body}, val={self.val})"

    # -- ring operations ----------------------------------------------------

    def _combine(self, other: "PPoly", op) -> "PPoly":
        """self op other for op add or sub: self's body copied in at its val,
        then one pass of op over other's span; no padded or negated copies."""
        if not other.body:
            return self
        if not self.body:
            return other if op is add else -other
        (va, a), (vb, b) = (self.val, self.body), (other.val, other.body)
        v = min(va, vb)
        out = [0] * (max(va + len(a), vb + len(b)) - v)
        out[va - v : va - v + len(a)] = a
        out[vb - v : vb - v + len(b)] = map(op, out[vb - v : vb - v + len(b)], b)
        return _normal(v, out)

    def __add__(self, other):
        big, small = (self, other) if len(self.body) >= len(other.body) else (other, self)
        return big._combine(small, add)

    def __sub__(self, other):
        return self._combine(other, sub)

    def __neg__(self):
        return PPoly._of(self.val, [-c for c in self.body])

    def shift(self, k: int) -> "PPoly":
        """Multiply by p^k, k of either sign."""
        return PPoly._of(self.val + k, self.body) if self.body else self

    # -- the binomial kernel p^d - 1 ------------------------------------------

    def mul_binomial(self, d: int) -> "PPoly":
        """self·(p^d - 1): one shift and one subtract, O(degree)."""
        if d < 1:
            raise ValueError("exponent must be positive")
        f = self.body
        if not f:
            return self
        return PPoly._of(self.val, list(map(sub, chain(repeat(0, d), f), chain(f, repeat(0, d)))))

    def div_binomial(self, d: int):
        """Exact quotient self/(p^d - 1) if it exists in Z[p], else None.

        f = q·(p^d - 1) means q_j = f_{j+d} + f_{j+2d} + ..., so along each
        residue class mod d the quotient is a suffix sum of f, and the class
        divides out exactly when its full sum is 0.  O(degree).
        """
        if d < 1:
            raise ValueError("exponent must be positive")
        f = self.body
        if not f:
            return self
        if len(f) <= d:
            return None
        quot = [0] * (len(f) - d)
        for r in range(d):
            sums = list(accumulate(reversed(f[r::d])))
            if sums[-1]:
                return None
            quot[r::d] = sums[-2::-1]
        return PPoly._of(self.val, quot)

    def divisible_by_binomial(self, d: int) -> bool:
        """Whether p^d - 1 divides self: div_binomial's class sums, no quotient."""
        if d < 1:
            raise ValueError("exponent must be positive")
        return all(not sum(self.body[r::d]) for r in range(d))

    def div_cyclotomic(self, l: int):
        """Exact quotient self/Phi_l if it exists in Z[p], else None.

        Phi_l = prod_{d | l} (p^d - 1)^mu(l/d): multiply by the binomials
        with mu = -1, then divide by those with mu = +1, p^l - 1 first.
        That first division already fails exactly when Phi_l does not
        divide, since the multiplied binomials supply every other Phi_e,
        e | l, it needs; the rest then always succeed.
        """
        up, down = _mobius_binomials(l)
        cur = self
        for d in up:
            cur = cur.mul_binomial(d)
        for d in down:
            cur = cur.div_binomial(d)
            if cur is None:
                return None
        return cur

    def times_cyclotomics(self, exps: dict[int, int]) -> "PPoly":
        """self·prod_l Phi_l^e_l (every e_l >= 0) through the binomials p^d - 1.

        The Moebius forms Phi_l = prod_{d | l} (p^d - 1)^mu(l/d) are netted
        into one exponent per d first; the positive powers are multiplied
        in, then the negative ones divided out, each division exact because
        the whole product is a polynomial.  O(degree) per binomial.
        """
        net: dict[int, int] = {}
        for l, e in exps.items():
            if e:
                up, down = _mobius_binomials(l)
                for d in up:
                    net[d] = net.get(d, 0) - e
                for d in down:
                    net[d] = net.get(d, 0) + e
        cur = self
        for d, n in net.items():
            for _ in range(n):
                cur = cur.mul_binomial(d)
        for d, n in net.items():
            for _ in range(-n):
                cur = cur.div_binomial(d)
                if cur is None:
                    raise AssertionError(f"p^{d} - 1 left a remainder in a Phi product")
        return cur

    def split_cyclotomic(self, l: int, cap: int | None = None) -> tuple[int, "PPoly"]:
        """(k, self/Phi_l^k): Phi_l divided out while it divides, at most cap times.

        The Phi_l are distinct monic irreducibles, so the cofactor keeps
        self's order at every other Phi_m: a sweep over several l passes it
        on from one l to the next instead of dividing self again.
        """
        if not self.body:
            raise ValueError("ord of zero polynomial")
        k, cur = 0, self
        while cap is None or k < cap:
            q = cur.div_cyclotomic(l)
            if q is None:
                break
            k, cur = k + 1, q
        return k, cur

    def ord_at(self, l: int, cap: int | None = None) -> int:
        """Multiplicity of Phi_l in self, at most cap (split_cyclotomic's k)."""
        return self.split_cyclotomic(l, cap)[0]

    # -- evaluation ----------------------------------------------------------

    def __call__(self, x):
        acc = 0
        for c in reversed(self.body):
            acc = acc * x + c
        if self.val >= 0:
            return acc * x**self.val
        from fractions import Fraction  # only a negative power of p makes a rational

        return acc / Fraction(x) ** -self.val


# ---------------------------------------------------------------------------
# factored products of cyclotomics


class FactoredPPoly:
    """unit · p^p_power · prod_l Phi_l(p)^e_l with signed integer exponents.

    The one factored type of the package: D_n, Omega, and the residues and
    prefactors of the linear forms.  With a negative exponent it is a unit
    of Z[p, 1/p, 1/Phi_l] rather than a polynomial.  Zero exponents are
    dropped and the rest kept sorted, so equal products compare equal.
    """

    __slots__ = ("exponents", "p_power", "unit")

    def __init__(self, exponents: dict[int, int] | None = None, p_power: int = 0, unit: int = 1):
        if unit not in (1, -1):
            raise ValueError("unit must be +-1")
        self.exponents = {l: e for l, e in sorted((exponents or {}).items()) if e}
        self.p_power = p_power
        self.unit = unit

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        same = self.exponents == other.exponents and self.p_power == other.p_power
        return same and self.unit == other.unit

    def __repr__(self):
        return (
            f"FactoredPPoly(exponents={self.exponents}, p_power={self.p_power}, unit={self.unit})"
        )

    @staticmethod
    def one_minus_q_power(j: int) -> "FactoredPPoly":
        """(1 - q^j) = (p^j - 1)/p^j with q = 1/p, j >= 1."""
        return FactoredPPoly(dict.fromkeys(divisors(j), 1), -j)

    def __mul__(self, other: "FactoredPPoly") -> "FactoredPPoly":
        exponents = dict(self.exponents)
        for l, e in other.exponents.items():
            exponents[l] = exponents.get(l, 0) + e
        return FactoredPPoly(exponents, self.p_power + other.p_power, self.unit * other.unit)

    def inv(self) -> "FactoredPPoly":
        return FactoredPPoly({l: -e for l, e in self.exponents.items()}, -self.p_power, self.unit)

    def expand(self) -> PPoly:
        """Multiply the factorization out to a dense polynomial, through the binomials."""
        if self.p_power < 0 or any(e < 0 for e in self.exponents.values()):
            raise ValueError("a negative exponent does not expand to a polynomial")
        return PPoly((self.unit,)).times_cyclotomics(self.exponents).shift(self.p_power)

    def value_at(self, p: int):
        """The product at the integer p, an exact Fraction."""
        from fractions import Fraction  # here, so that ord, dnp and cyclotomic never load it

        v = Fraction(self.unit) * Fraction(p) ** self.p_power
        for l, e in self.exponents.items():
            v *= Fraction(cyclotomic_value(l, p)) ** e
        return v


# ---------------------------------------------------------------------------
# Gaussian integers and factorials


def gauss_factorial(n: int) -> PPoly:
    """[n]_p! = prod_{v<=n} [v]_p."""
    if n < 0:
        raise ValueError("gauss_factorial needs n >= 0")
    fact = PPoly((1,))
    for v in range(1, n + 1):
        # f·[v]_p = f·(p^v - 1)/(p - 1): two O(degree) passes
        fact = fact.mul_binomial(v).div_binomial(1)
        if fact is None:
            raise AssertionError(f"[{v}]_p! left a remainder")
    return fact


def cyclotomic(l: int) -> PPoly:
    """The l-th cyclotomic polynomial Phi_l(p), as the Moebius product of the
    binomials p^d - 1, d | l (times_cyclotomics)."""
    if l < 1:
        raise ValueError("cyclotomic index must be positive")
    return PPoly((1,)).times_cyclotomics({l: 1})


@lru_cache(maxsize=None)
def _mobius_binomials(l: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The d | l with mu(l/d) = -1, and those with mu(l/d) = +1 descending."""
    if l < 1:
        raise ValueError("cyclotomic index must be positive")
    ds = divisors(l)
    up = tuple(d for d in ds if mobius(l // d) == -1)
    down = tuple(d for d in reversed(ds) if mobius(l // d) == 1)
    return up, down


@lru_cache(maxsize=None)
def cyclotomic_value(l: int, p: int) -> int:
    """Phi_l(p) as an exact integer, via the Moebius product over p^(l/d) - 1.

    Integer arithmetic only, no polynomial; cross-checked against
    cyclotomic() in the test suite.  At p = ±1 a factor p^n - 1 may vanish;
    it then stands for n, the cofactor (x^n - 1)/(x - p) at x = p up to its
    sign p^(n-1).  The zeros left over are Phi_l's order at p; when none
    are, as many such factors stand above as below, and their signs cancel.
    """
    if l < 1:
        raise ValueError("cyclotomic index must be positive")
    if l == 1:
        return p - 1
    num, den, zeros = 1, 1, 0
    for d in divisors(l):
        mu = mobius(d)
        if not mu:
            continue
        n = l // d
        v = p**n - 1
        if v == 0:
            v, zeros = n, zeros + mu
        if mu == 1:
            num *= v
        else:
            den *= v
    if zeros:
        return 0
    q, r = divmod(num, den)
    if r:
        raise AssertionError(f"Moebius product not integral at l={l}, p={p}")
    return q


def dnp(n: int) -> FactoredPPoly:
    """D_n(p) = prod_{l<=n} Phi_l(p), the common multiple of [1]_p .. [n]_p."""
    if n < 1:
        raise ValueError("dnp needs n >= 1")
    return FactoredPPoly(dict.fromkeys(range(1, n + 1), 1))


def ord_phi_factorial(l: int, n: int) -> int:
    """ord_{Phi_l} [n]_p! = floor(n/l) for l >= 2.

    l = 1 is rejected: Phi_1 = p - 1 never divides a Gaussian factorial and
    its order is fixed at 0 by convention.
    """
    if l < 2:
        raise ValueError("ord_phi_factorial needs l >= 2")
    if n < 0:
        raise ValueError("n must be nonnegative")
    return n // l
