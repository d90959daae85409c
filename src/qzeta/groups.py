"""Label permutations, their groups, and the cyclotomic correction factor.

The c-labels of a parameter tuple can be permuted by transformations of the
underlying series that leave the normalized quantity

    Q = F / prod_{j in S} [c_j]_q!        (S the factorial label set)

unchanged.  Maximizing cyclotomic orders of the factorial products over a
group of such permutations yields a polynomial factor Omega(p) that can be
divided out of the linear forms on top of the usual common denominator.
group_for looks a kind's group up by name; stability_sweep encloses Q at
a tuple and at its images, read back by params.params_from_cvector.  Only
params is imported at load time; Omega's factored product and the series
enclosure are imported where they are used.  The enclosure (linforms)
loads no polynomial code either, so the groups and stability load none.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import accumulate
from operator import mul

from .params import LABELS_Z1, LABELS_Z2, CVector, ParamsZ1, ParamsZ2, cvector, params_from_cvector


# --------------------------------------------------------------------------
# permutations of a label set


class Perm(namedtuple("Perm", "labels images")):
    """Bijection of a label tuple; acts on c-vectors by (g·c)_j = c_{g(j)}.

    images[i] = g(labels[i]).
    """

    __slots__ = ()

    def __new__(cls, labels, images):
        if sorted(images) != sorted(labels):
            raise ValueError("not a bijection of the label set")
        return super().__new__(cls, labels, images)

    @staticmethod
    def from_cycles(labels: tuple[str, ...], cycles) -> "Perm":
        """Cycle (x1 x2 ... xk) maps x1 -> x2 -> ... -> xk -> x1."""
        mapping = {l: l for l in labels}
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                if a not in mapping:
                    raise ValueError(f"unknown label {a!r}")
                mapping[a] = b
        return Perm(labels, tuple(mapping[l] for l in labels))

    def __call__(self, label: str) -> str:
        return self.images[self.labels.index(label)]

    def apply(self, c: CVector) -> CVector:
        if c.labels != self.labels:
            raise ValueError("label sets differ")
        return CVector(c.kind, tuple(c[g] for g in self.images))

    def __mul__(self, other: "Perm") -> "Perm":
        """Composition acting as (g·h).apply(c) == g.apply(h.apply(c))."""
        if self.labels != other.labels:
            raise ValueError("label sets differ")
        h = dict(zip(other.labels, other.images))
        return Perm(self.labels, tuple(map(h.get, self.images)))

    def cycles(self) -> tuple[tuple[str, ...], ...]:
        seen, out = set(), []
        for start in self.labels:
            if start in seen:
                continue
            cyc, cur = [], start
            while cur not in seen:
                seen.add(cur)
                cyc.append(cur)
                cur = self(cur)
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return tuple(out)

    def __repr__(self):
        cyc = self.cycles()
        return "Perm(id)" if not cyc else "Perm" + "".join(str(c) for c in cyc)


class Group:
    """Closure of a generator list, in deterministic breadth-first order."""

    __slots__ = ("elements", "generators")

    def __init__(self, elements: tuple[Perm, ...], generators: tuple[Perm, ...]):
        self.elements, self.generators = elements, generators

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def generate(generators) -> Group:
    """Closure of the generators: the identity, then each breadth-first level
    sorted by images.  Products are composed on index tuples, (g·h)[i] =
    h[g[i]], and each element is made a Perm once."""
    generators = tuple(generators)
    if not generators:
        raise ValueError("need at least one generator")
    labels = generators[0].labels
    if any(g.labels != labels for g in generators):
        raise ValueError("generators act on different label sets")
    gens = [tuple(map(labels.index, g.images)) for g in generators]
    frontier = seen = {tuple(range(len(labels)))}
    elements = [Perm(labels, labels)]
    while frontier:
        frontier = {tuple(h[i] for i in g) for h in frontier for g in gens} - seen
        seen |= frontier
        level = (Perm(labels, tuple(labels[i] for i in x)) for x in frontier)
        elements += sorted(level, key=lambda p: p.images)
    return Group(tuple(elements), generators)


# --------------------------------------------------------------------------
# the specific groups

TAU = Perm.from_cycles(LABELS_Z1, [("22", "21", "01", "11", "12", "00")])
SIGMA = Perm.from_cycles(LABELS_Z1, [("11", "21"), ("12", "22")])

# rows are indexed by the a-parameters, columns by (a_j, b2-a_j, b3-a_j)
_ROW12 = Perm.from_cycles(LABELS_Z2, [("11", "21"), ("12", "22"), ("13", "23")])
_ROW23 = Perm.from_cycles(LABELS_Z2, [("21", "31"), ("22", "32"), ("23", "33")])
_COLSWAP = Perm.from_cycles(LABELS_Z2, [("12", "13"), ("22", "23"), ("32", "33")])
_INVOL = Perm.from_cycles(LABELS_Z2, [("00", "22"), ("11", "33"), ("13", "31")])


def zeta1_group() -> Group:
    """⟨τ,σ⟩ of order 12: all label symmetries of the zeta_q(1) data."""
    return generate([TAU, SIGMA])


def zeta1_arith_group() -> Group:
    """⟨τ²,σ⟩ of order 6: the subgroup preserving the factorial weight."""
    return generate([TAU * TAU, SIGMA])


def zeta2_group() -> Group:
    """The order-120 symmetry group of the zeta_q(2) data."""
    return generate([_ROW12, _ROW23, _COLSWAP, _INVOL])


def group_for(kind: str) -> Group:
    """The label group under which the denominator gain is maximized."""
    return {ParamsZ1.kind: zeta1_arith_group, ParamsZ2.kind: zeta2_group}[kind]()


# --------------------------------------------------------------------------
# the arithmetic factor Omega


def gain(c: CVector, G: Group, num: int, den: int) -> int:
    """max_g sum_{j in S}(floor(x·c_j) - floor(x·(gc)_j)) at x = num/den, S the factorial labels.

    In integers only, so a caller needs no Fraction; >= 0, as G holds the identity.
    """
    S = c.factorial_labels()
    floor = dict(zip(c.labels, (num * v // den for v in c.values)))
    at = [c.labels.index(j) for j in S]  # g(j) is g.images[i], i the index of j
    anchor = sum(floor[j] for j in S)
    return max(anchor - sum(floor[g.images[i]] for i in at) for g in G)


def nu_l(c: CVector, G: Group, l: int) -> int:
    """The Phi_l-order Omega gains: the gain at x = 1/l, l >= 2."""
    if l < 2:
        raise ValueError("nu_l needs l >= 2 (the l = 1 order is fixed at 0)")
    return gain(c, G, 1, l)


def omega(c: CVector, G: Group):
    """Omega(p) = prod_{l=2}^m Phi_l(p)^{nu_l}, a FactoredPPoly; nu_1 = 0 by convention."""
    from .parith import FactoredPPoly

    return FactoredPPoly({l: nu_l(c, G, l) for l in range(2, c.m + 1)})


# --------------------------------------------------------------------------
# stability of the normalized series


def stable_quantity(params, p: int, bits: int):
    """Certified enclosure of Q = F / prod_{j in S} [c_j]_q! at q = 1/p, narrower than 2^-bits.

    With 1/|Pi| < 2^e, F is enclosed below 2^-(bits+e+1), and F/Pi is
    rounded outward at precision bits + 3, the same for all params.
    """
    from fractions import Fraction

    from .linforms import numeric_form_value

    cv = cvector(params)
    need = [cv[j] for j in cv.factorial_labels()]
    # [k]_q! = tops[k] / ((p - 1)^k·p^(k(k-1)/2)) at q = 1/p, tops[k] = prod_{i<=k} (p^i - 1)
    tops = list(accumulate((p**i - 1 for i in range(1, max(need) + 1)), mul, initial=1))
    den = math.prod((p - 1) ** c * p ** (c * (c - 1) // 2) for c in need)
    pi = Fraction(math.prod(tops[c] for c in need), den)
    e = max(pi.denominator.bit_length() - pi.numerator.bit_length() + 1, 0)
    enc = numeric_form_value(params, p, bits + e + 1)
    return (enc * (1 / pi)).outward(bits + 3)


def stability_sweep(params, G: Group, p: int, bits: int):
    """Q at params and at every image under G, each enclosure narrower than 2^-bits.

    Returns (Q at params, [(g, Q at g·params, or None when no admissible
    tuple realizes the image)]) in G's order; Q is invariant where the two
    enclosures meet.  Each distinct tuple is enclosed once.  Raises
    ValueError outside the domain |p| >= 2, bits >= 1, and for inadmissible
    params.
    """
    if abs(p) < 2 or bits < 1:
        raise ValueError("stability needs |p| >= 2 and prec >= 1")
    cv = cvector(params)
    images = [(g, params_from_cvector(g.apply(cv))) for g in G]
    tuples = dict.fromkeys(x for _, x in images if x is not None and x.admissible)
    known = {x: stable_quantity(x, p, bits) for x in tuples}
    return known[params], [(g, known.get(x)) for g, x in images]
