"""Parameter tuples of the two series and every fact that depends on their kind.

ParamsZ1 (a0, a1, a2, b) and ParamsZ2 (a1, a2, a3, b2, b3) name a member
of the zeta_q(1) and zeta_q(2) series, and PARAMS maps a kind name to its
class.  Each class holds its kind, k (of zeta_q(k), also the number of
factorial layers D clears), its labels and factorial labels, and the
per-kind formulas: admissibility, c-values and their inverse, the
summand's exponent and pole runs, and alpha.  So the kind is decided here
alone; no other module compares kinds.  cvector gives the labeled
parameter differences of an admissible tuple, on which the transformation
groups act; params_from_cvector reads an image back.  This module
imports no other qzeta module, so the group and form-file commands can
read parameters without loading any polynomial code.  summand gives the
series' summand in product form, which the builder and the series
enclosure both start from; `fractions` is imported only where a Fraction
is made, so reading parameters or building a form never loads it.
"""

from __future__ import annotations

from collections import Counter, namedtuple


class ParamsZ1(namedtuple("ParamsZ1", "a0 a1 a2 b")):
    """Parameters (a0, a1, a2, b) of the zeta_q(1) series."""

    __slots__ = ()
    kind, k = "zeta1", 1
    labels = ("00", "01", "11", "21", "12", "22")
    factorial_labels = ("01", "21", "22")

    def __new__(cls, a0, a1, a2, b):
        if min(a0, a1, a2, b) < 1:
            raise ValueError("parameters must be positive integers")
        return super().__new__(cls, a0, a1, a2, b)

    @property
    def admissible(self) -> bool:
        # convergence region plus nonnegativity of every c-label
        return self.a1 + self.a2 <= self.b and self.a0 + self.a1 + self.a2 >= self.b + 1

    def c_values(self) -> tuple[int, ...]:
        a0, a1, a2, b = self
        return (a0 + a1 + a2 - b - 1, a0 - 1, a1 - 1, a2 - 1, b - a1 - 1, b - a2 - 1)

    @classmethod
    def from_cvector(cls, c) -> "ParamsZ1":
        return cls(c["01"] + 1, c["11"] + 1, c["21"] + 1, c["22"] + c["21"] + 2)

    @property
    def expo(self) -> int:
        return self.a0

    def pole_runs(self) -> list[tuple[int, int]]:
        return [(self.a2, self.b)]

    @staticmethod
    def alpha(r0, r1, r2, rb):
        from fractions import Fraction

        return Fraction(2 * (r0 + r1 + r2) * rb - (r1**2 + r2**2 + rb**2), 2)


class ParamsZ2(namedtuple("ParamsZ2", "a1 a2 a3 b2 b3")):
    """Parameters (a1, a2, a3, b2, b3) of the zeta_q(2) series."""

    __slots__ = ()
    kind, k = "zeta2", 2
    labels = ("00", "11", "12", "13", "21", "22", "23", "31", "32", "33")
    factorial_labels = ("00", "21", "22", "33", "31")

    def __new__(cls, a1, a2, a3, b2, b3):
        if min(a1, a2, a3, b2, b3) < 1:
            raise ValueError("parameters must be positive integers")
        return super().__new__(cls, a1, a2, a3, b2, b3)

    @property
    def admissible(self) -> bool:
        a = (self.a1, self.a2, self.a3)
        b = (self.b2, self.b3)
        return all(aj < bk for aj in a for bk in b) and sum(a) < sum(b)

    def c_values(self) -> tuple[int, ...]:
        rows = ((a - 1, self.b2 - a - 1, self.b3 - a - 1) for a in self[:3])
        return (self.expo - 1, *(c for row in rows for c in row))

    @classmethod
    def from_cvector(cls, c) -> "ParamsZ2":
        a1 = c["11"] + 1
        return cls(a1, c["21"] + 1, c["31"] + 1, c["12"] + a1 + 1, c["13"] + a1 + 1)

    @property
    def expo(self) -> int:
        return self.b2 + self.b3 - self.a1 - self.a2 - self.a3

    def pole_runs(self) -> list[tuple[int, int]]:
        return [(self.a2, self.b2), (self.a3, self.b3)]

    @staticmethod
    def alpha(r1, r2, r3, rb2, rb3):
        from fractions import Fraction

        return Fraction(2 * rb2 * rb3 - (r1**2 + r2**2 + r3**2), 2)


PARAMS = {cls.kind: cls for cls in (ParamsZ1, ParamsZ2)}
LABELS_Z1, LABELS_Z2 = ParamsZ1.labels, ParamsZ2.labels


class CVector(namedtuple("CVector", "kind values")):
    """The labeled parameter differences acted on by the transformation groups."""

    __slots__ = ()

    @property
    def labels(self) -> tuple[str, ...]:
        return PARAMS[self.kind].labels

    def __getitem__(self, label: str) -> int:
        return self.values[self.labels.index(label)]

    def as_dict(self) -> dict[str, int]:
        return dict(zip(self.labels, self.values))

    @property
    def m(self) -> int:
        return max(self.values)

    @property
    def top(self) -> tuple[int, ...]:
        """The k largest values, descending: the depths of D's k factorial layers."""
        return tuple(sorted(self.values, reverse=True)[: PARAMS[self.kind].k])

    def factorial_labels(self) -> tuple[str, ...]:
        return PARAMS[self.kind].factorial_labels


def cvector(params) -> CVector:
    """Labeled c-values of a parameter tuple; rejects inadmissible input.

    A group image that may leave the admissible region is read back with
    params_from_cvector and tested with .admissible, never passed here.
    """
    if not isinstance(params, (ParamsZ1, ParamsZ2)):
        raise TypeError("params must be ParamsZ1 or ParamsZ2")
    if not params.admissible:
        raise ValueError(f"inadmissible parameters {tuple(params)}")
    return CVector(params.kind, params.c_values())


def params_from_cvector(c: CVector):
    """Invert a c-vector back to parameters; None if no tuple realizes it."""
    try:
        cand = PARAMS[c.kind].from_cvector(c)
    except ValueError:
        return None
    return cand if cand.c_values() == c.values else None


# S(x) = x^expo · prod_{i in num_i}(1 - q^i x) / prod_j (1 - q^j x)^{m_j}; mult holds
# the sorted (pole j, m_j), and C = prod (1-q^j) over prefactor_num / over prefactor_den
Summand = namedtuple("Summand", "expo num_i mult prefactor_num prefactor_den")


def summand(params) -> Summand:
    """S and C of the series at params, from its runs a..b-1 of poles.

    params.pole_runs() gives one run, (a2, b), for zeta1 and two, (a2, b2)
    and (a3, b3), for zeta2, so an index in both is a double pole.  The
    numerator indices 1..a1-1 cancel the poles they meet, one factor each.
    """
    runs = params.pole_runs()
    num, den = range(1, params.a1), Counter(j for a, b in runs for j in range(a, b))
    return Summand(
        params.expo,
        tuple(i for i in num if i not in den),
        tuple(sorted((den - Counter(num)).items())),
        tuple(j for a, b in runs for j in range(1, b - a)),
        tuple(num),
    )
