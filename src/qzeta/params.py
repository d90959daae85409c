"""Parameter tuples of the two series and their labeled c-vectors.

ParamsZ1 (a0, a1, a2, b) and ParamsZ2 (a1, a2, a3, b2, b3) name a member
of the zeta_q(1) and zeta_q(2) series.  Their class attribute kind, "zeta1"
or "zeta2", is the one place the series kind is decided: every other module
reads params.kind.  cvector turns a tuple into the labeled parameter
differences on which the transformation groups act.  This module
imports no other qzeta module, so the group and form-file commands can
read parameters without loading any polynomial code.
"""

from __future__ import annotations

from collections import namedtuple


class ParamsZ1(namedtuple("ParamsZ1", "a0 a1 a2 b")):
    """Parameters (a0, a1, a2, b) of the zeta_q(1) series."""

    __slots__ = ()
    kind = "zeta1"

    def __new__(cls, a0, a1, a2, b):
        if min(a0, a1, a2, b) < 1:
            raise ValueError("parameters must be positive integers")
        return super().__new__(cls, a0, a1, a2, b)

    @property
    def admissible(self) -> bool:
        # convergence region plus nonnegativity of every c-label
        return self.a1 + self.a2 <= self.b and self.a0 + self.a1 + self.a2 >= self.b + 1


class ParamsZ2(namedtuple("ParamsZ2", "a1 a2 a3 b2 b3")):
    """Parameters (a1, a2, a3, b2, b3) of the zeta_q(2) series."""

    __slots__ = ()
    kind = "zeta2"

    def __new__(cls, a1, a2, a3, b2, b3):
        if min(a1, a2, a3, b2, b3) < 1:
            raise ValueError("parameters must be positive integers")
        return super().__new__(cls, a1, a2, a3, b2, b3)

    @property
    def admissible(self) -> bool:
        a = (self.a1, self.a2, self.a3)
        b = (self.b2, self.b3)
        return all(aj < bk for aj in a for bk in b) and sum(a) < sum(b)


LABELS_Z1 = ("00", "01", "11", "21", "12", "22")
LABELS_Z2 = ("00", "11", "12", "13", "21", "22", "23", "31", "32", "33")

# labels whose q-factorials make up Pi_q(c)
FACTORIAL_LABELS = {"zeta1": ("01", "21", "22"), "zeta2": ("00", "21", "22", "33", "31")}


class CVector(namedtuple("CVector", "kind values")):
    """The labeled parameter differences acted on by the transformation groups."""

    __slots__ = ()

    @property
    def labels(self) -> tuple[str, ...]:
        return LABELS_Z1 if self.kind == "zeta1" else LABELS_Z2

    def __getitem__(self, label: str) -> int:
        return self.values[self.labels.index(label)]

    def as_dict(self) -> dict[str, int]:
        return dict(zip(self.labels, self.values))

    @property
    def m(self) -> int:
        return max(self.values)

    @property
    def m1m2(self) -> tuple[int, int]:
        top = sorted(self.values, reverse=True)
        return top[0], top[1]

    def factorial_labels(self) -> tuple[str, ...]:
        return FACTORIAL_LABELS[self.kind]


def cvector(params, check: bool = True) -> CVector:
    """Labeled c-values of a parameter tuple; rejects inadmissible input.

    check=False skips the admissibility test (used on group images, which may
    leave the convergence region and still need their labels).
    """
    if not isinstance(params, (ParamsZ1, ParamsZ2)):
        raise TypeError("params must be ParamsZ1 or ParamsZ2")
    if check and not params.admissible:
        raise ValueError(f"inadmissible parameters {tuple(params)}")
    if params.kind == "zeta1":
        a0, a1, a2, b = params
        vals = (a0 + a1 + a2 - b - 1, a0 - 1, a1 - 1, a2 - 1, b - a1 - 1, b - a2 - 1)
        return CVector("zeta1", vals)
    a = (params.a1, params.a2, params.a3)
    bs = (params.b2, params.b3)
    vals = [sum(bs) - sum(a) - 1]
    for aj in a:
        vals.extend((aj - 1, bs[0] - aj - 1, bs[1] - aj - 1))
    return CVector("zeta2", tuple(vals))
