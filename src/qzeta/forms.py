"""A linear form as data: exact rational functions of p and the form file.

A RatFunc is num(p) / (p^dpow · prod_l Phi_l(p)^dphi[l]) with an exact
PPoly numerator and a factored cyclotomic denominator.  RatFunc sums merge
pairwise in a balanced tree, neighbours by Phi-index set, and lift each
side to the common denominator through the O(degree) binomials p^d - 1
(PPoly.times_cyclotomics), never through a dense cofactor; a product,
always by a FactoredPPoly, first cancels the factor's Phi_l against the
denominator and lifts the rest the same way.  RatFunc.reduced puts a
RatFunc in lowest terms, the canonical form of a rational function, and
every stored form is in lowest terms.
A LinearForm is A·zeta_q(k) − B with RatFunc coefficients, made from
params, A and B alone: its kind is params.kind, and it derives its c-vector,
M, the p-power that p^{-M}·D clears, and D from the params.k top c-values.
form_to_json and form_from_json write and read the checksummed form file
that store.Store keeps on disk, and verify_inclusion checks the integrality
of p^{-M}·D·Omega^{-1}·{A, B} exactly.  How a form is built lives in
builders and how it is certified in linforms, so a command that reads its
forms from disk loads neither; nor does it load `fractions`, which only a
value at p (FactoredPPoly.value_at) imports.
"""

from __future__ import annotations

import json
import zlib
from collections import namedtuple

from .params import cvector
from .parith import FactoredPPoly, PPoly


# --------------------------------------------------------------------------
# rational functions of p with factored cyclotomic denominators


class RatFunc:
    """num(p) / (p^dpow · prod_l Phi_l(p)^dphi[l]), numerator an exact PPoly.

    Denominators are kept factored.  A sum reduces nothing and a product
    cancels only the Phi_l it brings; reduced() cancels the rest.  ord_p()
    does not need them reduced.  A Laurent numerator (val < 0) is taken as
    its polynomial over p^-val.
    """

    __slots__ = ("num", "dpow", "dphi")

    def __init__(self, num: PPoly, dpow: int = 0, dphi: dict[int, int] | None = None):
        if num.val < 0:
            num, dpow = num.shift(-num.val), dpow - num.val
        if dpow < 0:
            raise ValueError("denominator p-power must be nonnegative")
        dphi = {l: e for l, e in (dphi or {}).items() if e != 0}
        if any(e < 0 or l < 1 for l, e in dphi.items()):
            raise ValueError("denominator exponents must be positive")
        self.num, self.dpow, self.dphi = num, dpow, dphi

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "RatFunc":
        return RatFunc(PPoly())

    # -- ring operations ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.dpow, self.dphi)

    def __add__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc.sum((self, other))

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc.sum((self, -other))

    def __mul__(self, other: FactoredPPoly) -> "RatFunc":
        # Phi_l's net denominator exponent is dphi[l] - e: a positive one stays
        # in the denominator, a negative one goes up through the binomials
        pos, dphi = {}, dict(self.dphi)
        for l, e in other.exponents.items():
            net = dphi.get(l, 0) - e
            dphi[l], pos[l] = max(net, 0), max(-net, 0)
        num = self.num if other.unit == 1 else -self.num
        num = num.times_cyclotomics(pos).shift(max(other.p_power, 0))
        return RatFunc(num, self.dpow + max(-other.p_power, 0), dphi)

    @staticmethod
    def _merge(a: "RatFunc", b: "RatFunc") -> "RatFunc":
        """a + b over the lcm of their denominators, each side lifted through binomials."""
        dpow = max(a.dpow, b.dpow)
        dphi = {l: max(a.dphi.get(l, 0), b.dphi.get(l, 0)) for l in a.dphi | b.dphi}
        num = PPoly()
        for t in (a, b):
            cof = {l: e - t.dphi.get(l, 0) for l, e in dphi.items()}
            num = num + t.num.times_cyclotomics(cof).shift(dpow - t.dpow)
        return RatFunc(num, dpow, dphi)

    @staticmethod
    def sum(terms) -> "RatFunc":
        """Sum over p^dpow·prod_l Phi_l^dphi[l], each exponent the max over the nonzero terms.

        Numerators over one denominator are added first.  The groups are then
        sorted by their Phi-index sets, so that neighbours share most of a
        denominator, and merged pairwise in a balanced tree (the sum tree of
        Bernstein, "Fast multiplication and its applications", 2008): each
        merge lifts both sides to their common denominator through
        PPoly.times_cyclotomics, O(degree) per binomial p^d - 1.  A group
        whose numerators cancel keeps its denominator, so the root already
        has the full one, whatever the order.
        """
        groups: dict[tuple, PPoly] = {}
        for t in terms:
            if not t.is_zero():
                key = (t.dpow, tuple(sorted(t.dphi.items())))
                groups[key] = groups[key] + t.num if key in groups else t.num
        if not groups:
            return RatFunc.zero()
        order = sorted(groups, key=lambda key: ([l for l, _ in key[1]], key))
        level = [RatFunc(groups[dpow, dphi], dpow, dict(dphi)) for dpow, dphi in order]
        while len(level) > 1:
            merged = [RatFunc._merge(a, b) for a, b in zip(level[::2], level[1::2])]
            level = merged + level[len(merged) * 2 :]
        return level[0]

    def reduced(self) -> "RatFunc":
        """self in lowest terms: the common power of p cancelled, then each Phi_l
        divided out of the numerator while it divides, at most dphi[l] times."""
        if self.is_zero():
            return RatFunc.zero()
        t = min(self.num.val, self.dpow)
        num, dphi = self.num.shift(-t), {}
        for l, e in sorted(self.dphi.items()):
            k, num = num.split_cyclotomic(l, e)
            dphi[l] = e - k
        return RatFunc(num, self.dpow - t, dphi)

    # -- queries -----------------------------------------------------------

    def value_at(self, p: int):
        """The value at the integer p, an exact Fraction."""
        return self.num(p) / FactoredPPoly(self.dphi, self.dpow).value_at(p)

    def ord_p(self) -> int:
        """p-adic order; by convention 0 for the zero function."""
        if self.is_zero():
            return 0
        return self.num.val - self.dpow

    def __repr__(self):
        return f"RatFunc(num deg {self.num.degree}, dpow {self.dpow}, dphi {self.dphi})"


# --------------------------------------------------------------------------
# the linear form itself


class LinearForm:
    """A·zeta_q(k) − B with exact coefficients and its arithmetic data.

    The c-vector and M derive from params, A and B: M = min(ord_p A, ord_p B)
    is the largest M with p^{-M}·D·A and p^{-M}·D·B both in Z[p] (0 for a
    zero side), and k is params.k.
    """

    __slots__ = ("params", "A", "B", "cvec", "M")

    def __init__(self, params, A: RatFunc, B: RatFunc):
        self.params, self.A, self.B = params, A, B
        self.cvec = cvector(params)
        self.M = min(A.ord_p(), B.ord_p())

    @property
    def kind(self) -> str:
        return self.params.kind

    def d_exponents(self) -> dict[int, int]:
        """Cyclotomic exponents of the clearing product D: one factorial layer
        per top c-value, so Phi_l gets the count of those >= l."""
        top = self.cvec.top
        return {l: sum(m >= l for m in top) for l in range(1, top[0] + 1)}

    def d_value(self, p: int):
        return FactoredPPoly(self.d_exponents()).value_at(p)


# --------------------------------------------------------------------------
# the form file (qzeta.store.Store reads and writes it)


FORM_FORMAT = "qzeta-form-v3"


def _ratfunc_payload(f: RatFunc) -> dict:
    return {
        "num": [str(c) for c in f.num.coeffs],
        "dpow": f.dpow,
        "dphi": {str(l): e for l, e in sorted(f.dphi.items())},
    }


def _ratfunc_parse(d: dict) -> RatFunc:
    return RatFunc(
        PPoly(tuple(int(c) for c in d["num"])),
        int(d["dpow"]),
        {int(l): int(e) for l, e in d["dphi"].items()},
    )


def _checksum(body: dict) -> str:
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return f"{zlib.crc32(text.encode()):08x}"


def form_to_json(form: LinearForm) -> str:
    """Compact JSON of a form: format tag, params, A, B and a crc32 of those.

    M is left out; LinearForm derives it from A and B again.
    """
    body = {
        "format": FORM_FORMAT,
        "params": [str(v) for v in form.params],
        "A": _ratfunc_payload(form.A),
        "B": _ratfunc_payload(form.B),
    }
    return json.dumps({**body, "crc32": _checksum(body)}, sort_keys=True, separators=(",", ":"))


def form_from_json(text: str, params) -> LinearForm:
    """The form at `params` read back from form_to_json's text.

    Raises ValueError unless the text is a JSON object with this format tag,
    a matching crc32, exactly these params and well-formed A and B.
    """
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("form file is not a JSON object")
    crc = data.pop("crc32", None)
    if data.get("format") != FORM_FORMAT:
        raise ValueError(f"form file format is not {FORM_FORMAT}")
    if crc != _checksum(data):
        raise ValueError("form file checksum mismatch")
    if data.get("params") != [str(v) for v in params]:
        raise ValueError("form file holds other params")
    try:
        A, B = _ratfunc_parse(data["A"]), _ratfunc_parse(data["B"])
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed form field: {exc!r}") from exc
    return LinearForm(params, A, B)


# --------------------------------------------------------------------------
# inclusions


class InclusionResult(namedtuple("InclusionResult", "ok witness", defaults=(None,))):
    __slots__ = ()

    def __bool__(self) -> bool:
        return self.ok


def verify_inclusion(form: LinearForm, omega: FactoredPPoly | None = None) -> InclusionResult:
    """Exact check of p^{-M}·D·Omega^{-1}·{A, B} in Z[p].

    Only a Phi_l whose exponent in the stored denominator, with Omega's,
    exceeds D's is looked for in the numerator.  Stored forms are in lowest
    terms, so with no Omega a passing form divides by no Phi_l.
    """
    d_exp = form.d_exponents()
    o_exp = dict(omega.exponents) if omega is not None else {}
    if omega is not None and omega.p_power:
        return InclusionResult(False, "Omega carries a power of p")
    for name, coeff in (("A", form.A), ("B", form.B)):
        if coeff.is_zero():
            continue
        if coeff.ord_p() < form.M:
            return InclusionResult(False, f"p-power deficit in {name}")
        ls = set(coeff.dphi) | set(o_exp)
        for l in sorted(ls):
            need = coeff.dphi.get(l, 0) + o_exp.get(l, 0) - d_exp.get(l, 0)
            if need <= 0:
                continue
            have = coeff.num.split_cyclotomic(l, need)[0]
            if have < need:
                return InclusionResult(
                    False, f"Phi_{l} exponent deficit in {name}: need {need}, have {have}"
                )
    return InclusionResult(True)
