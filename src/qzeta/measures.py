"""Growth exponents and irrationality-measure bounds.

Scaling a linear form by Delta_n = p^{-M(n)} D(p) / Omega(p) clears every
denominator.  How fast |Delta_n F| then dies as n grows, raced against how
fast the cleared coefficient |Delta_n A| blows up, is what bounds the
irrationality exponent of the approximated value.  Every ingredient of that
race grows like |p|^{(coefficient) n^2}, and this module extracts the four
coefficients:

  alpha   termwise bound on the coefficient size |A| (params.alpha_exponent),
  d_exp   density of the denominator product D, over its k layers,
  omega   mod-1 profile of the cyclotomic gain (groups.gain), integrated
          against the trigamma measure,
  M_coeff exact p-power sequence M(n), fitted by second differences.

They combine into mu = alpha / (M_coeff - d_exp + omega), valid whenever
the scaled forms decay at all (lambda = -M_coeff + d_exp - omega < 0).
empirical_mu measures the same exponent directly from exact forms at small
n, as a check that the asymptotic bookkeeping describes the real objects.
`apery` compares _limit_value_at_one, a coefficient's p -> 1 limit, with
apery_numbers exactly.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .density import DENSITY, trigamma
from .forms import LinearForm
from .groups import Group, gain, group_for, omega
from .linforms import Family, _log_abs, numeric_form_value
from .params import CVector, alpha_exponent, cvector
from .parith import cyclotomic_value
from .store import Store

# every empirical estimate's enclosure of F is narrower than 2^-_MU_BITS
_MU_BITS = 320


# --------------------------------------------------------------------------
# directions and profiles


def direction(family: Family) -> CVector:
    """Per-n growth rates of a family's labeled c-values (the offsets drop out)."""
    c1, c2, c3 = (cvector(family.params(n)) for n in (1, 2, 3))
    eta = tuple(b - a for a, b in zip(c1.values, c2.values))
    if tuple(b - a for a, b in zip(c2.values, c3.values)) != eta:
        raise ValueError("family is not affine in n")
    if any(e < 0 for e in eta):
        raise ValueError(f"negative growth rate in {eta}")
    return CVector(family.kind, eta)


def nu_profile(d: CVector, G: Group) -> tuple[tuple[Fraction, Fraction, int], ...]:
    """The gain at modulus l as a step function of x = {n/l}: (lo, hi, value) segments of [0, 1).

    For l in the bulk (both l and n/l large) the exact gain depends on n and
    l only through {n/l}, and tends to groups.gain of the direction d at x:
    right-continuous, jumping only at points k/eta_j, zero near 0 and >= 0.
    Equal neighbours are merged.  Every group element must carry the
    factorial labels to a set of equal total eta-weight — that kills the
    linear term and makes the gain periodic mod 1.  Exact gains at finite n
    agree with the profile except possibly where {n/l} sits exactly on a
    point k/eta_j, where the per-n offsets can tip a floor either way.
    """
    if G.generators[0].labels != d.labels:
        raise ValueError("group acts on a different label set")
    S = d.factorial_labels()
    weight = sum(d[j] for j in S)
    for g in G:
        if sum(d[g(j)] for j in S) != weight:
            raise ValueError(f"{g!r} does not preserve the factorial eta-weight")
    cuts = {Fraction(k, eta) for eta in d.values for k in range(1, eta)}
    pts = [Fraction(0), *sorted(cuts), Fraction(1)]
    segments = []
    for lo, hi in zip(pts, pts[1:]):
        x = (lo + hi) / 2
        value = gain(d, G, x.numerator, x.denominator)
        if segments and segments[-1][2] == value:
            segments[-1] = (segments[-1][0], hi, value)
        else:
            segments.append((lo, hi, value))
    if segments[0][2] != 0:
        raise AssertionError("profile must vanish near 0")
    return tuple(segments)


def omega_exponent(segments) -> float:
    """n^2-coefficient of log_|p| Omega: (3/pi^2) * sum_i phi_i (psi'(u_i) - psi'(v_i)).

    Moduli l with {n/l} in [u, v) contribute log Phi_l ~ with density
    (3/pi^2) per unit of psi'(u) - psi'(v); summing segment by segment
    integrates the profile against that measure.  Certified trigamma keeps
    the result accurate to ~1e-12, far below any tolerance used downstream.
    """
    total = 0.0
    for lo, hi, val in segments:
        if val:
            total += val * (float(trigamma(lo).mid) - float(trigamma(hi).mid))
    return DENSITY * total


# --------------------------------------------------------------------------
# the other three exponents


def d_exponent(d: CVector) -> float:
    """n^2-coefficient of log D: (3/pi^2) x the squared top rates, one per factorial layer."""
    return DENSITY * sum(m * m for m in d.top)


# fitted leading coefficient of M(n), with the evidence
MFit = namedtuple("MFit", "coeff values second_diffs stable period warning", defaults=(1, ""))


def fit_M_coeff(family: Family, n_max: int, store: Store) -> MFit:
    """Quadratic coefficient of n -> M(n) from exact forms at n = 1..n_max.

    Second differences of a quadratic are constant; the fit demands that on
    a tail, retrying per residue class of n mod r for r <= 4 in case they
    oscillate.  If nothing stabilizes the tail average is returned with a
    warning rather than an exception — the caller sees the residuals.
    """
    if n_max < 6:
        raise ValueError("need n_max >= 6 to judge stabilization")
    ms = tuple(store.form(family.params(n)).M for n in range(1, n_max + 1))
    d2 = tuple(ms[i + 2] - 2 * ms[i + 1] + ms[i] for i in range(len(ms) - 2))
    for r in (1, 2, 3, 4):
        if n_max < 4 * r:
            break
        coeffs = set()
        settled = True
        for s in range(r):
            cls = ms[s::r]
            dd = [cls[i + 2] - 2 * cls[i + 1] + cls[i] for i in range(len(cls) - 2)]
            if len(dd) < 2 or dd[-1] != dd[-2]:
                settled = False
                break
            coeffs.add(Fraction(dd[-1], 2 * r * r))
        if settled and len(coeffs) == 1:
            return MFit(coeffs.pop(), ms, d2, True, r)
    tail = d2[len(d2) // 2 :]
    return MFit(
        Fraction(sum(tail), 2 * len(tail)),
        ms,
        d2,
        False,
        0,
        "second differences did not stabilize; tail average used",
    )


# --------------------------------------------------------------------------
# assembly


# All four exponents and the bound they imply.  lambda_ = -M_coeff + d_exp -
# omega_exp is the decay exponent of the scaled form, kappa = lambda_ + alpha
# the growth exponent of the scaled coefficients, and mu_bound = -alpha/lambda_
# the resulting bound.
MeasureReport = namedtuple(
    "MeasureReport",
    "alpha d_exp omega_exp M_coeff kappa lambda_ mu_bound M_fit",
    defaults=(None,),
)


def mu_bound(alpha, d_exp: float, omega_exp: float, M_coeff) -> MeasureReport:
    """Combine the four n^2-exponents; errors out if the forms do not decay."""
    alpha, M_coeff = Fraction(alpha), Fraction(M_coeff)
    lam = float(-M_coeff) + d_exp - omega_exp
    if lam >= 0:
        raise ValueError(
            f"no irrationality conclusion for this family: lambda = {lam:.6f} >= 0"
        )
    return MeasureReport(
        alpha=alpha,
        d_exp=d_exp,
        omega_exp=omega_exp,
        M_coeff=M_coeff,
        kappa=lam + float(alpha),
        lambda_=lam,
        mu_bound=-float(alpha) / lam,
    )


# Profile base per family: omega is read at the direction g·d for the g in
# the group that carries the factorial labels S onto the base, and measure
# raises if no g does.  The theorem families use the orbit representative
# under which their sharpest constant is attained.  M stays the family's
# own, fitted from its forms at S: the bound pairs omega at the base with
# M at S.  Everything finite-n (inclusion, Delta, empirical-mu) is at S.
MEASURE_BASES: dict[str, tuple[str, ...]] = {
    "theorem1": ("01", "11", "12"),
    "theorem2": ("13", "22", "31", "32", "33"),
}

_FIT_RANGE = {"bv": 12, "apery": 8}


def measure(family: Family, store: Store, fit_n_max: int | None = None) -> MeasureReport:
    """Full exponent report for a family.

    alpha comes from the parameter rates, d_exp from the top c-rates, omega
    from the gain profile at the family's measure base, and M_coeff from
    the exact forms at n <= fit_n_max (default 6, BV 12, apery 8: its
    second differences alternate, and a period-2 fit needs the forms up to
    n = 8); the report keeps that fit as M_fit.  Raises ValueError if the
    base is not in the orbit of the factorial labels.
    """
    d, G = direction(family), group_for(family.kind)
    image = d
    if (base := MEASURE_BASES.get(family.name)) is not None:
        S = d.factorial_labels()
        g = next((g for g in G if sorted(map(g, S)) == sorted(base)), None)
        if g is None:
            raise ValueError(f"measure base {base} is not in the orbit of the factorial labels {S}")
        image = g.apply(d)
    omega_exp = omega_exponent(nu_profile(image, G))
    if fit_n_max is None:
        fit_n_max = _FIT_RANGE.get(family.name, 6)
    fit = fit_M_coeff(family, fit_n_max, store)
    # omega at the base image, M from the family's own forms
    rep = mu_bound(alpha_exponent(family.rates, family.kind), d_exponent(d), omega_exp, fit.coeff)
    return rep._replace(M_fit=fit)


# --------------------------------------------------------------------------
# empirical estimates from the exact forms


class EmpiricalMu(namedtuple("EmpiricalMu", "estimates log_residues")):
    """Exponent estimates for n = 1..n_max and the log|Delta_n F_n| behind them."""

    __slots__ = ()

    @property
    def decaying(self) -> bool:
        """|Delta F| ends below 1 and, past n = 1, below its value at n = 1."""
        r = self.log_residues
        return r[-1] < 0 and (len(r) == 1 or r[-1] < r[0])


def empirical_mu(family: Family, p: int, n_max: int, store: Store) -> EmpiricalMu:
    """Estimates 1 + log|a_n| / (-log|a_n zeta - b_n|) for n = 1..n_max.

    a_n = Delta A(p) and b_n = Delta B(p) are the exactly cleared integer
    coefficients, Delta = p^{-M} D(p) / Omega(p).  The residue a_n zeta - b_n
    equals Delta times the form value, so it is evaluated as exact Delta
    times a certified enclosure of F (narrower than 2^-_MU_BITS) — no
    cancellation, no extended precision in the logarithm.  Raises if a
    cleared coefficient fails to be a nonzero integer; whether |Delta F|
    shrinks over the range is left to the caller, through
    EmpiricalMu.decaying.
    """
    if abs(p) < 2:
        raise ValueError("need |p| >= 2")
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    G = group_for(family.kind)
    estimates, decay = [], []
    for n in range(1, n_max + 1):
        form = store.form(family.params(n))
        om = omega(form.cvec, G).value_at(p)
        delta = Fraction(p) ** (-form.M) * form.d_value(p) / om
        a_n = delta * form.A.value_at(p)
        b_n = delta * form.B.value_at(p)
        for name, x in (("a", a_n), ("b", b_n)):
            if x.denominator != 1:
                raise ValueError(f"cleared coefficient {name}_{n} is not an integer")
        if a_n == 0:
            raise ValueError(f"vanishing coefficient a_{n}")
        enc = numeric_form_value(family.params(n), p, _MU_BITS)
        if enc.contains(0):
            raise ValueError(f"enclosure of F at n={n} straddles 0 at 2^-{_MU_BITS}")
        log_mag = (_log_abs(enc.lo) + _log_abs(enc.hi)) / 2
        log_residue = _log_abs(delta) + log_mag
        estimates.append(1 + _log_abs(a_n) / (-log_residue))
        decay.append(log_residue)
    return EmpiricalMu(tuple(estimates), tuple(decay))


# --------------------------------------------------------------------------
# the classical limit of the second-kind coefficients


def apery_numbers(n_max: int) -> list[int]:
    """A_n = sum_k C(n,k)^2 C(n+k,k) for n = 0..n_max."""
    return [
        sum(math.comb(n, k) ** 2 * math.comb(n + k, k) for k in range(n + 1))
        for n in range(n_max + 1)
    ]


def _limit_value_at_one(form: LinearForm) -> Fraction:
    """Value of A at p = 1, normalized by the unique power of (p - 1).

    A has a zero or pole at p = 1 of some finite order; stripping exactly
    that order leaves a finite nonzero rational.  Raises if the numerator
    vanishes identically.
    """
    num = form.A.num
    if not num:
        raise ValueError("zero coefficient has no limit value")
    num = num.split_cyclotomic(1)[1]
    if num(1) == 0:
        raise AssertionError("nonzero polynomial still vanishing after stripping")
    val = Fraction(num(1))
    for l, e in form.A.dphi.items():
        if l == 1:
            continue  # the (p - 1)-order is stripped by definition
        val /= Fraction(cyclotomic_value(l, 1)) ** e
    return val  # p^dpow -> 1
