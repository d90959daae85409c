"""Group-side tests: permutation actions, orders, Omega, stability."""

import math
from fractions import Fraction

import pytest
from test_linforms import linform

from qzeta import groups, linforms
from qzeta.dyadic import Enclosure
from qzeta.groups import (
    SIGMA,
    TAU,
    Group,
    Perm,
    nu_l,
    omega,
    params_from_cvector,
    stability_sweep,
    stable_quantity,
    zeta1_arith_group,
    zeta1_group,
    zeta2_group,
)
from qzeta.forms import verify_inclusion
from qzeta.linforms import THEOREM1, THEOREM2, numeric_form_value
from qzeta.params import LABELS_Z1, CVector, ParamsZ1, ParamsZ2, cvector
from qzeta.parith import FactoredPPoly, PPoly


def q_factorial_value(n: int, p: int) -> Fraction:
    """[n]_q! at q = 1/p, exactly, from k = 1 (the oracle for stable_quantity's product)."""
    if n < 0 or abs(p) < 2:
        raise ValueError("need n >= 0 and |p| >= 2")
    q = Fraction(1, p)
    out = Fraction(1)
    for k in range(1, n + 1):
        out *= (1 - q**k) / (1 - q)
    return out


def tau_params(params: ParamsZ1) -> ParamsZ1:
    """(a0,a1,a2,b) -> (a1, b-a1, a0, a0+a2); the image may be inadmissible."""
    a0, a1, a2, b = params
    return ParamsZ1(a1, b - a1, a0, a0 + a2)


def sigma_params(params: ParamsZ1) -> ParamsZ1:
    """(a0,a1,a2,b) -> (a0,a2,a1,b); always admissible with the input."""
    a0, a1, a2, b = params
    return ParamsZ1(a0, a2, a1, b)


def _identity(labels) -> Perm:
    return Perm(labels, labels)


def _generate_by_products(generators) -> tuple[Perm, ...]:
    """Oracle for generate's order: breadth-first over Perm products, each level
    sorted by images after the identity."""
    ident = _identity(generators[0].labels)
    seen, frontier, elements = {ident.images}, [ident], [ident]
    while frontier:
        nxt = []
        for h in frontier:
            for g in generators:
                prod = g * h
                if prod.images not in seen:
                    seen.add(prod.images)
                    nxt.append(prod)
        nxt.sort(key=lambda p: p.images)
        elements.extend(nxt)
        frontier = nxt
    return tuple(elements)


def _inverse(g: Perm) -> Perm:
    inv = {image: label for label, image in zip(g.labels, g.images)}
    return Perm(g.labels, tuple(inv[label] for label in g.labels))


def _order(g: Perm) -> int:
    power, n, ident = g, 1, _identity(g.labels)
    while power != ident:
        power, n = power * g, n + 1
    return n


class TestPerm:
    def test_cycle_reading(self):
        g = Perm.from_cycles(("a", "b", "c"), [("a", "b", "c")])
        assert g("a") == "b" and g("b") == "c" and g("c") == "a"

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Perm(("a", "b"), ("a", "a"))

    def test_compose_and_inverse(self):
        ident = _identity(LABELS_Z1)
        assert TAU * _inverse(TAU) == ident
        assert _inverse(TAU * SIGMA) == _inverse(SIGMA) * _inverse(TAU)

    def test_orders(self):
        assert _order(TAU) == 6
        assert _order(SIGMA) == 2

    def test_apply_is_action(self):
        cv = cvector(ParamsZ1(9, 7, 9, 16))
        g, h = TAU, SIGMA
        assert (g * h).apply(cv) == g.apply(h.apply(cv))


class TestGroups:
    def test_orders(self):
        assert len(zeta1_group()) == 12
        assert len(zeta1_arith_group()) == 6
        assert len(zeta2_group()) == 120

    @pytest.mark.parametrize("make", [zeta1_group, zeta1_arith_group, zeta2_group])
    def test_generation_order_matches_perm_products(self, make):
        G = make()
        assert G.elements == _generate_by_products(G.generators)

    def test_generation_deterministic(self):
        a = [g.images for g in zeta2_group()]
        b = [g.images for g in zeta2_group()]
        assert a == b

    def test_closure(self):
        G = zeta1_group()
        els = set(G.elements)
        for g in G:
            assert _inverse(g) in els
            assert g * TAU in els

    def test_arith_subgroup(self):
        big = set(zeta1_group().elements)
        assert all(g in big for g in zeta1_arith_group())


class TestParameterMaps:
    def test_tau_example(self):
        assert tau_params(ParamsZ1(9, 7, 9, 16)) == (7, 9, 9, 18)

    def test_tau_fixed_point(self):
        assert tau_params(ParamsZ1(1, 1, 1, 2)) == (1, 1, 1, 2)

    def test_sigma_swap_and_involution(self):
        x = ParamsZ1(9, 7, 9, 16)
        assert sigma_params(x) == (9, 9, 7, 16)
        assert sigma_params(sigma_params(x)) == x

    @pytest.mark.parametrize(
        "x", [ParamsZ1(9, 7, 9, 16), ParamsZ1(5, 2, 3, 5), ParamsZ1(4, 3, 4, 7)]
    )
    def test_label_consistency(self, x):
        cv = cvector(x)
        assert tau_params(x).c_values() == TAU.apply(cv).values
        assert sigma_params(x).c_values() == SIGMA.apply(cv).values

    def test_tau_image_can_be_inadmissible(self):
        # a1 + a2 < b makes the tau image leave the convergence region
        assert not tau_params(ParamsZ1(17, 13, 17, 31)).admissible


class TestFactorialWeight:
    """The nu-groups preserve sum of c over the factorial labels; tau alone does not."""

    def test_zeta1(self):
        cv = cvector(ParamsZ1(17, 13, 17, 31))
        S = cv.factorial_labels()
        w = sum(cv[j] for j in S)
        for g in zeta1_arith_group():
            assert sum(cv[g(j)] for j in S) == w
        assert sum(cv[TAU(j)] for j in S) != w

    def test_zeta2(self):
        cv = cvector(ParamsZ2(11, 13, 15, 30, 32))
        S = cv.factorial_labels()
        w = sum(cv[j] for j in S)
        for g in zeta2_group():
            assert sum(cv[g(j)] for j in S) == w


class TestInversion:
    @pytest.mark.parametrize(
        "x",
        [
            ParamsZ1(9, 7, 9, 16),
            ParamsZ1(1, 1, 1, 2),
            ParamsZ2(6, 7, 8, 16, 17),
            ParamsZ2(1, 1, 1, 2, 2),
        ],
    )
    def test_round_trip(self, x):
        assert params_from_cvector(cvector(x)) == x

    def test_unrealizable(self):
        bad = CVector("zeta1", (5, 0, 0, 0, 0, 0))  # c00 inconsistent with the rest
        assert params_from_cvector(bad) is None

    def test_group_images_of_zeta2_all_realizable(self):
        cv = cvector(ParamsZ2(6, 7, 8, 16, 17))
        for g in zeta2_group():
            assert params_from_cvector(g.apply(cv)) is not None


def _pi_p(c, labels) -> PPoly:
    """prod_j [c_j]_p!, grown by f·[v]_p = f·(p^v - 1)/(p - 1), no dense product."""
    f = PPoly.const(1)
    for j in labels:
        for v in range(1, c[j] + 1):
            f = f.mul_binomial(v).div_binomial(1)
    return f


class TestNu:
    def test_rejects_small_l(self):
        cv = cvector(ParamsZ1(9, 7, 9, 16))
        with pytest.raises(ValueError):
            nu_l(cv, zeta1_arith_group(), 1)

    def test_identity_group_gives_zero(self):
        cv = cvector(ParamsZ1(17, 13, 17, 31))
        trivial = Group((_identity(LABELS_Z1),), (_identity(LABELS_Z1),))
        assert all(nu_l(cv, trivial, l) == 0 for l in range(2, cv.m + 1))

    def test_zero_beyond_m(self):
        cv = cvector(ParamsZ1(9, 7, 9, 16))
        G = zeta1_arith_group()
        assert nu_l(cv, G, cv.m + 1) == 0
        assert nu_l(cv, G, 50) == 0

    @pytest.mark.parametrize("n", [1, 2])
    def test_floor_equals_division(self, n):
        cv = cvector(THEOREM1.params(n))
        G = zeta1_arith_group()
        S = cv.factorial_labels()
        base = _pi_p(cv, S)
        for l in range(2, cv.m + 1):
            by_division = max(base.ord_at(l) - _pi_p(g.apply(cv), S).ord_at(l) for g in G)
            assert nu_l(cv, G, l) == by_division

    def test_floor_equals_division_zeta2_spot(self):
        cv = cvector(THEOREM2.params(2))
        G = zeta2_group()
        S = cv.factorial_labels()
        base = _pi_p(cv, S)
        for l in (2, 7, 13, 20):
            by_division = max(base.ord_at(l) - _pi_p(g.apply(cv), S).ord_at(l) for g in G)
            assert nu_l(cv, G, l) == by_division


class TestOmega:
    def test_bv_trivial(self):
        om = omega(cvector(ParamsZ1(2, 2, 2, 4)), zeta1_arith_group())
        assert om == FactoredPPoly()

    def test_theorem1_n2_nontrivial_and_divides(self, store):
        params = THEOREM1.params(2)
        om = omega(cvector(params), zeta1_arith_group())
        assert om.exponents
        f = linform(store, params, certify_at=None)
        assert verify_inclusion(f, om)

    def test_theorem2_n1_nontrivial_and_divides(self, store):
        params = THEOREM2.params(1)
        om = omega(cvector(params), zeta2_group())
        assert om.exponents
        f = linform(store, params, certify_at=None)
        assert verify_inclusion(f, om)

    def test_exponents_are_nu_l_for_every_l(self):
        for family, G in ((THEOREM1, zeta1_arith_group()), (THEOREM2, zeta2_group())):
            cv = cvector(family.params(2))
            om, ls = omega(cv, G), range(2, cv.m + 1)
            assert om.p_power == 0 and om.unit == 1 and set(om.exponents) <= set(ls)
            assert all(om.exponents.get(l, 0) == nu_l(cv, G, l) for l in ls)
            assert len(om.exponents) >= 3


class TestStability:
    def test_q_factorial(self):
        assert q_factorial_value(0, 2) == 1
        assert q_factorial_value(3, 2) == Fraction(21, 8)

    def test_identity(self):
        base, rows = stability_sweep(ParamsZ1(9, 7, 9, 16), zeta1_group(), 2, 320)
        assert rows[0] == (_identity(LABELS_Z1), base)

    def test_sigma_tight_width(self):
        x = ParamsZ1(9, 7, 9, 16)
        assert params_from_cvector(SIGMA.apply(cvector(x))) == (9, 9, 7, 16)
        base, rows = stability_sweep(x, zeta1_group(), 2, 320)
        q = dict(rows)[SIGMA]
        assert q.gap(base) == 0
        assert q.width < Fraction(1, 10**25)

    def test_tau_squared(self):
        base, rows = stability_sweep(ParamsZ1(9, 7, 9, 16), zeta1_arith_group(), 2, 320)
        assert dict(rows)[TAU * TAU].gap(base) == 0

    def test_inadmissible_image_rejected(self):
        _, rows = stability_sweep(ParamsZ1(17, 13, 17, 31), zeta1_group(), 2, 64)
        assert dict(rows)[TAU] is None

    def test_sweep_reports_skips(self):
        base, rows = stability_sweep(ParamsZ1(17, 13, 17, 31), zeta1_group(), 2, 320)
        found = [q for _, q in rows if q is not None]
        assert len(found) == 6 and all(q.gap(base) == 0 for q in found)
        assert sum(q is None for _, q in rows) == 6

    def test_sweep_refuses_inadmissible_params(self):
        with pytest.raises(ValueError, match="inadmissible parameters"):
            stability_sweep(ParamsZ1(1, 1, 1, 3), zeta1_group(), 2, 64)

    @pytest.mark.parametrize("p, prec", [(1, 320), (0, 320), (-1, 320), (2, 0), (2, -1)])
    def test_sweep_refuses_points_outside_the_domain(self, p, prec):
        # a domain error is not an inadmissible image: no skipped rows
        with pytest.raises(ValueError, match=r"stability needs \|p\| >= 2 and prec >= 1"):
            stability_sweep(THEOREM1.params(1), zeta1_group(), p=p, bits=prec)

    def test_sweep_encloses_each_tuple_once(self, monkeypatch):
        # theorem1 n = 1, as `stability` sweeps it: 6 admissible images of 3 distinct tuples
        calls = []

        def counted(params, p, bits):
            calls.append(params)
            return numeric_form_value(params, p, bits)

        monkeypatch.setattr(linforms, "numeric_form_value", counted)
        _, rows = stability_sweep(THEOREM1.params(1), zeta1_arith_group(), 2, 320)
        assert sum(q is not None for _, q in rows) == 6
        assert len(calls) == len(set(calls)) == 3

    def test_enclosures_that_miss_are_unstable(self, monkeypatch):
        # the verdict is the gap between Q(c) and Q(gc): apart by 2^-400 fails
        x, g = ParamsZ2(6, 7, 8, 16, 17), zeta2_group().generators[0]
        image = params_from_cvector(g.apply(cvector(x)))
        assert image != x
        tiny = Fraction(1, 2**400)
        for lhs, rhs, ok in ((0, tiny, False), (tiny, 0, False), (tiny, tiny, True)):
            values = {x: lhs, image: rhs}
            monkeypatch.setattr(
                groups, "stable_quantity", lambda y, p, bits: Enclosure(values[y], values[y])
            )
            base, rows = stability_sweep(x, Group((_identity(g.labels), g), (g,)), 2, 320)
            assert (dict(rows)[g].gap(base) == 0) is ok

    def test_zeta2_single_elements(self):
        base, rows = stability_sweep(ParamsZ2(6, 7, 8, 16, 17), zeta2_group(), 2, 320)
        found = dict(rows)
        for g in zeta2_group().generators:
            q = found[g]
            assert q.gap(base) == 0 and q.width < Fraction(1, 10**25)

    def test_stable_quantity_value(self):
        # Q for the simplest parameters: F = p·zeta_q(1), Pi_q = [0]! [0]! [0]! = 1
        q = stable_quantity(ParamsZ1(1, 1, 1, 2), 2, 320)
        from qzeta.qseries import zeta_q_value

        assert q.gap(2 * zeta_q_value(1, Fraction(1, 2), Fraction(1, 2**330))) == 0  # they meet

    @pytest.mark.parametrize("p", [2, 3, -2, -3, 5])
    @pytest.mark.parametrize("bits", [1, 64, 320])
    def test_stable_quantity_against_the_factorial_oracle(self, p, bits):
        # F over the q-factorials rebuilt from k = 1 for every label, at a
        # width that dividing by Pi cannot widen past 2^-bits
        for params in (THEOREM1.params(1), THEOREM2.params(1), ParamsZ1(17, 13, 17, 31)):
            cv = cvector(params)
            pi = math.prod(q_factorial_value(cv[j], p) for j in cv.factorial_labels())
            q = stable_quantity(params, p, bits)
            assert q.width < Fraction(1, 1 << bits)
            f = numeric_form_value(params, p, bits + 64)
            assert q.lo <= f.hi / pi and f.lo / pi <= q.hi  # Pi > 0
