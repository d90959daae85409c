"""Exponent-engine tests: profiles, fits, measure reports, empirical checks."""

import math
from fractions import Fraction
from itertools import chain, product, starmap

import pytest

from qzeta import measures
from qzeta.cli import main
from qzeta.forms import LinearForm, RatFunc, verify_inclusion
from qzeta.groups import nu_l, omega, zeta1_group
from qzeta.linforms import APERY, BV, THEOREM1, THEOREM2, Family
from qzeta.params import PARAMS, CVector, ParamsZ1, ParamsZ2, cvector
from qzeta.measures import (
    MEASURE_BASES,
    EmpiricalMu,
    MFit,
    _limit_value_at_one,
    apery_numbers,
    d_exponent,
    direction,
    empirical_mu,
    fit_M_coeff,
    group_for,
    measure,
    mu_bound,
    nu_profile,
    omega_exponent,
)
from qzeta.store import Store

BV_MU = 2 * math.pi**2 / (math.pi**2 - 2)


def _scaled(d: CVector, t: int) -> CVector:
    return CVector(d.kind, tuple(t * e for e in d.values))


def _on_lattice(d: CVector, x) -> bool:
    """Whether some floor floor(eta_j x) in the profile's defining sum jumps at x.

    Those are the points k/eta_j.  Finite-n offsets can tip the exact gain
    off the profile exactly there; phi itself may or may not jump there.
    """
    x = Fraction(x) % 1
    return x == 0 or any((x * eta).denominator == 1 for eta in d.values if eta)


class TestDirection:
    def test_theorem1_rates(self):
        assert direction(THEOREM1).values == (7, 8, 6, 8, 9, 7)

    def test_theorem2_rates(self):
        assert direction(THEOREM2).values == (11, 5, 9, 10, 6, 8, 9, 7, 7, 8)

    def test_bv_rates_all_one(self):
        assert direction(BV).values == (1,) * 6

    def test_label_lookup(self):
        d = direction(THEOREM1)
        assert d["12"] == 9 and d["00"] == 7

    def test_scaling(self):
        assert _scaled(direction(BV), 3).values == (3,) * 6

    def test_negative_rate_rejected(self):
        # admissible at n = 1..3 (a1 + a2 = 3n + 2 <= b = n + 10), but c_"12" = b - a1 - 1 falls
        bad = Family("zeta1", (1, 2, 1, 1), (10, 1, 1, 10), "bad")
        assert all(bad.params(n).admissible for n in (1, 2, 3))
        with pytest.raises(ValueError, match=r"negative growth rate in \(3, 1, 2, 1, -1, 0\)"):
            direction(bad)


def phi(segments, x) -> int:
    """A profile's value at x, reduced mod 1."""
    x = Fraction(x) % 1
    return next(value for lo, hi, value in segments if lo <= x < hi)


def base_profile(d: CVector, G, base) -> tuple:
    """The gain profile over any label set `base`, as nu_profile computed it
    when it took one: phi(x) = max_g sum_base (floor(eta_j x) - floor(eta_g(j) x)),
    in segments.  The reference for measure's image directions."""
    rate = d.as_dict()
    pts = [Fraction(0), *sorted({Fraction(k, r) for r in d.values for k in range(1, r)}), 1]
    segments = []
    for lo, hi in zip(pts, pts[1:]):
        x = (lo + hi) / 2
        floor = {j: math.floor(r * x) for j, r in rate.items()}
        value = max(sum(floor[j] - floor[g(j)] for j in base) for g in G)
        if segments and segments[-1][2] == value:
            segments[-1] = (segments[-1][0], hi, value)
        else:
            segments.append((lo, hi, value))
    return tuple(segments)


def carriers(family: Family) -> list:
    """The g in the family's group that carry its factorial labels onto its measure base."""
    S, base = direction(family).factorial_labels(), sorted(MEASURE_BASES[family.name])
    return [g for g in group_for(family.kind) if sorted(map(g, S)) == base]


class TestNuProfile:
    def test_bv_profile_vanishes(self):
        prof = nu_profile(direction(BV), group_for("zeta1"))
        assert prof == ((0, 1, 0),)
        assert phi(prof, Fraction(7, 13)) == 0

    def test_zero_near_zero_and_nonnegative(self):
        prof = nu_profile(direction(THEOREM1), group_for("zeta1"))
        assert prof[0][2] == 0
        assert min(value for _, _, value in prof) >= 0
        assert all(0 < lo < 1 for lo, _, _ in prof[1:])

    def test_right_continuity(self):
        prof = nu_profile(direction(THEOREM1), group_for("zeta1"))
        b = prof[1][0]
        eps = Fraction(1, 10**9)
        assert phi(prof, b) == phi(prof, b + eps)
        assert phi(prof, b) != phi(prof, b - eps)

    def test_phi_is_periodic(self):
        prof = nu_profile(direction(THEOREM1), group_for("zeta1"))
        assert phi(prof, Fraction(22, 7)) == phi(prof, Fraction(1, 7))

    def test_segments_tile_unit_interval(self):
        segs = nu_profile(direction(THEOREM2), group_for("zeta2"))
        assert segs[0][0] == 0 and segs[-1][1] == 1
        assert all(a[1] == b[0] and a[2] != b[2] for a, b in zip(segs, segs[1:]))

    def test_weight_violation_rejected(self):
        # tau alone does not preserve the factorial weight of the Theorem-1
        # direction; the full 12-element group must be refused.
        with pytest.raises(ValueError):
            nu_profile(direction(THEOREM1), zeta1_group())

    def test_unknown_base_rejected(self, monkeypatch):
        # ("00", "01", "11") is no image of the factorial labels ("01", "21", "22")
        monkeypatch.setitem(MEASURE_BASES, "theorem1", ("00", "01", "11"))
        with pytest.raises(ValueError, match="not in the orbit of the factorial labels"):
            measure(THEOREM1, Store())


class TestMeasureBase:
    """measure reads omega at g·d, for the g that carry the factorial labels onto its base.

    These pin what the base means: the image direction's factorial-label
    profile is the base profile, and the Omega of the base labels is not a
    divisor the exact forms allow, while the factorial labels' Omega is.
    """

    @pytest.mark.parametrize("family, count", [(THEOREM1, 2), (THEOREM2, 10)], ids=["t1", "t2"])
    def test_image_profile_is_the_base_profile(self, family, count):
        d, G = direction(family), group_for(family.kind)
        reference = base_profile(d, G, MEASURE_BASES[family.name])
        assert len(carriers(family)) == count
        assert all(nu_profile(g.apply(d), G) == reference for g in carriers(family))

    @pytest.mark.parametrize(
        "family, pinned",
        [(THEOREM1, "0x1.b79c0ea7404d1p+3"), (THEOREM2, "0x1.b2da59290f7b4p+4")],
        ids=["t1", "t2"],
    )
    def test_omega_exp_is_pinned(self, family, pinned, monkeypatch):
        d, G = direction(family), group_for(family.kind)
        assert omega_exponent(base_profile(d, G, MEASURE_BASES[family.name])).hex() == pinned
        # omega needs no form: a stub fit keeps the check fast
        monkeypatch.setattr(measures, "fit_M_coeff", lambda *_: MFit(Fraction(80), (), (), True))
        assert measure(family, Store()).omega_exp.hex() == pinned

    @pytest.mark.parametrize(
        "family, n, deficit",
        [(THEOREM1, 2, "Phi_17 exponent deficit in B"), (THEOREM2, 1, "Phi_7 exponent deficit in B")],
        ids=["t1", "t2"],
    )
    def test_base_label_omega_fails_inclusion(self, store, family, n, deficit):
        form, G = store.form(family.params(n)), group_for(family.kind)
        assert verify_inclusion(form, omega(form.cvec, G))
        for g in carriers(family):
            found = verify_inclusion(form, omega(g.apply(form.cvec), G))
            assert not found and found.witness.startswith(deficit), found


class TestProfileExactAgreement:
    """The profile is the bulk limit of the exact gain.

    Exact floors and profile floors can only disagree when {n/l} sits on a
    breakpoint, where the per-n offsets tip the balance; those moduli are
    checked to deviate by at most 1 and everything else must agree exactly.
    """

    def check(self, family, n, base):
        d, c, G = direction(family), cvector(family.params(n)), group_for(family.kind)
        if base is not None:
            # the exact gain over base = g0(S), g0 in G, is nu_l of g0·c over
            # the factorial labels S: g·g0 runs over G as g does
            g0 = next(g for g in G if sorted(map(g, c.factorial_labels())) == sorted(base))
            d, c = g0.apply(d), g0.apply(c)
        prof = nu_profile(d, G)
        for l in range(10, n + 1):
            x = Fraction(n, l) % 1
            exact = nu_l(c, G, l)
            if _on_lattice(d, x):
                assert abs(exact - phi(prof, x)) <= 1, (l, exact, phi(prof, x))
            else:
                assert exact == phi(prof, x), (l, exact, phi(prof, x))

    def test_theorem1_at_60_factorial_base(self):
        self.check(THEOREM1, 60, None)

    def test_theorem1_at_60_measure_base(self):
        self.check(THEOREM1, 60, MEASURE_BASES["theorem1"])

    def test_theorem2_at_40_factorial_base(self):
        self.check(THEOREM2, 40, None)

    def test_theorem2_at_40_measure_base(self):
        self.check(THEOREM2, 40, MEASURE_BASES["theorem2"])

    def test_theorem2_offsets_vanish_so_agreement_is_exact(self):
        # the Theorem-2 c-values are exactly linear in n, so even the
        # breakpoint moduli agree, down to l = 2
        prof = nu_profile(direction(THEOREM2), group_for("zeta2"))
        c = cvector(THEOREM2.params(40))
        G = group_for("zeta2")
        for l in range(2, 41):
            assert nu_l(c, G, l) == phi(prof, Fraction(40, l)), l


class TestOmegaExponent:
    def test_zero_profile(self):
        assert omega_exponent(nu_profile(direction(BV), group_for("zeta1"))) == 0.0

    def test_indicator_of_upper_half(self):
        # (3/pi^2)(psi'(1/2) - psi'(1)) = (3/pi^2)(pi^2/2 - pi^2/6) = 1
        half = Fraction(1, 2)
        assert omega_exponent(((0, half, 0), (half, 1, 1))) == pytest.approx(1.0, abs=1e-12)

    def test_quadratic_scaling(self):
        # phi_{t*eta}(x) = phi_eta({t x}) plus the trigamma multiplication
        # theorem force omega(t*eta) = t^2 * omega(eta)
        d = direction(THEOREM1)
        G = group_for("zeta1")
        w1 = omega_exponent(nu_profile(d, G))
        w2 = omega_exponent(nu_profile(_scaled(d, 2), G))
        assert w2 == pytest.approx(4 * w1, abs=1e-9)


class TestAlphaD:
    def test_alpha_theorem1(self):
        assert PARAMS["zeta1"].alpha(8, 6, 8, 15) == Fraction(335, 2)

    def test_alpha_bv(self):
        assert PARAMS["zeta1"].alpha(1, 1, 1, 2) == 3

    def test_alpha_theorem2(self):
        assert PARAMS["zeta2"].alpha(5, 6, 7, 14, 15) == 155

    def test_d_single_layer(self):
        assert d_exponent(direction(THEOREM1)) == pytest.approx(81 * 3 / math.pi**2)

    def test_d_double_layer(self):
        assert d_exponent(direction(THEOREM2)) == pytest.approx(221 * 3 / math.pi**2)


def _admissible_grid() -> list:
    """Every admissible ParamsZ1 with entries 1..8 and ParamsZ2 with entries 1..7."""
    z1 = starmap(ParamsZ1, product(range(1, 9), repeat=4))
    z2 = starmap(ParamsZ2, product(range(1, 8), repeat=5))
    return [p for p in chain(z1, z2) if p.admissible]


def _d_exponents_by_kind(c: CVector) -> dict[int, int]:
    """D's exponents as written per kind: one layer of depth m1 for zeta1,
    layers of depths m1 and m2 for zeta2 (m1 >= m2 the two largest c-values)."""
    m1, m2 = sorted(c.values, reverse=True)[:2]
    if c.kind == "zeta1":
        return {l: 1 for l in range(1, m1 + 1)}
    return {l: (2 if l <= m2 else 1) for l in range(1, m1 + 1)}


def _d_exponent_by_kind(d: CVector) -> float:
    m1, m2 = sorted(d.values, reverse=True)[:2]
    return 3 / math.pi**2 * (m1**2 if d.kind == "zeta1" else m1**2 + m2**2)


class TestKLayers:
    """D's exponents and density from the k top c-values, against the per-kind
    formulas they replace, exactly (the density down to the float)."""

    def test_on_the_params_grid(self):
        grid = _admissible_grid()
        assert len(grid) == 1627
        for params in grid:
            form = LinearForm(params, RatFunc.zero(), RatFunc.zero())
            assert form.d_exponents() == _d_exponents_by_kind(form.cvec), params
            assert d_exponent(form.cvec) == _d_exponent_by_kind(form.cvec), params

    @pytest.mark.parametrize("family", [THEOREM1, THEOREM2, BV, APERY], ids=lambda f: f.name)
    def test_on_the_families(self, family):
        d = direction(family)
        assert d_exponent(d) == _d_exponent_by_kind(d)
        for n in range(1, 9):
            form = LinearForm(family.params(n), RatFunc.zero(), RatFunc.zero())
            assert form.d_exponents() == _d_exponents_by_kind(form.cvec), n


class TestFitM:
    def test_bv_coefficient(self, store):
        fit = fit_M_coeff(BV, 12, store)
        assert fit.coeff == Fraction(3, 2)
        assert fit.stable and fit.period == 1
        assert set(fit.second_diffs) == {3}

    def test_constant_family_fits_zero(self, store):
        toy = Family("zeta1", (0, 0, 0, 0), (2, 1, 1, 2), "toy")
        fit = fit_M_coeff(toy, 6, store)
        assert fit.coeff == 0 and fit.stable

    def test_small_range_rejected(self, store):
        with pytest.raises(ValueError):
            fit_M_coeff(BV, 5, store)


class TestMuBound:
    def test_bv_closed_form(self):
        rep = mu_bound(3, 3 / math.pi**2, 0.0, Fraction(3, 2))
        assert rep.mu_bound == pytest.approx(BV_MU, abs=1e-8)

    def test_report_identities(self):
        rep = mu_bound(3, 3 / math.pi**2, 0.0, Fraction(3, 2))
        assert rep.kappa == pytest.approx(rep.lambda_ + float(rep.alpha), abs=1e-12)
        assert rep.mu_bound == pytest.approx(-float(rep.alpha) / rep.lambda_, abs=1e-12)

    def test_no_decay_is_an_error(self):
        with pytest.raises(ValueError, match="no irrationality conclusion"):
            mu_bound(3, 2.0, 0.0, 1)

    def test_scale_invariance(self):
        a, d, w, m = 3.0, 3 / math.pi**2, 0.25, Fraction(3, 2)
        base = mu_bound(Fraction(3), d, w, m).mu_bound
        for t in (2, 5):
            scaled = mu_bound(t**2 * Fraction(3), t**2 * d, t**2 * w, t**2 * m)
            assert scaled.mu_bound == pytest.approx(base, rel=1e-12)


class TestMeasure:
    def test_bv(self, store):
        rep = measure(BV, store)
        assert rep.M_coeff == Fraction(3, 2)
        assert rep.M_fit == fit_M_coeff(BV, 12, store)
        assert rep.omega_exp == 0.0
        assert rep.mu_bound == pytest.approx(BV_MU, abs=1e-8)

    def test_theorem1(self, store):
        rep = measure(THEOREM1, store)
        assert rep.alpha == Fraction(335, 2)
        assert rep.M_coeff == 80
        assert rep.mu_bound == pytest.approx(2.42343562, abs=1e-6)

    def test_theorem2(self, store):
        rep = measure(THEOREM2, store)
        assert rep.alpha == 155
        assert rep.M_coeff == 78
        assert rep.mu_bound == pytest.approx(4.07869374, abs=1e-6)

    def test_lambda_negative_for_all_reported_families(self, store):
        for fam in (BV, THEOREM1, THEOREM2):
            assert measure(fam, store).lambda_ < 0


class TestEmpiricalMu:
    def test_bv_drifts_toward_closed_form(self, store):
        res = empirical_mu(BV, 2, 10, store)
        ests = res.estimates
        assert res.decaying
        assert all(e > 1 for e in ests)
        assert abs(ests[-1] - BV_MU) < 0.25
        # converging: the last oscillation is tighter than the first
        assert max(ests[-3:]) - min(ests[-3:]) < max(ests[:3]) - min(ests[:3])

    def test_theorem1_exceeds_its_bound(self, store):
        bound = measure(THEOREM1, store).mu_bound
        ests = empirical_mu(THEOREM1, 2, 4, store).estimates
        assert all(e > bound for e in ests)
        assert ests[-1] < 3.0

    def test_any_family_first_estimate_finite(self, store):
        assert empirical_mu(APERY, 2, 1, store).estimates[0] > 1

    def test_bad_p(self, store):
        with pytest.raises(ValueError):
            empirical_mu(BV, 1, 3, store)

    def test_empty_range(self, store):
        with pytest.raises(ValueError):
            empirical_mu(BV, 2, 0, store)

    @pytest.mark.parametrize(
        "logs, decaying",
        [
            ((-1.0,), True),
            ((0.5,), False),
            ((-1.0, -3.0, -2.0), True),
            ((-3.0, -2.0, -1.0), False),
            ((2.0, 1.0, 0.5), False),
        ],
    )
    def test_decay_rule(self, logs, decaying):
        assert EmpiricalMu((2.0,) * len(logs), logs).decaying is decaying


class TestAperyLimit:
    def test_oracle_values(self):
        assert apery_numbers(4) == [1, 3, 19, 147, 1251]

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_limit_matches_oracle(self, store, n):
        # the p -> 1 limit of A is A_n exactly, up to sign
        assert abs(_limit_value_at_one(store.form(APERY.params(n)))) == apery_numbers(n)[n]

    def test_cost_bound(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("QZETA_CACHE", str(tmp_path))
        assert main(["apery", "--n-max", "5"]) == 2
        assert "apery is cost-bounded to --n-max <= 4" in capsys.readouterr().err
