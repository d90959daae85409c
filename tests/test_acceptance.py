"""Top-level acceptance suite: fifteen numbered end-to-end criteria.

Each test prints one PASS/FAIL line (visible under `pytest -s` or in the
captured output of a failure) and then asserts.  Where a criterion carries
a time budget, the elapsed wall time is checked too, with generous slack
left for slow machines: the budgets are 10x what the reference hardware
needs.

The expected constants come from independent computations — closed forms,
gcd-based polynomial lcm, binomial-sum sequences — not from re-running the
code under test.
"""

import math
import time
from fractions import Fraction

from test_parith import _frac_divrem, _frac_gcd, binomial

from qzeta.density import mertens_ratio, phi_block_sum, trigamma
from qzeta.forms import verify_inclusion
from qzeta.groups import stability_sweep, zeta1_arith_group, zeta1_group, zeta2_group
from qzeta.linforms import BV, FAMILIES, THEOREM1, THEOREM2
from qzeta.measures import (
    empirical_mu,
    fit_M_coeff,
    group_for,
    measure,
    _limit_value_at_one,
)
from qzeta.parith import dnp, gauss_factorial, ord_phi_factorial
from qzeta.qseries import jacobi_check, rho, zeta_q_series

BV_CONSTANT = 2 * math.pi**2 / (math.pi**2 - 2)


def _line(num: int, ok: bool, text: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}  {text}")
    assert ok, f"criterion {num:02d}: {text}"


def test_c01_rho_at_one_is_factorial():
    t0 = time.perf_counter()
    values = [rho(k)(1) for k in range(1, 13)]
    ok = values == [math.factorial(k - 1) for k in range(1, 13)]
    elapsed = time.perf_counter() - t0
    _line(1, ok and elapsed < 10, f"rho_k(1) = (k-1)! for k <= 12 in {elapsed:.3f}s")


def test_c02_three_series_representations_agree():
    t0 = time.perf_counter()
    ok = True
    for k in range(1, 9):
        ref = zeta_q_series(k, 200, "divisor-sum").coeffs
        ok = ok and zeta_q_series(k, 200, "lambert").coeffs == ref
        ok = ok and zeta_q_series(k, 200, "rho").coeffs == ref
    elapsed = time.perf_counter() - t0
    _line(2, ok and elapsed < 300, f"3 routes to q^200 for k <= 8 in {elapsed:.2f}s")


def test_c03_factorial_orders_full_sweep():
    t0 = time.perf_counter()
    ok = True
    for n in range(2, 61):
        fact = gauss_factorial(n)
        for l in range(2, n + 1):
            want = ord_phi_factorial(l, n)
            assert want == n // l
            if fact.ord_at(l, cap=want + 1) != want:
                ok = False
    elapsed = time.perf_counter() - t0
    _line(3, ok and elapsed < 1200, f"ord at Phi_l for 2 <= l <= n <= 60 in {elapsed:.1f}s")


def test_c04_dnp_matches_gcd_based_lcm():
    # Independent oracle: running lcm over Q via the Euclidean algorithm,
    # fed only the raw binomials p^v - 1.
    lcm = [Fraction(1)]
    ok = True
    for v in range(1, 41):
        f = [Fraction(c) for c in binomial(v).coeffs]
        g = _frac_gcd(lcm, f)
        prod = [Fraction(0)] * (len(lcm) + len(f) - 1)
        for i, a in enumerate(lcm):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        q, r = _frac_divrem(prod, g)
        assert not any(r)
        lcm = q
        ok = ok and [Fraction(c) for c in dnp(v).expand().coeffs] == lcm
    _line(4, ok, "D_n equals the gcd-based lcm of p-integers for n <= 40")


def test_c05_jacobi_identity():
    t0 = time.perf_counter()
    ok = jacobi_check(500)
    elapsed = time.perf_counter() - t0
    _line(5, ok and elapsed < 600, f"four-square identity to q^500 in {elapsed:.2f}s")


def test_c06_group_orders():
    orders = (len(zeta1_group()), len(zeta1_arith_group()), len(zeta2_group()))
    _line(6, orders == (12, 6, 120), f"group orders {orders} = (12, 6, 120)")


def test_c07_stability_of_normalized_series():
    tol = Fraction(1, 10**20)
    ok = True
    for fam, n in ((THEOREM1, 1), (THEOREM1, 2), (THEOREM2, 1)):
        base, rows = stability_sweep(fam.params(n), group_for(fam.kind), p=2, bits=320)
        for _, q in rows:
            if q is not None:  # None: the image is inadmissible
                ok = ok and q.gap(base) == 0 and q.width < tol
    _line(7, ok, "group invariance at p = 2 with enclosure width below 1e-20")


def test_c08_coefficient_integrality(store):
    t0 = time.perf_counter()
    ok = True
    for fam, n_max in ((THEOREM1, 6), (THEOREM2, 3)):
        for n in range(1, n_max + 1):
            res = verify_inclusion(store.form(fam.params(n)))
            ok = ok and res.ok
    elapsed = time.perf_counter() - t0
    _line(8, ok and elapsed < 6000, f"p^-M D/Omega inclusions verified in {elapsed:.1f}s")


def test_c09_bv_measure_closed_form(store):
    rep = measure(BV, store)
    near = abs(rep.mu_bound - BV_CONSTANT) < 1e-8
    coeff = fit_M_coeff(BV, 12, store).coeff == Fraction(3, 2)
    _line(
        9,
        near and coeff,
        f"mu = {rep.mu_bound:.10f} vs 2pi^2/(pi^2-2), M coefficient {rep.M_coeff}",
    )


def test_c10_theorem1_measure_constant(store):
    rep = measure(THEOREM1, store)
    _line(
        10,
        abs(rep.mu_bound - 2.42343562) < 1e-6,
        f"zeta_q(1) exponent bound {rep.mu_bound:.8f} vs 2.42343562",
    )


def test_c11_theorem2_measure_constant(store):
    rep = measure(THEOREM2, store)
    _line(
        11,
        abs(rep.mu_bound - 4.07869374) < 1e-6,
        f"zeta_q(2) exponent bound {rep.mu_bound:.8f} vs 4.07869374",
    )


def test_c12_block_sums_match_trigamma():
    upper = phi_block_sum(500, 2, Fraction(1, 2), Fraction(1))
    ok1 = abs(upper - 1.0) < 0.10
    third, half = (float(trigamma(Fraction(1, d)).mid) for d in (3, 2))
    target = 3 / math.pi**2 * (third - half)
    middle = phi_block_sum(500, 2, Fraction(1, 3), Fraction(1, 2))
    ok2 = abs(middle - target) < 0.10 * target
    _line(12, ok1 and ok2, f"bands give {upper:.4f} vs 1 and {middle:.4f} vs {target:.4f}")


def test_c13_mertens_density():
    ratio = mertens_ratio(300, 2)
    target = 3 / math.pi**2
    _line(13, abs(ratio - target) < 0.05, f"normalized log D_n = {ratio:.4f} vs {target:.4f}")


def test_c14_apery_limits(store):
    # Oracle sequence straight from the binomial sum, no package code.
    oracle = [
        sum(math.comb(n, k) ** 2 * math.comb(n + k, k) for k in range(n + 1))
        for n in range(4)
    ]
    ok = oracle == [1, 3, 19, 147]
    for n in range(4):
        val = _limit_value_at_one(store.form(FAMILIES["apery"].params(n)))
        ok = ok and val == (-1) ** n * oracle[n]
    _line(14, ok, "coefficient limits reproduce 1, 3, 19, 147")


def test_c15_bv_empirical_estimates(store):
    res = empirical_mu(BV, 2, 25, store)  # raises if any form vanishes
    ests, logs = res.estimates, res.log_residues
    decays = logs[-1] < logs[0] and logs[-1] < 0
    near = abs(ests[-1] - BV_CONSTANT) < 0.2
    # The exact estimates oscillate as they converge: the last five values
    # rise and fall within a narrowing band rather than decreasing term by
    # term, so the meaningful assertion is contraction of that band.
    early = max(ests[:5]) - min(ests[:5])
    late = max(ests[-5:]) - min(ests[-5:])
    _line(
        15,
        decays and near and late < early and all(e > 1 for e in ests),
        f"estimate {ests[-1]:.5f} within 0.2 of {BV_CONSTANT:.5f}; "
        f"oscillation {early:.4f} -> {late:.4f}; log|Delta F| {logs[0]:.2f} -> {logs[-1]:.2f}",
    )
