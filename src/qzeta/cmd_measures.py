"""The irrationality-measure commands `measure`, `empirical-mu` and `apery`.

All three run measures over a family's forms from the Store.  HANDLERS
gives cli each command's handler and flags.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cli import _check, _family

BV_CONSTANT = 2 * math.pi**2 / (math.pi**2 - 2)
MU_TARGETS = {"theorem1": (2.42343562, 1e-6), "theorem2": (4.07869374, 1e-6)}


def cmd_measure(args, store):
    from .measures import measure

    fam = _family(args.family)
    rep = measure(fam, store, args.fit_n_max)
    fit = rep.M_fit
    outputs = {
        "family": fam.name,
        "alpha": rep.alpha,
        "d_exp": rep.d_exp,
        "omega_exp": rep.omega_exp,
        "M_coeff": rep.M_coeff,
        "kappa": rep.kappa,
        "lambda": rep.lambda_,
        "mu_bound": rep.mu_bound,
        "M_values": fit.values,
        "M_second_diffs": fit.second_diffs,
        "M_fit_period": fit.period,
    }
    checks = []
    if fam.name in MU_TARGETS:
        target, tol = MU_TARGETS[fam.name]
        checks.append(
            _check(
                "matches-known-constant",
                abs(rep.mu_bound - target) <= tol,
                f"{rep.mu_bound:.9f} vs {target} (tol {tol})",
            )
        )
    elif fam.name == "bv":
        checks.append(
            _check(
                "matches-closed-form",
                abs(rep.mu_bound - BV_CONSTANT) <= 1e-8,
                f"{rep.mu_bound:.10f} vs 2*pi^2/(pi^2-2)",
            )
        )
        checks.append(
            _check("M-coefficient", rep.M_coeff == Fraction(3, 2), f"{rep.M_coeff} vs 3/2")
        )
    else:
        checks.append(_check("forms-decay", rep.lambda_ < 0, f"lambda = {rep.lambda_:.6f}"))
    checks.append(
        _check(
            "M-fit-stable",
            fit.stable,
            fit.warning or f"second differences settle with period {fit.period}",
        )
    )
    return outputs, checks


def cmd_empirical_mu(args, store):
    from .measures import empirical_mu

    fam = _family(args.family)
    res = empirical_mu(fam, args.p, args.n_max, store)
    ests, logs = res.estimates, res.log_residues
    checks = [
        _check(
            "estimates-finite",
            all(e > 1 for e in ests),
            f"{len(ests)} estimates, all above 1",
        ),
        _check(
            "forms-nonzero-and-decaying",
            res.decaying,
            f"log|Delta F| from {logs[0]:.3f} at n=1 to {logs[-1]:.3f} at n={args.n_max}",
        ),
    ]
    if fam.name == "bv" and args.n_max >= 25:
        checks.append(
            _check(
                "near-closed-form",
                abs(ests[-1] - BV_CONSTANT) <= 0.2,
                f"final estimate {ests[-1]:.5f} vs {BV_CONSTANT:.5f}",
            )
        )
    return {"family": fam.name, "p": args.p, "estimates": ests}, checks


def cmd_apery(args, store):
    from .measures import _limit_value_at_one, apery_limit_check, apery_numbers

    if args.n_max > 4:
        raise ValueError("apery is cost-bounded to --n-max <= 4")
    oracle, fam = apery_numbers(args.n_max), _family("apery")
    values, checks = [], []
    for n in range(args.n_max + 1):
        values.append(_limit_value_at_one(store.form(fam.params(n))))
        checks.append(
            _check(
                f"limit-matches-A{n}",
                apery_limit_check(n, store),
                f"{values[-1]} vs {oracle[n]} (up to sign)",
            )
        )
    return {"limit_values": values, "apery_numbers": oracle}, checks


# name: (handler, arguments), each argument a flag and its add_argument keywords
# fmt: off
HANDLERS = {
    "measure": (cmd_measure, [("--family", dict(required=True)),
                              ("--fit-n-max", dict(type=int))]),
    "empirical-mu": (cmd_empirical_mu,
                     [("--family", dict(required=True)), ("--p", dict(type=int, default=2)),
                      ("--n-max", dict(type=int, default=6))]),
    "apery": (cmd_apery, [("--n-max", dict(type=int, default=3))]),
}
# fmt: on
