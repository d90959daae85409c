"""The q-series and density commands: `series`, `rho`, `mertens`, `eq3`, `jacobi`.

`series`, `rho` and `jacobi` load qseries; `mertens` and `eq3` load
density, the 3/pi^2 tail.  HANDLERS gives cli each command's handler and
flags; eq3's band ends parse as exact Fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cli import _check


def cmd_series(args, store):
    from .qseries import zeta_q_series

    reps = ("divisor-sum", "lambert", "rho")
    checks = []
    for k in range(1, args.k + 1):
        ref = zeta_q_series(k, args.order, "divisor-sum")
        same = all(zeta_q_series(k, args.order, r) == ref for r in reps[1:])
        checks.append(
            _check(f"representations-agree-k{k}", same, f"3 routes, order {args.order}")
        )
    shown = zeta_q_series(args.k, args.order)[: min(args.order, 16)]
    outputs = {"k": args.k, "order": args.order, "leading_coefficients": shown}
    return outputs, checks


def cmd_rho(args, store):
    from .qseries import rho

    checks = []
    for k in range(1, args.k + 1):
        val, want = rho(k)(1), math.factorial(k - 1)
        checks.append(_check(f"rho{k}-at-1", val == want, f"{val} vs {want}"))
    r = rho(args.k)
    return {"k": args.k, "coefficients": r.coeffs, "degree": r.degree}, checks


def cmd_mertens(args, store):
    from .density import DENSITY, mertens_ratio

    ratio = mertens_ratio(args.n, args.p)
    ok = abs(ratio - DENSITY) <= 0.05
    outputs = {"n": args.n, "p": args.p, "ratio": ratio, "density": DENSITY}
    return outputs, [_check("within-0.05-of-density", ok, f"|{ratio:.6f} - {DENSITY:.6f}|")]


def cmd_eq3(args, store):
    from .density import DENSITY, phi_block_sum, trigamma

    u, v = args.u, args.v
    lhs = phi_block_sum(args.n, args.p, u, v)
    rhs = DENSITY * (float(trigamma(u).mid) - float(trigamma(v).mid))
    ok = abs(lhs - rhs) <= 0.10 * abs(rhs)
    outputs = {
        "n": args.n,
        "p": args.p,
        "band": f"[{u},{v})",
        "normalized_sum": lhs,
        "trigamma_limit": rhs,
    }
    return outputs, [_check("within-10-percent", ok, f"{lhs:.6f} vs {rhs:.6f}")]


def cmd_jacobi(args, store):
    from .qseries import jacobi_check

    ok = jacobi_check(args.order)
    return {"order": args.order}, [
        _check("four-square-identity", ok, f"coefficients agree to order {args.order}")
    ]


# name: (handler, arguments), each argument a flag and its add_argument keywords
# fmt: off
HANDLERS = {
    "series": (cmd_series, [("--k", dict(type=int, default=4)),
                            ("--order", dict(type=int, default=50))]),
    "rho": (cmd_rho, [("--k", dict(type=int, default=4))]),
    "mertens": (cmd_mertens, [("--n", dict(type=int, default=300)),
                              ("--p", dict(type=int, default=2))]),
    "eq3": (cmd_eq3, [("--n", dict(type=int, default=500)), ("--p", dict(type=int, default=2)),
                      ("--u", dict(type=Fraction, default=Fraction(1, 2))),
                      ("--v", dict(type=Fraction, default=Fraction(1)))]),
    "jacobi": (cmd_jacobi, [("--order", dict(type=int, default=500))]),
}
# fmt: on
