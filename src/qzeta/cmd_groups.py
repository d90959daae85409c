"""The transformation-group commands `group`, `omega` and `stability`.

They load groups and params and no polynomial code: `omega` adds parith
for Omega, its value at p and the exact orders its check divides out, and
`stability` adds linforms and dyadic for the series and alone loads
`fractions`.
HANDLERS gives cli each command's handler and flags.
"""

from __future__ import annotations

import math
import sys

from .cli import _check, _family, _log2, _parse_params


def cmd_group(args, store):
    from .groups import zeta1_arith_group, zeta1_group, zeta2_group

    table = {
        "zeta1": (zeta1_group, 12),
        "zeta1-arith": (zeta1_arith_group, 6),
        "zeta2": (zeta2_group, 120),
    }
    names = [args.kind] if args.kind else list(table)
    checks, outputs = [], {}
    for name in names:
        builder, expect = table[name]
        G = builder()
        outputs[name] = {
            "order": len(G),
            "generators": [repr(g) for g in G.generators],
        }
        checks.append(_check(f"order-{name}", len(G) == expect, f"{len(G)} vs {expect}"))
    return outputs, checks


def cmd_omega(args, store):
    from .groups import group_for, omega
    from .params import cvector
    from .parith import cyclotomic_value, gauss_factorial

    params = _parse_params(args.kind, args.params)
    c = cvector(params)
    G = group_for(params.kind)
    nu = omega(c, G).exponents  # sorted, zeros dropped
    outputs = {
        "params": list(params),
        "c_values": c.as_dict(),
        "nu": {str(l): e for l, e in nu.items()},
    }
    if args.p is not None:
        # an integer: Omega has no negative exponent and no power of p
        values = (cyclotomic_value(l, args.p) ** e for l, e in nu.items())
        outputs["omega_at_p"] = math.prod(values)
        outputs["p"] = args.p
    # nu_l again from exact Phi_l-orders of [v]_p!, one division sweep per c-value v
    ls, orders = range(c.m, 1, -1), {}
    for v in set(c.values):
        rest, orders[v] = gauss_factorial(v), {}
        for l in ls:
            orders[v][l], rest = rest.split_cyclotomic(l)
    S = c.factorial_labels()
    exact = {l: max(sum(orders[c[j]][l] - orders[c[g(j)]][l] for j in S) for g in G) for l in ls}
    bad = [f"nu_{l} = {nu.get(l, 0)}, exact {exact[l]}" for l in ls if exact[l] != nu.get(l, 0)]
    witness = bad[0] if bad else f"{len(ls)} exponents recomputed, {len(nu)} nonzero"
    return outputs, [_check("nu-matches-exact-orders", not bad, witness)]


def cmd_stability(args, store):
    from fractions import Fraction

    from .groups import group_for, stability_sweep

    if args.n is not None and args.family is None:
        raise ValueError("--n needs --family")
    if args.terms is not None:
        if args.terms < 0:
            raise ValueError("stability needs terms >= 0")
        print("qzeta: note: --terms is ignored; --prec sizes the series", file=sys.stderr)
    if args.family is not None:
        fam = _family(args.family)
        n_top = 1 if args.n is None else args.n
        jobs = [(fam.name, n) for n in range(1, n_top + 1)]
    else:
        jobs = [("theorem1", 1), ("theorem1", 2), ("theorem2", 1)]
    checks, outputs = [], {}
    for name, n in jobs:
        fam = _family(name)
        base, images = stability_sweep(fam.params(n), group_for(fam.kind), args.p, args.prec)
        worst = max(q.width for _, q in images)
        ok = all(q.gap(base) == 0 for _, q in images) and worst < Fraction(1, 1 << args.prec)
        widest = "0" if worst == 0 else f"< 2^{_log2(worst) + 1}"
        witness = f"{len(images)} admissible images, widest enclosure {widest}"
        checks.append(_check(f"invariant-{name}-n{n}", ok, witness))
        outputs[f"{name}-n{n}"] = [
            {"g": repr(g), "status": "ok" if q.gap(base) == 0 else "UNSTABLE"} for g, q in images
        ]
    return outputs, checks


# name: (handler, arguments), each argument a flag and its add_argument keywords
# fmt: off
HANDLERS = {
    "group": (cmd_group, [("--kind", dict(choices=("zeta1", "zeta1-arith", "zeta2")))]),
    "omega": (cmd_omega, [("--kind", dict(choices=("zeta1", "zeta2"), required=True)),
                          ("--params", dict(required=True)), ("--p", dict(type=int))]),
    "stability": (cmd_stability,
                  [("--family", {}), ("--n", dict(type=int)), ("--p", dict(type=int, default=2)),
                   ("--prec", dict(type=int, default=320, help="enclosures narrower than 2^-PREC")),
                   ("--terms",
                    dict(type=int, help="ignored; accepted so old command lines still run"))]),
}
# fmt: on
