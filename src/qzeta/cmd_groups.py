"""The transformation-group commands `group`, `omega` and `stability`.

They load groups and params and no polynomial code: `omega` adds parith
for its product, `stability` adds linforms and dyadic for the series.
HANDLERS gives cli each command's handler and flags.
"""

from __future__ import annotations

import sys
from fractions import Fraction

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

    params = _parse_params(args.kind, args.params)
    c = cvector(params)
    res = omega(c, group_for(params.kind))
    nonzero = {str(l): e for l, e in sorted(res.nu.items()) if e}
    outputs = {
        "params": list(params),
        "c_values": c.as_dict(),
        "nu": nonzero,
    }
    if args.p is not None:
        outputs["omega_at_p"] = res.omega.value_at(args.p)
        outputs["p"] = args.p
    ok = all(e >= 0 for e in res.nu.values())
    return outputs, [_check("exponents-nonnegative", ok, f"{len(nonzero)} nonzero exponents")]


def cmd_stability(args, store):
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
        G = group_for(fam.kind)
        rows = stability_sweep(fam.params(n), G, p=args.p, bits=args.prec)
        admissible = [r for r in rows if r["status"] != "skipped (inadmissible image)"]
        worst = max((r["width"] for r in admissible), default=0)
        # the identity is always admissible, so an empty list means the sweep failed
        ok = bool(admissible) and all(r["status"] == "ok" for r in admissible)
        ok = ok and worst < Fraction(1, 1 << args.prec)
        widest = "0" if worst == 0 else f"< 2^{_log2(worst) + 1}"
        witness = f"{len(admissible)} admissible images, widest enclosure {widest}"
        checks.append(_check(f"invariant-{name}-n{n}", ok, witness))
        outputs[f"{name}-n{n}"] = [{"g": r["g"], "status": r["status"]} for r in rows]
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
