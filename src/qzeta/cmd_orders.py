"""The `cyclotomic`, `dnp` and `ord` commands: integer polynomial arithmetic only.

These commands load parith and nothing else of the library; with cli and
store that is their whole footprint, and none of it imports `fractions`
or `decimal`.  HANDLERS gives cli each command's handler and flags.
"""

from __future__ import annotations

from .cli import _check


def cmd_cyclotomic(args, store):
    from .parith import cyclotomic, cyclotomic_value

    phi = cyclotomic(args.l)
    p = args.p if args.p is not None else 2
    poly_val = phi(p)
    checks = [
        _check(
            "moebius-product-agrees",
            cyclotomic_value(args.l, p) == poly_val,
            f"Phi_{args.l}({p}) = {poly_val}",
        )
    ]
    outputs = {
        "l": args.l,
        "degree": phi.degree,
        "coefficients": phi.coeffs,
        "value_at_p": poly_val,
        "p": p,
    }
    return outputs, checks


def cmd_dnp(args, store):
    from .parith import PPoly, dnp, totient

    n = args.n
    d = dnp(n)
    expanded = d.expand()
    # [v]_p | D_n  iff  (p^v - 1) | D_n·(p - 1)
    shifted = expanded.mul_binomial(1)
    divisible = all(shifted.div_binomial(v) is not None for v in range(1, n + 1))
    # Phi_n .. Phi_2 divided out of one shrinking cofactor, which leaves Phi_1
    orders_ok, rest = True, expanded
    for l in range(n, 1, -1):
        k, rest = rest.split_cyclotomic(l, cap=2)
        orders_ok &= k == 1
    orders_ok &= rest == PPoly((-1, 1))
    degree_ok = expanded.degree == sum(totient(l) for l in range(1, n + 1))
    checks = [
        _check("divisible-by-every-q-integer", divisible, f"[v]_p | D_{n} for v <= {n}"),
        _check(
            "lcm-minimality",
            orders_ok and degree_ok,
            "each Phi_l appears exactly once and the degree matches",
        ),
    ]
    outputs = {"n": n, "degree": expanded.degree, "factor_exponents": d.exponents}
    if args.p is not None:
        outputs["value_at_p"] = expanded(args.p)
        outputs["p"] = args.p
    return outputs, checks


def cmd_ord(args, store):
    from .parith import PPoly, gauss_factorial, ord_phi_factorial

    n = args.n
    if args.l is not None:
        ls = [args.l]
    elif n < 2:
        raise ValueError("ord sweep needs n >= 2")
    else:
        ls = list(range(2, n + 1))
    rest = gauss_factorial(n)
    want = {l: ord_phi_factorial(l, n) for l in ls}
    got = {}
    for l in reversed(ls):  # largest l first, on one shrinking cofactor
        got[l], rest = rest.split_cyclotomic(l, cap=want[l] + 2)
    checks = [
        _check(f"division-count-l{l}", got[l] == want[l], f"{got[l]} vs floor {want[l]}")
        for l in ls
        if len(ls) == 1 or got[l] != want[l]
    ]
    if len(ls) > 1:
        # [n]_p! = prod_{l=2}^n Phi_l^floor(n/l): nothing may be left over
        checks.append(
            _check(
                "division-count-sweep",
                not checks and rest == PPoly((1,)),
                f"l = 2..{n} against exact division",
            )
        )
    rows = {str(l): w for l, w in want.items()}
    outputs = {"n": n, "order": want[ls[0]] if len(ls) == 1 else rows}
    return outputs, checks


# name: (handler, arguments), each argument a flag and its add_argument keywords
# fmt: off
HANDLERS = {
    "cyclotomic": (cmd_cyclotomic,
                   [("--l", dict(type=int, required=True)), ("--p", dict(type=int))]),
    "dnp": (cmd_dnp, [("--n", dict(type=int, required=True)), ("--p", dict(type=int))]),
    "ord": (cmd_ord, [("--n", dict(type=int, required=True)),
                      ("--l", dict(type=int, help="single modulus; omit to sweep 2..n"))]),
}
# fmt: on
