"""Command-line front end: one subcommand per library operation.

Every command prints a single report to stdout — JSON by default, a flat
three-column table with --format csv.  Arbitrary-precision integers and
exact rationals are rendered as strings ("123456...", "335/2") because
they routinely exceed the range JSON numbers can carry losslessly.

Exit status: 0 when every check in the report passed, 1 when at least one
failed, 2 for invalid input (unknown command, malformed parameters, a
value outside an operation's domain, or a range that leaves nothing to
check).  Exact values print in full at any length: main lifts the
interpreter's int <-> str digit limit for its own run.

Each command imports only the library modules it runs, and main builds the
subparser of the named command alone (the whole parser only for help and
errors at the top level), so it pays start-up time for its own code alone:
`group` and `stability` load no polynomial code, and a form read from the
cache loads forms but not builders.  --kind looks the parameter class up
in params.PARAMS; that class carries every fact that depends on the kind.
Each command gets one store.Store, which keeps linear forms under a cache
directory (--cache-dir, else $QZETA_CACHE, else ~/.cache/qzeta) as
forms/<kind>-<params>.json.gz, one gzip member of JSON in format
qzeta-form-v3, A and B in lowest terms; a file that fails verification on
load, a v2 file among them, is rebuilt and atomically overwritten.
Reports themselves are deterministic: identical invocations give
byte-identical output apart from the elapsed_ms field, no matter how warm
the cache is.

A process enters through run (`python -m qzeta` and the `qzeta` script
alike), which calls main, then gc.freeze(), then sys.exit with main's code:
the collector's passes at interpreter exit would otherwise walk every
object the imports built, about 4 ms of a 35 ms command.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import time
from fractions import Fraction

from . import __version__
from .store import Store

BV_CONSTANT = 2 * math.pi**2 / (math.pi**2 - 2)
MU_TARGETS = {"theorem1": (2.42343562, 1e-6), "theorem2": (4.07869374, 1e-6)}
# default n range of `inclusion --family`, by the family's kind
INCLUSION_N_MAX = {"zeta1": 6, "zeta2": 3}


# --------------------------------------------------------------------------
# encoding and report plumbing


def _enc(x):
    """Lossless JSON-safe encoding; ints and rationals become strings."""
    if isinstance(x, bool) or x is None or isinstance(x, (float, str)):
        return x
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if isinstance(x, dict):
        return {str(k): _enc(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_enc(v) for v in x]
    return str(x)


def _check(name: str, ok: bool, witness: str) -> dict:
    return {"name": name, "pass": bool(ok), "witness": witness}


def _log2(x: Fraction) -> int:
    """floor(log2 x) for x > 0, exactly; float(x) would overflow past 2^1024."""
    e = x.numerator.bit_length() - x.denominator.bit_length()
    return e - (x < Fraction(2) ** e)


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    import csv

    out = csv.writer(sys.stdout)
    out.writerow(["section", "key", "value"])
    out.writerow(["meta", "command", report["command"]])
    out.writerow(["meta", "version", report["version"]])
    out.writerow(["meta", "elapsed_ms", report["elapsed_ms"]])
    for section in ("inputs", "outputs"):
        for key in sorted(report[section]):
            val = report[section][key]
            if isinstance(val, (dict, list)):
                val = json.dumps(val, sort_keys=True)
            out.writerow([section, key, val])
    for c in report["checks"]:
        out.writerow(["check", c["name"], "pass" if c["pass"] else f"FAIL: {c['witness']}"])


# --------------------------------------------------------------------------
# argument helpers


def _parse_params(kind: str, text: str):
    from .params import PARAMS

    cls = PARAMS[kind]
    parts = [s.strip() for s in text.split(",")]
    want = len(cls._fields)
    if len(parts) != want:
        raise ValueError(f"{kind} needs {want} comma-separated parameters, got {len(parts)}")
    return cls(*(int(s) for s in parts))


def _family(name: str):
    from .linforms import FAMILIES

    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}; choose from {sorted(FAMILIES)}")
    return FAMILIES[name]


# --------------------------------------------------------------------------
# subcommands


def cmd_series(args, store):
    from .qseries import zeta_q_series

    reps = ("divisor-sum", "lambert", "rho")
    checks = []
    for k in range(1, args.k + 1):
        ref = zeta_q_series(k, args.order, "divisor-sum")
        same = all(zeta_q_series(k, args.order, r).coeffs == ref.coeffs for r in reps[1:])
        checks.append(
            _check(f"representations-agree-k{k}", same, f"3 routes, order {args.order}")
        )
    shown = zeta_q_series(args.k, args.order).coeffs[: min(args.order, 16)]
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


def cmd_mertens(args, store):
    from .parith import DENSITY, mertens_ratio

    ratio = mertens_ratio(args.n, args.p)
    ok = abs(ratio - DENSITY) <= 0.05
    outputs = {"n": args.n, "p": args.p, "ratio": ratio, "density": DENSITY}
    return outputs, [_check("within-0.05-of-density", ok, f"|{ratio:.6f} - {DENSITY:.6f}|")]


def cmd_eq3(args, store):
    from .parith import DENSITY, phi_block_sum, trigamma

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


def cmd_linform(args, store):
    from .linforms import certify

    params = _parse_params(args.kind, args.params)
    form = store.form(params)
    p = args.p if args.p is not None else 2
    cert = certify(form, p)
    outputs = {
        "kind": form.kind,
        "params": list(params),
        "M": form.M,
        "max_c": form.cvec.m,
        "A_at_p": form.A.value_at(p),
        "B_at_p": form.B.value_at(p),
        "A_numerator_degree": form.A.num.degree,
        # the stored denominators, in lowest terms, set certify's target
        "A_denominator": {"p": form.A.dpow, "phi": form.A.dphi},
        "B_denominator": {"p": form.B.dpow, "phi": form.B.dphi},
        "p": p,
    }
    return outputs, [
        _check(
            f"certified-at-{p}",
            cert.ok,
            f"gap {'0' if cert.gap == 0 else f'>= 2^{_log2(cert.gap)}'},"
            f" widths < 2^{_log2(cert.width) + 1}, need < 2^-{cert.target}",
        )
    ]


def cmd_inclusion(args, store):
    from .forms import verify_inclusion

    if args.params is not None and args.family is not None:
        raise ValueError("--params and --family exclude each other")
    if args.kind is not None and args.params is None:
        raise ValueError("--kind needs --params")
    if args.n_max is not None and args.family is None:
        raise ValueError("--n-max needs --family")
    if args.params is not None:
        kind = args.kind or "zeta1"
        jobs = [(None, _parse_params(kind, args.params))]
    elif args.family is not None:
        fam = _family(args.family)
        n_max = INCLUSION_N_MAX[fam.kind] if args.n_max is None else args.n_max
        jobs = [(n, fam.params(n)) for n in range(1, n_max + 1)]
    else:
        theorem1, theorem2 = _family("theorem1"), _family("theorem2")
        jobs = [(n, theorem1.params(n)) for n in range(1, 7)]
        jobs += [(n, theorem2.params(n)) for n in range(1, 4)]
    checks, rows = [], []
    for n, params in jobs:
        form = store.form(params)
        res = verify_inclusion(form)
        tag = f"n{n}" if n is not None else "params"
        checks.append(
            _check(
                f"integrality-{form.kind}-{tag}",
                res.ok,
                res.witness or "p^-M D clears A and B into Z[p]",
            )
        )
        rows.append({"params": list(params), "M": form.M})
    return {"forms": rows}, checks


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


def cmd_jacobi(args, store):
    from .qseries import jacobi_check

    ok = jacobi_check(args.order)
    return {"order": args.order}, [
        _check("four-square-identity", ok, f"coefficients agree to order {args.order}")
    ]


# --------------------------------------------------------------------------
# parser and entry point


# (name, function, help, arguments), each argument a flag and its add_argument keywords
# fmt: off
COMMANDS = (
    ("series", cmd_series, "q-expansion of zeta_q(k); cross-checks all representations",
     [("--k", dict(type=int, default=4)), ("--order", dict(type=int, default=50))]),
    ("rho", cmd_rho, "numerator polynomial rho_k and its value at 1",
     [("--k", dict(type=int, default=4))]),
    ("cyclotomic", cmd_cyclotomic, "coefficients and values of Phi_l",
     [("--l", dict(type=int, required=True)), ("--p", dict(type=int))]),
    ("dnp", cmd_dnp, "the common multiple D_n(p) with its lcm certificate",
     [("--n", dict(type=int, required=True)), ("--p", dict(type=int))]),
    ("ord", cmd_ord, "cyclotomic order of the q-factorial, against exact division",
     [("--n", dict(type=int, required=True)),
      ("--l", dict(type=int, help="single modulus; omit to sweep 2..n"))]),
    ("mertens", cmd_mertens, "normalized size of D_n against the 3/pi^2 density",
     [("--n", dict(type=int, default=300)), ("--p", dict(type=int, default=2))]),
    ("eq3", cmd_eq3, "cyclotomic block sums against the trigamma limit",
     [("--n", dict(type=int, default=500)), ("--p", dict(type=int, default=2)),
      ("--u", dict(type=Fraction, default=Fraction(1, 2))),
      ("--v", dict(type=Fraction, default=Fraction(1)))]),
    ("linform", cmd_linform, "exact linear form for explicit parameters",
     [("--kind", dict(choices=("zeta1", "zeta2"), required=True)),
      ("--params", dict(required=True, help="a0,a1,a2,b or a1,a2,a3,b2,b3")),
      ("--p", dict(type=int))]),
    ("inclusion", cmd_inclusion, "integrality of the scaled coefficients",
     [("--kind", dict(choices=("zeta1", "zeta2"))), ("--params", {}), ("--family", {}),
      ("--n-max", dict(type=int))]),
    ("group", cmd_group, "transformation groups and their orders",
     [("--kind", dict(choices=("zeta1", "zeta1-arith", "zeta2")))]),
    ("omega", cmd_omega, "removable cyclotomic factors for explicit parameters",
     [("--kind", dict(choices=("zeta1", "zeta2"), required=True)),
      ("--params", dict(required=True)), ("--p", dict(type=int))]),
    ("stability", cmd_stability, "invariance of the normalized series under the group",
     [("--family", {}), ("--n", dict(type=int)), ("--p", dict(type=int, default=2)),
      ("--prec", dict(type=int, default=320, help="enclosures narrower than 2^-PREC")),
      ("--terms", dict(type=int, help="ignored; accepted so old command lines still run"))]),
    ("measure", cmd_measure, "irrationality-measure report for a family",
     [("--family", dict(required=True)), ("--fit-n-max", dict(type=int))]),
    ("empirical-mu", cmd_empirical_mu, "exponent estimates from the exact forms",
     [("--family", dict(required=True)), ("--p", dict(type=int, default=2)),
      ("--n-max", dict(type=int, default=6))]),
    ("apery", cmd_apery, "classical limit of the second-kind coefficients",
     [("--n-max", dict(type=int, default=3))]),
    ("jacobi", cmd_jacobi, "four-square identity as a q-series cross-check",
     [("--order", dict(type=int, default=500))]),
)
# fmt: on


def _build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The whole parser, or with `only` the top level and that one subcommand."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--cache-dir", default=None, help="cache root (else $QZETA_CACHE)")

    parser = argparse.ArgumentParser(
        prog="qzeta",
        description="Exact q-zeta arithmetic: series, cyclotomic orders, linear forms, measures.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, fn, help_text, arguments in COMMANDS:
        if only in (None, name):
            sp = sub.add_parser(name, parents=[common], help=help_text)
            sp.set_defaults(fn=fn)
            for flag, kw in arguments:
                sp.add_argument(flag, **kw)
    return parser


def _cache_root(args) -> str:
    if args.cache_dir:
        return args.cache_dir
    env = os.environ.get("QZETA_CACHE")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "qzeta")


_ECHO_SKIP = {"command", "fn", "format", "cache_dir"}


def main(argv=None) -> int:
    """Run one command; exact values of any length print in full.

    CPython 3.10.7+ refuses int <-> str conversions past 4,300 digits by
    default, so main lifts that limit for its own run and puts the previous
    one back on return.  Older interpreters have no limit to lift.
    """
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        return _run(argv)
    previous = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        return _run(argv)
    finally:
        set_limit(previous)


def _run(argv) -> int:
    argv = sys.argv[1:] if argv is None else argv
    named = argv and argv[0] in {name for name, *_ in COMMANDS}
    parser = _build_parser(argv[0] if named else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if getattr(args, "fn", None) is None:
        parser.print_usage(sys.stderr)
        return 2
    started = time.perf_counter()
    try:
        outputs, checks = args.fn(args, Store(_cache_root(args)))
    except ValueError as exc:
        print(f"qzeta: error: {exc}", file=sys.stderr)
        return 2
    if not checks:  # an empty range would otherwise pass vacuously
        print("qzeta: error: nothing was checked", file=sys.stderr)
        return 2
    inputs = {
        k: _enc(v) for k, v in sorted(vars(args).items()) if k not in _ECHO_SKIP and v is not None
    }
    report = {
        "command": args.command,
        "version": __version__,
        "inputs": inputs,
        "outputs": _enc(outputs),
        "checks": checks,
        "elapsed_ms": round((time.perf_counter() - started) * 1000, 3),
    }
    _emit(report, args.format)
    return 0 if all(c["pass"] for c in checks) else 1


def run() -> None:
    """The process entry of `python -m qzeta` and the `qzeta` script.

    After main returns, nothing is left to do but exit, and CPython's
    finalization would run full collections over every object the imports
    built.  gc.freeze() moves them all out of the collector's reach first;
    atexit handlers and stream shutdown still run.  main never freezes:
    a caller that runs it in process many times would have its garbage
    pinned for good.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
