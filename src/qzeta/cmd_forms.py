"""The linear-form commands `linform` and `inclusion`.

Both read their forms through the Store, so a warm run loads forms and not
builders; `linform` also loads linforms to certify.  HANDLERS gives cli
each command's handler and flags.
"""

from __future__ import annotations

from .cli import _check, _family, _log2, _parse_params

# default n range of `inclusion` (theorem1 and theorem2) and `--family`, by kind
INCLUSION_N_MAX = {"zeta1": 6, "zeta2": 3}


def cmd_linform(args, store):
    from .linforms import certify

    params = _parse_params(args.kind, args.params)
    p = args.p if args.p is not None else 2
    if abs(p) < 2:  # certify's own check, made before a form is built and saved
        raise ValueError("need |p| >= 2")
    form = store.form(params)
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
        jobs = [(None, _parse_params(args.kind or "zeta1", args.params))]
    else:
        jobs = []
        for name in [args.family] if args.family is not None else ["theorem1", "theorem2"]:
            fam = _family(name)
            n_max = INCLUSION_N_MAX[fam.kind] if args.n_max is None else args.n_max
            jobs += [(n, fam.params(n)) for n in range(1, n_max + 1)]
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


# name: (handler, arguments), each argument a flag and its add_argument keywords
# fmt: off
HANDLERS = {
    "linform": (cmd_linform,
                [("--kind", dict(choices=("zeta1", "zeta2"), required=True)),
                 ("--params", dict(required=True, help="a0,a1,a2,b or a1,a2,a3,b2,b3")),
                 ("--p", dict(type=int))]),
    "inclusion": (cmd_inclusion,
                  [("--kind", dict(choices=("zeta1", "zeta2"))), ("--params", {}),
                   ("--family", {}), ("--n-max", dict(type=int))]),
}
# fmt: on
