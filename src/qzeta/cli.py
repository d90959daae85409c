"""Command-line front end: one subcommand per library operation.

Every command prints a single report to stdout — JSON by default, a flat
three-column table with --format csv.  Arbitrary-precision integers and
exact rationals are rendered as strings ("123456...", "335/2") because
they routinely exceed the range JSON numbers can carry losslessly.

Exit status: 0 when every check in the report passed, 1 when at least one
failed, 2 for invalid input (unknown command, malformed parameters, a
value outside an operation's domain, or a range that leaves nothing to
check) and when no form can be saved under the cache root.  Exact values
print in full at any length: main lifts the interpreter's int <-> str
digit limit for its own run.

This module holds the entry, the report plumbing, the shared --format and
--cache-dir flags and COMMANDS, the ordered table of command name ->
(command module, help).  The handlers and their flags live in the command
modules, grouped by what they load: cmd_orders (`cyclotomic`, `dnp`,
`ord`), cmd_forms (`linform`, `inclusion`), cmd_groups (`group`, `omega`,
`stability`), cmd_measures (`measure`, `empirical-mu`, `apery`) and
cmd_series (`series`, `rho`, `mertens`, `eq3`, `jacobi`).  No parser is
built: argv[0] picks the command, whose module alone is imported, and
_parse reads the rest (`--flag VALUE` or `--flag=VALUE`, exact names, the
last repeat winning) against its HANDLERS flags and the shared ones.  A
malformed line prints usage and `qzeta <command>: error:` to stderr and
exits 2; -h or --help prints help from the same table.  Each handler
imports only the library modules it runs, so a command compiles and loads
its own code alone: `ord`, `dnp`, `cyclotomic`, `group`, `omega` and
`inclusion --params` load neither `fractions` nor `decimal`, `group` and
`stability` load no polynomial code, a form read from the cache loads
forms but not builders, and a form built cold loads builders but neither
linforms nor dyadic.  --kind looks the parameter class up in
params.PARAMS; that class carries every fact that depends on the kind.
Each command gets one store.Store, which keeps linear forms under a cache
directory (--cache-dir, which must not be empty, else $QZETA_CACHE
unless empty, else ~/.cache/qzeta) as forms/<kind>-<params>.json.gz,
one gzip member of JSON in format
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

import gc
import json
import os
import sys
import time
from importlib import import_module
from types import SimpleNamespace  # loaded already: json imports re, which imports it

from . import __version__
from .store import Store

# --------------------------------------------------------------------------
# encoding and report plumbing


def _enc(x):
    """Lossless JSON-safe encoding; ints and rationals become strings.

    str already writes an int in full and a Fraction as "n/d", or as "n"
    when d = 1, so neither needs a branch of its own, and reports never
    import `fractions` to recognise one.
    """
    if isinstance(x, bool) or x is None or isinstance(x, (float, str)):
        return x
    if isinstance(x, dict):
        return {str(k): _enc(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_enc(v) for v in x]
    return str(x)


def _check(name: str, ok: bool, witness: str) -> dict:
    return {"name": name, "pass": bool(ok), "witness": witness}


def _log2(x) -> int:
    """floor(log2 x) for a rational x > 0, exactly; float(x) would overflow past 2^1024."""
    n, d = x.numerator, x.denominator
    e = n.bit_length() - d.bit_length()
    return e - ((n << max(-e, 0)) < (d << max(e, 0)))  # x < 2^e


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
# parser and entry point


# (name, module, help) in the order --help lists them; the command module's
# HANDLERS gives the name's handler and flags
COMMANDS = (
    ("series", "cmd_series", "q-expansion of zeta_q(k); cross-checks all representations"),
    ("rho", "cmd_series", "numerator polynomial rho_k and its value at 1"),
    ("cyclotomic", "cmd_orders", "coefficients and values of Phi_l"),
    ("dnp", "cmd_orders", "the common multiple D_n(p) with its lcm certificate"),
    ("ord", "cmd_orders", "cyclotomic order of the q-factorial, against exact division"),
    ("mertens", "cmd_series", "normalized size of D_n against the 3/pi^2 density"),
    ("eq3", "cmd_series", "cyclotomic block sums against the trigamma limit"),
    ("linform", "cmd_forms", "exact linear form for explicit parameters"),
    ("inclusion", "cmd_forms", "integrality of the scaled coefficients"),
    ("group", "cmd_groups", "transformation groups and their orders"),
    ("omega", "cmd_groups", "removable cyclotomic factors for explicit parameters"),
    ("stability", "cmd_groups", "invariance of the normalized series under the group"),
    ("measure", "cmd_measures", "irrationality-measure report for a family"),
    ("empirical-mu", "cmd_measures", "exponent estimates from the exact forms"),
    ("apery", "cmd_measures", "classical limit of the second-kind coefficients"),
    ("jacobi", "cmd_series", "four-square identity as a q-series cross-check"),
)


# every command's flags ahead of its HANDLERS ones, each with add_argument's keywords
SHARED_FLAGS = (("--format", dict(choices=("json", "csv"), default="json")),
                ("--cache-dir", dict(help="cache root (else $QZETA_CACHE)")))  # fmt: skip


def _parse(flags: dict, argv: list[str]):
    """The flags by name, "-" as "_", or None for help; ValueError names a bad flag or token."""
    values, tokens = {flag: kw.get("default") for flag, kw in flags.items()}, iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            return None
        flag, eq, value = token.partition("=")
        if (kw := flags.get(flag)) is None:
            raise ValueError(f"unknown argument {token!r}")
        if not eq and (value := next(tokens, None)) is None:
            raise ValueError(f"{flag} needs a value")
        try:
            values[flag] = kw.get("type", str)(value)
        except (TypeError, ValueError, ZeroDivisionError):
            raise ValueError(f"{flag}: invalid {kw['type'].__name__} value {value!r}") from None
        if values[flag] not in kw.get("choices", (values[flag],)):
            raise ValueError(f"{flag}: {value!r} is not one of {', '.join(kw['choices'])}")
    if missing := [f for f, kw in flags.items() if kw.get("required") and values[f] is None]:
        raise ValueError(f"the following flags are required: {', '.join(missing)}")
    return SimpleNamespace(**{flag[2:].replace("-", "_"): v for flag, v in values.items()})


# help and usage text, rendered only for a help request or a malformed command line
_HELP_ROW = ("-h, --help", "show this help message and exit")


def _spelled(flag: str, kw: dict) -> str:  # with argparse's metavar
    choices = kw.get("choices")
    meta = "{" + ",".join(choices) + "}" if choices else flag[2:].upper().replace("-", "_")
    return f"{flag} {meta}"


def _usage(name: str, flags: dict) -> str:
    parts = ((_spelled(flag, kw), kw.get("required")) for flag, kw in flags.items())
    return " ".join([f"usage: qzeta {name} [-h]", *(p if req else f"[{p}]" for p, req in parts)])


def _rows(rows, width: int) -> list[str]:
    """Help lines, each (left, text) row's text from column width + 4 as argparse sets it."""
    wrap = "\n" + " " * (width + 4)
    return [f"  {left:<{width}}{wrap if len(left) > width else '  '}{text}".rstrip()
            for left, text in rows]  # fmt: skip


def _top_level(argv: list[str]) -> int:
    """`qzeta --help`, or the usage error of a missing or unknown command."""
    usage = "usage: qzeta [-h] command ..."
    if argv[:1] in (["-h"], ["--help"]):
        about = "Exact q-zeta arithmetic: series, cyclotomic orders, linear forms, measures."
        commands = _rows([(f"  {name}", text) for name, _, text in COMMANDS], 12)
        print(usage, "", about, "", "positional arguments:", "  command", *commands, "",
              "options:", *_rows([_HELP_ROW], 12), sep="\n")  # fmt: skip
        return 0
    print(usage, file=sys.stderr)
    if argv:
        choices = ", ".join(repr(name) for name, *_ in COMMANDS)
        error = f"argument command: invalid choice: {argv[0]!r} (choose from {choices})"
        print(f"qzeta: error: {error}", file=sys.stderr)
    return 2


def _cache_root(args) -> str:
    if args.cache_dir == "":
        raise ValueError("--cache-dir is empty; name a directory or leave the flag out")
    home_cache = os.path.join(os.path.expanduser("~"), ".cache", "qzeta")
    return args.cache_dir or os.environ.get("QZETA_CACHE") or home_cache


_ECHO_SKIP = {"format", "cache_dir"}


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
    name, module, about = next((c for c in COMMANDS if argv[:1] == [c[0]]), (None,) * 3)
    if name is None:
        return _top_level(argv)
    fn, own = import_module(f"{__package__}.{module}").HANDLERS[name]
    flags = dict((*SHARED_FLAGS, *own))
    try:
        args = _parse(flags, argv[1:])
    except ValueError as exc:
        print(_usage(name, flags), f"qzeta {name}: error: {exc}", sep="\n", file=sys.stderr)
        return 2
    if args is None:
        rows = [_HELP_ROW, *((_spelled(f, kw), kw.get("help", "")) for f, kw in flags.items())]
        print(_usage(name, flags), "", about, "", "options:", *_rows(rows, 20), sep="\n")
        return 0
    started = time.perf_counter()
    try:
        root = _cache_root(args)
        outputs, checks = fn(args, Store(root))
    except ValueError as exc:
        print(f"qzeta: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # only a form save writes: the cache root cannot hold forms/
        why = exc.strerror or exc
        print(f"qzeta: error: cannot save a form under {root}: {why}", file=sys.stderr)
        return 2
    if not checks:  # an empty range would otherwise pass vacuously
        print("qzeta: error: nothing was checked", file=sys.stderr)
        return 2
    inputs = {
        k: _enc(v) for k, v in sorted(vars(args).items()) if k not in _ECHO_SKIP and v is not None
    }
    report = {
        "command": name,
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
