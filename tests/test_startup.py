"""Start-up cost: each command loads only the modules it runs.

Every module case runs one command in a fresh interpreter and reads back
which modules that process had loaded, so an import added at module level
(or a record type that pulls in `dataclasses` again) fails here by name.
The parser cases check the flag parser against an argparse oracle built
from the same flag tables; the exact help and error text of a command line
is a `help-*` or `exit2-*` golden case (test_golden), an abbreviated flag
such as `measure --fit 6` among them, and only a line the golden harness
cannot run stays here.  The entry cases
check that a process run through `python -m qzeta` freezes the collector's
heap before it exits, with the same report and exit code as main, and
that main itself never freezes; a closed stdout ends such a process with
status 1 and no traceback.
"""

import argparse
import contextlib
import functools
import gc
import io
import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qzeta.cli import COMMANDS, SHARED_FLAGS, _parse, main

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = (
    "builders", "cli", "cmd_forms", "cmd_groups", "cmd_measures", "cmd_orders", "cmd_series",
    "density", "dyadic", "forms", "groups", "linforms", "measures", "params", "parith", "qseries",
    "store",
)  # fmt: skip
RATIONALS = {"fractions", "decimal"}  # `fractions` imports `decimal`

_CHILD = """
import json, sys
from qzeta.cli import main
code = main(sys.argv[2:])
with open(sys.argv[1], "w") as fh:
    json.dump({"code": code, "modules": sorted(sys.modules)}, fh)
"""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _run(tmp_path, code: str, *args, flags=()) -> dict:
    out = tmp_path / "child.json"
    subprocess.run(
        [sys.executable, *flags, "-c", code, str(out), *args],
        cwd=tmp_path,
        env=_env(),
        stdout=subprocess.DEVNULL,
        check=True,
        timeout=120,
    )
    return json.loads(out.read_text())


def _command(tmp_path, *argv, flags=()) -> dict:
    return _run(tmp_path, _CHILD, *argv, "--cache-dir", str(tmp_path / "cache"), flags=flags)


# -- the process entry --------------------------------------------------------

_MODULE_ENTRY = """
import contextlib, gc, io, json, runpy, sys
out, sys.argv = sys.argv[1], ["qzeta", *sys.argv[2:]]
stdout, stderr, code = io.StringIO(), io.StringIO(), None
with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
    try:
        runpy.run_module("qzeta", run_name="__main__")
    except SystemExit as exc:
        code = exc.code
with open(out, "w") as fh:
    json.dump({"code": code, "frozen": gc.get_freeze_count(),
               "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}, fh)
"""


def _without_elapsed(stdout: str):
    if not stdout:
        return stdout
    report = json.loads(stdout)
    report.pop("elapsed_ms")
    return report


def test_main_does_not_freeze(tmp_path, capsys):
    before = gc.get_freeze_count()
    assert main(["group", "--cache-dir", str(tmp_path)]) == 0
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize(
    "argv, code",
    [
        (["group"], 0),
        (["measure", "--family", "apery", "--fit-n-max", "6"], 1),
        (["ord", "--l", "1", "--n", "5"], 2),
    ],
    ids=["exit0", "exit1", "exit2"],
)
def test_module_entry_freezes_and_exits_like_main(tmp_path, capsys, argv, code):
    argv = [*argv, "--cache-dir", str(tmp_path / "cache")]
    child = _run(tmp_path, _MODULE_ENTRY, *argv)
    assert child["code"] == code
    assert child["frozen"] > 0
    assert main(argv) == code
    want = capsys.readouterr()
    assert _without_elapsed(child["stdout"]) == _without_elapsed(want.out)
    assert child["stderr"] == want.err


@pytest.mark.parametrize("argv", [["group"], ["ord", "--n", "60"]], ids=["group", "ord"])
def test_closed_stdout_exits_1_without_a_traceback(tmp_path, argv):
    # the read end is closed before the child starts, so writing its report fails with EPIPE
    read, write = os.pipe()
    os.close(read)
    try:
        child = subprocess.run(
            [sys.executable, "-m", "qzeta", *argv, "--cache-dir", str(tmp_path)],
            env=_env(),
            stdout=write,
            stderr=subprocess.PIPE,
            timeout=120,
        )
    finally:
        os.close(write)
    assert (child.returncode, child.stderr) == (1, b"")


@pytest.mark.parametrize(
    "argv",
    [["ord", "--n", "12"], ["ord", "--n", "12", "--l", "3"], ["dnp", "--n", "10", "--p", "2"],
     ["cyclotomic", "--l", "6", "--p", "3"]],
    ids=["ord", "ord-l", "dnp", "cyclotomic"],
)  # fmt: skip
def test_valuation_commands_load_no_form_code(tmp_path, argv):
    child = _command(tmp_path, *argv)
    assert child["code"] == 0
    heavy = {f"qzeta.{m}" for m in ("linforms", "groups", "measures", "qseries", "density")}
    assert not (heavy | RATIONALS | {"dataclasses", "csv"}) & set(child["modules"])
    # the store still creates its directory, so the cache dir is never left empty
    assert (tmp_path / "cache" / "forms").is_dir()


def _loaded(child) -> set:
    return {m.removeprefix("qzeta.") for m in child["modules"] if m.startswith("qzeta.")}


def test_group_loads_no_polynomial_code(tmp_path):
    child = _command(tmp_path, "group")
    assert child["code"] == 0
    assert _loaded(child) == {"cli", "cmd_groups", "store", "groups", "params"}
    assert not RATIONALS & set(child["modules"])


def test_omega_loads_no_form_code(tmp_path):
    child = _command(tmp_path, "omega", "--kind", "zeta2", "--params", "1,1,1,2,2", "--p", "2")
    assert child["code"] == 0
    assert not {"forms", "linforms", "qseries", "dyadic", "measures"} & _loaded(child)
    assert not RATIONALS & set(child["modules"])


def test_inclusion_loads_builders_only_on_a_miss(tmp_path):
    argv = ["inclusion", "--kind", "zeta1", "--params", "3,3,3,6"]
    cold = _command(tmp_path, *argv)
    assert "builders" in _loaded(cold)
    # the builder reads its summand from params: no series code, no rationals
    assert not {"linforms", "dyadic", "qseries"} & _loaded(cold)
    assert not RATIONALS & set(cold["modules"])
    warm = _command(tmp_path, *argv)  # the cold run left the form file behind
    assert warm["code"] == 0
    assert "forms" in _loaded(warm)
    assert not {"builders", "linforms", "qseries", "dyadic", "groups"} & _loaded(warm)
    assert not RATIONALS & set(warm["modules"])


def test_linform_certifies_a_cached_form_without_the_builders(tmp_path):
    argv = ["linform", "--kind", "zeta1", "--params", "2,2,2,4"]
    assert "builders" in _loaded(_command(tmp_path, *argv))
    warm = _command(tmp_path, *argv)
    assert warm["code"] == 0
    assert "linforms" in _loaded(warm) and "builders" not in _loaded(warm)


@pytest.mark.parametrize(
    "argv, certifies",
    [
        (["inclusion", "--kind", "zeta1", "--params", "3,3,3,6"], False),
        (["linform", "--kind", "zeta1", "--params", "2,2,2,4"], True),
    ],
    ids=["inclusion", "linform"],
)
def test_form_commands_load_no_group_code(tmp_path, argv, certifies):
    child = _command(tmp_path, *argv)
    assert child["code"] == 0
    # linforms holds the series the certificate sums; inclusion, cold or warm, needs none of it
    assert ("qzeta.linforms" in child["modules"]) is certifies
    assert not {"qzeta.groups", "qzeta.measures"} & set(child["modules"])


def test_stability_loads_no_polynomial_code(tmp_path):
    child = _command(tmp_path, "stability", "--family", "bv")
    assert child["code"] == 0
    assert _loaded(child) == {
        "cli", "cmd_groups", "store", "params", "groups", "dyadic", "linforms",
    }  # fmt: skip


@pytest.mark.parametrize(
    "argv", [["ord", "--n", "12"], ["inclusion", "--kind", "zeta1", "--params", "3,3,3,6"]],
    ids=["ord", "warm-inclusion"],
)
def test_commands_that_save_no_form_load_no_tempfile(tmp_path, argv):
    # -S: no site hook (such as a .pth file) may load tempfile for the command
    _command(tmp_path, *argv)  # a first run leaves inclusion's form file behind
    child = _command(tmp_path, *argv, flags=["-S"])
    assert child["code"] == 0
    assert "tempfile" not in child["modules"]


def test_no_module_loads_dataclasses(tmp_path):
    code = (
        "import json, sys\n"
        + "".join(f"import qzeta.{m}\n" for m in MODULES)
        + "json.dump({'modules': sorted(sys.modules)}, open(sys.argv[1], 'w'))\n"
    )
    child = _run(tmp_path, code)
    assert {f"qzeta.{m}" for m in MODULES} <= set(child["modules"])
    assert "dataclasses" not in child["modules"]


# -- the flag parser ----------------------------------------------------------

# one argv per command, each setting every option the command has
SAMPLES = {
    "series": ["--k", "2", "--order", "10", "--format", "csv"],
    "rho": ["--k", "3"],
    "cyclotomic": ["--l", "6", "--p", "3"],
    "dnp": ["--n", "10", "--p", "2", "--cache-dir", "somewhere"],
    "ord": ["--n", "12", "--l", "3"],
    "mertens": ["--n", "50", "--p", "3"],
    "eq3": ["--n", "40", "--p", "3", "--u", "1/3", "--v", "2/3"],
    "linform": ["--kind", "zeta1", "--params", "2,2,2,4", "--p", "3"],
    "inclusion": ["--kind", "zeta2", "--params", "1,1,1,2,2", "--family", "bv", "--n-max", "2"],
    "group": ["--kind", "zeta1-arith"],
    "omega": ["--kind", "zeta2", "--params", "1,1,1,2,2", "--p", "2"],
    "stability": ["--family", "bv", "--n", "1", "--p", "-2", "--prec", "64", "--terms", "5"],
    "measure": ["--family", "bv", "--fit-n-max", "6"],
    "empirical-mu": ["--family", "bv", "--p", "3", "--n-max", "3"],
    "apery": ["--n-max", "2"],
    "jacobi": ["--order", "100"],
}

@pytest.mark.parametrize("name", list(SAMPLES))
def test_each_command_loads_its_own_command_module_alone(tmp_path, name):
    child = _command(tmp_path, name, *SAMPLES[name])
    module = {command: module for command, module, _ in COMMANDS}[name]
    assert {m for m in _loaded(child) if m.startswith("cmd_")} == {module}


def test_no_command_loads_the_argparse_stack(tmp_path):
    # argparse, with gettext and locale behind it, cost about 2 ms of every process
    code = (
        "import json, sys\n"
        "from qzeta.cli import main\n"
        "codes = [main(argv) for argv in json.loads(sys.argv[2])]\n"
        "json.dump({'codes': codes, 'modules': sorted(sys.modules)}, open(sys.argv[1], 'w'))\n"
    )
    cache = str(tmp_path / "cache")
    child = _run(tmp_path, code, json.dumps([[name, *argv, "--cache-dir", cache]
                                              for name, argv in SAMPLES.items()]))  # fmt: skip
    assert child["codes"].count(0) == len(SAMPLES) - 1  # the inclusion sample is refused
    assert not {"argparse", "gettext", "locale"} & set(child["modules"])


def test_samples_cover_the_command_table():
    assert list(SAMPLES) == [name for name, *_ in COMMANDS]


def test_each_command_module_holds_exactly_its_commands():
    names = {}
    for name, module, _ in COMMANDS:
        names.setdefault(module, set()).add(name)
    for module, want in names.items():
        assert set(import_module(f"qzeta.{module}").HANDLERS) == want, module


@functools.cache
def _oracle(only: str | None = None) -> argparse.ArgumentParser:
    """The argparse parser cli once built from the same tables: the whole
    parser, or with `only` the top level and that one subcommand."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--cache-dir", default=None, help="cache root (else $QZETA_CACHE)")

    parser = argparse.ArgumentParser(
        prog="qzeta",
        description="Exact q-zeta arithmetic: series, cyclotomic orders, linear forms, measures.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, module, help_text in COMMANDS:
        if only in (None, name):
            fn, arguments = import_module(f"qzeta.{module}").HANDLERS[name]
            sp = sub.add_parser(name, parents=[common], help=help_text)
            sp.set_defaults(fn=fn)
            for flag, kw in arguments:
                sp.add_argument(flag, **kw)
    return parser


def _flags(name: str) -> dict:
    module = {command: module for command, module, _ in COMMANDS}[name]
    return dict((*SHARED_FLAGS, *import_module(f"qzeta.{module}").HANDLERS[name][1]))


def _ours(argv) -> dict:
    """The attributes cli's parse gives argv (command name first), as main sets them."""
    module = {command: module for command, module, _ in COMMANDS}[argv[0]]
    args = vars(_parse(_flags(argv[0]), argv[1:]))
    fn = import_module(f"qzeta.{module}").HANDLERS[argv[0]][0]
    return dict(args, command=argv[0], fn=fn)


def _theirs(argv, only=None):
    """The oracle's attributes for argv, or the exit code it stops with."""
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(_oracle(only).parse_args(argv))
        except SystemExit as exc:
            return exc.code


@pytest.mark.parametrize("name", list(SAMPLES))
def test_one_subparser_parses_like_the_full_parser(name):
    # the oracle's one-subparser and full builds, and cli's own parse, agree
    argv = [name, *SAMPLES[name]]
    assert _ours(argv) == _theirs(argv) == _theirs(argv, only=name)


def _value(flag: str, kw: dict):
    """Strategy for one well-formed value; space-form values start with no "-"
    unless they are negative ints, which argparse takes as values."""
    if "choices" in kw:
        return st.sampled_from(kw["choices"])
    if kw.get("type") is int:
        return st.integers(-60, 60).map(str)
    if kw.get("type") is not None:  # Fraction
        return st.builds(lambda n, d: f"{n}/{d}", st.integers(0, 9), st.integers(1, 9))
    return st.text("abz019,=/", max_size=6).filter(lambda v: not v.startswith("-"))


@st.composite
def _well_formed(draw, name: str):
    flags = _flags(name)
    chosen = [f for f in flags if flags[f].get("required")] + draw(
        st.lists(st.sampled_from(list(flags)), max_size=5)
    )
    tokens = []
    for flag in draw(st.permutations(chosen)):
        value = draw(_value(flag, flags[flag]))
        tokens += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return [name, *tokens]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(list(SAMPLES)).flatmap(_well_formed))
def test_well_formed_argv_parses_as_the_oracle(argv):
    assert _ours(argv) == _theirs(argv)


# the flags of `name` that can carry each kind of fault
def _carriers(name: str, kind: str) -> list[str]:
    flags = _flags(name)
    if kind in ("unknown-flag", "missing-value"):
        return list(flags)
    return [
        flag
        for flag, kw in flags.items()
        if {
            "bad-int": kw.get("type") is int,
            "bad-fraction": kw.get("type") not in (None, int),
            "bad-choice": "choices" in kw,
            "missing-required": kw.get("required", False),
        }[kind]
    ]


BAD_VALUES = {"bad-int": ["x", "1.5", ""], "bad-fraction": ["x", "1/2/3"], "bad-choice": ["nope"]}


@st.composite
def _malformed(draw, name: str, kind: str):
    """An argv of `name` with one fault of the given kind."""
    argv = draw(_well_formed(name))
    flag = draw(st.sampled_from(_carriers(name, kind)))
    if kind == "unknown-flag":
        at = draw(st.integers(1, len(argv)))
        unknown = draw(st.sampled_from(["--bogus", "--threads", "--zz"]))
        return [*argv[:at], unknown, "1", *argv[at:]]
    if kind == "missing-value":
        return [*argv, flag]
    if kind == "missing-required":
        kept, tokens = [], iter(argv[1:])
        for token in tokens:
            if token.partition("=")[0] != flag:
                kept.append(token)
            elif "=" not in token:
                next(tokens)  # its value
        return [name, *kept]
    return [*argv, f"{flag}={draw(st.sampled_from(BAD_VALUES[kind]))}"]


@pytest.mark.parametrize(
    "kind", ["unknown-flag", "missing-value", "bad-int", "bad-fraction", "bad-choice",
             "missing-required"],
)  # fmt: skip
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_malformed_argv_exits_2_like_the_oracle(kind, data):
    names = [name for name in SAMPLES if _carriers(name, kind)]
    argv = data.draw(st.sampled_from(names).flatmap(lambda name: _malformed(name, kind)))
    with pytest.raises(ValueError):
        _ours(argv)
    assert _theirs(argv) == 2


def test_trailing_flag_without_value_is_pinned(capsys):
    # a golden case would give --n its appended --cache-dir as the value
    assert main(["ord", "--n"]) == 2
    usage = "usage: qzeta ord [-h] [--format {json,csv}] [--cache-dir CACHE_DIR] --n N [--l L]"
    assert capsys.readouterr() == ("", f"{usage}\nqzeta ord: error: --n needs a value\n")


@pytest.mark.parametrize("name", list(SAMPLES))
def test_command_help_is_the_full_parsers(capsys, monkeypatch, name):
    # help needs no required flag and stops at the first -h, whatever follows it
    assert main([name, "-h", "--bogus"]) == 0
    text = capsys.readouterr().out
    assert text.startswith(f"usage: qzeta {name} [-h] ")
    for flag, kw in _flags(name).items():
        assert f"\n  {flag} " in text
        assert kw.get("help", "") in text
    # the full parser's help, but for the unwrapped usage line and the
    # description that follows it: same usage words, same options block
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        _oracle().parse_args([name, "--help"])
    assert exc.value.code == 0
    want = capsys.readouterr().out
    assert text.split("\n\n")[0].split() == want.split("\n\n")[0].split()
    assert text.split("\noptions:\n")[1] == want.split("\noptions:\n")[1]

