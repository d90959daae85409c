"""Start-up cost: each command loads only the modules it runs.

Every module case runs one command in a fresh interpreter and reads back
which modules that process had loaded, so an import added at module level
(or a record type that pulls in `dataclasses` again) fails here by name.
The parser cases check that building only the named command's subparser
parses and prints help exactly as the full parser does.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qzeta.cli import COMMANDS, _build_parser, main

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = (
    "builders", "cli", "dyadic", "forms", "groups", "linforms", "measures", "params", "parith",
    "qseries", "store",
)  # fmt: skip

_CHILD = """
import json, sys
from qzeta.cli import main
code = main(sys.argv[2:])
with open(sys.argv[1], "w") as fh:
    json.dump({"code": code, "modules": sorted(sys.modules)}, fh)
"""


def _run(tmp_path, code: str, *args) -> dict:
    out = tmp_path / "child.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-c", code, str(out), *args],
        cwd=tmp_path,
        env=env,
        stdout=subprocess.DEVNULL,
        check=True,
        timeout=120,
    )
    return json.loads(out.read_text())


def _command(tmp_path, *argv) -> dict:
    return _run(tmp_path, _CHILD, *argv, "--cache-dir", str(tmp_path / "cache"))


@pytest.mark.parametrize("argv", [["ord", "--n", "12"], ["dnp", "--n", "10"]], ids=["ord", "dnp"])
def test_valuation_commands_load_no_form_code(tmp_path, argv):
    child = _command(tmp_path, *argv)
    assert child["code"] == 0
    heavy = {f"qzeta.{m}" for m in ("linforms", "groups", "measures", "qseries")}
    assert not (heavy | {"dataclasses", "csv"}) & set(child["modules"])
    # the store still creates its directory, so the cache dir is never left empty
    assert (tmp_path / "cache" / "forms").is_dir()


def _loaded(child) -> set:
    return {m.removeprefix("qzeta.") for m in child["modules"] if m.startswith("qzeta.")}


def test_group_loads_no_polynomial_code(tmp_path):
    child = _command(tmp_path, "group")
    assert child["code"] == 0
    assert _loaded(child) == {"cli", "store", "groups", "params"}


def test_omega_loads_no_form_code(tmp_path):
    child = _command(tmp_path, "omega", "--kind", "zeta2", "--params", "1,1,1,2,2", "--p", "2")
    assert child["code"] == 0
    assert not {"forms", "linforms", "qseries", "dyadic", "measures"} & _loaded(child)


def test_inclusion_loads_builders_only_on_a_miss(tmp_path):
    argv = ["inclusion", "--kind", "zeta1", "--params", "3,3,3,6"]
    cold = _loaded(_command(tmp_path, *argv))
    assert "builders" in cold and "qseries" not in cold
    warm = _command(tmp_path, *argv)  # the cold run left the form file behind
    assert warm["code"] == 0
    assert "forms" in _loaded(warm)
    assert not {"builders", "linforms", "qseries", "dyadic", "groups"} & _loaded(warm)


def test_linform_certifies_a_cached_form_without_the_builders(tmp_path):
    argv = ["linform", "--kind", "zeta1", "--params", "2,2,2,4"]
    assert "builders" in _loaded(_command(tmp_path, *argv))
    warm = _command(tmp_path, *argv)
    assert warm["code"] == 0
    assert "linforms" in _loaded(warm) and "builders" not in _loaded(warm)


@pytest.mark.parametrize(
    "argv",
    [
        ["inclusion", "--kind", "zeta1", "--params", "3,3,3,6"],
        ["linform", "--kind", "zeta1", "--params", "2,2,2,4"],
    ],
    ids=["inclusion", "linform"],
)
def test_form_commands_load_no_group_code(tmp_path, argv):
    child = _command(tmp_path, *argv)
    assert child["code"] == 0
    assert "qzeta.linforms" in child["modules"]
    assert not {"qzeta.groups", "qzeta.measures"} & set(child["modules"])


def test_stability_loads_no_polynomial_code(tmp_path):
    child = _command(tmp_path, "stability", "--family", "bv")
    assert child["code"] == 0
    assert _loaded(child) == {"cli", "store", "params", "groups", "dyadic", "linforms"}


def test_no_module_loads_dataclasses(tmp_path):
    code = (
        "import json, sys\n"
        + "".join(f"import qzeta.{m}\n" for m in MODULES)
        + "json.dump({'modules': sorted(sys.modules)}, open(sys.argv[1], 'w'))\n"
    )
    child = _run(tmp_path, code)
    assert {f"qzeta.{m}" for m in MODULES} <= set(child["modules"])
    assert "dataclasses" not in child["modules"]


# -- the one-subparser build ------------------------------------------------

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

TOP_HELP = """\
usage: qzeta [-h] command ...

Exact q-zeta arithmetic: series, cyclotomic orders, linear forms, measures.

positional arguments:
  command
    series      q-expansion of zeta_q(k); cross-checks all representations
    rho         numerator polynomial rho_k and its value at 1
    cyclotomic  coefficients and values of Phi_l
    dnp         the common multiple D_n(p) with its lcm certificate
    ord         cyclotomic order of the q-factorial, against exact division
    mertens     normalized size of D_n against the 3/pi^2 density
    eq3         cyclotomic block sums against the trigamma limit
    linform     exact linear form for explicit parameters
    inclusion   integrality of the scaled coefficients
    group       transformation groups and their orders
    omega       removable cyclotomic factors for explicit parameters
    stability   invariance of the normalized series under the group
    measure     irrationality-measure report for a family
    empirical-mu
                exponent estimates from the exact forms
    apery       classical limit of the second-kind coefficients
    jacobi      four-square identity as a q-series cross-check

options:
  -h, --help    show this help message and exit
"""
USAGE = "usage: qzeta [-h] command ...\n"


def _help(parser, argv, capsys) -> str:
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    assert exc.value.code == 0
    return capsys.readouterr().out


def test_samples_cover_the_command_table():
    assert list(SAMPLES) == [name for name, *_ in COMMANDS]


@pytest.mark.parametrize("name", list(SAMPLES))
def test_one_subparser_parses_like_the_full_parser(name):
    argv = [name, *SAMPLES[name]]
    assert _build_parser(name).parse_args(argv) == _build_parser().parse_args(argv)


@pytest.mark.parametrize("name", list(SAMPLES))
def test_command_help_is_the_full_parsers(name, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    want = _help(_build_parser(), [name, "--help"], capsys)
    assert main([name, "--help"]) == 0
    assert capsys.readouterr().out == want


def test_top_level_help_and_errors_are_pinned(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(["--help"]) == 0
    assert capsys.readouterr().out == TOP_HELP
    assert main([]) == 2
    assert capsys.readouterr().err == USAGE
    assert main(["bogus"]) == 2
    choices = ", ".join(f"'{name}'" for name in SAMPLES)
    err = f"qzeta: error: argument command: invalid choice: 'bogus' (choose from {choices})\n"
    assert capsys.readouterr().err == USAGE + err
