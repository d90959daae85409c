"""Golden reports: every pinned command line prints exactly its pinned report.

tests/golden/cases.json lists the cases: each report-printing line of CI's
Console-script step as a `ci-*` case (with `dnp --n 100` for its
`dnp --n 300`, to keep the gate fast; a test checks the two lists match),
one argv per perfbench op kind, every per-command sample argv of
test_startup and a few --format csv runs.  Each runs through cli.main
twice on one cache, first cold and then warm, and must give the pinned exit
code and, byte for byte, the pinned stdout with its elapsed_ms line removed.
A report change shows here as a diff; tools/regen_goldens.py rewrites the
goldens after an intended one.  tests/golden/forms.json pins every form
file the runs write, by the sha256 of its decompressed text.
"""

import gzip
import hashlib
import json
import shlex
from pathlib import Path

import pytest

from qzeta.cli import main
from qzeta.params import PARAMS
from qzeta.store import Store

GOLDEN = Path(__file__).resolve().parent / "golden"
WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"
CASES = json.loads((GOLDEN / "cases.json").read_text())
FORMS = json.loads((GOLDEN / "forms.json").read_text())


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    """One cache for both passes, so the second finds every form the first built."""
    return str(tmp_path_factory.mktemp("golden-cache"))


def normalised(stdout: str) -> str:
    """A report's stdout without its elapsed_ms line (JSON or csv)."""
    return "".join(line for line in stdout.splitlines(True) if "elapsed_ms" not in line)


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
@pytest.mark.parametrize("run", ["cold", "warm"])
def test_report_is_the_golden(cache, capsys, run, case):
    code = main([*case["argv"], "--cache-dir", cache])
    stdout = normalised(capsys.readouterr().out)
    assert (code, stdout) == (case["code"], (GOLDEN / f"{case['name']}.out").read_bytes().decode())


def test_cases_are_named_once_with_a_golden_each():
    names = [case["name"] for case in CASES]
    assert len(set(names)) == len(names)
    assert {f"{name}.out" for name in names} == {p.name for p in GOLDEN.glob("*.out")}


def test_form_files_are_the_pinned_ones(cache):
    # a file the runs have not written yet is built here, so the test also passes alone
    store, forms = Store(cache), Path(cache, "forms")
    for name in FORMS:
        kind, *params = name.removesuffix(".json.gz").split("-")
        if not (forms / name).exists():
            store.form(PARAMS[kind](*map(int, params)))
    found = {
        path.name: hashlib.sha256(gzip.decompress(path.read_bytes())).hexdigest()
        for path in forms.iterdir()
    }
    assert found == FORMS


# the golden run of a CI line that is too slow for the gate
CI_STAND_INS = {("dnp", "--n", "300", "--p", "2"): ("dnp", "--n", "100", "--p", "2")}


def _ci_report_lines():
    """The argv, without --cache-dir, of each CI `qzeta` line that prints a report:
    its first word is qzeta, it names a cache dir and its stdout goes to no closed pipe."""
    for line in WORKFLOW.read_text().splitlines():
        if line.split()[:1] != ["qzeta"]:
            continue
        words = shlex.split(line.removesuffix("\\"))
        if "--cache-dir" not in words or words[-2:] == ["|", "true"]:
            continue
        words = words[1 : next((i for i, w in enumerate(words) if w in {">", "|"}), len(words))]
        at = words.index("--cache-dir")
        argv = tuple(words[:at] + words[at + 2 :])
        yield CI_STAND_INS.get(argv, argv)


def test_ci_cases_are_the_ci_report_lines():
    cases = [tuple(case["argv"]) for case in CASES if case["name"].startswith("ci-")]
    assert sorted(_ci_report_lines()) == sorted(cases)
