"""Golden reports: every pinned command line prints exactly its pinned report.

tests/golden/cases.json is the one list of pinned command lines: the
`ci-*` reports, which cover every command, one argv per perfbench op kind,
every per-command sample argv of test_startup, a few --format csv runs and
one report that exits 1.  Each runs through cli.main twice on one cache,
first cold and then warm, and must give the pinned exit code, the pinned
stderr and, byte for byte, the pinned stdout with its elapsed_ms line
removed.  A report change shows here as a diff; tools/regen_goldens.py
rewrites the goldens after an intended one.  tests/golden/forms.json pins
every form file the runs write, by the sha256 of its decompressed text.
"""

import gzip
import hashlib
import json
from pathlib import Path

import pytest

from qzeta.cli import COMMANDS, main
from qzeta.params import PARAMS
from qzeta.store import Store

GOLDEN = Path(__file__).resolve().parent / "golden"
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
    captured = capsys.readouterr()
    golden = (GOLDEN / f"{case['name']}.out").read_bytes().decode()
    assert (code, captured.err, normalised(captured.out)) == (case["code"], case["stderr"], golden)


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


def test_every_command_has_a_case_that_exits_0():
    passing = {case["argv"][0] for case in CASES if case["code"] == 0}
    assert [name for name, *_ in COMMANDS if name not in passing] == []
