"""Golden reports: every pinned command line prints exactly its pinned report.

tests/golden/cases.json lists the cases: each report-printing line of CI's
Console-script step (with `dnp --n 100` for its `dnp --n 300`, to keep the
gate fast), one argv per perfbench op kind, every per-command sample argv
of test_startup and a few --format csv runs.  Each runs through cli.main
twice on one cache, first cold and then warm, and must give the pinned exit
code and, byte for byte, the pinned stdout with its elapsed_ms line removed.
A report change shows here as a diff; tools/regen_goldens.py rewrites the
goldens after an intended one.
"""

import json
from pathlib import Path

import pytest

from qzeta.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


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
