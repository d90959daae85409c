"""Start-up cost: each command loads only the modules it runs.

Every case runs one command in a fresh interpreter and reads back which
modules that process had loaded, so an import added at module level (or a
record type that pulls in `dataclasses` again) fails here by name.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = ("cli", "dyadic", "groups", "linforms", "measures", "parith", "qseries", "store")

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


def test_stability_loads_no_measures(tmp_path):
    child = _command(tmp_path, "stability", "--family", "bv")
    assert child["code"] == 0
    assert "qzeta.groups" in child["modules"]
    assert "qzeta.measures" not in child["modules"]


def test_no_module_loads_dataclasses(tmp_path):
    code = (
        "import json, sys\n"
        + "".join(f"import qzeta.{m}\n" for m in MODULES)
        + "json.dump({'modules': sorted(sys.modules)}, open(sys.argv[1], 'w'))\n"
    )
    child = _run(tmp_path, code)
    assert {f"qzeta.{m}" for m in MODULES} <= set(child["modules"])
    assert "dataclasses" not in child["modules"]
