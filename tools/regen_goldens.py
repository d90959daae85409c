"""Regenerate tests/golden/: the pinned report of every golden command line.

Usage: PYTHONPATH=src python tools/regen_goldens.py

tests/golden/cases.json lists each case as {"name", "argv", "code",
"stderr"}; this script runs every argv through qzeta.cli.main, cold, on one
temporary cache, and rewrites each case's exit code and stderr and
tests/golden/<name>.out, its stdout with the elapsed_ms line removed, byte
for byte (csv rows end in \r\n); an .out file no case names is deleted.  It also rewrites tests/golden/forms.json,
which maps the name of every form file the runs wrote to the sha256 of its
decompressed text (the gzip bytes depend on the zlib build).
tests/test_golden.py replays the list cold and then warm and compares
against these files.  Add a case by adding its name and argv to cases.json
and running the script; review every changed .out file and stderr before
committing them.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from test_golden import GOLDEN, normalised  # noqa: E402

from qzeta.cli import main  # noqa: E402


def regenerate() -> None:
    cases = json.loads((GOLDEN / "cases.json").read_text())
    with tempfile.TemporaryDirectory() as cache:
        for case in cases:
            started = time.perf_counter()
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                case["code"] = main([*case["argv"], "--cache-dir", cache])
            case["stderr"] = err.getvalue()
            (GOLDEN / f"{case['name']}.out").write_bytes(normalised(out.getvalue()).encode())
            took = time.perf_counter() - started
            print(f"{took:7.3f} s  exit {case['code']}  {case['name']}", file=sys.stderr)
        forms = {
            path.name: hashlib.sha256(gzip.decompress(path.read_bytes())).hexdigest()
            for path in sorted(Path(cache, "forms").iterdir())
        }
    (GOLDEN / "forms.json").write_text(json.dumps(forms, indent=1) + "\n")
    for stale in set(GOLDEN.glob("*.out")) - {GOLDEN / f"{case['name']}.out" for case in cases}:
        stale.unlink()
    text = ",\n".join(json.dumps(case) for case in cases)
    (GOLDEN / "cases.json").write_text(f"[\n{text}\n]\n")


if __name__ == "__main__":
    regenerate()
