"""Correctness gate: what makes one op's report right or wrong.

A report is compared and hashed with its elapsed_ms member cut out of the
raw text, so "identical" means byte for byte in everything else.
"""

from __future__ import annotations

import hashlib
import json
import math
import re

_ELAPSED = re.compile(r'^[ \t]*"elapsed_ms": [-+0-9.eE]+,?\n', re.MULTILINE)

# `linform` on forms whose certification residual exceeds the float range
# crashes in the report's witness text with this error.  The ops expected to
# hit it are flagged when they are generated (workloads.DEFECT_MEMBERS).  Such
# an op still counts as failed; it is only kept from marking the whole run
# incorrect, and only when it fails in exactly this way.
KNOWN_DEFECT = ("linform", "OverflowError: integer division result too large for a float")


def strip_elapsed(text: str) -> str:
    """The report text without its elapsed_ms member, which is the only
    field allowed to differ between identical invocations."""
    stripped, n = _ELAPSED.subn("", text)
    if n != 1:
        raise ValueError(f"expected one elapsed_ms member, found {n}")
    return stripped


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def _opt(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv else None


def expectations(argv, report: dict) -> list[str]:
    """Facts the benchmark knows independently of the program's own checks."""
    out = report["outputs"]
    cmd = argv[0]
    problems = []
    if cmd == "ord":
        n = int(_opt(argv, "--n"))
        l = _opt(argv, "--l")
        want = str(n // int(l)) if l else {str(k): str(n // k) for k in range(2, n + 1)}
        if out.get("order") != want:
            problems.append("ord: order differs from floor(n/l)")
    elif cmd == "dnp":
        n = int(_opt(argv, "--n"))
        if out.get("degree") != str(sum(_totient(k) for k in range(1, n + 1))):
            problems.append("dnp: degree differs from the totient sum")
    elif cmd == "measure" and _opt(argv, "--family") == "bv":
        if out.get("M_coeff") != "3/2":
            problems.append(f"measure bv: M_coeff {out.get('M_coeff')!r} is not 3/2")
    elif cmd in ("inclusion", "linform"):
        params = [p for p in _opt(argv, "--params").split(",")]
        got = out["forms"][0]["params"] if cmd == "inclusion" else out.get("params")
        if got != params:
            problems.append(f"{cmd}: report is for params {got}")
    elif cmd == "empirical-mu":
        if len(out.get("estimates", ())) != int(_opt(argv, "--n-max")):
            problems.append("empirical-mu: wrong number of estimates")
    elif cmd == "stability":
        statuses = {r["status"] for rows in out.values() for r in rows}
        if not statuses <= {"ok", "skipped (inadmissible image)"} or "ok" not in statuses:
            problems.append(f"stability: statuses {sorted(statuses)}")
    return problems


def judge(argv, returncode: int, stdout: str, stderr: str, replayed: str | None = None):
    """(failure reason or None, stripped report text or None) for one op.

    `replayed` is the stripped report of the cold op this one repeats.
    """
    if "Traceback (most recent call last)" in stderr:
        last = stderr.strip().splitlines()[-1]
        return f"traceback: {last}", None
    if returncode != 0 and not stdout.strip():
        return f"exit status {returncode}", None
    try:
        text = strip_elapsed(stdout)
        report = json.loads(text)
    except ValueError as exc:
        return f"unreadable report: {exc}", None
    failed = [c["name"] for c in report.get("checks", ()) if not c["pass"]]
    if failed or not report.get("checks"):
        return f"checks failed: {failed or 'none reported'}", text
    if returncode != 0:
        return f"exit status {returncode} with all checks passing", text
    problems = expectations(argv, report)
    if problems:
        return "; ".join(problems), text
    if replayed is not None and text != replayed:
        return "warm report differs from the cold one", text
    return None, text


def known_defect(argv, expected: bool, reason: str | None) -> bool:
    """Whether a failure is the known defect on an op flagged to expect it."""
    cmd, message = KNOWN_DEFECT
    return expected and argv[0] == cmd and reason == f"traceback: {message}"
