"""Run one qzeta command with every layer wrapped in spans.

    python perfbench/traced_qzeta.py TRACE_JSON qzeta-args...

Behaves like `python -m qzeta qzeta-args...` (same report, exit status and
traceback) and also writes the span totals of this process to TRACE_JSON,
self times corrected for the measured cost of the wrappers.
"""

import time

_STARTED = time.perf_counter()

import importlib  # noqa: E402
import sys  # noqa: E402

from spans import LAYERS, Tracer, calibrate, install  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer(start=_STARTED)
    tracer.begin("process.import")
    cli = importlib.import_module("qzeta.cli")
    for name in LAYERS:
        importlib.import_module(f"qzeta.{name}")
    tracer.end()
    tracer.begin("trace.install")
    install(tracer)
    cost = calibrate()
    tracer.end()
    try:
        return cli.main(argv)
    finally:
        tracer.dump(out, cost)


if __name__ == "__main__":
    sys.exit(main())
