"""End-to-end benchmark of the qzeta command line.

    python3 perfbench/run.py --workload forms|valuations|numerics \
        --seed N --seconds S --trace 0|1

Runs the CLI the way users do: one fresh `python -m qzeta` child per
command, closed loop, one client, each child with an explicit --cache-dir
under .perfbench/tmp in the checkout.  Every report goes through the
correctness gate (gate.py).  Each child's wall time is scaled by the
machine's speed, measured with a fixed loop just before and just after it
(see `Speed`), so that times from a slow and a fast moment compare.
Prints each metric by name and unit, then, as the last line, one JSON
object with correct/attempted/failed/metrics.
With --trace 1 it also runs a traced pass (children wrapped by
traced_qzeta.py) and reports per-layer metrics instead.  A detailed result
file, with the environment and a sha256 per normalized report, goes to
.perfbench/results/.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import gate
import workloads
from spans import DEGREE_CLASSES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_REPEATS = 5
MIN_PASSES = 3  # a run holds at least this many passes, whatever --seconds says
PROBES_PER_PASS = 6  # `qzeta group` start-up probes, spread evenly over a pass
OP_TIMEOUT_S = 60.0  # a hung child fails its op instead of stalling the run

# The speed gauge: a fixed pure-Python loop, and the time it takes on the
# reference machine to which every reported time is scaled.
SPIN_ITERATIONS = 300_000
REFERENCE_SPIN_S = 0.025

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "op_s.p50": "s",
    "op_s.p_tail": "s",
    "cold_op_s.p50": "s",
    "warm_op_s.p50": "s",
    "startup_s": "s",
    "peak_rss_mb": "MB",
    "cache_bytes": "bytes",
}

# per-layer metric prefix -> spans whose calls and self time it sums
LAYER_SPANS = {
    "parith.mul": ("parith.PPoly.__mul__",),
    "parith.div": ("parith.PPoly.try_exact_div", "parith.PPoly.divrem", "parith.PPoly.div_binomial"),
    "parith.ord_at": ("parith.PPoly.ord_at",),
    "parith.cyclotomic": ("parith.cyclotomic",),
    "parith.gauss_factorial": ("parith.gauss_factorial",),
    "parith.trigamma": ("parith.trigamma",),
    "qseries.zeta_q_value": ("qseries.zeta_q_value",),
    "linforms.linform": ("linforms._build_zeta1", "linforms._build_zeta2"),
    "linforms.ratfunc_sum": ("linforms.RatFunc.sum",),
    "linforms.verify_inclusion": ("linforms.verify_inclusion",),
    "linforms.certify": ("linforms.certify",),
    "linforms.numeric_form_value": ("linforms.numeric_form_value",),
    "groups.omega": ("groups.omega",),
    "groups.stable_quantity": ("groups.stable_quantity",),
    "measures.family_form": ("measures.family_form",),
    "measures.fit_M_coeff": ("measures.fit_M_coeff",),
    "measures.nu_profile": ("measures.nu_profile",),
    "measures.empirical_mu": ("measures.empirical_mu",),
    "cli.cache.load_form": ("cli.Cache.load_form",),
    "cli.cache.save_form": ("cli.Cache.save_form",),
    "cli.cache.cyclotomic_coeffs": ("cli.Cache.cyclotomic_coeffs",),
}

# Entry-point spans cover whole commands, so their self time is glue that no
# named layer explains; trace.coverage counts it as uncovered.
CATCH_ALL = ("cli.main", "cli.cmd_")


class SetupError(RuntimeError):
    pass


# -- statistics ----------------------------------------------------------------


def tail_level(n: int) -> int:
    """Highest whole percentile with at least ten of n samples beyond it."""
    if n < 11:
        raise ValueError(f"a tail percentile needs at least 11 samples, got {n}")
    return (100 * (n - 10)) // n


def nearest_rank(values, level: float) -> float:
    """Nearest-rank percentile: the smallest sample with `level`% at or below it."""
    xs = sorted(values)
    return xs[max(0, math.ceil(level / 100 * len(xs)) - 1)]


# -- machine speed -------------------------------------------------------------


def spin_time() -> float:
    """One timing of a fixed pure-Python loop.

    One long timing rather than the fastest of several short ones: the
    fastest reads the machine's best moment, while a child runs at its
    average speed.
    """
    t0 = time.perf_counter()
    s = 0
    for i in range(SPIN_ITERATIONS):
        s += i * i % 7
    return time.perf_counter() - t0


class Speed:
    """Scales wall times to the reference machine's speed.

    The host's cores run faster or slower by up to about 1.5x over seconds
    to minutes, as other load comes and goes.  The parent and its children
    share one core (see `pin_cpu`), so the gauge loop, timed right before
    and right after a child, sees the speed the child ran at.  A child's
    scaled time is its wall time times REFERENCE_SPIN_S over the mean of
    those two gauge readings.
    """

    def __init__(self, gauge=spin_time):
        self.gauge = gauge
        self.last = gauge()

    def scale(self, wall_s: float) -> float:
        """Scaled time of something that just ended and took wall_s."""
        before, self.last = self.last, self.gauge()
        return wall_s * REFERENCE_SPIN_S / ((before + self.last) / 2)


def pin_cpu() -> int | None:
    """Keep this process and every child on one CPU, the one the gauge times."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


# -- child processes -----------------------------------------------------------


@dataclass
class Child:
    wall_s: float
    rss_kb: int
    returncode: int
    stdout: str
    stderr: str


def spawn(cmd, scratch: Path, timeout: float = OP_TIMEOUT_S) -> Child:
    """Run one child to completion; wall time from start to reaped exit."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    with open(out_path, "w+") as out, open(err_path, "w+") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(wall, usage.ru_maxrss, proc.returncode, out.read(), err.read())


def qzeta_cmd(argv, cache_dir: Path, trace_file: Path | None = None) -> list[str]:
    tail = [*argv, "--cache-dir", str(cache_dir)]
    if trace_file is None:
        return [sys.executable, "-m", "qzeta", *tail]
    return [sys.executable, str(HERE / "traced_qzeta.py"), str(trace_file), *tail]


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


# -- set-up ------------------------------------------------------------------


def setup_once(name: str, seed: int, scratch: Path, speed: Speed):
    """Generate the inputs, import qzeta.cli once, prebuild the shared cache.

    Returns the workload, the warm cache dir and the scaled set-up time."""
    t0 = time.perf_counter()
    wl = workloads.generate(name, seed)
    child = spawn([sys.executable, "-c", "import qzeta.cli"], scratch)
    if child.returncode != 0:
        raise SetupError(f"cannot import qzeta.cli from {SRC}: {child.stderr.strip()[-300:]}")
    warm = scratch / workloads.WARM_DIR
    warm.mkdir()
    for argv in wl.prebuild:
        child = spawn(qzeta_cmd(argv, warm), scratch)
        reason, _ = gate.judge(argv, child.returncode, child.stdout, child.stderr)
        if reason:
            raise SetupError(f"prebuild {' '.join(argv)} failed: {reason}")
    return wl, warm, speed.scale(time.perf_counter() - t0)


# -- passes ------------------------------------------------------------------


@dataclass
class OpRecord:
    argv: tuple
    cache: str  # "cold": the cache dir was empty when the op started
    wall_s: float
    time_s: float  # wall_s scaled to the reference speed
    rss_kb: int
    exit: int
    failure: str | None
    known_defect: bool
    sha256: str | None
    text: str | None = field(default=None, repr=False)
    trace: dict | None = field(default=None, repr=False)

    def public(self) -> dict:
        d = {k: v for k, v in vars(self).items() if k not in ("text", "trace")}
        d["argv"] = list(self.argv)
        return d


@dataclass
class Pass:
    traced: bool
    run_s: float  # scaled times of the pass's ops, summed
    cache_bytes: int
    ops: list
    probes: list
    setups: list


def run_op(
    argv,
    cache_dir: Path,
    scratch: Path,
    speed: Speed,
    replayed=None,
    trace_file=None,
    expect_defect=False,
) -> OpRecord:
    cache_dir.mkdir(parents=True, exist_ok=True)
    cold = not any(cache_dir.iterdir())
    child = spawn(qzeta_cmd(argv, cache_dir, trace_file), scratch)
    scaled = speed.scale(child.wall_s)
    reason, text = gate.judge(argv, child.returncode, child.stdout, child.stderr, replayed)
    trace = None
    if trace_file is not None and trace_file.exists():
        trace = json.loads(trace_file.read_text())
        trace_file.unlink()
    return OpRecord(
        tuple(argv),
        "cold" if cold else "warm",
        child.wall_s,
        scaled,
        child.rss_kb,
        child.returncode,
        reason,
        gate.known_defect(argv, expect_defect, reason),
        gate.digest(text) if text is not None else None,
        text,
        trace,
    )


def run_pass(
    wl, index: int, scratch: Path, warm: Path, speed: Speed, traced: bool, setup=None
) -> Pass:
    """The workload's ops in order, with start-up probes spread among them.

    Probes (PROBES_PER_PASS in all, evenly before the ops) and the repeated
    set-ups `setup(k)` when given are spread over the pass so that they see
    the same machine as the ops; their time is left out of run_s.
    """
    base = scratch / f"pass{index}"
    trace_file = scratch / "trace.json" if traced else None
    records: list[OpRecord] = []
    probes: list[OpRecord] = []
    setups: list[float] = []
    setup_at = {round(k * len(wl.ops) / SETUP_REPEATS) for k in range(1, SETUP_REPEATS)}
    dirs = {workloads.WARM_DIR: warm}
    for i, op in enumerate(wl.ops):
        while len(probes) < round((i + 1) * PROBES_PER_PASS / len(wl.ops)):
            probes.append(run_op(("group",), base / "startup", scratch, speed))
        if setup is not None and i in setup_at:
            setups.append(setup(len(setups) + 1))
        cache_dir = dirs.setdefault(op.cache_key, base / op.cache_key)
        replayed = records[op.replays].text if op.replays is not None else None
        records.append(
            run_op(op.argv, cache_dir, scratch, speed, replayed, trace_file, op.known_defect)
        )
    run_s = sum(r.time_s for r in records)
    used = sum(dir_bytes(d) for d in dirs.values())
    return Pass(traced, run_s, used, records, probes, setups)


# -- metrics -----------------------------------------------------------------


def end_to_end(wl, passes, setup_s) -> tuple[dict, dict]:
    ops = [r for p in passes for r in p.ops]
    times = [r.time_s for r in ops]
    # fixed per workload, so that it does not move with the number of passes
    level = tail_level(MIN_PASSES * len(wl.ops))
    by_state = {s: [r.time_s for r in ops if r.cache == s] for s in ("cold", "warm")}
    values = {
        "setup_s": statistics.median(setup_s),
        "run_s": statistics.median(p.run_s for p in passes),
        "op_s.p50": statistics.median(times),
        "op_s.p_tail": nearest_rank(times, level),
        "cold_op_s.p50": statistics.median(by_state["cold"]),
        "warm_op_s.p50": statistics.median(by_state["warm"]),
        "startup_s": statistics.median(r.time_s for p in passes for r in p.probes),
        "peak_rss_mb": max(r.rss_kb for p in passes for r in p.ops + p.probes) / 1024,
        "cache_bytes": statistics.median(p.cache_bytes for p in passes),
    }
    tail = {"metric": "op_s.p_tail", "percentile": level, "samples": len(times)}
    return values, tail


def is_correct(records) -> bool:
    """True when every failed op is a flagged op failing by the known defect."""
    return all(r.known_defect for r in records if r.failure)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(untraced: Pass, traced: Pass) -> dict:
    spans: dict[str, list] = {}
    counts: dict[str, int] = {}
    imports, named, wall = [], {"all": 0.0, "cold": 0.0}, {"all": 0.0, "cold": 0.0}
    for r in traced.ops:
        if r.trace is None:
            continue
        for name, (calls, total, self_s) in r.trace["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        for name, n in r.trace["counts"].items():
            counts[name] = counts.get(name, 0) + n
        imports.append(r.trace["spans"]["process.import"][2])
        own = sum(s[2] for n, s in r.trace["spans"].items() if n.startswith("trace."))
        program = sum(
            s[2]
            for n, s in r.trace["spans"].items()
            if not n.startswith("trace.") and not n.startswith(CATCH_ALL)
        )
        for key in ("all", "cold") if r.cache == "cold" else ("all",):
            named[key] += program
            wall[key] += r.trace["wall_s"] - own - r.trace["overhead_s"]

    def total(names, col):
        return sum((spans[n][col] for n in names if n in spans), 0 if col == 0 else 0.0)

    out = {}
    for prefix, names in LAYER_SPANS.items():
        out[f"{prefix}.calls"] = total(names, 0)
        out[f"{prefix}.self_s"] = total(names, 2)
    interval = [n for n in spans if n.startswith("dyadic.Interval.")]
    out["dyadic.interval.ops"] = total(interval, 0)
    out["dyadic.interval.self_s"] = total([n for n in spans if n.startswith("dyadic.")], 2)
    out["parith.mul.kron.calls"] = counts.get("mul.kron.calls", 0)
    for _, cls in (*DEGREE_CLASSES, (None, "d_ge6000")):
        out[f"parith.mul.calls.{cls}"] = counts.get(f"mul.calls.{cls}", 0)
    out["parith.mul.operand_bits"] = counts.get("mul.operand_bits", 0)
    out["parith.div.useful_ratio"] = _ratio(counts.get("div.successes", 0), counts.get("div.attempts", 0))
    out["parith.ord_at.useful_ratio"] = _ratio(
        counts.get("ord_at.successes", 0), counts.get("ord_at.attempts", 0)
    )
    out["cli.cache.form_hit_ratio"] = _ratio(
        counts.get("load_form.hits", 0), counts.get("load_form.attempts", 0)
    )
    out["cli.emit.self_s"] = total(["cli._emit"], 2)
    out["cli.process.import_s"] = statistics.median(imports) if imports else 0.0
    out["trace.coverage"] = _ratio(named["all"], wall["all"])
    out["trace.coverage_cold"] = _ratio(named["cold"], wall["cold"])
    out["trace.overhead"] = traced.run_s / untraced.run_s - 1
    return out


# -- environment and output ----------------------------------------------------


def environment(args) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        commit = got.stdout.strip() or None
    digest = gate.digest("".join(p.read_text() for p in sorted((SRC / "qzeta").glob("*.py"))))
    return {
        "python": platform.python_version(),
        "nproc": args.nproc,
        "gmpy2_importable": importlib.util.find_spec("gmpy2") is not None,
        "git_commit": commit,
        "src_sha256": digest,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "pinned_cpu": args.pinned_cpu,
        "spin_iterations": SPIN_ITERATIONS,
        "reference_spin_s": REFERENCE_SPIN_S,
    }


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure(args, scratch: Path) -> dict:
    args.nproc = len(os.sched_getaffinity(0))
    args.pinned_cpu = pin_cpu()
    speed = Speed()

    def setup(k: int) -> float:
        rep = scratch / f"setup{k}"
        rep.mkdir(parents=True)
        return setup_once(args.workload, args.seed, rep, speed)[2]

    first = scratch / "setup0"
    first.mkdir(parents=True)
    wl, warm, seconds = setup_once(args.workload, args.seed, first, speed)
    passes: list[Pass] = []
    started = time.perf_counter()
    if args.trace:
        passes.append(run_pass(wl, 0, scratch, warm, speed, traced=False, setup=setup))
        passes.append(run_pass(wl, 1, scratch, warm, speed, traced=True))
    else:
        # whole passes only, so that every op weighs the same in each median
        while True:
            t0 = time.perf_counter()
            setup_during = None if passes else setup
            passes.append(run_pass(wl, len(passes), scratch, warm, speed, False, setup_during))
            last = time.perf_counter() - t0
            if len(passes) >= MIN_PASSES and time.perf_counter() - started + last > args.seconds:
                break
    setups = [seconds, *passes[0].setups]
    if args.trace:
        # one plain pass is too few for the end-to-end figures
        e2e = tail = None
        metrics = per_layer(passes[0], passes[1])
        units = {k: layer_unit(k) for k in metrics}
    else:
        e2e, tail = end_to_end(wl, passes, setups)
        metrics, units = e2e, END_TO_END_UNITS
    every = [r for p in passes for r in p.probes + p.ops]
    failed = [r for r in every if r.failure]
    return {
        "environment": environment(args),
        "workload_ops": len(wl.ops),
        "setup_s_samples": setups,
        "tail": tail,
        "end_to_end": e2e,
        "metrics": metrics,
        "units": units,
        "attempted": len(every),
        "failed": len(failed),
        "correct": is_correct(every),
        "passes": [
            {
                "traced": p.traced,
                "run_s": p.run_s,
                "cache_bytes": p.cache_bytes,
                "ops": [r.public() for r in p.ops],
                "startup_probes_s": [r.time_s for r in p.probes],
                "startup_probes_wall_s": [r.wall_s for r in p.probes],
            }
            for p in passes
        ],
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.startswith("trace."):
        return "ratio"
    if name.endswith("operand_bits"):
        return "bits"
    return "count"


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)  # so the running child is killed and tmp removed
    if not (SRC / "qzeta" / "__main__.py").is_file():
        print(f"perfbench: no qzeta sources under {SRC}", file=sys.stderr)
        return 2
    scratch = WORK / "tmp" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args, scratch)
    except SetupError as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    units = result["units"]
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1, sort_keys=True))
    env = result["environment"]
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    tail = result["tail"]
    if tail is not None:
        print(f"op_s.p_tail is p{tail['percentile']} of {tail['samples']} op samples")
    for r in (r for p in result["passes"] for r in p["ops"]):
        if r["failure"]:
            tag = "known defect" if r["known_defect"] else "FAILED"
            print(f"{tag}: {' '.join(r['argv'])}: {r['failure']}")
    for name, value in result["metrics"].items():
        print(f"{name} = {value} {units[name]}")
    print(f"detail: {out.relative_to(ROOT)}")
    final = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
