"""Tests of the benchmark's own logic (not of qzeta).

    python -m pytest perfbench/tests -q
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from qzeta.linforms import FAMILIES, ParamsZ1, ParamsZ2  # noqa: E402


class TestTailPercentile:
    @pytest.mark.parametrize("n", [11, 12, 20, 21, 22, 24, 31, 57, 100, 1000])
    def test_ten_samples_beyond_and_highest(self, n):
        samples = list(range(n))
        level = run.tail_level(n)
        value = run.nearest_rank(samples, level)
        assert sum(x > value for x in samples) >= 10
        above = run.nearest_rank(samples, level + 1)
        assert sum(x > above for x in samples) < 10

    def test_known_levels(self):
        assert run.tail_level(31) == 67
        assert run.tail_level(20) == 50
        assert run.tail_level(110) == 90

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            run.tail_level(10)

    def test_every_workload_has_a_tail_above_the_median(self):
        for name in workloads.GENERATORS:
            ops = workloads.generate(name, 0).ops
            assert run.tail_level(run.MIN_PASSES * len(ops)) > 50


class TestSpeed:
    def test_scale_uses_the_gauge_before_and_after(self):
        readings = iter([0.010, 0.006, 0.005])
        speed = run.Speed(gauge=lambda: next(readings))
        # gauge read 10 ms before and 6 ms after: the machine ran at 5/8 speed
        assert speed.scale(2.0) == pytest.approx(2.0 * run.REFERENCE_SPIN_S / 0.008)
        # the reading after one child is the reading before the next
        assert speed.scale(1.0) == pytest.approx(1.0 * run.REFERENCE_SPIN_S / 0.0055)

    def test_reference_speed_leaves_times_unchanged(self):
        speed = run.Speed(gauge=lambda: run.REFERENCE_SPIN_S)
        assert speed.scale(0.25) == pytest.approx(0.25)

    def test_gauge_is_short_and_positive(self):
        assert 0 < run.spin_time() < 0.5


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


class TestSelfTime:
    def test_children_are_subtracted_once(self):
        # A [0, 10] holds B [1, 4] and C [5, 6]; B holds D [2, 3]
        t = spans.Tracer(clock=FakeClock([0, 0, 1, 2, 3, 4, 5, 6, 10]))
        t.begin("A")
        t.begin("B")
        t.begin("D")
        t.end()
        t.end()
        t.begin("C")
        t.end()
        t.end()
        assert t.stats["A"] == [1, 10, 6]
        assert t.stats["B"] == [1, 3, 2]
        assert t.stats["C"] == [1, 1, 1]
        assert t.stats["D"] == [1, 1, 1]
        assert sum(s[2] for s in t.stats.values()) == 10  # self times partition the root

    def test_wrapper_cost_is_taken_from_span_and_caller(self):
        # as above; each span pays 0.5 inside, its caller 1 per child span
        t = spans.Tracer(clock=FakeClock([0, 0, 1, 2, 3, 4, 5, 6, 10]))
        t.begin("A")
        t.begin("B")
        t.begin("D")
        t.end()
        t.end()
        t.begin("C")
        t.end()
        t.end()
        got, removed = t.corrected((0.5, 1.0))
        assert got["A"] == [1, 10, 6 - 0.5 - 2 * 1.0]
        assert got["B"] == [1, 3, 2 - 0.5 - 1.0]
        assert got["C"] == [1, 1, 0.5]
        assert got["D"] == [1, 1, 0.5]
        assert removed == 2.5 + 1.5 + 0.5 + 0.5
        assert sum(s[2] for s in got.values()) + removed == 10

    def test_correction_never_makes_self_time_negative(self):
        t = spans.Tracer(clock=FakeClock([0, 0, 1]))
        t.begin("A")
        t.end()
        got, removed = t.corrected((5.0, 5.0))
        assert got["A"] == [1, 1, 0] and removed == 1

    def test_calibrated_cost_is_small_and_nonnegative(self):
        inside, outside = spans.calibrate(calls=200, repeats=3)
        assert 0 <= inside < 1e-4 and 0 <= outside < 1e-4
        assert inside + outside > 0

    def test_recursive_span_counts_each_call(self):
        t = spans.Tracer(clock=FakeClock([0, 0, 2, 5, 9]))
        t.begin("f")
        t.begin("f")
        t.end()
        t.end()
        assert t.stats["f"] == [2, 3 + 9, 9]


REPORT = """{
  "checks": [
    {
      "name": "c",
      "pass": true,
      "witness": "w"
    }
  ],
  "command": "ord",
  "elapsed_ms": %s,
  "inputs": {},
  "outputs": {
    "order": "%s"
  },
  "version": "0.1.0"
}
"""


class TestReportComparison:
    def test_strip_elapsed_only(self):
        text = gate.strip_elapsed(REPORT % ("12.5", "3"))
        assert "elapsed_ms" not in text
        assert json.loads(text)["outputs"] == {"order": "3"}
        assert text == (REPORT % ("12.5", "3")).replace('  "elapsed_ms": 12.5,\n', "")

    def test_reports_differing_only_in_elapsed_compare_equal(self):
        a = gate.strip_elapsed(REPORT % ("12.5", "3"))
        b = gate.strip_elapsed(REPORT % ("1e-05", "3"))
        c = gate.strip_elapsed(REPORT % ("12.5", "4"))
        assert a == b and gate.digest(a) == gate.digest(b)
        assert a != c

    def test_missing_elapsed_is_an_error(self):
        with pytest.raises(ValueError):
            gate.strip_elapsed('{"command": "ord"}\n')

    def test_judge_replay_mismatch_fails(self):
        argv = ("ord", "--n", "6", "--l", "2")
        cold = gate.strip_elapsed(REPORT % ("1", "3"))
        assert gate.judge(argv, 0, REPORT % ("2", "3"), "", cold) == (None, cold)
        reason, _ = gate.judge(argv, 0, REPORT % ("2", "3"), "", cold.replace('"c"', '"d"'))
        assert reason == "warm report differs from the cold one"

    def test_judge_checks_expected_value(self):
        reason, _ = gate.judge(("ord", "--n", "6", "--l", "3"), 0, REPORT % ("1", "3"), "")
        assert reason.startswith("ord:")

    def test_known_defect_is_still_a_failure(self):
        reason, text = gate.judge(("linform", "--kind", "zeta1"), 1, "", DEFECT_STDERR)
        assert reason and text is None
        assert gate.known_defect(("linform",), True, reason)
        assert not gate.known_defect(("inclusion",), True, reason)
        assert not gate.known_defect(("linform",), True, "traceback: ValueError: x")

    def test_known_defect_on_an_unflagged_op_is_incorrect(self):
        argv = ("linform", "--kind", "zeta1", "--params", "9,7,9,16")
        reason, _ = gate.judge(argv, 1, "", DEFECT_STDERR)
        assert not gate.known_defect(argv, False, reason)

        def record(expected):
            known = gate.known_defect(argv, expected, reason)
            return run.OpRecord(argv, "warm", 1.0, 1.0, 1, 1, reason, known, None)

        assert run.is_correct([record(True), record(True)])
        assert not run.is_correct([record(True), record(False)])


DEFECT_STDERR = "Traceback (most recent call last):\n  ...\n" + gate.KNOWN_DEFECT[1] + "\n"


class TestGenerators:
    SEEDS = range(40)

    def test_same_seed_same_argv(self):
        for name in workloads.GENERATORS:
            for seed in (0, 7, 123456789):
                assert workloads.generate(name, seed) == workloads.generate(name, seed)

    def test_seed_changes_inputs(self):
        for name in workloads.GENERATORS:
            runs = {workloads.generate(name, s).ops for s in self.SEEDS}
            assert len(runs) > len(self.SEEDS) // 2

    def test_forms_params_admissible_for_the_library(self):
        for seed in self.SEEDS:
            for op in workloads.generate("forms", seed).ops:
                if op.argv[0] in ("inclusion", "linform"):
                    kind = op.argv[op.argv.index("--kind") + 1]
                    vals = [int(v) for v in op.argv[op.argv.index("--params") + 1].split(",")]
                    cls = ParamsZ1 if kind == "zeta1" else ParamsZ2
                    assert cls(*vals).admissible, op.argv

    def test_families_match_the_library(self):
        for name, (kind, rates, offsets) in workloads.FAMILIES.items():
            fam = FAMILIES[name]
            assert (fam.kind, fam.rates, fam.offsets) == (kind, rates, offsets)

    def test_admissibility_matches_the_library(self):
        for vals in [(2, 2, 2, 4), (1, 2, 3, 4), (5, 3, 3, 6), (9, 7, 9, 15)]:
            assert workloads.admissible("zeta1", vals) == ParamsZ1(*vals).admissible
        for vals in [(2, 2, 2, 4, 4), (6, 7, 8, 16, 17), (6, 7, 8, 8, 17), (5, 5, 5, 6, 9)]:
            assert workloads.admissible("zeta2", vals) == ParamsZ2(*vals).admissible

    def test_only_the_defect_members_linform_ops_are_flagged(self):
        defect_params = {
            op.argv[op.argv.index("--params") + 1]
            for seed in self.SEEDS
            for op in workloads.generate("forms", seed).ops
            if op.known_defect
        }
        for seed in self.SEEDS:
            ops = workloads.generate("forms", seed).ops
            flagged = [op for op in ops if op.known_defect]
            assert len(flagged) == len(workloads.DEFECT_MEMBERS)
            assert all(op.argv[0] == "linform" for op in flagged)
        for name in ("valuations", "numerics"):
            assert not any(op.known_defect for op in workloads.generate(name, 1).ops)
        # theorem1 n = 3, moved by at most one in a0
        for params in defect_params:
            vals = tuple(int(v) for v in params.split(","))
            bases = [workloads.family_params(f, n) for f, n in workloads.DEFECT_MEMBERS]
            assert any(
                len(vals) == len(b) and sum(abs(x - y) for x, y in zip(vals, b)) <= 1 for b in bases
            ), params

    def test_warm_median_falls_among_one_command(self):
        # warm: on a cache an earlier op of the pass wrote, or on the prebuilt one
        for seed in self.SEEDS:
            for name in workloads.GENERATORS:
                ops = workloads.generate(name, seed).ops
                seen, warm = set(), []
                for op in ops:
                    if op.cache_key in seen or op.cache_key == workloads.WARM_DIR:
                        warm.append(op.argv[0])
                    seen.add(op.cache_key)
                top = max(set(warm), key=warm.count)
                assert warm.count(top) > len(warm) / 2, (name, seed, warm)
            fits = [int(op.argv[-1]) for op in workloads.generate("forms", seed).ops if op.argv[0] == "measure"]
            assert min(fits) >= 6

    def test_pass_cost_does_not_depend_on_the_seed(self):
        # the seed moves sizes by at most a little and never adds or drops an op
        for name in workloads.GENERATORS:
            shapes = set()
            for seed in self.SEEDS:
                ops = workloads.generate(name, seed).ops
                shapes.add(tuple(sorted((op.argv[0], op.replays is None) for op in ops)))
            assert len(shapes) == 1, name

    def test_replays_point_at_the_same_command_on_the_same_cache(self):
        for name in workloads.GENERATORS:
            ops = workloads.generate(name, 3).ops
            for i, op in enumerate(ops):
                if op.replays is not None:
                    cold = ops[op.replays]
                    assert op.replays < i and cold.argv == op.argv
                    assert cold.cache_key == op.cache_key

    def test_grid_stays_near_its_points(self):
        import random

        rng = random.Random(5)
        for _ in range(100):
            got = workloads.grid(rng, 70, 100, 7, 2)
            assert all(abs(g - (70 + 5 * k)) <= 2 for k, g in enumerate(got))


def test_traced_child_reports_like_the_untraced_one(tmp_path):
    argv = ["linform", "--kind", "zeta1", "--params", "2,2,2,4", "--cache-dir"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    plain = subprocess.run(
        [sys.executable, "-m", "qzeta", *argv, str(tmp_path / "plain")],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    trace_file = tmp_path / "trace.json"
    traced = subprocess.run(
        [sys.executable, str(BENCH / "traced_qzeta.py"), str(trace_file), *argv, str(tmp_path / "t")],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert gate.strip_elapsed(traced.stdout) == gate.strip_elapsed(plain.stdout)
    trace = json.loads(trace_file.read_text())
    for name in ("process.import", "cli.main", "linforms.certify", "parith.PPoly.__mul__"):
        assert trace["spans"][name][0] >= 1, name
    assert trace["counts"]["load_form.attempts"] >= 1
    self_total = sum(s[2] for s in trace["spans"].values())
    assert trace["overhead_s"] > 0
    assert 0.5 * trace["wall_s"] < self_total + trace["overhead_s"] <= trace["wall_s"]
