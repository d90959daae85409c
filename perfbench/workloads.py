"""Seeded generators for the three benchmark workloads.

Each generator turns a `random.Random` into the argv lists of one pass.  The
seed only chooses inputs; the program under test never sees it.  It orders
the ops and moves some sizes by amounts that change their cost by a few
percent; it never adds or drops an op, so that a pass costs about the same
on every seed.  A pass is short (about ten seconds) so that a run holds
several.

The family directions and admissibility rules are restated here rather than
imported from qzeta, so a refactor of the library cannot change what the
benchmark runs; the tests cross-check them against the library.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# rates and offsets of n -> params(n), as in the paper's families
FAMILIES = {
    "theorem1": ("zeta1", (8, 6, 8, 15), (1, 1, 1, 1)),
    "theorem2": ("zeta2", (5, 6, 7, 14, 15), (1, 1, 1, 2, 2)),
    "bv": ("zeta1", (1, 1, 1, 2), (1, 1, 1, 2)),
}

WARM_DIR = "warm"  # cache dir built once in set-up and shared by a run's passes


@dataclass(frozen=True)
class Op:
    """One child process: `qzeta <argv> --cache-dir <dir of cache_key>`.

    `replays` names the earlier op (by index in the pass) whose report this
    one must reproduce byte for byte apart from elapsed_ms.  `known_defect`
    marks an op that is expected to hit the known defect (see gate.py); only
    such ops may fail without making the run incorrect.
    """

    argv: tuple[str, ...]
    cache_key: str
    replays: int | None = None
    known_defect: bool = False


@dataclass(frozen=True)
class Workload:
    """One pass of ops, plus the ops set-up runs to prebuild the shared cache."""

    ops: tuple[Op, ...]
    prebuild: tuple[tuple[str, ...], ...] = ()


def family_params(family: str, n: int) -> tuple[int, ...]:
    _, rates, offsets = FAMILIES[family]
    return tuple(r * n + o for r, o in zip(rates, offsets))


def admissible(kind: str, params: tuple[int, ...]) -> bool:
    """Convergence region plus nonnegative c-labels, as in qzeta.linforms."""
    if min(params) < 1:
        return False
    if kind == "zeta1":
        a0, a1, a2, b = params
        return a1 + a2 <= b and a0 + a1 + a2 >= b + 1
    a, b = params[:3], params[3:]
    return all(aj < bk for aj in a for bk in b) and sum(a) < sum(b)


# The coordinate moved by the seeded perturbation: a0 of (a0, a1, a2, b) and b3
# of (a1, a2, a3, b2, b3).  Moving these by one changes a form's build cost by
# a few percent; moving b or b2 can change it by half, which would let one
# seed's pass cost much more than another's.
PERTURBED = {"zeta1": 0, "zeta2": 4}


def perturb(kind: str, params: tuple[int, ...], rng: random.Random) -> tuple[int, ...]:
    """Move one coordinate by a seeded +-1; keep the original if that leaves the region."""
    moved = list(params)
    moved[PERTURBED[kind]] += rng.choice((-1, 1))
    moved = tuple(moved)
    return moved if admissible(kind, moved) else params


def grid(rng: random.Random, lo: int, hi: int, count: int, jitter: int) -> list[int]:
    """`count` evenly spaced points from lo to hi, each moved by up to +-jitter."""
    step = (hi - lo) / (count - 1)
    return [round(lo + k * step) + rng.randint(-jitter, jitter) for k in range(count)]


# bv n = 14's linform (about 0.85 s) sits beside theorem2 n = 2's cold
# inclusion and linform, so that op_s.p_tail falls among several ops of
# about the same cost.
FORMS_MEMBERS = (
    [("theorem1", n) for n in (1, 2, 3)]
    + [("theorem2", n) for n in (1, 2)]
    + [("bv", 10), ("bv", 14)]
)

# Members whose `linform` hits the known defect: the certification residual
# overflows a float in the report's witness text.
DEFECT_MEMBERS = frozenset({("theorem1", 3)})


# Cold `measure --family bv --fit-n-max N` ops, each on its own fresh cache
# (the command needs N >= 6).  They cost 0.17-0.2 s, like the small members'
# cold inclusions; with these, two thirds of the cold ops cost about the same
# and the cold median falls among them.
MEASURE_FITS = (6, 6, 7, 7, 8)


# Warm replays of each cold `inclusion`: three for the small members, whose
# replays all cost about the same, and one for the two large ones.  The warm
# median then falls among the small members' replays rather than at an edge
# between groups of ops of different cost (large replays, linform ops).
INCLUSION_REPLAYS = 3
LARGE_MEMBERS = frozenset({("theorem1", 3), ("theorem2", 2)})


def forms(rng: random.Random) -> Workload:
    """Per input: cold inclusion, its warm replays, then linform on that cache.

    theorem1 n = 4 and theorem2 n = 3 are left out: each takes 4-6 s per
    pass, which would leave too few passes in a run.
    """
    units = []
    for family, n in FORMS_MEMBERS:
        kind = FAMILIES[family][0]
        params = ",".join(map(str, perturb(kind, family_params(family, n), rng)))
        inclusion = ("inclusion", "--kind", kind, "--params", params)
        linform = ("linform", "--kind", kind, "--params", params)
        defect = (family, n) in DEFECT_MEMBERS
        replays = [(inclusion, True)] * (1 if (family, n) in LARGE_MEMBERS else INCLUSION_REPLAYS)
        units.append([(inclusion, False), *replays, (linform, False, defect)])
    units += [
        [(("measure", "--family", "bv", "--fit-n-max", str(n)), False)]
        for n in MEASURE_FITS
    ]
    rng.shuffle(units)
    return Workload(_flatten(units))


# Fixed sizes: a move of N by one changes an `ord` sweep's cost by about 8%,
# and every op here is chosen to take about half a second, so that each of
# the workload's medians falls among many ops of about the same cost.  The
# seed orders the ops.
SWEEP_N = (48, 50, 52)
SINGLES = ((78, 2), (80, 3), (82, 5))  # (N, L) of `ord --n N --l L`

# `dnp --n DNP_N --p 2`, cold on DNP_UNITS fresh caches and replayed on each:
# the replays are the workload's warm ops.
DNP_N = 53
DNP_UNITS = 2
DNP_REPLAYS = 2


def valuations(rng: random.Random) -> Workload:
    """ord sweeps, ord singles and dnp, each on a fresh cache; dnp replayed warm.

    Sweeps and dnp spend their time in exact division; a single `ord --l`
    is mostly the product building [n]_p!.  Only dnp writes the store, so
    its replays are the workload's warm ops.
    """
    units = [[(("ord", "--n", str(n)), False)] for n in SWEEP_N]
    units += [[(("ord", "--n", str(n), "--l", str(l)), False)] for n, l in SINGLES]
    dnp = ("dnp", "--n", str(DNP_N), "--p", "2")
    units += [[(dnp, False)] + [(dnp, True)] * DNP_REPLAYS for _ in range(DNP_UNITS)]
    rng.shuffle(units)
    return Workload(_flatten(units))


# Warm `empirical-mu --family bv --n-max 4` at these p, and cold `stability
# --family theorem1 --n 1` at (p, terms) on a grid, each moved by up to +-2
# terms.  Every op takes 0.6-0.8 s, so that each median falls among many ops
# of about the same cost.
EMPIRICAL_MU_N = 4
EMPIRICAL_MU_P = (2, 3, 2, 3, 2)
STABILITY = ((2, 120, 150, 3), (3, 100, 120, 2))  # (p, lo, hi, count)


def numerics(rng: random.Random) -> Workload:
    """empirical-mu on the prebuilt warm bv cache; stability on fresh caches."""
    mu = ("empirical-mu", "--family", "bv", "--n-max", str(EMPIRICAL_MU_N))
    ops = [Op((*mu, "--p", str(p)), WARM_DIR) for p in EMPIRICAL_MU_P]
    for p, lo, hi, count in STABILITY:
        for t in grid(rng, lo, hi, count, 2):
            argv = ("stability", "--family", "theorem1", "--n", "1", "--p", str(p))
            ops.append(Op((*argv, "--terms", str(t)), f"u{len(ops)}"))
    rng.shuffle(ops)
    # `measure` fits from n = 6 at least; that covers every warm op's n-max
    prebuild = (("measure", "--family", "bv", "--fit-n-max", str(max(6, EMPIRICAL_MU_N))),)
    return Workload(tuple(ops), prebuild)


def _flatten(units) -> tuple[Op, ...]:
    """Ops of each unit share a fresh cache dir; a replay repeats the unit's
    first op with the same argv.  A unit entry is (argv, replay) or
    (argv, replay, known_defect)."""
    ops: list[Op] = []
    for k, unit in enumerate(units):
        first: dict[tuple, int] = {}
        for argv, replay, *defect in unit:
            ops.append(Op(argv, f"u{k}", first[argv] if replay else None, *defect))
            first.setdefault(argv, len(ops) - 1)
    return tuple(ops)


GENERATORS = {"forms": forms, "valuations": valuations, "numerics": numerics}


def generate(name: str, seed: int) -> Workload:
    """The ops of one pass of workload `name` for `seed`."""
    return GENERATORS[name](random.Random(seed))
