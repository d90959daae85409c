"""Spans and counters recorded from outside the program.

`install` wraps the public functions and methods of each qzeta module in
place, so every call opens a span named `<module>.<qualname>`.  Spans nest
on a stack; a span's self time is its duration minus the time its child
spans cover.  Only per-name totals are kept in memory (calls, total, self)
plus a few counters that hooks compute from arguments and results, because
a numerics op makes hundreds of thousands of interval operations.

Hook work runs inside a `trace.bookkeeping` span, so its cost lands in no
program layer's self time.  The wrapper's own cost per call is measured once
per process (`calibrate`) and taken out of the self times on `dump`: the
part between a span's two clock reads from that span, the rest from its
caller, which is charged once per child call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time
from collections import Counter

LAYERS = ("parith", "qseries", "dyadic", "linforms", "groups", "measures", "cli")

# Operators are wrapped as well as public names: they are where the work is.
OPERATORS = frozenset(
    {
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
        "__truediv__", "__rtruediv__", "__neg__", "__abs__", "__call__",
    }
)  # fmt: skip

# Private functions that carry a named cost of their own.
EXTRA = {"cli": ("_emit",), "linforms": ("_build_zeta1", "_build_zeta2")}

KRON_CUTOFF = 24  # min operand length at which PPoly.__mul__ packs (parith._KRON_CUTOFF)
DEGREE_CLASSES = ((64, "d_lt64"), (500, "d_lt500"), (2000, "d_lt2000"), (6000, "d_lt6000"))


class Tracer:
    """Per-name span totals on a call stack, plus free-form counters."""

    def __init__(self, clock=time.perf_counter, start: float | None = None):
        self.clock = clock
        self.start = clock() if start is None else start
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.child_calls: Counter = Counter()  # name -> spans closed directly inside it
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [name, start, time covered by children]

    def begin(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def end(self) -> None:
        name, t0, covered = self._stack.pop()
        dur = self.clock() - t0
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        st[1] += dur
        st[2] += dur - covered
        if self._stack:
            self._stack[-1][2] += dur
            self.child_calls[self._stack[-1][0]] += 1

    def corrected(self, cost: tuple[float, float]) -> tuple[dict, float]:
        """Span totals with the wrapper's cost taken out of each self time.

        `cost` is (inside, outside) seconds per wrapped call, as `calibrate`
        gives it.  Returns the spans and the total removed.  Total times are
        left as measured.
        """
        inside, outside = cost
        spans, removed = {}, 0.0
        for name, (calls, total, self_s) in self.stats.items():
            cut = min(self_s, calls * inside + self.child_calls[name] * outside)
            spans[name] = [calls, total, self_s - cut]
            removed += cut
        return spans, removed

    def dump(self, path: str, cost: tuple[float, float] = (0.0, 0.0)) -> None:
        """Write the wall time since start, per-span totals and counters.

        Self times are corrected for the wrapper's cost; `overhead_s` is what
        the correction removed, which is tracer time as well.
        """
        spans, removed = self.corrected(cost)
        out = {
            "wall_s": self.clock() - self.start,
            "spans": spans,
            "counts": self.counts,
            "wrapper_cost_s": list(cost),
            "overhead_s": removed,
        }
        with open(path, "w") as fh:
            json.dump(out, fh)


def _traced(tracer: Tracer, name: str, fn, hook=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end()
        if hook is not None:
            tracer.begin("trace.bookkeeping")
            try:
                hook(tracer.counts, args, kwargs, result)
            finally:
                tracer.end()
        return result

    return traced


def calibrate(clock=time.perf_counter, calls: int = 1000, repeats: int = 5) -> tuple[float, float]:
    """Cost of one wrapped call of an empty two-argument function, in seconds.

    Returns (inside, outside): the part between the span's two clock reads,
    which the span books as its own self time, and the rest of the wrapper's
    cost, which lands in the caller's self time.  The minimum over repeats
    is kept, since the cost is a floor that noise only adds to.
    """

    def noop(a, b):
        return None

    inside = total = math.inf
    for _ in range(repeats):
        tracer = Tracer(clock)
        wrapped = _traced(tracer, "noop", noop)
        tracer.begin("outer")  # so each call closes inside a parent, as in the program
        t0 = clock()
        for _ in range(calls):
            noop(1, 2)
        bare = (clock() - t0) / calls
        t0 = clock()
        for _ in range(calls):
            wrapped(1, 2)
        total = min(total, (clock() - t0) / calls - bare)
        inside = min(inside, tracer.stats["noop"][2] / calls - bare)
        tracer.end()
    inside = min(max(inside, 0.0), max(total, 0.0))
    return inside, max(total, 0.0) - inside


# -- hooks: counters computed from a call's arguments and result -------------


def _mul_hook(counts, args, kwargs, result):
    a, b = args
    polys = [x.coeffs for x in (a, b) if hasattr(x, "coeffs")]
    top = max(len(c) for c in polys) - 1
    counts["mul.calls." + next((n for lim, n in DEGREE_CLASSES if top < lim), "d_ge6000")] += 1
    if len(polys) == 2 and polys[0] and polys[1] and min(map(len, polys)) >= KRON_CUTOFF:
        counts["mul.kron.calls"] += 1
    for c in polys:
        if c:
            counts["mul.operand_bits"] += len(c) * max(abs(v) for v in c).bit_length()


def _div_hook(counts, args, kwargs, result):
    counts["div.attempts"] += 1
    counts["div.successes"] += result is not None


def _ord_hook(counts, args, kwargs, result):
    cap = kwargs.get("cap", args[2] if len(args) > 2 else None)
    counts["ord_at.successes"] += result
    counts["ord_at.attempts"] += result + (cap is None or result < cap)


def _load_hook(counts, args, kwargs, result):
    counts["load_form.attempts"] += 1
    counts["load_form.hits"] += result is not None


HOOKS = {
    "parith.PPoly.__mul__": _mul_hook,
    "parith.PPoly.try_exact_div": _div_hook,
    "parith.PPoly.ord_at": _ord_hook,
    "cli.Cache.load_form": _load_hook,
}


# -- installation ------------------------------------------------------------


def _targets(mod):
    """(owner, attribute, function, span name) for everything wrapped in `mod`."""
    layer = mod.__name__.rsplit(".", 1)[-1]
    for attr, obj in vars(mod).items():
        if attr.startswith("_") and attr not in EXTRA.get(layer, ()):
            continue
        if inspect.isclass(obj) and obj.__module__ == mod.__name__:
            for mattr, mobj in vars(obj).items():
                if mattr.startswith("_") and mattr not in OPERATORS:
                    continue
                fn = mobj.__func__ if isinstance(mobj, staticmethod) else mobj
                if inspect.isfunction(fn):
                    yield obj, mattr, mobj, f"{layer}.{obj.__name__}.{fn.__name__}"
        elif callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
            if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                yield mod, attr, obj, f"{layer}.{obj.__name__}"


def install(tracer: Tracer) -> None:
    """Wrap every layer's public callables; rebind every module-level alias too.

    Names imported with `from .x import f` are separate bindings of the same
    object, so each qzeta module's namespace is rescanned for the originals.
    """
    mods = [importlib.import_module(f"qzeta.{name}") for name in LAYERS]
    wrapped: dict[int, object] = {}
    for mod in mods:
        for owner, attr, obj, name in list(_targets(mod)):
            if id(obj) not in wrapped:
                if isinstance(obj, staticmethod):
                    wrapped[id(obj)] = staticmethod(_traced(tracer, name, obj.__func__))
                else:
                    wrapped[id(obj)] = _traced(tracer, name, obj, HOOKS.get(name))
            setattr(owner, attr, wrapped[id(obj)])
    for mod in mods:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped and not isinstance(obj, staticmethod):
                setattr(mod, attr, wrapped[id(obj)])
