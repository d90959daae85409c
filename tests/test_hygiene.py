"""Source hygiene: every name a qzeta module or test file imports is used there,
every public top-level name and public method is used by library code or
kept on purpose, and a public method name is defined on one class only,
unless it is listed with the library code that reads each class's method
and a few command runs call each of those methods, and every library
statement but a `raise` runs under a golden case, unless UNREACHED counts
it with a reason."""

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

SRC = sorted((Path(__file__).resolve().parent.parent / "src" / "qzeta").glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def _imported(tree):
    """(bound name, line) for every import except `from __future__`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def _used(tree):
    """Names read anywhere, including inside string annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            ann = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names |= _used(ast.parse(ann.value, mode="eval"))
    return names


@pytest.mark.parametrize("path", SRC + TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


# Public top-level names and methods kept in the library although no library
# code calls them, each a reproduction of a result of the paper.
KEPT_FOR_THE_PAPER = {
    "log2_q_series": "the paper's q-analogue of log 2, both Lambert groupings",
    "limit_check": "the classical limit (1-q)^k zeta_q(k) -> (k-1)! zeta(k) as q -> 1",
}


def _attribute_reads(node):
    return Counter(
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    )


def _unused_public_names():
    """Public top-level defs and classes in src/qzeta that no other top-level
    statement in src/qzeta reads, and public methods (as Class.name) whose
    name no library code outside the method itself reads as an attribute."""
    defs, readers, trees = [], {}, []
    for path in SRC:
        trees.append(ast.parse(path.read_text(), filename=str(path)))
        for i, node in enumerate(trees[-1].body):
            for name in _used(node):
                readers.setdefault(name, set()).add((path.name, i))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defs.append((path.name, node.name, i))
    unused = {name for module, name, i in defs if not readers.get(name, set()) - {(module, i)}}
    reads = sum(map(_attribute_reads, trees), Counter())
    return unused | {
        f"{cls.name}.{m.name}"
        for tree in trees
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for m in cls.body
        if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
        if reads[m.name] == _attribute_reads(m)[m.name]
    }


def test_no_test_only_library_names():
    unused = sorted(_unused_public_names() - set(KEPT_FOR_THE_PAPER))
    assert not unused, (
        "public names no library code uses (move them into the tests, or keep "
        f"them in KEPT_FOR_THE_PAPER with a reason): {', '.join(unused)}"
    )


def test_kept_names_are_still_unused_library_names():
    stale = sorted(set(KEPT_FOR_THE_PAPER) - _unused_public_names())
    assert not stale, f"KEPT_FOR_THE_PAPER lists names now gone or used: {', '.join(stale)}"


# The check above matches attribute reads by name alone, so a test-only method
# would pass behind a used method of the same name on another class.  A public
# method name may be defined on two or more classes only if it is listed here,
# with the library code that reads each class's method.
SHARED_METHODS = {
    "value_at": "FactoredPPoly's by LinearForm.d_value and certify (the stored denominators), "
    "RatFunc's by certify, cmd_linform and empirical_mu (A and B at p)",
    "admissible": "ParamsZ1's and ParamsZ2's alike by cvector",
    "c_values": "ParamsZ1's and ParamsZ2's alike by cvector and params_from_cvector",
    "from_cvector": "ParamsZ1's and ParamsZ2's alike by params_from_cvector, through PARAMS",
    "expo": "ParamsZ1's and ParamsZ2's alike by params.summand",
    "pole_runs": "ParamsZ1's and ParamsZ2's alike by params.summand",
    "alpha": "ParamsZ1's and ParamsZ2's alike by measures.measure, through PARAMS",
}


def _shared_method_names():
    """{public method name: classes} for names defined on two or more classes."""
    owners = {}
    for path in SRC:
        for cls in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(cls, ast.ClassDef):
                for m in cls.body:
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"):
                        owners.setdefault(m.name, []).append(cls.name)
    return {name: classes for name, classes in owners.items() if len(classes) > 1}


def test_shared_method_names_are_listed():
    shared = _shared_method_names()
    unlisted = sorted(f"{n} ({', '.join(shared[n])})" for n in set(shared) - set(SHARED_METHODS))
    assert not unlisted, (
        "public method names defined on several classes (rename or delete one, or list "
        f"the name in SHARED_METHODS with who reads each): {'; '.join(unlisted)}"
    )


def test_shared_methods_are_still_shared():
    stale = sorted(set(SHARED_METHODS) - set(_shared_method_names()))
    assert not stale, f"SHARED_METHODS lists names no longer shared: {', '.join(stale)}"


# Commands whose runs, together, call every class's method of each SHARED_METHODS
# name: forms of both kinds built and certified, both kinds' alpha, both kinds'
# group images, and the forms' values at p.
READER_RUNS = (
    ["linform", "--kind", "zeta1", "--params", "2,2,2,4"],
    ["linform", "--kind", "zeta2", "--params", "1,1,1,2,2"],
    ["measure", "--family", "bv", "--fit-n-max", "6"],
    ["measure", "--family", "apery"],
    ["stability"],
    ["empirical-mu", "--family", "bv", "--n-max", "3"],
)


def _shared_method_codes():
    """{(file, first line): "Class.method"} for every class's method of a listed name.

    A code object's first line is its first decorator's, if it has any.
    Matching by file and line needs no co_qualname, which Python 3.10 lacks.
    """
    codes = {}
    for path in SRC:
        for cls in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(cls, ast.ClassDef):
                for m in cls.body:
                    if isinstance(m, ast.FunctionDef) and m.name in SHARED_METHODS:
                        first = min([m.lineno] + [d.lineno for d in m.decorator_list])
                        codes[(str(path), first)] = f"{cls.name}.{m.name}"
    return codes


def test_every_shared_method_is_called(tmp_path, capsys):
    from qzeta.cli import main

    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(profile)
    try:
        codes = [main([*argv, "--cache-dir", str(tmp_path)]) for argv in READER_RUNS]
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [0] * len(READER_RUNS)
    called = {(str(Path(f).resolve()), line) for f, line in called}
    uncalled = sorted(name for code, name in _shared_method_codes().items() if code not in called)
    assert not uncalled, f"shared methods no command run calls: {', '.join(uncalled)}"


# The memo of computed results is the Store a caller passes in.  A module-level
# memo would let a result depend on what earlier calls left in the process; the
# only exceptions are these lru_caches on pure integer helpers, whose values
# depend on their arguments alone.
PURE_CACHED = {
    "parith.divisors": "the divisors of an integer",
    "parith.mobius": "the Moebius function of an integer",
    "parith._mobius_binomials": "the divisors of l split by the sign of mu(l/d)",
    "parith.cyclotomic_value": "the integer Phi_l(p)",
    "qseries.rho": "the fixed polynomial rho_k",
}
_MEMO_DECORATORS = {"cache", "lru_cache"}
_MUTATORS = {"append", "extend", "insert", "add", "update", "setdefault", "pop", "popitem", "clear"}


def _name_of(node):
    """The name a Name or Attribute node ends in, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _module_level(tree):
    """Nodes that run at import time: all but function bodies, whose default
    values and decorators do run then."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo += node.args.defaults + [d for d in node.args.kw_defaults if d]
            todo += getattr(node, "decorator_list", [])
        else:
            todo.extend(ast.iter_child_nodes(node))


def _memoized(tree, module):
    """(qualified function name or None, line) of every cache/lru_cache reference;
    the name is set where it decorates a function."""
    in_decorators = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                for sub in ast.walk(dec):
                    in_decorators[id(sub)] = f"{module}.{node.name}"
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)) and _name_of(node) in _MEMO_DECORATORS:
            yield in_decorators.get(id(node)), node.lineno


def _global_containers(tree):
    """Module-level names bound to a list, dict or set."""
    kinds = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
    out = set()
    for node in tree.body:
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        value = node.value
        if isinstance(value, kinds) or (
            isinstance(value, ast.Call) and _name_of(value.func) in {"list", "dict", "set"}
        ):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out |= {t.id for t in targets if isinstance(t, ast.Name)}
    return out


def _global_writes(tree):
    """(function, name, line) where a function appends to or assigns into a
    module-level container it does not shadow, or rebinds a module global."""
    shared = _global_containers(tree)
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                yield fn.name, ", ".join(node.names), node.lineno
        local = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
        local |= {
            n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
        }
        for node in ast.walk(fn):
            target = None
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in _MUTATORS:
                    target = node.func.value
            elif isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                target = node.value
            if isinstance(target, ast.Name) and target.id in shared - local:
                yield fn.name, target.id, node.lineno


def test_no_module_level_memos():
    found = []
    for path in SRC:
        tree = ast.parse(path.read_text(), filename=str(path))
        module = path.stem
        for fn, line in _memoized(tree, module):
            if fn not in PURE_CACHED:
                found.append(f"{path.name}:{line} cache on {fn or 'a non-decorator'}")
        for node in _module_level(tree):
            if isinstance(node, ast.Call) and _name_of(node.func) == "Store":
                found.append(f"{path.name}:{node.lineno} module-level Store(...)")
        for fn, name, line in _global_writes(tree):
            found.append(f"{path.name}:{line} {fn} writes into module-level {name}")
    assert not found, (
        "memos outside the caller's Store (pass a Store in, or list a pure helper "
        f"in PURE_CACHED with a reason): {'; '.join(found)}"
    )


def test_pure_cached_names_are_still_cached():
    cached = set()
    for path in SRC:
        tree = ast.parse(path.read_text(), filename=str(path))
        cached |= {fn for fn, _ in _memoized(tree, path.stem) if fn}
    stale = sorted(set(PURE_CACHED) - cached)
    assert not stale, f"PURE_CACHED lists names no longer cached: {', '.join(stale)}"


# The series kind is decided in params alone: its classes carry every fact that
# depends on the kind, and PARAMS maps a kind name to its class.  Elsewhere a
# kind may be passed on or used as a key, never compared.
KIND_LITERALS = {"zeta1", "zeta2"}


def _is_kind(node):
    """A `kind` name, a `.kind` attribute or a "zeta1"/"zeta2" literal."""
    if isinstance(node, ast.Constant):
        return node.value in KIND_LITERALS
    return _name_of(node) == "kind"


def _kind_comparisons(tree):
    """Lines of ==, !=, in and not in comparisons with a kind operand."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, a, b in zip(node.ops, operands, operands[1:]):
                if isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn)) and (
                    _is_kind(a) or _is_kind(b)
                ):
                    yield node.lineno


def test_no_kind_comparison_outside_params():
    found = [
        f"{path.name}:{line}"
        for path in SRC
        if path.name != "params.py"
        for line in _kind_comparisons(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not found, (
        "the series kind is compared outside params (read a class attribute of the "
        f"params class, or look the kind up in a table): {', '.join(found)}"
    )


def test_kind_comparison_guard_sees_each_form():
    tree = ast.parse(
        'k = 1 if params.kind == "zeta1" else 2\n'
        'a = kind != other\n'
        'b = "zeta2" in kinds\n'
        'c = form.params.kind not in table\n'
        'd = kind is None or args.kind\n'
        'e = table["zeta1"]\n'
    )
    assert sorted(_kind_comparisons(tree)) == [1, 2, 3, 4]



# Every library statement runs under a golden case.  The cases of
# tests/golden/cases.json run cold and then warm on one cache in a fresh
# interpreter, imports and first calls of the lru_caches included, under a
# line tracer limited to frames under src/qzeta.  A statement is an AST
# statement whose first line holds bytecode (co_lines).  A `raise` may stay
# unreached: it is an error exit, which the tests pin.  Any other statement
# no case reaches is deleted, pinned by a new golden case, or counted here
# under its function (module.function, module.Class.method or
# module.<module>) with the reason it stays; the functions of
# KEPT_FOR_THE_PAPER stay whole.
_HELP = "help, usage and parse-error text, which test_startup's child processes pin"
_ENTRY = "the process entry, run by test_startup's `python -m qzeta` and CI's console script"
UNREACHED = {
    "__main__.<module>": (4, _ENTRY),
    "cli.run": (7, _ENTRY),
    "cli.main": (1, "Python before 3.10.7, a supported version, has no digit limit to lift"),
    "cli._parse": (1, _HELP),
    "cli._spelled": (3, _HELP),
    "cli._usage": (2, _HELP),
    "cli._rows": (2, _HELP),
    "cli._top_level": (12, _HELP),
    "cli._run": (11, f"{_HELP}; the exits for a cache root that cannot hold forms/ and "
                 "for an empty range, which test_cli pins"),  # fmt: skip
    "store.Store.__init__": (1, "a read-only cache root, whose save exits 2 (test_cli)"),
    "store.Store._load": (2, "a memory-only Store(), the library's in-process use (README), "
                          "and a truncated form file, which test_cli pins"),  # fmt: skip
    "store.Store._save": (2, "a memory-only Store(), and a failed write's temp file (test_cli)"),
    "linforms.<module>": (1, "the TYPE_CHECKING import, which only a type checker reads"),
    "forms.verify_inclusion": (5, "the Omega branch, which `inclusion` gets with ROADMAP item 1, "
                               "step 3; without Omega a Phi_l deficit means a form D does not "
                               "clear, which no build gives"),  # fmt: skip
    "forms.RatFunc.__init__": (1, "a Laurent numerator, which build may pass: the polynomial "
                               "part's coefficients are Laurent in p (_expand_factors shifts "
                               "by -i)"),  # fmt: skip
    "parith.PPoly.mul_binomial": (1, "the zero polynomial, which RatFunc._merge lifts when a "
                                  "group's numerators cancel"),  # fmt: skip
    "parith.PPoly.div_binomial": (1, "the zero polynomial, as in mul_binomial"),
    "linforms._runs": (2, "a gap in a multiplicity layer: no family tuple has one, but the "
                       "series enclosure is proved for any summand"),  # fmt: skip
    "dyadic.Enclosure._make": (1, "namedtuple's _make and _replace would skip __new__'s "
                               "lo <= hi check; no library code calls them"),  # fmt: skip
    "qseries.zeta_ref": (6, "the (k-1)! zeta(k) target of limit_check, kept for the paper"),
}


def _child_statements(node):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.stmt):
            yield child
        else:  # an except handler or a match case holds statements
            yield from _child_statements(child)


def _statements(path):
    """(scope, line, is_raise, last) of each statement of the file whose first
    line holds bytecode.  A frame can still run the statement only while it
    is at or before line `last`: the statement's last line, or that of the
    outermost loop around it in its function (control flow jumps back only
    in a loop)."""
    text = path.read_text()
    lines, codes = set(), [compile(text, str(path), "exec")]
    while codes:
        code = codes.pop()
        lines |= {line for _, _, line in code.co_lines() if line is not None}
        codes += [c for c in code.co_consts if hasattr(c, "co_lines")]
    todo = [(node, "<module>", None) for node in ast.parse(text).body]
    while todo:
        node, scope, loop_end = todo.pop()
        if node.lineno in lines:
            last = loop_end or node.end_lineno
            yield f"{path.stem}.{scope}", node.lineno, isinstance(node, ast.Raise), last
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = node.name if scope == "<module>" else f"{scope}.{node.name}"
            loop_end = None
        elif isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            loop_end = loop_end or node.end_lineno
        todo += [(child, scope, loop_end) for child in _child_statements(node)]


def _trace_goldens(cache: str) -> dict[str, list[int]]:
    """{file: lines} of the non-raise statements of src/qzeta that the golden
    cases reach, run through cli.main cold and then warm on cache.

    A code object's frames are traced only until each of its statement lines
    has run once, and a frame only until it is past every line from which
    one not run yet could still be reached, so a covered loop runs at nearly
    full speed.
    """
    wanted = {
        str(p): {line: last for _, line, is_raise, last in _statements(p) if not is_raise}
        for p in SRC
    }
    # id(code) -> {line: last} of its statements not reached yet; a code object
    # hashes its constants on every lookup, and `codes` keeps each id in use
    left, codes = {}, []

    def trace_lines(frame, event, arg):
        todo = left[id(frame.f_code)]
        todo.pop(frame.f_lineno, None)
        if not todo or frame.f_lineno > max(todo.values()):
            frame.f_trace_lines = False  # stops its line events; returning None would not
        return trace_lines

    def trace_calls(frame, event, arg):
        todo = left.get(id(frame.f_code))
        if todo is None:
            code = frame.f_code
            lines = wanted.get(os.path.realpath(code.co_filename), {})
            todo = left[id(code)] = {l: lines[l] for _, _, l in code.co_lines() if l in lines}
            codes.append((code, set(todo)))
        if todo:  # false for most calls: other code, or code already covered
            todo.pop(frame.f_lineno, None)  # the first line, or where a generator resumes
            if todo:
                frame.f_trace_lines = True  # a resumed generator may have had them stopped
                return trace_lines
        return None

    cases = json.loads((Path(__file__).resolve().parent / "golden" / "cases.json").read_text())
    sys.settrace(trace_calls)
    try:
        from qzeta.cli import main

        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for case in cases * 2:  # cold, then warm
                main([*case["argv"], "--cache-dir", cache])
    finally:
        sys.settrace(None)
    reached = {}
    for code, lines in codes:
        path = os.path.realpath(code.co_filename)
        reached.setdefault(path, set()).update(lines - left[id(code)].keys())
    return {path: sorted(lines) for path, lines in reached.items()}


_TRACE_CHILD = (
    "import json, sys\n"
    "from test_hygiene import _trace_goldens\n"
    "json.dump(_trace_goldens(sys.argv[1]), sys.stdout)\n"
)


def start_golden_trace(cache: Path) -> subprocess.Popen:
    """_trace_goldens(cache) in a fresh interpreter, whose stdout is its JSON.

    conftest starts it with the session, so that it runs beside the other
    tests; test_every_statement_runs_under_a_golden_case reads it.
    """
    here = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(here.parent / "src"), str(here), env.get("PYTHONPATH")])
    )
    argv = [sys.executable, "-c", _TRACE_CHILD, str(cache)]
    return subprocess.Popen(
        argv, cwd=cache, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )


def test_every_statement_runs_under_a_golden_case(golden_trace):
    out, err = golden_trace.communicate(timeout=300)
    assert golden_trace.returncode == 0, err
    reached = {path: set(lines) for path, lines in json.loads(out).items()}
    unreached = {}
    for path in SRC:
        source = path.read_text().splitlines()
        for scope, line, is_raise, _ in _statements(path):
            if is_raise or line in reached.get(str(path), ()):
                continue
            if scope.rsplit(".", 1)[-1] not in KEPT_FOR_THE_PAPER:
                unreached.setdefault(scope, []).append((line, source[line - 1].strip()))
    wrong = []
    for scope in sorted(set(unreached) | set(UNREACHED)):
        found, (allowed, _) = sorted(unreached.get(scope, [])), UNREACHED.get(scope, (0, ""))
        if len(found) != allowed:
            wrong.append(f"{scope}: {len(found)} unreached, {allowed} allowed")
            wrong += [f"    {scope.split('.')[0]}.py:{line}  {text}" for line, text in found]
    assert not wrong, (
        "statements no golden case reaches (delete them, add a golden case, or count "
        "them in UNREACHED with a reason):\n" + "\n".join(wrong)
    )
