"""Source hygiene: every name a qzeta module or test file imports is used there,
every public top-level name and public method is used by library code or
kept on purpose, and a public method name is defined on one class only,
unless it is listed with the library code that reads each class's method
and a few command runs call each of those methods."""

import ast
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
    "admissible": "ParamsZ1's and ParamsZ2's alike by cvector and groups.stability_sweep",
    "c_values": "ParamsZ1's and ParamsZ2's alike by cvector and params_from_cvector",
    "from_cvector": "ParamsZ1's and ParamsZ2's alike by params_from_cvector, through PARAMS",
    "expo": "ParamsZ1's and ParamsZ2's alike by params.summand",
    "pole_runs": "ParamsZ1's and ParamsZ2's alike by params.summand",
    "alpha": "ParamsZ1's and ParamsZ2's alike by params.alpha_exponent, through PARAMS",
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
    "parith.totient": "Euler's totient of an integer",
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
