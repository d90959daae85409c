"""Source hygiene: every name a qzeta module imports is used in that module,
and every public top-level name and public method is used by library code or
kept on purpose."""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = sorted((Path(__file__).resolve().parent.parent / "src" / "qzeta").glob("*.py"))


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


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
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
    "NuProfile.phi": "the gain profile phi(x) itself; the library reads its steps as segments",
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
