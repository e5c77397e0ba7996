"""The public API holds no dead names: each one has a caller in the package or
the benchmark, and each public member of a package class has a reader outside
its own definition."""

import ast
from collections import Counter
from pathlib import Path

import cclearn

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted(p for p in (ROOT / "src" / "cclearn").glob("*.py") if p.name != "__init__.py")
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _bound_names(tree) -> set[str]:
    """Names that ``tree`` binds itself: its functions, classes and assigned names."""
    return {
        node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else node.id
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        or (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store))
    }


def _referenced_names(paths, own=False) -> set[str]:
    """Identifiers used as names, attributes or imports; a def/class line is not a use.
    With ``own``, a bare name that its file binds itself is that file's, not a use
    (``perfbench/sweep.py`` times local closures named ``gcl_step`` and ``gdro_step``)."""
    names: set[str] = set()
    for path in paths:
        tree = ast.parse(path.read_text())
        skip = _bound_names(tree) if own else set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id not in skip:
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_public_name_has_a_caller():
    used = _referenced_names(PACKAGE) | _referenced_names(PERFBENCH, own=True)
    assert sorted(set(cclearn.__all__) - used) == []


def _reads(tree) -> Counter:
    """Each name's reads in ``tree``: attribute loads, and string constants or
    their dotted parts that are identifiers, as ``getattr`` reads the names of
    ``data._ID_COLUMNS`` and ``perfbench/tracing.py`` the names it wraps.  An
    assignment to an attribute or a keyword argument writes and does not count."""
    reads: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            reads[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            reads.update(part for part in node.value.split(".") if part.isidentifier())
    return reads


def _public_members(tree):
    """(``Class.name``, name, definition) for each public method, property and
    annotated field (a dataclass or NamedTuple field) of each class in ``tree``."""
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        for node in cls.body:
            if isinstance(node, ast.FunctionDef):
                name = node.name
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                name = node.target.id
            else:
                continue
            if not name.startswith("_"):
                yield f"{cls.name}.{name}", name, node


def test_every_public_member_has_a_reader():
    """A method, property or field that only tests read is public API that only
    tests call: it goes, and the tests reach what they need another way."""
    reads = sum((_reads(ast.parse(p.read_text())) for p in PACKAGE + PERFBENCH + DEMOS),
                Counter())
    unread = [
        qualified
        for path in PACKAGE
        for qualified, name, node in _public_members(ast.parse(path.read_text()))
        if reads[name] <= _reads(node)[name]
    ]
    assert unread == []
