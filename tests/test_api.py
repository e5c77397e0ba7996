"""The public API holds no dead names: each one has a caller in the package or the benchmark."""

import ast
from pathlib import Path

import cclearn

ROOT = Path(__file__).resolve().parents[1]


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
    package = [p for p in (ROOT / "src" / "cclearn").glob("*.py") if p.name != "__init__.py"]
    used = _referenced_names(package) | _referenced_names(
        sorted((ROOT / "perfbench").glob("*.py")), own=True
    )
    assert sorted(set(cclearn.__all__) - used) == []
