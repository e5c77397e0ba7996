"""The public API holds no dead names: each one has a caller in the package or the benchmark."""

import ast
from pathlib import Path

import cclearn

ROOT = Path(__file__).resolve().parents[1]


def _referenced_names(paths) -> set[str]:
    """Identifiers used as names, attributes or imports; a def/class line is not a use."""
    names: set[str] = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_public_name_has_a_caller():
    package = [p for p in (ROOT / "src" / "cclearn").glob("*.py") if p.name != "__init__.py"]
    used = _referenced_names(package + sorted((ROOT / "perfbench").glob("*.py")))
    assert sorted(set(cclearn.__all__) - used) == []
