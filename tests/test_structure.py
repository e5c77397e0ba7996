"""Only ``Pool.of`` turns samples into encoder rows.

The estimators and the runner's evaluation and cross-entropy logits read the
``X``, ``y`` and ``ids`` of a ``Pool``; none reads a sample's ``x``,
``class_id`` or ``sample_id`` itself, so how a sample becomes rows is decided
in one place.  Every batch and gdro anchor set is a row view of its stage
pool: ``Pool.take``, ``Pool.concat``, ``Pool.members`` and
``sample_class_batch`` read no sample either.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cclearn"
SAMPLE_FIELDS = {"x", "class_id", "sample_id"}


def _field_reads(tree) -> list[str]:
    return sorted(
        f"line {node.lineno}: .{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in SAMPLE_FIELDS
    )


def _function(path, name):
    """The module-level function ``name``, or the method ``Class.method``."""
    body = ast.parse(path.read_text()).body
    owner, _, name = name.rpartition(".")
    if owner:
        classes = [n for n in body if isinstance(n, ast.ClassDef) and n.name == owner]
        assert classes, f"{path.name} defines no class {owner}"
        body = classes[0].body
    for node in body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    raise AssertionError(f"{path.name} defines no function {owner or ''}.{name}")


@pytest.mark.parametrize("module", ["gcl.py", "gdro.py"])
def test_estimators_read_no_sample_field(module):
    assert _field_reads(ast.parse((PACKAGE / module).read_text())) == []


@pytest.mark.parametrize("function", ["evaluate", "_ce_logits"])
def test_runner_rows_come_from_pools(function):
    assert _field_reads(_function(PACKAGE / "runner.py", function)) == []


@pytest.mark.parametrize(
    "function", ["Pool.take", "Pool.concat", "Pool.members", "sample_class_batch"]
)
def test_batches_are_row_views(function):
    assert _field_reads(_function(PACKAGE / "buffer.py", function)) == []
