"""Only ``Pool.of`` turns samples into encoder rows.

Data travels as rows from the ``.clds`` file to the training step: datasets
hold columns, splits select index arrays, tasks and the replay buffer hold
``Pool``s.  No module on that path (``data.py``, ``buffer.py``,
``runner.py``) reads a sample's ``x``, ``class_id`` or ``sample_id`` outside
``Pool.of``, the entry point for a caller's own list of samples
(``Dataset.samples`` builds samples from columns and reads none).  The
estimators read the ``X``, ``y`` and ``ids`` of a ``Pool`` too, so how a
sample becomes rows is decided in one place.  Every batch and gdro anchor set
is a row view of its stage pool: ``Pool.take``, ``Pool.concat``,
``Pool.members`` and ``sample_class_batch`` read no sample either.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cclearn"
SAMPLE_FIELDS = {"x", "class_id", "sample_id"}


def _field_reads(tree, outside=()) -> list[str]:
    """Reads of a sample field in ``tree``, except within the nodes ``outside``."""
    skipped = [(node.lineno, node.end_lineno) for node in outside]
    return sorted(
        f"line {node.lineno}: .{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in SAMPLE_FIELDS
        and not any(start <= node.lineno <= end for start, end in skipped)
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
    module = "data.py" if function.startswith("Pool.") else "buffer.py"
    assert _field_reads(_function(PACKAGE / module, function)) == []


@pytest.mark.parametrize("module", ["data.py", "buffer.py", "runner.py"])
def test_data_path_reads_no_sample_field_outside_pool_of(module):
    path = PACKAGE / module
    entry = [_function(path, "Pool.of")] if module == "data.py" else []
    assert _field_reads(ast.parse(path.read_text()), outside=entry) == []
