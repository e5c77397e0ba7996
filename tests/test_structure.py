"""A Pool is the only row type.

Data travels as rows from the ``.clds`` file to the training step: datasets
hold columns, splits select index arrays, tasks and the replay buffer hold
``Pool``s.  The package defines no per-sample type, and no module reads a
sample's ``x``, ``class_id`` or ``sample_id``: the estimators, the buffer and
the runner read the ``X``, ``y`` and ``ids`` of a ``Pool``.  Every batch is
rows of its stage pool: a gcl or cross-entropy batch is an index array of
the pool's rows, and gdro's anchors are ``sample_class_batch``'s row indices
into the pool, which gdro scores as rows of the encoded pool.
``Pool.take``, ``Pool.concat``, ``Pool.members`` and ``sample_class_batch``
read no sample either.  ``Pool.of`` joins a list of Pools in one place only,
gcl's batch entry, which the benchmark's pool sweep feeds a list of one-row
Pools for gcl's separate parts.
"""

import ast
from pathlib import Path

import pytest

import cclearn

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cclearn"
SAMPLE_FIELDS = {"x", "class_id", "sample_id"}


def _field_reads(tree) -> list[str]:
    """Reads of a sample field in ``tree``."""
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


@pytest.mark.parametrize("function", ["evaluate", "_ce_loss_and_grad"])
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
    """Not even ``Pool.of`` reads one: it joins Pools."""
    assert _field_reads(ast.parse((PACKAGE / module).read_text())) == []


def _calls_of_pool_of() -> list[str]:
    """``module:function`` of each call of ``Pool.of`` in the package."""
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            calls += [
                f"{path.name}:{fn.name}" for node in ast.walk(fn)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "of" and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "Pool"
            ]
    return calls


def test_pool_is_the_only_row_type():
    classes = {
        node.name
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
    }
    assert "Sample" not in classes and not hasattr(cclearn, "Sample")
    assert _calls_of_pool_of() == ["gcl.py:_batch_logits"]
