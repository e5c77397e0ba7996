"""A Pool is the only row type.

Data travels as rows from the ``.clds`` file to the training step: datasets
hold columns, splits select index arrays, tasks and the replay buffer hold
``Pool``s.  The package defines no per-sample type, and no module reads a
sample's ``x``, ``class_id`` or ``sample_id``: the estimators, the buffer and
the runner read the ``X``, ``y`` and ``ids`` of a ``Pool``.  Every batch is
rows of its stage pool: a gcl or cross-entropy batch is an index array of
the pool's rows, and gdro's anchors are row indices into the pool, drawn
for a whole stage before its first step by one ``sample_class_batches`` call,
which gdro scores as rows of the encoded pool.  ``Pool.take``,
``Pool.concat``, ``Pool.members``, ``sample_class_batch`` and
``sample_class_batches`` read no sample either.  ``Pool.of`` joins a list of Pools in one place only,
gcl's batch entry, which the benchmark's pool sweep feeds a list of one-row
Pools for gcl's separate parts.

Every private function, method, class and constant of the package is used
by the package itself, outside its own definition: a helper that only tests
call is dead code.  Every name a module imports is read there, or is one of
``__init__``'s ``__all__``, or one that the benchmark's tracer wraps on
``cclearn.runner``.
"""

import ast
from pathlib import Path

import pytest

import cclearn

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cclearn"
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
    "function",
    ["Pool.take", "Pool.concat", "Pool.members", "sample_class_batch", "sample_class_batches"],
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


def _private_definitions(tree):
    """(name, node) of each private function, class and constant defined at
    module level or in a class body of ``tree``; dunder names are not private."""
    bodies = [tree.body] + [n.body for n in tree.body if isinstance(n, ast.ClassDef)]
    found = []
    for node in (n for body in bodies for n in body):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(t.id, t) for target in targets for t in ast.walk(target)
                      if isinstance(t, ast.Name)]
    return [(name, node) for name, node in found
            if name.startswith("_") and not name.startswith("__")]


def _uses(tree, name) -> set[int]:
    """The ``id`` of every node of ``tree`` that reads ``name`` as a variable,
    an attribute or an import."""
    return {
        id(node) for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == name and not isinstance(node.ctx, ast.Store))
        or (isinstance(node, ast.Attribute) and node.attr == name)
        or (isinstance(node, ast.alias) and node.name == name)
    }


def test_every_private_helper_is_used_by_the_package():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    unused = []
    for module, tree in trees.items():
        for name, node in _private_definitions(tree):
            own = {id(n) for n in ast.walk(node)}
            if not any(_uses(t, name) - own for t in trees.values()):
                unused.append(f"{module}:{name}")
    assert unused == []


def _names_the_tracer_wraps_on_runner() -> set[str]:
    """The attribute names of ``perfbench/tracing.py``'s ``(runner, "name", ...)`` entries."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    return {
        node.elts[1].value for node in ast.walk(tree)
        if isinstance(node, ast.Tuple) and len(node.elts) > 1
        and isinstance(node.elts[0], ast.Name) and node.elts[0].id == "runner"
        and isinstance(node.elts[1], ast.Constant)
    }


def test_every_import_is_read():
    kept = {"__init__.py": set(cclearn.__all__), "runner.py": _names_the_tracer_wraps_on_runner()}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        imported = [
            (alias.asname or alias.name).partition(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
            for alias in node.names
        ]
        unused += [f"{path.name}:{name}" for name in imported
                   if name not in read | kept.get(path.name, set())]
    assert unused == []
