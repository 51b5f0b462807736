"""The benchmark tracer's view of the package API.

``perfbench/layertrace.py`` wraps package functions by name and reads some
of their arguments by name, so removing or renaming one would break
``perfbench/run.py --trace 1`` without any other test failing.  The file
is read here, never edited.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"
TREE = ast.parse(LAYERTRACE.read_text())


def module_constant(name):
    for node in TREE.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(name)


def arguments_read_by_count():
    """{"layer.function": {argument names}} from the branches of ``_count``."""
    count = next(n for n in TREE.body if isinstance(n, ast.FunctionDef) and n.name == "_count")
    reads = {}
    branch = next(n for n in count.body if isinstance(n, ast.If))
    while isinstance(branch, ast.If):
        names = [c.value for c in ast.walk(branch.test)
                 if isinstance(c, ast.Constant) and isinstance(c.value, str) and "." in c.value]
        args = {node.slice.value
                for part in [branch.test, *branch.body] for node in ast.walk(part)
                if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "args"}
        if args:
            reads.setdefault(names[0], set()).update(args)
        branch = branch.orelse[0] if branch.orelse else None
    return reads


WRAPPED = [(layer, name) for layer, names in module_constant("WRAPPED").items() for name in names]


@pytest.mark.parametrize("layer, name", WRAPPED)
def test_wrapped_function_exists(layer, name):
    assert callable(getattr(importlib.import_module(f"polyheart.{layer}"), name, None))


def test_arguments_read_are_parameters():
    reads = arguments_read_by_count()
    assert reads  # the walk above found the counter branches
    assert set(reads) <= module_constant("_NEEDS_ARGS")
    for key, args in reads.items():
        layer, name = key.split(".")
        fn = getattr(importlib.import_module(f"polyheart.{layer}"), name)
        assert args <= set(inspect.signature(fn).parameters), key
