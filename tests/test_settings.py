"""Pins of the package's settable surface: a new parameter default, CLI
option or numeric constant must edit a count here, in plain sight.  And
the package ships only what something outside the tests calls."""

import argparse
import ast
import importlib
from pathlib import Path

import polyheart.cli as cli

from test_layertrace_names import WRAPPED

PACKAGE = Path(cli.__file__).resolve().parent
REPO = Path(__file__).resolve().parent.parent


def test_setting_counts_pinned():
    # defaulted parameters of every def in the package; the generator-spec
    # lambdas in bodies.py only repeat the defaults of the defs they call
    defaulted = 0
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defaulted += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
    assert defaulted == 7
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {name: sum(not isinstance(a, argparse._HelpAction) for a in p._actions)
               for name, p in sub.choices.items()}
    # --body, --json, --svg and --seed, and the options each command reads
    assert options == {"heart": 5, "bounds": 4, "polar": 4, "santalo": 4,
                       "pde-verify": 6, "fourier-check": 4, "report": 6}


def test_numeric_constants_pinned():
    # upper-case module-level names each module binds to an int or a float:
    # the package's tolerances, factors and sizes
    names = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"polyheart.{path.stem}" if path.stem != "__init__" else "polyheart")
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and target.id.isupper():
                    value = getattr(module, target.id)
                    if isinstance(value, (int, float)) and not isinstance(value, bool):
                        names.append(f"{path.stem}.{target.id}")
    assert len(names) == 42, names


def _references(path, submodules, reexports):
    """(module, name) pairs a file refers to: names imported from a
    polyheart module, attributes of a polyheart module imported whole, and
    in a package module its own top-level names outside their own
    definitions.  A name imported from the package itself counts for the
    module that polyheart/__init__.py imports it from."""
    tree = ast.parse(path.read_text())
    this = path.stem if path.parent == PACKAGE else None
    modules, refs = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = "." * node.level + (node.module or "")
            stem = source.removeprefix("polyheart").lstrip(".")
            if not (source.startswith(("polyheart", ".")) and stem in submodules | {""}):
                continue
            for alias in node.names:
                if stem:
                    refs.add((stem, alias.name))
                elif alias.name in submodules:
                    modules[alias.asname or alias.name] = alias.name
                elif alias.name in reexports:
                    refs.add(reexports[alias.name])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                stem = alias.name.removeprefix("polyheart.")
                if alias.asname and stem in submodules:
                    modules[alias.asname] = stem
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            refs.add((modules[node.value.id], node.attr))
    if this:
        for stmt in tree.body:
            own = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
            refs |= {(this, node.id) for node in ast.walk(stmt) if isinstance(node, ast.Name) and node.id != own}
    return refs


def test_every_public_name_has_a_caller():
    # a top-level def or class without an underscore must be named in
    # package code other than its own definition or polyheart/__init__.py's
    # re-exports, in perfbench or a demo, or be wrapped by the benchmark's
    # tracer; test-only code lives in tests/
    public = {(path.stem, node.name) for path in PACKAGE.glob("*.py") for node in ast.parse(path.read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}
    submodules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    reexports = {alias.asname or alias.name: (node.module, alias.name)
                 for node in ast.parse((PACKAGE / "__init__.py").read_text()).body
                 if isinstance(node, ast.ImportFrom) for alias in node.names}
    named = set(WRAPPED)
    for path in [*PACKAGE.glob("*.py"), *(REPO / "perfbench").glob("*.py"), *(REPO / "demos").glob("*.py")]:
        if path != PACKAGE / "__init__.py":
            named |= _references(path, submodules, reexports)
    assert sorted(f"{module}.{name}" for module, name in public - named) == []


def test_failing_given_test_reports_its_example(pytester, pytestconfig):
    # under the repo's warning filters a failing @given test prints its
    # falsifying example; when hypothesis's report imported libcst, whose
    # DeprecationWarning the filters made an error, the session ended in
    # INTERNALERROR instead and the tests after it did not run
    filters = pytestconfig.getini("filterwarnings")
    pytester.makeini("[pytest]\nfilterwarnings =\n" + "".join(f"    {f}\n" for f in filters))
    pytester.makepyfile("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_after():
            pass
    """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    out = result.stdout.str() + result.stderr.str()
    assert "Falsifying example" in out and "INTERNALERROR" not in out
    result.assert_outcomes(failed=1, passed=1)
