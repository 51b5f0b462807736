"""Pins of the package's settable surface: a new parameter default, CLI
option or numeric constant must edit a count here, in plain sight."""

import argparse
import ast
import importlib
from pathlib import Path

import polyheart.cli as cli

PACKAGE = Path(cli.__file__).resolve().parent


def test_setting_counts_pinned():
    # defaulted parameters of every def in the package; the generator-spec
    # lambdas in bodies.py only repeat the defaults of the defs they call
    defaulted = 0
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defaulted += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
    assert defaulted == 10
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {name: sum(not isinstance(a, argparse._HelpAction) for a in p._actions)
               for name, p in sub.choices.items()}
    # --body, --json, --svg and --seed, and the options each command reads
    assert options == {"heart": 5, "bounds": 4, "polar": 4, "santalo": 4,
                       "pde-verify": 6, "fourier-check": 5, "report": 7}


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
    assert len(names) == 46, names
