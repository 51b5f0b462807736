"""Pins of the package's settable surface: a new parameter default or CLI
option must edit a count here, in plain sight."""

import argparse
import ast
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
    assert defaulted == 18
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {name: sum(not isinstance(a, argparse._HelpAction) for a in p._actions)
               for name, p in sub.choices.items()}
    assert options == {name: 7 for name in cli._COMMANDS}
