"""The settable-value census of ``src/repro`` may not grow.

Every value a caller can set is one more configuration that tests and
benchmarks must cover, so the census is pinned at :data:`CENSUS`.  It
counts four kinds of value:

* keyword defaults: the parameters with a default of the public
  functions and methods (a name without a leading underscore, or
  ``__init__``) of public classes; nested functions are left out;
* the fields of the ``*Config`` dataclasses;
* CLI flags: the options of :func:`repro.cli.build_parser` and of its
  subcommands, the global ones counted once, and its optional
  positionals;
* serve params: the request params :data:`repro.serve.jobs.JOB_HANDLERS`
  lists, each once, and the guard's
  :data:`~repro.serve.jobs.GUARD_PARAMS`.
"""

import argparse
import ast
from pathlib import Path

from repro.cli import build_parser
from repro.serve.jobs import GUARD_PARAMS, JOB_HANDLERS

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The census after the engine entry points stopped taking budget
#: shorthands beside their configs (254 before): 155 keyword defaults,
#: 33 config fields, 30 CLI flags and 10 serve params.
CENSUS = 228


def _public(name):
    return not name.startswith("_") or name == "__init__"


def keyword_defaults():
    """``(module, function, count)`` for each public function with
    keyword defaults."""
    found = []

    def visit(node, module):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef) and _public(child.name):
                visit(child, module)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                arguments = child.args
                count = len(arguments.defaults) + sum(
                    default is not None for default in arguments.kw_defaults
                )
                if count and _public(child.name):
                    found.append((module, child.name, count))

    for path in sorted(PACKAGE.rglob("*.py")):
        visit(ast.parse(path.read_text()), str(path.relative_to(PACKAGE)))
    return found


def config_fields():
    """``(class, field)`` for each annotated field of a ``*Config`` class."""
    return [
        (node.name, statement.target.id)
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef) and node.name.endswith("Config")
        for statement in node.body
        if isinstance(statement, ast.AnnAssign)
        and isinstance(statement.target, ast.Name)
    ]


def cli_flags():
    """The CLI's settable values: a global flag by its ``dest``, any
    other by ``(command, dest)``."""
    parser = build_parser()
    global_flags = {action.dest for action in parser._actions if action.option_strings}
    found = set()

    def walk(command_parser, command):
        for action in command_parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    walk(sub, name)
            elif isinstance(action, argparse._HelpAction):
                continue
            elif action.dest in global_flags:
                found.add(action.dest)
            elif action.option_strings or action.nargs == "?":
                found.add((command, action.dest))

    walk(parser, None)
    return found


def serve_params():
    return {param for _, reads in JOB_HANDLERS.values() for param in reads} | set(
        GUARD_PARAMS
    )


def test_census_is_pinned():
    counts = {
        "keyword defaults": sum(count for *_, count in keyword_defaults()),
        "config fields": len(config_fields()),
        "CLI flags": len(cli_flags()),
        "serve params": len(serve_params()),
    }
    total = sum(counts.values())
    assert total <= CENSUS, (
        f"the settable-value census rose to {total} ({counts}), above {CENSUS}: "
        "a new option needs two existing callers that need different values; "
        "justify it in CHANGES.md before raising CENSUS"
    )
    assert total == CENSUS, (
        f"the settable-value census fell to {total} ({counts}): lower CENSUS "
        "to it, so that the values removed cannot come back unnoticed"
    )

