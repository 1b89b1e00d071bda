"""No module of ``src/repro`` imports a name that it never reads.

An ast pass over every module outside the ``__init__.py`` files (which
import to re-export) lists each imported name that the module reads
nowhere: not as a name in code, not in an annotation (string
annotations included), and not in a module-level string type alias
such as ``Query = "ConjunctiveQuery | UnionOfConjunctiveQueries"``.
Two kinds of name may stay unread:

* the names that e2ebench's tracer wraps or counts in the module it
  names (``FUNCTION_BOUNDARIES`` and ``COUNTED`` of
  ``e2ebench/tracing.py``): the tracer looks each one up there;
* the names of :data:`IMPORTED_FROM_HERE`, which other code imports
  from that module.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

#: ``(module, name)`` pairs that other code imports from the module.
IMPORTED_FROM_HERE = {
    # the exit codes are part of the CLI's public surface
    ("repro.cli", "EXIT_ERROR"),
    ("repro.cli", "EXIT_INCOMPLETE"),
    ("repro.cli", "EXIT_INTERRUPTED"),
    ("repro.cli", "EXIT_NO_COUNTERMODEL"),
    ("repro.cli", "EXIT_OK"),
}


def tracer_names():
    """``(module, name)`` of every function the tracer patches by name."""
    tree = ast.parse((ROOT / "e2ebench" / "tracing.py").read_text())
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name)
            and target.id in ("FUNCTION_BOUNDARIES", "COUNTED")
            for target in node.targets
        ):
            names.update((entry[0], entry[1]) for entry in ast.literal_eval(node.value))
    return names


def _names_in(node, found):
    """Collect the names read in *node*, parsing string annotations."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                _names_in(ast.parse(sub.value, mode="eval"), found)
            except SyntaxError:
                pass


def unread_imports(source):
    """The names *source* imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            _names_in(node.annotation, read)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            _names_in(node.returns, read)
        elif isinstance(node, ast.AnnAssign):
            _names_in(node.annotation, read)
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant):
            _names_in(node.value, read)
    return [name for name in imported if name not in read]


def test_the_pass_sees_annotations_and_aliases():
    source = (
        "from typing import Dict, Optional, Set\n"
        "from .terms import Constant, Null, Variable\n"
        "Query = 'Constant | Null'\n"
        "def f(x: 'Optional[Variable]') -> Dict: ...\n"
    )
    assert unread_imports(source) == ["Set"]


def test_tracer_names_are_read():
    assert ("repro.coloring.conservativity", "canonical_query") in tracer_names()
    assert ("repro.core.finite_model", "TypePartition") in tracer_names()


def test_no_module_imports_a_name_it_never_reads():
    allowed = tracer_names() | IMPORTED_FROM_HERE
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
        found += [
            f"{module}: {name}"
            for name in unread_imports(path.read_text())
            if (module, name) not in allowed
        ]
    assert found == []


def test_every_allowed_name_is_still_imported():
    # an entry of IMPORTED_FROM_HERE that outlived its import is stale
    for module, name in IMPORTED_FROM_HERE:
        path = ROOT / "src" / (module.replace(".", "/") + ".py")
        assert name in unread_imports(path.read_text()), (module, name)
