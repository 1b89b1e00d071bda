"""Documentation consistency: the docs must not drift from the code.

Parses DESIGN.md, EXPERIMENTS.md, README.md and docs/paper_map.md for
references to modules, functions, private names, benchmark files,
example scripts and command-line flags, and checks that each one
actually exists.  The
verification notes (``.claude/skills/verify/SKILL.md``) are checked for
benchmark paths too, and every ``:func:``-style cross-reference in the
docstrings of ``src/repro`` must name something.  Cheap insurance
against the most common open-source rot.
"""

import argparse
import ast
import builtins
import dataclasses
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DOCS = [
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    ROOT / "EXPERIMENTS.md",
    ROOT / "docs" / "paper_map.md",
]

#: Verification notes that cite benchmark scripts and files.
NOTES = [ROOT / ".claude" / "skills" / "verify" / "SKILL.md"]

_MODULE_REF = re.compile(r"`(repro(?:\.[a-z_0-9]+)+)(?:\.([A-Za-z_][A-Za-z_0-9]*))?`")
_BENCH_REF = re.compile(r"bench_[a-z0-9_]+\.py")
#: ``benchmarks/<script>.py``, and ``BENCH_<name>.json`` or the brace
#: form ``BENCH_{a,b}.json``.
_SCRIPT_REF = re.compile(r"benchmarks/[A-Za-z0-9_]+\.py")
_SCOREBOARD_REF = re.compile(r"BENCH_(\w+|\{[\w,]+\})\.json")
_EXAMPLE_REF = re.compile(r"`([a-z_]+\.py)`")
_PRIVATE_REF = re.compile(r"`(_[A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*)`")
_FLAG_REF = re.compile(r"(?<![\w-])(--[a-z][a-z0-9-]*)")

#: The one cited flag that belongs to pytest-benchmark, not to a parser
#: in this repository.
PYTEST_BENCHMARK_FLAGS = {"--benchmark-only"}
#: A cross-reference role in a docstring; the group is its target.
_ROLE_REF = re.compile(r":(?:func|class|meth|attr|data|mod|exc):`~?([^`]+)`")


def _doc_text():
    return "\n".join(path.read_text() for path in DOCS if path.exists())


class TestDocsExist:
    def test_all_doc_files_present(self):
        for path in DOCS:
            assert path.exists(), path


class TestModuleReferences:
    def test_referenced_modules_import(self):
        text = _doc_text()
        seen = set()
        for match in _MODULE_REF.finditer(text):
            dotted, attribute = match.group(1), match.group(2)
            if (dotted, attribute) in seen:
                continue
            seen.add((dotted, attribute))
            # the dotted part may itself end in an attribute (e.g.
            # `repro.core.build_finite_counter_model`): try the module,
            # then fall back to importing the parent and getattr.
            try:
                module = importlib.import_module(dotted)
            except ModuleNotFoundError:
                parent, _, leaf = dotted.rpartition(".")
                module = importlib.import_module(parent)
                assert hasattr(module, leaf), f"{dotted} referenced in docs"
                module = getattr(module, leaf)
            if attribute:
                assert hasattr(module, attribute), (
                    f"{dotted}.{attribute} referenced in docs"
                )
        assert seen, "no module references found — regex broken?"


def _defined_names():
    """Every function, class and assigned name in src/ and tests/."""
    names = set()
    for folder in ("src", "tests"):
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    names.add(node.name)
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


class TestPrivateNameReferences:
    def test_referenced_private_names_are_defined(self):
        # a private name has no import path to check, so each part of
        # a backticked `_name` or `_Class.method` must be defined in
        # src/ or tests/ (a deleted helper otherwise lingers in docs)
        referenced = set(_PRIVATE_REF.findall(_doc_text()))
        assert referenced, "no private names found — regex broken?"
        defined = _defined_names()
        missing = {
            name for name in referenced
            if any(part not in defined for part in name.split("."))
        }
        assert not missing, f"docs cite undefined private names: {sorted(missing)}"


class TestBenchmarkReferences:
    def test_referenced_bench_files_exist(self):
        text = _doc_text()
        names = set(_BENCH_REF.findall(text))
        assert names
        for name in names:
            assert (ROOT / "benchmarks" / name).exists(), name

    def test_cited_benchmark_paths_exist(self):
        # a deleted script or scoreboard must not linger in the docs
        text = "\n".join(path.read_text() for path in DOCS + NOTES if path.exists())
        cited = set(_SCRIPT_REF.findall(text))
        for stems in _SCOREBOARD_REF.findall(text):
            cited.update(f"BENCH_{stem}.json" for stem in stems.strip("{}").split(","))
        assert any(path.startswith("benchmarks/") for path in cited)
        missing = sorted(path for path in cited if not (ROOT / path).exists())
        assert not missing, f"docs cite missing files: {missing}"

    def test_every_bench_file_is_documented(self):
        text = _doc_text()
        for path in sorted((ROOT / "benchmarks").glob("bench_*.py")):
            assert path.name in text, f"{path.name} not mentioned in the docs"


class TestExampleReferences:
    def test_readme_example_table_matches_directory(self):
        readme = (ROOT / "README.md").read_text()
        documented = {
            name for name in _EXAMPLE_REF.findall(readme)
            if (ROOT / "examples" / name).exists() or name.endswith(".py")
        }
        on_disk = {p.name for p in (ROOT / "examples").glob("*.py")}
        missing = {n for n in documented if n not in on_disk and not n.startswith("bench")}
        # every documented example exists
        assert not {n for n in missing if "/" not in n and n in readme and
                    (ROOT / "examples" / n).suffix == ".py" and n not in on_disk}, missing

    def test_every_example_runs_has_main(self):
        for path in sorted((ROOT / "examples").glob("*.py")):
            text = path.read_text()
            assert "def main()" in text and "__main__" in text, path.name


def _option_strings(parser):
    """Every option string of *parser* and of its subcommands."""
    options = set()
    for action in parser._actions:
        options.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for command in action.choices.values():
                options |= _option_strings(command)
    return options


def _e2ebench_options():
    """The flags of ``e2ebench/run.py``, read from its ``add_argument``
    calls without importing the script."""
    tree = ast.parse((ROOT / "e2ebench" / "run.py").read_text())
    return {
        arg.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "add_argument"
        for arg in node.args
        if isinstance(arg, ast.Constant) and str(arg.value).startswith("--")
    }


class TestFlagReferences:
    def test_cited_flags_are_accepted(self):
        from repro.cli import build_parser

        cited = set(_FLAG_REF.findall(_doc_text()))
        assert "--json" in cited, "no flags found — regex broken?"
        accepted = (
            _option_strings(build_parser())
            | _e2ebench_options()
            | PYTEST_BENCHMARK_FLAGS
        )
        unknown = sorted(cited - accepted)
        assert not unknown, f"docs cite flags no parser accepts: {unknown}"


def _member(owner, parts):
    """What the dotted *parts* name below *owner*, through attributes
    and dataclass fields (a field without a default is no class
    attribute); ``AttributeError`` when a part names nothing."""
    for part in parts:
        if hasattr(owner, part):
            owner = getattr(owner, part)
        elif dataclasses.is_dataclass(owner) and part in {
            field.name for field in dataclasses.fields(owner)
        }:
            owner = None
        else:
            raise AttributeError(part)
    return owner


def _resolves(target, module):
    """Whether a cross-reference *target* in *module*'s docstrings names
    something, tried in order as a dotted import path, a name in the
    module's namespace, a member of a class the module defines, and a
    builtin."""
    parts = target.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            found = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            _member(found, parts[cut:])
            return True
        except AttributeError:
            break
    owners = [module] + [
        value
        for value in vars(module).values()
        if isinstance(value, type) and value.__module__ == module.__name__
    ]
    for owner in owners:
        try:
            _member(owner, parts)
            return True
        except AttributeError:
            continue
    return len(parts) == 1 and hasattr(builtins, target)


def _docstring_references():
    """(module name, target) for every cross-reference role in the
    module, class and function docstrings of ``src/repro``."""
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        parts = path.relative_to(ROOT / "src").with_suffix("").parts
        if parts[-1] == "__main__":
            continue  # importing it would run the CLI
        if parts[-1] == "__init__":
            parts = parts[:-1]
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(
                node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                for target in _ROLE_REF.findall(ast.get_docstring(node) or ""):
                    yield ".".join(parts), target


class TestDocstringReferences:
    def test_cross_references_resolve(self):
        references = set(_docstring_references())
        assert references, "no cross-references found — regex broken?"
        missing = sorted(
            (name, target)
            for name, target in references
            if not _resolves(target, importlib.import_module(name))
        )
        assert not missing, f"docstrings cite names that resolve to nothing: {missing}"
