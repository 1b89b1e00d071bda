"""Documentation consistency: the docs must not drift from the code.

Parses DESIGN.md, EXPERIMENTS.md, README.md and docs/paper_map.md for
references to modules, functions, private names, benchmark files and
example scripts, and checks that each one actually exists.  Cheap
insurance against the most common open-source rot.
"""

import ast
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

_MODULE_REF = re.compile(r"`(repro(?:\.[a-z_0-9]+)+)(?:\.([A-Za-z_][A-Za-z_0-9]*))?`")
_BENCH_REF = re.compile(r"bench_[a-z0-9_]+\.py")
_EXAMPLE_REF = re.compile(r"`([a-z_]+\.py)`")
_PRIVATE_REF = re.compile(r"`(_[A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*)`")


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
