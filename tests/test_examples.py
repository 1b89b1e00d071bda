"""Every script in ``examples/`` runs to completion.

The examples call the library's entry points the way a reader would
(``certain_boolean(..., max_depth=8)``, ``find_ordering(...)``), so a
change to an entry point's signature that breaks them fails here.
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=[path.stem for path in EXAMPLES])
def test_example_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out.strip()
