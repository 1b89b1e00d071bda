"""No value type of the logic layer reaches the JSON encoder.

``Constant``, ``Null`` and ``Atom`` are ``str``, ``int`` and ``tuple``
subclasses, so ``json.dumps`` encodes a stray one without a word — as
``"a"``, ``3`` or ``["E", ["a", 3]]`` — and the CLI's and the server's
``default=str`` would hide a ``Variable``.  Every payload must render
its values to text first.  Two sources are walked: every engine command
of the CLI and of a server, with ``json.dumps`` watched, and the
replays of the seed-1, 5 s job lists of the three e2ebench workloads
through :func:`repro.serve.jobs.execute_request`.
(``StopReason`` is a ``str`` enum and stays allowed.)
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.lf import Atom, Constant, Null, Variable
from repro.runtime import CancelToken
from repro.serve import ServeConfig, ServerThread, SessionRegistry, execute_request

pytestmark = pytest.mark.timeout(300)

ROOT = Path(__file__).resolve().parent.parent
VALUE_TYPES = (Constant, Null, Variable, Atom)

LINEAR = "E(x,y) -> exists z. E(y,z)"
EXAMPLE7 = "E(x,y) -> exists z. E(y,z)\nE(x,y), E(u,y) -> R(x,u)"
TC = "E(x,y), E(y,z) -> E(x,z)"
DB = "E(a,b)"
UPDATES = "+ E(c,d)\n\n- E(a,b)"


def value_types_in(node, path="$"):
    """``(path, value)`` of every value-type instance in *node*."""
    if isinstance(node, VALUE_TYPES):
        return [(path, node)]
    found = []
    if isinstance(node, dict):
        for key, value in node.items():
            found += value_types_in(key, f"{path} key")
            found += value_types_in(value, f"{path}.{key}")
    elif isinstance(node, (list, tuple, set, frozenset)):
        for index, item in enumerate(node):
            found += value_types_in(item, f"{path}[{index}]")
    return found


def test_the_walk_finds_each_value_type():
    payload = {
        "facts": [str(Atom("E", (Constant("a"), Null(0))))],
        "stray": [Constant("a"), {"n": Null(3)}, (Variable("x"),)],
        Constant("k"): Atom("E", (Constant("a"),)),
    }
    assert [path for path, _ in value_types_in(payload)] == [
        "$.stray[0]", "$.stray[1].n", "$.stray[2][0]", "$ key", "$.k",
    ]


@pytest.fixture
def encoded(monkeypatch):
    """Every object passed to ``json.dumps`` while the test runs."""
    seen = []
    real = json.dumps

    def watched(obj, *args, **kwargs):
        seen.append(obj)
        return real(obj, *args, **kwargs)

    monkeypatch.setattr(json, "dumps", watched)
    return seen


#: Every engine command, its options, and its failure paths.
CLI_BATTERY = [
    ["chase", LINEAR, DB, "--depth", "3", "--stats"],
    ["chase", TC, "E(a,b)\nE(b,c)", "--explain", "E"],
    ["chase", TC, "E(a,b)\nE(b,c)", "--incremental", UPDATES, "--explain", "E",
     "--stats"],
    ["chase", LINEAR, DB, "--depth", "50", "--wall-ms", "0"],
    ["certain", LINEAR, DB, "E(x,y), E(y,z)", "--free", "x"],
    ["certain", LINEAR, DB, "E(x,x)"],
    ["rewrite", EXAMPLE7, "R(x,u)", "--free", "x,u", "--stats"],
    ["rewrite", TC, "E(x,y)", "--max-steps", "2"],
    ["classify", EXAMPLE7],
    ["countermodel", LINEAR, DB, "E(x,x)", "--stats"],
    ["countermodel", LINEAR, DB, "E(x,x)", "--depths", "1"],
    ["countermodel", LINEAR, DB, "E(x,y)"],
    ["fc-search", LINEAR, DB, "--max-elements", "5", "--stats"],
    ["fc-search", LINEAR, DB, "E(x,x)", "--max-elements", "3"],
    ["fc-search", f"{LINEAR}\n{TC}", DB, "E(x,x)", "--max-nodes", "5"],
    ["skeleton", EXAMPLE7, DB],
    ["chase", "E(x,y -> broken", DB],
]


def test_cli_payloads_hold_no_value_type(encoded):
    # text mode renders the same payload, re-encoded
    for argv in CLI_BATTERY:
        with contextlib.redirect_stdout(io.StringIO()):
            cli_main(["-e", *argv, "--json"])
    assert len(encoded) == len(CLI_BATTERY)
    assert [found for obj in encoded for found in value_types_in(obj)] == []


def test_server_payloads_hold_no_value_type(encoded):
    requests = [
        ("ping", {}),
        ("chase", dict(theory=TC, database="E(a,b)\nE(b,c)",
                       params={"updates": UPDATES, "explain": "E"})),
        ("certain", dict(theory=LINEAR, database=DB, query="E(x,y)", free=["x"])),
        ("rewrite", dict(theory=EXAMPLE7, query="R(x,u)", free=["x", "u"])),
        ("rewrite", dict(theory=EXAMPLE7, query="R(x,u)", free=["x", "u"])),
        ("classify", dict(theory=LINEAR)),
        ("countermodel", dict(theory=LINEAR, database=DB, query="E(x,x)")),
        ("fc-search", dict(theory=LINEAR, database=DB, params={"max_elements": 4})),
        ("skeleton", dict(theory=EXAMPLE7, database=DB)),
        ("view-create", dict(view="v", theory=TC, database="E(a,b)\nE(b,c)")),
        ("view-update", dict(view="v", adds=["E(c,d)"], removes=["E(a,b)"])),
        ("view-query", dict(view="v", query="E(x,y)", free=["x", "y"])),
        ("view-close", dict(view="v")),
        ("view-query", dict(view="v", query="E(x,y)")),
        ("stats", {}),
        ("health", {}),
        ("metrics", {}),
        ("session-close", {}),
    ]
    with ServerThread(workers=1) as handle, handle.client(timeout=120) as client:
        for op, fields in requests:
            client.request(op, **fields)
    assert len(encoded) >= len(requests)
    assert [found for obj in encoded for found in value_types_in(obj)] == []


def _workloads():
    """e2ebench's job generators, loaded without putting ``e2ebench/``
    on ``sys.path``."""
    name = "e2ebench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, ROOT / "e2ebench" / "workloads.py"
        )
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses resolve annotations here
        spec.loader.exec_module(module)
    return sys.modules[name]


@pytest.mark.parametrize(
    "workload, responses",
    [("finite-models", 32), ("query-mix", 104), ("view-churn", 337)],
)
def test_replayed_payloads_hold_no_value_type(workload, responses):
    built = _workloads().build(workload, 1, 5.0)
    registry = SessionRegistry()
    found = []
    count = 0
    for index, job in enumerate(built.prime + built.setup + built.timed):
        request = dict(job.request, id=index)
        response = execute_request(registry, request, ServeConfig(), CancelToken())
        assert response["status"] != "error", (job.label, response.get("error"))
        found += value_types_in(response, f"{job.label}")
        count += 1
    assert count == responses
    assert found == []
