"""The e2ebench tracer still sees every layer of every op.

``e2ebench/tracing.py`` wraps each layer-boundary function in the
namespace where its caller looks the name up at call time.  If an op
binds an engine function at import time instead (a module-level
``from ..chase import chase`` in ``repro.serve.jobs``, say), that op's
requests lose their engine span, while other ops may still show the
same span name through their own callers.  So the check is per request:
a traced server answers one request per op, and each request's spans
must hold the boundaries that op crosses.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

LINEAR = "E(x,y) -> exists z. E(y,z)"
EXAMPLE7 = "E(x,y) -> exists z. E(y,z)\nE(x,y), E(u,y) -> R(x,u)"
TC = "E(x,y), E(y,z) -> E(x,z)"
DB = "E(a,b)"

#: (op, request fields, spans the request must have beyond the serve ones)
REQUESTS = [
    ("chase", dict(theory=LINEAR, database=DB, params={"depth": 3}),
     ["chase.chase", "payloads.chase_payload"]),
    ("chase", dict(theory=TC, database="E(a,b)\nE(b,c)",
                   params={"updates": "+ E(c,d)", "explain": "E"}),
     ["chase.view.create", "chase.view.update", "lf.parser.parse_facts"]),
    ("certain", dict(theory=LINEAR, database=DB, query="E(x,y), E(y,z)"),
     ["chase.certain_report", "payloads.certain_payload"]),
    ("rewrite", dict(theory=EXAMPLE7, query="R(x,u)", free=["x", "u"]),
     ["rewriting.rewrite", "payloads.rewrite_payload"]),
    ("classify", dict(theory=LINEAR),
     ["classes.classify", "payloads.classify_payload"]),
    ("countermodel", dict(theory=LINEAR, database=DB, query="E(x,x)"),
     ["core.build_finite_counter_model", "payloads.countermodel_payload",
      "core.prepare", "chase.chase", "chase.chase_with_embargo",
      "skeleton.skeleton_of_chase", "rewriting.bdd_profile",
      "coloring.natural_coloring", "coloring.conservativity_report",
      "ptypes.partition", "ptypes.quotient", "core.is_model"]),
    ("fc-search", dict(theory=LINEAR, database=DB, params={"max_elements": 4}),
     ["fc.search_finite_model", "payloads.fc_search_payload"]),
    ("skeleton", dict(theory=EXAMPLE7, database=DB), []),
    ("view-create", dict(view="v", theory=TC, database="E(a,b)\nE(b,c)"),
     ["chase.view.create"]),
    ("view-update", dict(view="v", adds=["E(c,d)"]),
     ["chase.view.update", "lf.parser.parse_facts"]),
    ("view-query", dict(view="v", query="E(x,y), E(y,z)"),
     ["chase.view.certain_one"]),
    ("view-close", dict(view="v"), []),
]

#: Boundaries no request above reaches: ``core.violations`` runs only
#: when the pipeline's verification finds a wrong model.
UNREACHED = {"core.violations"}

#: Runs in the subprocess: install the tracer, then serve REQUESTS.
SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracing

recorder = tracing.Recorder()
tracing.install(recorder)
from repro.serve import ServerThread

statuses = {}
with ServerThread(workers=1) as handle:
    with handle.client(timeout=120) as client:
        for index, (op, fields, _spans) in enumerate(json.loads(sys.argv[2])):
            rid = client.submit(op, **fields)
            statuses[rid] = (index, client.response_for(rid)["status"])
spans = {}
for _sid, _parent, name, _start, _end, rid in recorder.spans:
    spans.setdefault(rid, set()).add(name)
boundaries = [span for _m, _a, span in tracing.FUNCTION_BOUNDARIES]
boundaries += [span for _m, _c, _f, span in tracing.METHOD_BOUNDARIES]
print(json.dumps({
    "requests": [
        {"index": index, "status": status, "spans": sorted(spans.get(rid, ()))}
        for rid, (index, status) in sorted(statuses.items())
    ],
    "boundaries": boundaries,
}))
"""


@pytest.fixture(scope="module")
def traced():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "e2ebench"),
         json.dumps(REQUESTS)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_every_request_is_answered(traced):
    assert len(traced["requests"]) == len(REQUESTS)
    for request in traced["requests"]:
        op = REQUESTS[request["index"]][0]
        assert request["status"] != "error", op


@pytest.mark.parametrize("index", [
    pytest.param(index, id=f"{index}-{op}")
    for index, (op, _fields, _spans) in enumerate(REQUESTS)
])
def test_request_crosses_its_boundaries(traced, index):
    request = traced["requests"][index]
    expected = {"serve.admit", "serve.execute_request", *REQUESTS[index][2]}
    assert expected <= set(request["spans"])


def test_every_boundary_is_reached(traced):
    seen = {name for request in traced["requests"] for name in request["spans"]}
    assert set(traced["boundaries"]) - seen == UNREACHED
