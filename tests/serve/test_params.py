"""Every request param is a guard param or one that its op reads.

Any other key is a ``RequestError`` (``status: error``, exit 1) that
names the key and the params the op accepts, on the server and the CLI
alike: a client that misspells a budget, or still sends a retired
param, gets an error rather than a run under the op's defaults.
"""

import pytest

from repro.cli import build_parser, build_request
from repro.runtime import CancelToken
from repro.serve import ServeConfig, ServerThread, SessionRegistry, execute_request
from repro.serve.jobs import GUARD_PARAMS, JOB_HANDLERS

pytestmark = pytest.mark.timeout(120)

LINEAR = "E(x,y) -> exists z. E(y,z)"
TC = "E(x,y), E(y,z) -> E(x,z)"

#: The retired search heuristic and a misspelt ``max_elements``: both
#: were ignored, and the search ran under its default bound.
MISSPELT = {
    "op": "fc-search",
    "theory": LINEAR,
    "database": "E(a,b)",
    "params": {"heuristic": "smallest-domain", "max_element": 2},
}


def run(request):
    return execute_request(SessionRegistry(), request, ServeConfig(), CancelToken())


def assert_rejected(response, *names):
    assert response["status"] == "error"
    assert response["exit_code"] == 1
    assert response["ok"] is False
    for name in names:
        assert repr(name) in response["error"]


class TestUnreadParams:
    def test_misspelt_search_params_are_an_error(self):
        response = run(MISSPELT)
        assert_rejected(response, "heuristic", "max_element")
        assert "max_elements, max_nodes, max_rss_mb, wall_ms" in response["error"]

    def test_the_server_answers_the_same(self):
        with ServerThread(workers=1) as handle, handle.client() as client:
            fields = {k: v for k, v in MISSPELT.items() if k != "op"}
            response = client.request("fc-search", **fields)
        assert_rejected(response, "heuristic", "max_element")

    @pytest.mark.parametrize("op", sorted(JOB_HANDLERS) + ["session-close"])
    def test_every_op_rejects_a_param_it_does_not_read(self, op):
        assert_rejected(run({"op": op, "params": {"no_such_param": 1}}), "no_such_param")

    @pytest.mark.parametrize("op", ["classify", "view-close", "ping", "session-close"])
    def test_an_op_that_reads_none_still_takes_the_guard_params(self, op):
        request = {"op": op, "theory": LINEAR, "view": "v",
                   "params": {"wall_ms": 60_000, "max_rss_mb": 4096}}
        response = run(request)
        assert "unknown params" not in response.get("error", "")

    def test_accepted_params_still_run(self):
        response = run(dict(MISSPELT, params={"max_elements": 2, "max_nodes": 50}))
        assert response["status"] != "error"
        assert response["counts"]["model_size"] <= 2


#: One command line per engine command, with every option that travels
#: as a param (``--incremental`` travels as ``params.updates``).
CLI_LINES = [
    ["chase", TC, "E(a,b)", "--depth", "2", "--explain", "E",
     "--incremental", "+ E(b,c)"],
    ["certain", LINEAR, "E(a,b)", "E(x,y)", "--free", "x", "--depth", "2"],
    ["rewrite", LINEAR, "E(x,y)", "--free", "x", "--max-steps", "9",
     "--max-queries", "9"],
    ["classify", LINEAR],
    ["countermodel", LINEAR, "E(a,b)", "E(x,x)", "--depths", "10"],
    ["fc-search", LINEAR, "E(a,b)", "E(x,x)", "--max-elements", "3",
     "--max-nodes", "9"],
    ["skeleton", LINEAR, "E(a,b)", "--depth", "2"],
]


@pytest.mark.parametrize("argv", CLI_LINES, ids=[line[0] for line in CLI_LINES])
def test_the_cli_forwards_exactly_the_params_its_op_reads(argv):
    args = build_parser().parse_args(
        ["-e", "--wall-ms", "60000", "--max-rss-mb", "4096", *argv]
    )
    request = build_request(args)
    _handler, reads = JOB_HANDLERS[request["op"]]
    assert set(request["params"]) == set(reads) | set(GUARD_PARAMS)
    assert run(request)["status"] != "error"
