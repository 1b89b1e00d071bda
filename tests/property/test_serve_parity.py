"""Server-equivalence battery: warm server ≡ fresh CLI run.

The CLI runs each command through the server's own request path
(:func:`repro.serve.jobs.execute_request`) on a throwaway session, so
configs, defaults and error mapping cannot differ between the two.
What can still differ is warmth: a long-lived server keeps parsed
inputs, finished rewritings and compiled plans across requests, and
those caches must be *transparent*.  Each property here draws a random
(theory, database, query) triple, asks a long-lived warm server and an
in-process CLI invocation, and compares the full JSON payloads modulo
the documented nondeterministic fields (wall times), the
process-global ``stats.hom`` counters (polluted by whatever ran earlier
on any thread), and the server's envelope keys.

Both comparisons run in this one process on purpose: plan-cache
warmth may legitimately steer tie-breaks in engines that pick *a*
model/plan among equals, so cross-process runs could differ while both
are correct.  Sharing the process pins the caches and makes equality
exact.
"""

import contextlib
import io
import json

import pytest

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis is a test extra
    pytest.skip("hypothesis not installed", allow_module_level=True)

from repro.cli import EXIT_INCOMPLETE, main as cli_main
from repro.lf.io import query_to_text, theory_to_text
from repro.serve import ServerThread
from tests.property.strategies import (
    bdd_theories,
    open_conjunctive_queries,
    theories,
)
from tests.test_cli_json import strip_timings

pytestmark = pytest.mark.timeout(600)

#: Keys the server adds on top of the CLI payload.
ENVELOPE = {"id", "ok", "tenant", "cached"}

#: One fact of the database vocabulary.
fact_texts = st.one_of(
    st.tuples(
        st.sampled_from(["E", "R", "S"]),
        st.sampled_from("abc"),
        st.sampled_from("abc"),
    ).map(lambda t: f"{t[0]}({t[1]},{t[2]})"),
    st.tuples(
        st.sampled_from(["U", "V"]), st.sampled_from("abc")
    ).map(lambda t: f"{t[0]}({t[1]})"),
)

#: Constant-only database text (nulls cannot appear in CLI input).
database_texts = st.lists(fact_texts, min_size=1, max_size=8).map("\n".join)

#: An update script: ``+``/``-`` fact lines, batches split by blank lines
#: (a retraction of a fact outside the base is an error on both sides).
update_scripts = st.lists(
    st.one_of(
        st.just(""),
        st.tuples(st.sampled_from("+-"), fact_texts).map(" ".join),
    ),
    min_size=1,
    max_size=6,
).map("\n".join)


@pytest.fixture(scope="module")
def server():
    with ServerThread(workers=2) as handle:
        yield handle


@pytest.fixture(scope="module")
def client(server):
    with server.client(timeout=300) as c:
        yield c


def cli_json(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main([*argv, "--json"])
    return code, json.loads(out.getvalue())


def canon(payload):
    """Comparable core: no envelope, no wall times, no global counters."""

    def scrub(node):
        if isinstance(node, dict):
            return {
                k: scrub(v) for k, v in node.items() if k != "hom"
            }
        if isinstance(node, list):
            return [scrub(item) for item in node]
        return node

    body = {k: v for k, v in payload.items() if k not in ENVELOPE}
    return scrub(strip_timings(body))


def free_names(query):
    return [str(v) for v in query.free]


def cli_free_args(query):
    names = free_names(query)
    return ["--free", ",".join(names)] if names else []


COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])

LINEAR = "E(x,y) -> exists z. E(y,z)"


class TestChaseParity:
    @settings(max_examples=20, **COMMON)
    @given(theory=theories(), database=database_texts)
    def test_chase(self, client, theory, database):
        text = theory_to_text(theory)
        response = client.request(
            "chase", theory=text, database=database, params={"depth": 4},
        )
        code, expected = cli_json("-e", "chase", text, database, "--depth", "4")
        assert canon(response) == canon(expected)
        assert response["exit_code"] == code
        assert response["ok"] is (expected["status"] != "error")

    @settings(max_examples=10, **COMMON)
    @given(
        theory=theories(),
        database=database_texts,
        predicate=st.sampled_from(["E", "R", "S", "U", "V"]),
    )
    def test_chase_explain(self, client, theory, database, predicate):
        text = theory_to_text(theory)
        response = client.request(
            "chase", theory=text, database=database,
            params={"depth": 3, "explain": predicate},
        )
        code, expected = cli_json(
            "-e", "chase", text, database, "--depth", "3",
            "--explain", predicate,
        )
        assert canon(response) == canon(expected)
        assert response["exit_code"] == code

    @settings(max_examples=10, **COMMON)
    @given(theory=theories(), database=database_texts, updates=update_scripts)
    def test_chase_updates(self, client, theory, database, updates):
        text = theory_to_text(theory)
        response = client.request(
            "chase", theory=text, database=database,
            params={"depth": 3, "updates": updates},
        )
        code, expected = cli_json(
            "-e", "chase", text, database, "--depth", "3",
            "--incremental", updates,
        )
        assert canon(response) == canon(expected)
        assert response["exit_code"] == code


class TestCertainParity:
    @settings(max_examples=15, **COMMON)
    @given(
        theory=theories(),
        database=database_texts,
        query=open_conjunctive_queries(),
    )
    def test_certain(self, client, theory, database, query):
        ttext, qtext = theory_to_text(theory), query_to_text(query)
        response = client.request(
            "certain", theory=ttext, database=database, query=qtext,
            free=free_names(query), params={"depth": 4},
        )
        code, expected = cli_json(
            "-e", "certain", ttext, database, qtext,
            *cli_free_args(query), "--depth", "4",
        )
        assert canon(response) == canon(expected)
        assert response["exit_code"] == code


class TestRewriteParity:
    @settings(max_examples=15, **COMMON)
    @given(theory=bdd_theories(), query=open_conjunctive_queries())
    def test_rewrite(self, client, theory, query):
        ttext, qtext = theory_to_text(theory), query_to_text(query)
        response = client.request(
            "rewrite", theory=ttext, query=qtext, free=free_names(query)
        )
        code, expected = cli_json(
            "-e", "rewrite", ttext, qtext, *cli_free_args(query)
        )
        # the artifact cache may serve the repeat examples hypothesis
        # generates — the body must be identical either way
        assert canon(response) == canon(expected)
        assert response["exit_code"] == code


class TestFcSearchParity:
    @settings(max_examples=10, **COMMON)
    @given(
        theory=bdd_theories(),
        database=database_texts,
        query=st.one_of(st.none(), open_conjunctive_queries(max_free=0)),
    )
    def test_fc_search(self, client, theory, database, query):
        ttext = theory_to_text(theory)
        qtext = query_to_text(query) if query is not None else None
        fields = dict(theory=ttext, database=database,
                      params={"max_elements": 4, "max_nodes": 2_000})
        argv = ["-e", "fc-search", ttext, database,
                "--max-elements", "4", "--max-nodes", "2000"]
        if qtext is not None:
            fields["query"] = qtext
            argv.insert(4, qtext)
        response = client.request("fc-search", **fields)
        code, expected = cli_json(*argv)
        assert canon(response) == canon(expected)
        assert response["exit_code"] == code


class TestCountermodelParity:
    @settings(max_examples=10, **COMMON)
    @given(
        theory=bdd_theories(),
        database=database_texts,
        query=open_conjunctive_queries(max_atoms=3),
    )
    def test_countermodel(self, client, theory, database, query):
        ttext, qtext = theory_to_text(theory), query_to_text(query)
        response = client.request(
            "countermodel", theory=ttext, database=database, query=qtext,
            free=free_names(query), params={"depths": [1, 2]},
        )
        code, expected = cli_json(
            "-e", "countermodel", ttext, database, qtext,
            *cli_free_args(query), "--depths", "1,2",
        )
        assert canon(response) == canon(expected)
        assert response["exit_code"] == code

    def test_countermodel_past_its_deadline(self, client):
        # The pipeline raises on a guard trip; both surfaces map the
        # raise to "incomplete", exit 2.  The server gets a float, as
        # the CLI's --wall-ms parses to one (the error text repeats it).
        query = "E(x,x)"
        response = client.request(
            "countermodel", theory=LINEAR, database="E(a,b)", query=query,
            params={"wall_ms": 0.0},
        )
        code, expected = cli_json(
            "-e", "countermodel", LINEAR, "E(a,b)", query, "--wall-ms", "0",
        )
        assert canon(response) == canon(expected)
        assert response["exit_code"] == code == EXIT_INCOMPLETE
        assert response["status"] == "incomplete"
        assert response["stopped_reason"] == "deadline"


class TestClassifyParity:
    @settings(max_examples=10, **COMMON)
    @given(theory=theories())
    def test_classify(self, client, theory):
        text = theory_to_text(theory)
        response = client.request("classify", theory=text)
        code, expected = cli_json("-e", "classify", text)
        assert canon(response) == canon(expected)
        assert response["exit_code"] == code


class TestSkeletonParity:
    @settings(max_examples=10, **COMMON)
    @given(theory=theories(), database=database_texts)
    def test_skeleton(self, client, theory, database):
        text = theory_to_text(theory)
        response = client.request(
            "skeleton", theory=text, database=database, params={"depth": 3},
        )
        code, expected = cli_json(
            "-e", "skeleton", text, database, "--depth", "3",
        )
        assert canon(response) == canon(expected)
        assert response["exit_code"] == code
