"""Seeded request generators for the three benchmark workloads.

Every generator is a pure function of its arguments: the same seed gives
byte-identical request text, another seed gives other text.  The server
only ever sees the generated text; the structured form each request was
rendered from stays on the client as the input of its independent
output check (see :mod:`checks`).

The generators are written here rather than imported from ``repro.zoo``
so that the inputs stay fixed when the library's own generators change.
Where they mirror a library generator, the docstring names it.

``BENCHMARK.json`` has one line per workload on why it was chosen.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

#: An atom as ``(predicate, args)``; an argument quoted with ``'`` is a
#: constant, any other argument is a variable (rules and queries) or an
#: element name (databases).
Atom = Tuple[str, Tuple[str, ...]]
#: A rule as ``(body, head)``; head variables absent from the body are
#: existential.
Rule = Tuple[Tuple[Atom, ...], Tuple[Atom, ...]]
Edge = Tuple[str, str]

WORKLOADS = ("finite-models", "query-mix", "view-churn")

#: Tenant that only the priming requests use.
PRIME_TENANT = "prime"

# -- sizing (measured at the commit that introduced the benchmark) --------

#: Seconds one finite-models round takes on a 2-CPU host (4.2-5 s); the
#: number of rounds is ``seconds / FM_ROUND_S``, so the amount of work
#: depends on ``--seconds`` only, never on how fast the server is.  At
#: 30 s that is 7 rounds of 30 jobs: the tail is then p95, whose 10
#: samples beyond are the 7 repeats of the slowest job and 3 of the next,
#: so it reads the middle repeat of one job.  At 6 rounds it was p90, on
#: the edge between two jobs, and jumped with the host's speed.
FM_ROUND_S = 4.3
#: Open-loop arrival rate of query-mix: about a seventh of capacity (the
#: server spends ~7 ms of CPU per request of this mix on a 2-CPU host and
#: runs one request at a time under the interpreter lock).  Requests that
#: overlap share that lock, so a slower host also means more overlap: at
#: a fifth of capacity 28-40% of requests overlapped, and the latency
#: metrics moved twice as much as the server's CPU time between runs.
QM_RATE = 20.0
#: query-mix latency limit on ``read_tail_ms`` (the serve tier's SLA).
QM_LIMIT_MS = 1000.0
#: query-mix tenants.
QM_TENANTS = 8
#: Share of query-mix rewrites that repeat an earlier (tenant, theory,
#: query), so the session's rewriting-artifact cache answers them.
QM_REPEAT_SHARE = 0.25
#: Pool entries per cost stratum of the query-mix rewrite draws.
QM_STRATUM = 5
#: view-churn updates per second of ``--seconds``: at 30 s, 990 updates
#: each followed by one read, so both tails are p95.  With 3,000 reads the
#: read tail was p99, and about 1% of reads stalled for 1.4-1.9 times
#: their neighbours' latency: p99 sat at the edge between stalled reads
#: and ordinary reads of the largest views, and flipped between them from
#: run to run (IQR/median 0.15 over ten runs).
VC_UPDATES_PER_S = 33.0
#: view-churn view count, and the shape of each view's graph: disjoint
#: random clusters at mean out-degree 2 (ten per view, so that a view's
#: closure size, and the cost of reading it, varies less between seeds).
VC_VIEWS = 4
VC_CLUSTERS = 10
VC_CLUSTER_NODES = 8
VC_CLUSTER_EDGES = 16

@dataclass
class Job:
    """One request plus what the client expects of its response.

    ``request`` is sent as is (the client adds ``id``).  ``kind`` is
    ``"read"`` for requests that leave server state unchanged and
    ``"write"`` for ``view-update``.  ``check`` is interpreted by
    :func:`checks.check_response`.
    """

    request: Dict[str, Any]
    kind: str
    check: Tuple[Any, ...]
    label: str = ""

    @property
    def op(self) -> str:
        return self.request["op"]


@dataclass
class Workload:
    """Everything a run needs to drive one workload."""

    name: str
    seed: int
    prime: List[Job]
    setup: List[Job]
    timed: List[Job]
    #: Due times in seconds from the start of the timed phase; ``None``
    #: for a closed loop.
    schedule: Optional[List[float]] = None
    connections: int = 1
    info: Dict[str, Any] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------

def render_atom(atom: Atom) -> str:
    pred, args = atom
    return f"{pred}({','.join(args)})"


def render_atoms(atoms: Sequence[Atom]) -> str:
    return ", ".join(render_atom(a) for a in atoms)


def existentials(rule: Rule) -> List[str]:
    body, head = rule
    bound = {v for _p, args in body for v in args}
    seen: List[str] = []
    for _p, args in head:
        for v in args:
            if v not in bound and v not in seen:
                seen.append(v)
    return seen


def render_rule(rule: Rule) -> str:
    body, head = rule
    ex = existentials(rule)
    prefix = f"exists {', '.join(ex)}. " if ex else ""
    return f"{render_atoms(body)} -> {prefix}{render_atoms(head)}"


def render_theory(rules: Sequence[Rule]) -> str:
    return "\n".join(render_rule(r) for r in rules)


def render_edges(edges: Sequence[Edge], pred: str = "E") -> str:
    return ", ".join(f"{pred}({u},{v})" for u, v in edges)


def _rule(text: str) -> Rule:
    """A rule from ``"E(x,y) & E(y,z) > E(x,z)"`` shorthand."""
    body_text, head_text = text.split(">")
    return (_atoms(body_text), _atoms(head_text))


def _atoms(text: str) -> Tuple[Atom, ...]:
    out = []
    for part in text.split("&"):
        part = part.strip()
        pred, rest = part.split("(", 1)
        out.append((pred.strip(), tuple(a.strip() for a in rest.rstrip(")").split(","))))
    return tuple(out)


# ----------------------------------------------------------------------
# Instances
# ----------------------------------------------------------------------

#: Transitivity: the closure theory of query-mix and view-churn.
TC_RULES = (_rule("E(x,y) & E(y,z) > E(x,z)"),)

#: Example 9's four growth rules.
EX9_RULES = {
    "FF": _rule("F(x,y) > F(y,z)"),
    "FG": _rule("F(x,y) > G(y,z)"),
    "GF": _rule("G(x,y) > F(y,z)"),
    "GG": _rule("G(x,y) > G(y,z)"),
}
#: The query each Example-9 sub-theory is asked about (fixed, so every
#: seed runs the same counter-model constructions).
EX9_QUERY = {
    2: _atoms("F(x,y) & G(x,y)"),
    3: _atoms("G(x,y) & F(y,x)"),
}

#: The Theorem-2 corpus without ``binary-tree/F-G-join`` (about 19 s
#: alone): (name, rules, database, query).
THEOREM2 = (
    ("example1/triangle-query",
     (_rule("E(x,y) > E(y,z)"),
      _rule("E(x,y) & E(y,z) & E(z,x) > U(x,t)"),
      _rule("U(x,y) > U(y,z)")),
     _atoms("E(a,b)"), _atoms("U(x,y)")),
    ("linear/loop-query",
     (_rule("E(x,y) > E(y,z)"),),
     _atoms("E(a,b)"), _atoms("E(x,x)")),
    ("example7/foreign-pred",
     (_rule("E(x,y) > E(y,z)"), _rule("E(x,y) & E(u,y) > R(x,u)")),
     _atoms("E(a,b)"), _atoms("R(x,u) & P(u,w)")),
    ("two-chains/merge-query",
     (_rule("E(x,y) > E(y,z)"), _rule("E(x,y) > B(y)")),
     _atoms("E(a,b) & E(c,d)"), _atoms("E(x,y) & E(y,x)")),
)

#: Section 5.5: not FC; every finite model satisfies the query.
S55_RULES = (
    _rule("E(x,y) > E(y,z)"),
    _rule("R(x,y) & E(x,u) & E(y,z) & E(z,w) > R(u,w)"),
)
S55_DATABASE = _atoms("E(a0,a1) & R(a0,a0)")
S55_QUERY = _atoms("E(x,y) & R(y,y)")
#: Element bounds of the Section-5.5 exhaustive searches (all must fail).
S55_BOUNDS = range(10, 20)


def linear_theory(predicates: int, rules: int, seed: int) -> List[Rule]:
    """A random linear theory over binary predicates ``P0..P{n-1}``.

    The same shapes as ``repro.zoo.random_linear_theory``:
    ``P(x,y) -> exists z. Q(y,z)``, ``P(x,y) -> Q(x,y)`` and
    ``P(x,y) -> Q(y,x)``.
    """
    rng = random.Random(seed)
    names = [f"P{i}" for i in range(predicates)]
    out: List[Rule] = []
    for _ in range(rules):
        source, target = rng.choice(names), rng.choice(names)
        shape = rng.randrange(3)
        body = ((source, ("x", "y")),)
        if shape == 0:
            out.append((body, ((target, ("y", "z")),)))
        elif shape == 1:
            out.append((body, ((target, ("x", "y")),)))
        else:
            out.append((body, ((target, ("y", "x")),)))
    return out


def shape_query(predicates: int, length: int, cycle: bool, seed: int) -> List[Atom]:
    """A path (or cycle) query of *length* atoms over ``P0..P{n-1}``."""
    rng = random.Random(seed)
    names = [f"P{i}" for i in range(predicates)]
    xs = [f"x{i}" for i in range(length + 1)]
    if cycle:
        xs[length] = xs[0]
    return [(rng.choice(names), (xs[i], xs[i + 1])) for i in range(length)]


def random_edges(nodes: int, edges: int, seed: int) -> List[Edge]:
    """*edges* distinct random edges over ``v0..v{nodes-1}``
    (``repro.zoo.random_edges_database`` with one predicate)."""
    rng = random.Random(seed)
    names = [f"v{i}" for i in range(nodes)]
    chosen = set()
    while len(chosen) < edges:
        chosen.add((rng.choice(names), rng.choice(names)))
    return sorted(chosen)


def growth_chain(predicates: int) -> List[Rule]:
    """``P0(x,y) -> exists z. P1(y,z)``, ..., back to ``P0``
    (``repro.zoo.chain_growth_theory``)."""
    return [
        (((f"P{i}", ("x", "y")),), ((f"P{(i + 1) % predicates}", ("y", "z")),))
        for i in range(predicates)
    ]


def disjoint_chains(chains: int) -> List[Atom]:
    """Section 5.5's model-search database: *chains* one-edge E-chains
    plus ``R(a0,a0)`` (``repro.zoo.disjoint_chains_database``)."""
    facts: List[Atom] = [("E", (f"b{2 * i}", f"b{2 * i + 1}")) for i in range(chains)]
    facts.append(("R", ("a0", "a0")))
    return facts


def _model_job(op: str, rules, database, query, label: str, params=None) -> Job:
    request: Dict[str, Any] = {
        "op": op, "tenant": "fm",
        "theory": render_theory(rules),
        "database": render_atoms(database),
        "query": render_atoms(query),
    }
    if params:
        request["params"] = params
    return Job(request, "read",
               ("model", tuple(rules), tuple(database), tuple(query)), label)


# ----------------------------------------------------------------------
# finite-models
# ----------------------------------------------------------------------

def finite_models(seed: int, seconds: float) -> Workload:
    """A closed loop repeating one seeded round of pipeline jobs.

    The instance set is fixed; the seed sets the order and the size of
    the two disjoint-chain searches (4-12 chains).  The fc-search oracle
    runs on the Theorem-2 instances only: on an Example-9 sub-theory it
    takes about 1 ms, and ten more such jobs would put the median latency
    in the gap between cheap searches and pipeline runs, where it jumps
    from run to run.  The Section-5.5 exhaustive searches over
    :data:`S55_BOUNDS` elements (about 20-80 ms, rising with the bound)
    fill the middle of the cost range for the same reason: the host's
    speed swings by up to 1.6x within a run, and a median that sits in
    a tight cluster of equal-cost jobs jumps with it.
    """
    rng = random.Random(f"finite-models/{seed}")
    jobs: List[Job] = []
    for name, rules, database, query in THEOREM2:
        jobs.append(_model_job("countermodel", rules, database, query, f"cm/{name}"))
        jobs.append(_model_job("fc-search", rules, database, query, f"fc/{name}",
                               {"max_elements": 8}))
    for size in (2, 3):
        for subset in itertools.combinations(sorted(EX9_RULES), size):
            rules = [EX9_RULES[r] for r in subset]
            jobs.append(_model_job("countermodel", rules, _atoms("F(a,b)"),
                                   EX9_QUERY[size], f"cm/ex9-{'-'.join(subset)}"))
    for bound in S55_BOUNDS:
        jobs.append(Job({
            "op": "fc-search", "tenant": "fm",
            "theory": render_theory(S55_RULES),
            "database": render_atoms(S55_DATABASE),
            "query": render_atoms(S55_QUERY),
            "params": {"max_elements": bound},
        }, "read", ("status", "exhausted-no-model"), f"fc/s55-exhaustive-{bound}"))
    for _ in range(2):
        chains = rng.randint(4, 12)
        database = disjoint_chains(chains)
        jobs.append(Job({
            "op": "fc-search", "tenant": "fm",
            "theory": render_theory(S55_RULES),
            "database": render_atoms(database),
            "params": {"max_elements": 4 * chains},
        }, "read", ("model", S55_RULES, tuple(database), ()), f"fc/s55-chains-{chains}"))
    rng.shuffle(jobs)
    rounds = max(1, round(seconds / FM_ROUND_S))
    prime = [
        Job({"op": "countermodel", "tenant": PRIME_TENANT,
             "theory": "E(x,y) -> exists z. E(y,z)", "database": "E(a,b)",
             "query": "E(x,x)"}, "read", ("ok",), "prime"),
        Job({"op": "fc-search", "tenant": PRIME_TENANT,
             "theory": "E(x,y) -> exists z. E(y,z)", "database": "E(a,b)",
             "query": "E(x,x)"}, "read", ("ok",), "prime"),
    ]
    return Workload("finite-models", seed, prime, [], jobs * rounds,
                    info={"rounds": rounds, "jobs_per_round": len(jobs)})


# ----------------------------------------------------------------------
# query-mix
# ----------------------------------------------------------------------

def load_rewrite_pool() -> List[Dict[str, Any]]:
    """The committed rewrite instances with their expected disjunct
    counts (written by ``make_pool.py``)."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "rewrite_pool.json")
    with open(path) as handle:
        return json.load(handle)["entries"]


def poisson_schedule(rng: random.Random, count: int, seconds: float) -> List[float]:
    """*count* Poisson arrivals rescaled to end exactly at *seconds*.

    Rescaling keeps the gaps exponential in shape while fixing the
    schedule length, so ``run_s`` does not vary with the seed.
    """
    gaps = [rng.expovariate(1.0) for _ in range(count)]
    scale = seconds / sum(gaps)
    due, at = [], 0.0
    for gap in gaps:
        due.append(at)
        at += gap * scale
    return due


#: query-mix operation shares.
QM_MIX = (("rewrite", 0.40), ("certain", 0.25), ("chase", 0.25), ("classify", 0.10))


class Deck:
    """Draws that follow their shares exactly over every full pass.

    Each pass deals a seeded shuffle of *items*, so two seeds differ in
    order but hardly in composition: the cost mix of a run, and so its
    latency quantiles, vary much less across seeds than with independent
    draws.
    """

    def __init__(self, rng: random.Random, items: Sequence[Any]) -> None:
        self.rng = rng
        self.items = list(items)
        self.hand: List[Any] = []

    def draw(self) -> Any:
        if not self.hand:
            self.hand = list(self.items)
            self.rng.shuffle(self.hand)
        return self.hand.pop()


class StratifiedDeck(Deck):
    """Draws one random item of a seeded shuffle of strata: *items*, in
    cost order, cut into runs of *size*.

    Every pass visits each stratum once, so two seeds draw different
    items at nearly the same costs.
    """

    def __init__(self, rng: random.Random, items: Sequence[Any], size: int) -> None:
        super().__init__(rng, [items[i:i + size] for i in range(0, len(items), size)])

    def draw(self) -> Any:
        stratum = super().draw()
        return stratum[self.rng.randrange(len(stratum))]


def shares_deck(rng: random.Random, shares, size: int = 20) -> Deck:
    """A :class:`Deck` of *size* cards dealt in proportion to *shares*."""
    cards: List[Any] = []
    for item, share in shares:
        cards.extend([item] * round(share * size))
    return Deck(rng, cards)


def query_mix(seed: int, seconds: float, pool=None) -> Workload:
    """An open loop at :data:`QM_RATE` over :data:`QM_TENANTS` tenants."""
    rng = random.Random(f"query-mix/{seed}")
    pool = pool if pool is not None else load_rewrite_pool()
    count = max(1, round(QM_RATE * seconds))
    schedule = poisson_schedule(rng, count, seconds)
    tenants = Deck(rng, [f"t{i}" for i in range(QM_TENANTS)])
    ops = shares_deck(rng, QM_MIX)
    repeat = shares_deck(rng, ((True, QM_REPEAT_SHARE), (False, 1 - QM_REPEAT_SHARE)))
    fresh = StratifiedDeck(rng, sorted(range(len(pool)), key=lambda i: pool[i]["service_ms"]),
                           QM_STRATUM)
    family = shares_deck(rng, (("closure", 0.75), ("chain", 0.25)))
    dials = {
        "nodes": Deck(rng, range(5, 11)),
        "density": Deck(rng, [2.0 + i / 10.0 for i in range(11)]),
        "anchored": Deck(rng, (True, False)),
        "predicates": Deck(rng, range(2, 6)),
        "depth": Deck(rng, range(4, 13)),
        "length": Deck(rng, range(2, 9)),
    }
    sent_rewrites: List[Tuple[str, int]] = []
    jobs: List[Job] = []
    for _ in range(count):
        op = ops.draw()
        tenant = tenants.draw()
        if op == "rewrite":
            if sent_rewrites and repeat.draw():
                tenant, index = sent_rewrites[rng.randrange(len(sent_rewrites))]
            else:
                index = fresh.draw()
                sent_rewrites.append((tenant, index))
            entry = pool[index]
            jobs.append(Job({
                "op": "rewrite", "tenant": tenant, "theory": entry["theory"],
                "query": entry["query"], "free": entry["free"],
            }, "read", ("rewrite", entry["disjuncts"]), f"rewrite/{index}"))
        elif op == "classify":
            entry = pool[rng.randrange(len(pool))]
            jobs.append(Job({"op": "classify", "tenant": tenant,
                             "theory": entry["theory"]},
                            "read", ("classify", {"linear": True, "binary": True}),
                            "classify"))
        elif family.draw() == "closure":
            jobs.append(_closure_job(op, tenant, rng, dials))
        else:
            jobs.append(_chain_job(op, tenant, dials))
    prime = [
        Job({"op": "rewrite", "tenant": PRIME_TENANT,
             "theory": "E(x,y) -> exists z. E(y,z)", "query": "E(x,y)"},
            "read", ("ok",), "prime"),
        Job({"op": "certain", "tenant": PRIME_TENANT,
             "theory": render_theory(TC_RULES), "database": "E(a,b), E(b,c)",
             "query": "E(x,y)", "free": ["x", "y"]}, "read", ("ok",), "prime"),
        Job({"op": "chase", "tenant": PRIME_TENANT,
             "theory": render_theory(TC_RULES), "database": "E(a,b), E(b,c)"},
            "read", ("ok",), "prime"),
        Job({"op": "classify", "tenant": PRIME_TENANT,
             "theory": "E(x,y) -> exists z. E(y,z)"}, "read", ("ok",), "prime"),
    ]
    return Workload("query-mix", seed, prime, [], jobs, schedule=schedule,
                    connections=2,
                    info={"rate_per_s": QM_RATE, "limit_ms": QM_LIMIT_MS,
                          "tenants": QM_TENANTS, "repeat_share": QM_REPEAT_SHARE})


def _closure_job(op: str, tenant: str, rng: random.Random, dials) -> Job:
    """Transitive closure over a random graph of 5-10 nodes and two to
    three edges per node.

    Past the giant-SCC threshold of one edge per node the closure size
    is set by the node count: at two to three edges per node it varies
    by about 15% between graphs of one size, against about 33% at one
    to two.
    """
    nodes = dials["nodes"].draw()
    edges = random_edges(nodes, round(nodes * dials["density"].draw()),
                         rng.randrange(1 << 30))
    request: Dict[str, Any] = {
        "op": op, "tenant": tenant, "theory": render_theory(TC_RULES),
        "database": render_edges(edges),
    }
    if op == "chase":
        return Job(request, "read", ("closure_facts", tuple(edges)), "chase/tc")
    if not dials["anchored"].draw():
        request.update(query="E(x,y)", free=["x", "y"])
        return Job(request, "read", ("closure_answers", tuple(edges), None), "certain/tc")
    source = edges[rng.randrange(len(edges))][0]
    request.update(query=f"E('{source}',y)", free=["y"])
    return Job(request, "read", ("closure_answers", tuple(edges), source), "certain/tc-from")


def _chain_job(op: str, tenant: str, dials) -> Job:
    """A growth chain: truncated chase, or a certain path query."""
    predicates = dials["predicates"].draw()
    rules = growth_chain(predicates)
    request: Dict[str, Any] = {
        "op": op, "tenant": tenant, "theory": render_theory(rules),
        "database": "P0(a,b)",
    }
    if op == "chase":
        depth = dials["depth"].draw()
        request["params"] = {"depth": depth}
        return Job(request, "read", ("chain", predicates, depth), "chase/chain")
    length = dials["length"].draw()
    query = [(f"P{i % predicates}", (f"x{i}", f"x{i + 1}")) for i in range(length)]
    request["query"] = render_atoms(query)
    return Job(request, "read", ("status", "certain"), "certain/chain")


# ----------------------------------------------------------------------
# view-churn
# ----------------------------------------------------------------------

def clustered_edges(rng: random.Random) -> List[Edge]:
    """:data:`VC_CLUSTERS` disjoint random graphs (``random_edges`` each);
    the nodes of cluster *k* are named ``c<k>v<i>``.

    One random graph of 30 nodes and 60 edges sits past the giant-SCC
    threshold, where one edge can merge or split the big component: its
    closure swung between 270 and 840 facts between seeds and within a
    run, and one update's DRed and resume work reached 1,400 facts.
    A sum over independent clusters varies much less, and a retraction
    overdeletes within one cluster only.
    """
    edges = []
    for k in range(VC_CLUSTERS):
        for u, v in random_edges(VC_CLUSTER_NODES, VC_CLUSTER_EDGES, rng.randrange(1 << 30)):
            edges.append((f"c{k}{u}", f"c{k}{v}"))
    return sorted(edges)


def churn(edges: Sequence[Edge], steps: int,
          rng: random.Random) -> List[Tuple[List[Edge], List[Edge]]]:
    """Update batches of one fresh edge in and one live edge out, both
    within one random cluster of :func:`clustered_edges`.

    Like ``repro.zoo.churn_stream`` with two operations per batch, but
    always one of each, so every cluster keeps its size and every update
    pays for a retraction (DRed) and an insertion (semi-naive resume):
    the cost of an update stays stationary over a run.
    """
    live = set(edges)
    stream = []
    for _ in range(steps):
        prefix = f"c{rng.randrange(VC_CLUSTERS)}v"
        mine = sorted(e for e in live if e[0].startswith(prefix))
        victim = mine[rng.randrange(len(mine))]
        while True:
            edge = (f"{prefix}{rng.randrange(VC_CLUSTER_NODES)}",
                    f"{prefix}{rng.randrange(VC_CLUSTER_NODES)}")
            if edge not in live:
                break
        live.discard(victim)
        live.add(edge)
        stream.append(([edge], [victim]))
    return stream


def view_churn(seed: int, seconds: float) -> Workload:
    """One tenant, :data:`VC_VIEWS` transitive-closure views, a closed
    loop of ``view-update`` each followed by a ``view-query`` read.

    Every read is the same join (the nodes on a cycle), so read costs
    form one continuous band and the median does not fall in a gap
    between two kinds of read.
    """
    rng = random.Random(f"view-churn/{seed}")
    tenant = "churn"
    theory = render_theory(TC_RULES)
    setup: List[Job] = []
    live: List[FrozenSet[Edge]] = []
    for index in range(VC_VIEWS):
        edges = clustered_edges(rng)
        live.append(frozenset(edges))
        setup.append(Job({"op": "view-create", "tenant": tenant, "view": f"g{index}",
                          "theory": theory, "database": render_edges(edges)},
                         "write", ("closure_facts", tuple(edges)), "view-create"))
    updates = max(1, round(VC_UPDATES_PER_S * seconds))
    streams = [churn(sorted(live[i]), updates // VC_VIEWS + 1, rng)
               for i in range(VC_VIEWS)]
    timed: List[Job] = []
    for step in range(updates):
        index = step % VC_VIEWS
        adds, removes = streams[index][step // VC_VIEWS]
        live[index] = (live[index] - set(removes)) | set(adds)
        edges = tuple(sorted(live[index]))
        view = f"g{index}"
        timed.append(Job({"op": "view-update", "tenant": tenant, "view": view,
                          "adds": [render_edges(adds)], "removes": [render_edges(removes)]},
                         "write", ("closure_facts", edges), "view-update"))
        timed.append(Job({"op": "view-query", "tenant": tenant, "view": view,
                          "query": "E(x,y), E(y,x)", "free": ["x"]},
                         "read", ("cycle_nodes", edges), "view-query/cycle"))
    prime = [
        Job({"op": "view-create", "tenant": PRIME_TENANT, "view": "p",
             "theory": theory, "database": "E(a,b), E(b,c)"}, "write", ("ok",), "prime"),
        Job({"op": "view-update", "tenant": PRIME_TENANT, "view": "p",
             "adds": ["E(c,a)"], "removes": ["E(a,b)"]}, "write", ("ok",), "prime"),
        Job({"op": "view-query", "tenant": PRIME_TENANT, "view": "p",
             "query": "E(x,x)", "free": ["x"]}, "read", ("ok",), "prime"),
    ]
    return Workload("view-churn", seed, prime, setup, timed,
                    info={"views": VC_VIEWS, "clusters": VC_CLUSTERS,
                          "cluster_nodes": VC_CLUSTER_NODES,
                          "cluster_edges": VC_CLUSTER_EDGES, "updates": updates})


def build(name: str, seed: int, seconds: float) -> Workload:
    if name == "finite-models":
        return finite_models(seed, seconds)
    if name == "query-mix":
        return query_mix(seed, seconds)
    if name == "view-churn":
        return view_churn(seed, seconds)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
