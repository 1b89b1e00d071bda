"""Spans around each layer's public functions, and what they add up to.

The server side (:func:`install`) runs inside the traced server process,
from ``launcher.py``.  It replaces each layer-boundary function with a
wrapper in the namespace where its caller looks the name up at call
time, so every call through that boundary records a span::

    (span_id, parent_id, name, start_ns, end_ns, request_id)

The parent stack is kept per thread; the request id is set by the
``execute_request`` wrapper on the worker thread and taken from the
admission entry on the event-loop thread.  Hot paths (the matcher, the
``Structure`` methods) are not wrapped; their work is taken as counts:
``repro.lf.plan.HOM_STATS`` (which the traced server adds to its
``stats`` op, so the client can take one delta over a whole phase), the
payload ``stats`` blocks, and the ``stats``/``metrics`` ops.
``HOM_STATS`` is process global and updated without a lock, so it is
exact on a single connection and approximate when two requests overlap.
Each request's own ``HOM_STATS`` delta is kept for its span tree only:
when requests overlap, each delta also holds the other's increments.

Spans stay in memory and are written out when the server exits.  The
client side (:func:`request_trees`, :func:`self_times`) joins them with
the client's own send and receive stamps: a span's self time is its
duration minus its children's, and a request's ``unattributed`` time is
its round trip minus its top-level spans.  :func:`tree_problems` checks
what can go wrong in that join.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: (module, attribute, span name) boundaries wrapped by :func:`install`.
FUNCTION_BOUNDARIES = (
    ("repro.serve.server", "execute_request", "serve.execute_request"),
    ("repro.serve.session", "parse_theory", "lf.parser.parse_theory"),
    ("repro.serve.session", "parse_structure", "lf.parser.parse_structure"),
    ("repro.serve.session", "parse_query", "lf.parser.parse_query"),
    ("repro.lf.parser", "parse_facts", "lf.parser.parse_facts"),
    ("repro.payloads", "chase_payload", "payloads.chase_payload"),
    ("repro.payloads", "certain_payload", "payloads.certain_payload"),
    ("repro.payloads", "rewrite_payload", "payloads.rewrite_payload"),
    ("repro.payloads", "classify_payload", "payloads.classify_payload"),
    ("repro.payloads", "countermodel_payload", "payloads.countermodel_payload"),
    ("repro.payloads", "fc_search_payload", "payloads.fc_search_payload"),
    ("repro.rewriting", "rewrite", "rewriting.rewrite"),
    ("repro.chase", "chase", "chase.chase"),
    ("repro.chase", "certain_report", "chase.certain_report"),
    ("repro.fc", "search_finite_model", "fc.search_finite_model"),
    ("repro.classes", "classify", "classes.classify"),
    ("repro.core", "build_finite_counter_model", "core.build_finite_counter_model"),
    ("repro.core.finite_model", "prepare", "core.prepare"),
    ("repro.core.finite_model", "chase", "chase.chase"),
    ("repro.core.finite_model", "chase_with_embargo", "chase.chase_with_embargo"),
    ("repro.core.finite_model", "skeleton_of_chase", "skeleton.skeleton_of_chase"),
    ("repro.core.finite_model", "bdd_profile", "rewriting.bdd_profile"),
    ("repro.core.finite_model", "natural_coloring", "coloring.natural_coloring"),
    ("repro.core.finite_model", "conservativity_report", "coloring.conservativity_report"),
    ("repro.core.finite_model", "TypePartition", "ptypes.partition"),
    ("repro.core.finite_model", "quotient", "ptypes.quotient"),
    ("repro.core.finite_model", "is_model", "core.is_model"),
    ("repro.core.finite_model", "violations", "core.violations"),
)
#: (module, class, method, span name) boundaries patched on the class.
METHOD_BOUNDARIES = (
    ("repro.chase.view", "ChaseView", "__init__", "chase.view.create"),
    ("repro.chase.view", "ChaseView", "update", "chase.view.update"),
    ("repro.chase.view", "ChaseView", "certain_one", "chase.view.certain_one"),
)
#: Boundaries that are only counted (no span): (module, attribute, counter).
COUNTED = (
    ("repro.ptypes.ptype", "canonical_query", "lf.canonical.calls"),
    ("repro.coloring.conservativity", "canonical_query", "lf.canonical.calls"),
)

#: Span name -> layer whose self time it counts towards.
LAYER_OF_PREFIX = (
    ("serve.execute_request", "serve.jobs"),
    ("serve.admit", "serve.admit"),
    ("serve.queue_wait", "serve.queue"),
    ("payloads.", "payloads"),
    ("lf.parser.", "lf.parser"),
    ("chase.view.update", "chase.view.update"),
    ("chase.view.certain_one", "chase.view.query"),
    ("chase.view.", "chase.view"),
    ("chase.", "chase"),
    ("rewriting.bdd_profile", "rewriting.kappa"),
    ("rewriting.", "rewriting"),
    ("fc.", "fc"),
    ("core.is_model", "core.verify"),
    ("core.violations", "core.verify"),
    ("core.", "core"),
    ("ptypes.", "ptypes"),
    ("coloring.", "coloring"),
    ("skeleton.", "skeleton"),
    ("classes.", "classes"),
)


def layer_of(name: str) -> str:
    for prefix, layer in LAYER_OF_PREFIX:
        if name.startswith(prefix):
            return layer
    return name


# ----------------------------------------------------------------------
# Server side
# ----------------------------------------------------------------------

class Recorder:
    """In-memory span store with a per-thread parent stack."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, int, str, int, int, Any]] = []
        self.requests: Dict[Any, Dict[str, int]] = {}
        self.counters: Dict[str, Any] = defaultdict(lambda: itertools.count(1))
        self.local = threading.local()
        self._ids = itertools.count(1)

    def wrap(self, name: str, fn: Callable, rid_of: "Optional[Callable]" = None) -> Callable:
        local, spans, ids, clock = self.local, self.spans, self._ids, time.monotonic_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            rid = rid_of(args) if rid_of is not None else getattr(local, "rid", None)
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end, rid))

        return wrapper

    def wrap_request(self, fn: Callable) -> Callable:
        """``execute_request``: bind the request id to this thread and
        take the request's ``HOM_STATS`` delta."""
        from repro.lf.plan import HOM_STATS

        local, inner = self.local, self.wrap("serve.execute_request", fn)
        requests = self.requests

        @functools.wraps(fn)
        def wrapper(registry, request, *args, **kwargs):
            rid = request.get("id") if isinstance(request, dict) else None
            local.rid = rid
            before = HOM_STATS.snapshot()
            try:
                return inner(registry, request, *args, **kwargs)
            finally:
                requests[rid] = HOM_STATS.since(before).as_dict()
                local.rid = None

        return wrapper

    def count(self, counter: str, fn: Callable) -> Callable:
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            next(counters[counter])
            return fn(*args, **kwargs)

        return wrapper

    def dump(self, path: str) -> None:
        counts = {name: next(c) - 1 for name, c in self.counters.items()}
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "hom": self.requests, "counts": counts},
                      handle)


def install(recorder: Recorder) -> None:
    """Wrap every boundary of :data:`FUNCTION_BOUNDARIES` & co."""
    import importlib

    for module_name, attr, span in FUNCTION_BOUNDARIES:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr)
        if span == "serve.execute_request":
            setattr(module, attr, recorder.wrap_request(fn))
        else:
            setattr(module, attr, recorder.wrap(span, fn))
    for module_name, cls_name, method, span in METHOD_BOUNDARIES:
        cls = getattr(importlib.import_module(module_name), cls_name)
        setattr(cls, method, recorder.wrap(span, getattr(cls, method)))
    for module_name, attr, counter in COUNTED:
        recorder.counters[counter]  # created before any worker thread runs
        module = importlib.import_module(module_name)
        setattr(module, attr, recorder.count(counter, getattr(module, attr)))
    admission = importlib.import_module("repro.serve.admission").AdmissionController
    admission.try_admit = recorder.wrap(
        "serve.admit", admission.try_admit, rid_of=lambda args: args[1].rid
    )
    server = importlib.import_module("repro.serve.server").ReproServer
    server._stats_response = with_hom_stats(server._stats_response)


def with_hom_stats(stats_response: Callable) -> Callable:
    """The ``stats`` op plus a ``hom`` block: the ``HOM_STATS`` totals."""
    from repro.lf.plan import HOM_STATS

    @functools.wraps(stats_response)
    def wrapper(self, rid):
        response = stats_response(self, rid)
        response["hom"] = HOM_STATS.snapshot().as_dict()
        return response

    return wrapper


# ----------------------------------------------------------------------
# Client side
# ----------------------------------------------------------------------

def load(path: str) -> Dict[str, Any]:
    with open(path) as handle:
        return json.load(handle)


def self_times(spans: Iterable[Tuple]) -> Dict[int, int]:
    """Span id -> duration minus the durations of its direct children."""
    spans = list(spans)
    out = {s[0]: s[4] - s[3] for s in spans}
    for sid, parent, _name, start, end, _rid in spans:
        if parent in out:
            out[parent] -= end - start
    return out


def request_trees(spans: List[Tuple], send_recv: Dict[Any, Tuple[int, int]]):
    """Per request: its spans (plus a derived ``serve.queue_wait`` span
    between admission and execution) and its unattributed time.

    Returns ``{rid: {"round_trip": ns, "spans": [...], "self": {sid: ns},
    "unattributed": ns}}`` for every request id in *send_recv*.
    """
    by_rid: Dict[Any, List[Tuple]] = defaultdict(list)
    for span in spans:
        if span[5] in send_recv:
            by_rid[span[5]].append(tuple(span))
    trees = {}
    for rid, (sent, received) in send_recv.items():
        mine = by_rid.get(rid, [])
        admit = [s for s in mine if s[2] == "serve.admit"]
        execute = [s for s in mine if s[2] == "serve.execute_request"]
        if admit and execute:
            mine.append((-rid, 0, "serve.queue_wait", admit[0][4], execute[0][3], rid))
        selfs = self_times(mine)
        top = sum(s[4] - s[3] for s in mine if s[1] == 0)
        trees[rid] = {
            "round_trip": received - sent,
            "spans": mine,
            "self": selfs,
            "unattributed": (received - sent) - top,
        }
    return trees


#: Spans every served request must have.
REQUIRED_SPANS = ("serve.admit", "serve.queue_wait", "serve.execute_request")


def tree_problems(tree: Dict[str, Any]) -> List[str]:
    """What is wrong with one request's tree: a missing serve span, a
    negative self or unattributed time, or a parent outside the tree."""
    problems = []
    names = {span[2] for span in tree["spans"]}
    problems.extend(f"no {name} span" for name in REQUIRED_SPANS if name not in names)
    if tree["unattributed"] < 0:
        problems.append("negative unattributed time")
    if any(value < 0 for value in tree["self"].values()):
        problems.append("negative self time")
    ids = {span[0] for span in tree["spans"]}
    if any(span[1] and span[1] not in ids for span in tree["spans"]):
        problems.append("parent span outside the request")
    return problems


def render_tree(rid: Any, tree: Dict[str, Any], label: str = "",
                hom: Optional[Dict[str, int]] = None) -> List[str]:
    """Indented text of one request's span tree, times in ms, headed by
    the request's own ``HOM_STATS`` delta when *hom* is given."""
    spans = sorted(tree["spans"], key=lambda s: (s[3], -s[4]))
    children: Dict[int, List[Tuple]] = defaultdict(list)
    for span in spans:
        children[span[1]].append(span)
    lines = [f"request {rid} {label}: round trip {tree['round_trip'] / 1e6:.3f} ms, "
             f"unattributed {tree['unattributed'] / 1e6:.3f} ms"]
    if hom:
        lines[0] += (f"; matcher: {hom.get('plan_requests', 0)} plans, "
                     f"{hom.get('index_probes', 0)} index probes, "
                     f"{hom.get('candidates_scanned', 0)} candidates")

    def walk(parent: int, depth: int) -> None:
        for span in children.get(parent, ()):
            lines.append(f"{'  ' * depth}{span[2]}  {(span[4] - span[3]) / 1e6:.3f} ms "
                         f"(self {tree['self'][span[0]] / 1e6:.3f})")
            walk(span[0], depth + 1)

    walk(0, 1)
    return lines
