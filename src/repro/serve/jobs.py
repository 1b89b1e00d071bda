"""Request execution for both front ends: validate, build configs, run engines.

``repro serve`` runs each request on a pool thread; the CLI
(:mod:`repro.cli`) parses its argv into the same request dict and runs
it here on a throwaway :class:`SessionRegistry`.  So each engine
config, op default and error mapping is written once, here, and the
CLI's ``--json`` object is the server's response without the envelope
keys ``id``, ``ok``, ``tenant`` (and ``cached`` on artifact-cache hits).

Every job runs under its own :class:`~repro.runtime.RuntimeGuard`: the
effective ``wall_ms`` is the request's ``params.wall_ms`` (else the
server's default SLA), the ``max_rss_mb`` ceiling is shared, and the
caller's :class:`~repro.runtime.CancelToken` is tripped by a ``cancel``
op, a client disconnect or the CLI's Ctrl-C.  Engines run with
:attr:`~repro.config.OnBudget.RETURN`, so a tripped guard degrades to a
partial payload; the Theorem-2 pipeline raises, and
:func:`failure_payload` maps the raise onto the same exit codes.

Protocol ops
------------
``ping``           liveness round-trip through the pool
``chase``          one-shot chase (``theory``, ``database``);
                   ``params.explain`` (a predicate) adds the derivation
                   of its least fact, ``params.updates`` (an update
                   script) maintains a view through the script instead
``certain``        certain answers (``theory``, ``database``, ``query``)
``rewrite``        UCQ rewriting (``theory``, ``query``); finished
                   (saturated) rewritings are cached per session
``classify``       syntactic class profile (``theory``)
``countermodel``   the Theorem-2/3 pipeline
``fc-search``      bounded finite-model search
``skeleton``       S(D,T) extraction + Lemma-3 report
``view-create``    materialise a named incremental ChaseView
``view-update``    apply ``adds``/``removes`` fact lists to a view
``view-query``     certain answers against a view
``view-close``     drop a view
``session-close``  drop the whole tenant session
(``cancel``, ``stats``, ``health``, ``metrics``, ``shutdown`` are
handled on the event loop.)

Each op accepts the params it reads, listed beside its handler in
:data:`JOB_HANDLERS`, and the guard's :data:`GUARD_PARAMS`; any other
param is a :class:`RequestError`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from .. import payloads
from ..errors import BudgetError, ReproError
from ..payloads import (
    EXIT_ERROR,
    EXIT_INCOMPLETE,
    EXIT_INTERRUPTED,
    EXIT_OK,
    stop_code,
)
from .config import ServeConfig
from .session import SessionRegistry, TheorySession, text_key

#: Worker-side fault hook (``None`` in production).  The chaos battery
#: installs one via :func:`set_serve_fault_hook` to make workers slow
#: (sleep) or stuck (block until cancelled) deterministically; it runs
#: on the pool thread at the top of every request, receiving
#: ``(request, token)``.
_serve_fault_hook = None


def set_serve_fault_hook(hook):
    """Install (or clear, with ``None``) the worker fault hook.

    Returns the previous hook so test fixtures can restore it.  See
    :mod:`repro.testing.faults` for the context-manager wrappers.
    """
    global _serve_fault_hook
    previous = _serve_fault_hook
    _serve_fault_hook = hook
    return previous


class RequestError(ReproError):
    """A malformed or unserviceable request (maps to ``exit_code: 1``)."""


#: What a request may raise and still get a payload (see
#: :func:`failure_payload`); anything else is a bug in the program.
REQUEST_ERRORS = (ReproError, OSError, ValueError, TypeError, KeyError)

#: Exit code -> status of a :func:`failure_payload`.
_FAILURE_STATUS = {
    EXIT_INTERRUPTED: "interrupted",
    EXIT_INCOMPLETE: "incomplete",
    EXIT_ERROR: "error",
}
#: The statuses of :func:`failure_payload`; no engine payload uses them.
FAILURE_STATUSES = frozenset(_FAILURE_STATUS.values())


def failure_payload(command: Any, error: BaseException) -> Dict[str, Any]:
    """The payload of a request that raised *error*.

    A cancellation is ``interrupted`` (exit 130), a deadline or memory
    stop ``incomplete`` (exit 2), anything else ``error`` (exit 1).
    """
    reason = error.stopped_reason if isinstance(error, BudgetError) else None
    code = stop_code(reason, EXIT_ERROR)
    payload: Dict[str, Any] = {
        "command": command,
        "status": _FAILURE_STATUS[code],
        "exit_code": code,
    }
    if str(error):
        payload["error"] = str(error)
    if reason is not None:
        payload["stopped_reason"] = reason
    return payload


def _field(request: Dict[str, Any], name: str) -> str:
    """A source text of the request (an empty one is an empty input)."""
    value = request.get(name)
    if not isinstance(value, str):
        raise RequestError(f"request needs a string {name!r} field")
    return value


#: The params of the runtime guard, which every op takes.
GUARD_PARAMS = ("wall_ms", "max_rss_mb")


def _params(request: Dict[str, Any], reads: Tuple[str, ...]) -> Dict[str, Any]:
    """The request's params, each one a guard param or one in *reads*."""
    params = request.get("params") or {}
    if not isinstance(params, dict):
        raise RequestError("params must be a JSON object")
    accepted = reads + GUARD_PARAMS
    unread = [name for name in params if name not in accepted]
    if unread:
        raise RequestError(
            f"unknown params for {request.get('op')}: "
            f"{', '.join(map(repr, unread))} "
            f"(it accepts {', '.join(sorted(accepted))})"
        )
    return params


def _free(request: Dict[str, Any]) -> Tuple[str, ...]:
    """The free-variable tuple: a JSON list or the CLI's comma string."""
    free = request.get("free")
    if free is None:
        return ()
    if isinstance(free, str):
        return tuple(name for name in free.split(",") if name)
    if isinstance(free, list) and all(isinstance(n, str) for n in free):
        return tuple(free)
    raise RequestError("free must be a list of names or a comma string")


def _guard_fields(
    params: Dict[str, Any], config: ServeConfig, token, deadline=None
) -> Dict[str, Any]:
    """Per-request guard config: request params over server defaults.

    *deadline*, when set, is the already-ticking queue deadline the
    admission layer started when the request was admitted; the engine's
    :class:`~repro.runtime.RuntimeGuard` prefers it over ``wall_ms``,
    so time spent queued counts against the request's SLA.
    """
    return {
        "wall_ms": params.get("wall_ms", config.wall_ms),
        "max_rss_mb": params.get("max_rss_mb", config.max_rss_mb),
        "cancel_token": token,
        "deadline": deadline,
    }


def _int_param(params: Dict[str, Any], name: str, default: int) -> int:
    value = params.get(name, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise RequestError(f"params.{name} must be an integer")
    return value


# ----------------------------------------------------------------------
# Engine ops
# ----------------------------------------------------------------------

def _op_ping(session, request, params, guard):
    return {"command": "ping", "status": "pong", "counts": {}}, EXIT_OK


def _parse_updates(text: Any) -> List[Tuple[List[Any], List[Any]]]:
    """Parse an update script into ``(adds, removes)`` batches.

    One fact per line, prefixed ``+`` (insert) or ``-`` (retract);
    blank lines separate batches; ``#`` comments are skipped.
    """
    from ..lf.parser import parse_facts

    if not isinstance(text, str):
        raise RequestError("params.updates must be an update script")
    batches: List[Tuple[List[Any], List[Any]]] = [([], [])]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            batches.append(([], []))
        elif line[0] in "+-":
            adds, removes = batches[-1]
            target = adds if line[0] == "+" else removes
            target.extend(parse_facts(line[1:].strip()))
        elif line[0] != "#":
            raise RequestError(
                f"update line {lineno} must start with '+' or '-': {line!r}"
            )
    return [(adds, removes) for adds, removes in batches if adds or removes]


def _explanation(result, predicate: str, theory) -> Dict[str, str]:
    """``params.explain``: the derivation of the least *predicate*-fact."""
    from ..chase import explain

    facts = sorted(result.structure.facts_with_pred(predicate), key=str)
    if not facts:
        raise RequestError(f"no {predicate}-facts to explain")
    return {
        "fact": str(facts[0]),
        "derivation": explain(result, facts[0]).render(theory),
    }


def _op_chase(session, request, params, guard):
    from ..chase import ChaseConfig, chase

    theory = session.theory(_field(request, "theory"))
    database = session.database(_field(request, "database"))
    predicate = params.get("explain")
    if "updates" in params:
        batches = _parse_updates(params["updates"])
        view = _new_view(theory, database, params, guard)
        results = [
            view.update(adds=adds, removes=removes) for adds, removes in batches
        ]
        payload, code = payloads.incremental_chase_payload(view, results)
        result = view.as_result() if predicate else None
    else:
        config = ChaseConfig(
            max_depth=_int_param(params, "depth", 8),
            trace=bool(predicate),
            **guard,
        )
        result = chase(database, theory, config)
        payload, code = payloads.chase_payload(result)
    if predicate:
        payload["explanation"] = _explanation(result, predicate, theory)
    return payload, code


def _op_certain(session, request, params, guard):
    from ..chase import ChaseConfig, certain_report

    theory = session.theory(_field(request, "theory"))
    database = session.database(_field(request, "database"))
    query = session.query(_field(request, "query"), _free(request))
    config = ChaseConfig(
        max_depth=_int_param(params, "depth", 12), max_elements=None, **guard
    )
    return payloads.certain_payload(
        certain_report(database, theory, query, config=config)
    )


def _op_rewrite(session, request, params, guard):
    from ..config import OnBudget
    from ..rewriting import RewriteConfig, rewrite

    theory_text = _field(request, "theory")
    query_text = _field(request, "query")
    free = _free(request)
    max_steps = _int_param(params, "max_steps", RewriteConfig.max_steps)
    max_queries = _int_param(params, "max_queries", RewriteConfig.max_queries)

    # The compiled-artifact cache: a *finished* rewriting is a pure
    # function of (budgets, theory, query) — guard settings cannot
    # change it, only truncate it, and truncated results are never
    # cached.
    artifact_key = (
        max_steps,
        max_queries,
        text_key(theory_text),
        text_key(query_text),
        free,
    )
    cached = session.cached_rewriting(artifact_key)
    if cached is not None:
        payload, code = cached
        payload = dict(payload)
        payload["cached"] = True
        return payload, code

    theory = session.theory(theory_text)
    query = session.query(query_text, free)
    config = RewriteConfig(
        max_steps=max_steps,
        max_queries=max_queries,
        on_budget=OnBudget.RETURN,
        **guard,
    )
    result = rewrite(query, theory, config)
    payload, code = payloads.rewrite_payload(result)
    if result.saturated:
        session.store_rewriting(artifact_key, payload, code)
        payload = dict(payload)
    return payload, code


def _op_classify(session, request, params, guard):
    from ..classes import classify

    return payloads.classify_payload(
        classify(session.theory(_field(request, "theory")))
    )


def _op_countermodel(session, request, params, guard):
    from ..core import PipelineConfig, build_finite_counter_model

    theory = session.theory(_field(request, "theory"))
    database = session.database(_field(request, "database"))
    query = session.query(_field(request, "query"), _free(request))
    config = PipelineConfig(**guard)
    depths = params.get("depths")
    if depths is not None:
        if not isinstance(depths, list) or not all(
            isinstance(d, int) for d in depths
        ):
            raise RequestError("params.depths must be a list of integers")
        config = config.with_overrides(chase_depths=tuple(depths))
    return payloads.countermodel_payload(
        build_finite_counter_model(theory, database, query, config)
    )


def search_bound(params: Dict[str, Any]) -> int:
    """The domain-size bound an ``fc-search`` request runs under."""
    from ..fc import SearchConfig

    return _int_param(params, "max_elements", SearchConfig.max_elements)


def _op_fc_search(session, request, params, guard):
    from ..fc import SearchConfig, search_finite_model

    theory = session.theory(_field(request, "theory"))
    database = session.database(_field(request, "database"))
    forbidden = None
    if request.get("query") is not None:
        forbidden = session.query(_field(request, "query"), _free(request))
    config = SearchConfig(
        max_elements=search_bound(params),
        max_nodes=_int_param(params, "max_nodes", SearchConfig.max_nodes),
        **guard,
    )
    outcome = search_finite_model(
        database, theory, forbidden=forbidden, config=config
    )
    return payloads.fc_search_payload(outcome)


def _op_skeleton(session, request, params, guard):
    from ..skeleton import lemma3_report, skeleton

    theory = session.theory(_field(request, "theory"))
    database = session.database(_field(request, "database"))
    result = skeleton(
        database, theory, max_depth=_int_param(params, "depth", 8), **guard
    )
    return payloads.skeleton_payload(result, lemma3_report(result))


# ----------------------------------------------------------------------
# View ops
# ----------------------------------------------------------------------

def _view_name(request: Dict[str, Any]) -> str:
    name = _field(request, "view")
    if not name.strip():
        raise RequestError("request needs a non-empty 'view' name")
    return name


def _view_counts(view) -> Dict[str, int]:
    return {
        "depth": view.depth,
        "facts": len(view),
        "elements": view.structure.domain_size,
        "base_facts": len(view.base_facts()),
    }


def _new_view(theory, database, params, guard):
    """The view of ``view-create`` and of ``chase`` with ``updates``."""
    from ..chase import ChaseView, IncrementalConfig

    config = IncrementalConfig(max_depth=_int_param(params, "depth", 8), **guard)
    return ChaseView(database, theory, config)


def _op_view_create(session: TheorySession, request, params, guard):
    name = _view_name(request)
    theory = session.theory(_field(request, "theory"))
    database = session.database(_field(request, "database"))
    view = _new_view(theory, database, params, guard)
    session.create_view(name, view)
    payload = {
        "command": "view-create",
        "view": name,
        "status": "saturated" if view.saturated else "truncated",
        "stopped_reason": view.stopped_reason,
        "counts": _view_counts(view),
        "facts": [str(f) for f in view.structure.sorted_facts()],
        "stats": payloads.stats_dict(view.initial_result.stats),
    }
    return payload, stop_code(view.stopped_reason, EXIT_OK)


def _require_view(session: TheorySession, request):
    name = _view_name(request)
    slot = session.view_slot(name)
    if slot is None:
        raise RequestError(f"tenant {session.tenant!r} has no view {name!r}")
    return name, slot


def _facts_arg(request: Dict[str, Any], name: str) -> List[Any]:
    from ..lf.parser import parse_facts

    value = request.get(name)
    if value is None:
        return []
    if isinstance(value, str):
        value = [value]
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise RequestError(f"{name} must be a fact string or a list of them")
    facts: List[Any] = []
    for text in value:
        facts.extend(parse_facts(text))
    return facts


def _op_view_update(session: TheorySession, request, params, guard):
    name, slot = _require_view(session, request)
    adds = _facts_arg(request, "adds")
    removes = _facts_arg(request, "removes")
    with slot.lock:
        view = slot.view
        # Rebind this update to the *request's* guard: fresh cancel
        # token and deadline, not the creation request's (long dead).
        view.config = view.config.with_overrides(**guard)
        result = view.update(adds=adds, removes=removes)
        payload = {
            "command": "view-update",
            "view": name,
            "status": "saturated" if result.saturated else "truncated",
            "stopped_reason": result.stopped_reason,
            "counts": dict(
                _view_counts(view),
                added=len(result.added),
                removed=len(result.removed),
            ),
            "update": result.stats.as_dict(),
            "facts": [str(f) for f in view.structure.sorted_facts()],
        }
        return payload, stop_code(result.stopped_reason, EXIT_OK)


def _op_view_query(session: TheorySession, request, params, guard):
    name, slot = _require_view(session, request)
    query = session.query(_field(request, "query"), _free(request))
    with slot.lock:
        answer = slot.view.certain_one(query)
        counts = _view_counts(slot.view)
    verdict = {True: "certain", False: "not-certain", None: "unknown"}[
        answer.verdict
    ]
    rows = sorted(answer.answers, key=str)
    payload = {
        "command": "view-query",
        "view": name,
        "status": verdict,
        "complete": answer.complete,
        "counts": dict(counts, answers=len(answer.answers)),
        "answers": [[str(value) for value in row] for row in rows],
    }
    return payload, EXIT_OK if answer.verdict is not None else EXIT_INCOMPLETE


def _op_view_close(session: TheorySession, request, params, guard):
    name = _view_name(request)
    found = session.close_view(name)
    if not found:
        raise RequestError(f"tenant {session.tenant!r} has no view {name!r}")
    return {
        "command": "view-close",
        "view": name,
        "status": "closed",
        "counts": {},
    }, EXIT_OK


#: Each op's handler, and the params it reads besides the guard's.
JOB_HANDLERS = {
    "ping": (_op_ping, ()),
    "chase": (_op_chase, ("depth", "explain", "updates")),
    "certain": (_op_certain, ("depth",)),
    "rewrite": (_op_rewrite, ("max_steps", "max_queries")),
    "classify": (_op_classify, ()),
    "countermodel": (_op_countermodel, ("depths",)),
    "fc-search": (_op_fc_search, ("max_elements", "max_nodes")),
    "skeleton": (_op_skeleton, ("depth",)),
    "view-create": (_op_view_create, ("depth",)),
    "view-update": (_op_view_update, ()),
    "view-query": (_op_view_query, ()),
    "view-close": (_op_view_close, ()),
}


def execute_request(
    registry: SessionRegistry,
    request: Dict[str, Any],
    config: ServeConfig,
    token,
    deadline=None,
) -> Dict[str, Any]:
    """Run one request to a complete response dict.  Never raises."""
    rid = request.get("id")
    op = request.get("op")
    tenant = request.get("tenant", "default")
    try:
        hook = _serve_fault_hook
        if hook is not None:
            hook(request, token)
        if not isinstance(tenant, str) or not tenant:
            raise RequestError("tenant must be a non-empty string")
        if op == "session-close":
            _params(request, ())
            payload: Dict[str, Any] = {
                "command": "session-close",
                "status": "closed" if registry.close(tenant) else "not-found",
                "counts": {"sessions": len(registry)},
            }
            code = EXIT_OK
        else:
            entry = JOB_HANDLERS.get(op)
            if entry is None:
                raise RequestError(f"unknown op {op!r}")
            handler, reads = entry
            session = registry.get(tenant)
            session.requests += 1
            params = _params(request, reads)
            guard = _guard_fields(params, config, token, deadline)
            payload, code = handler(session, request, params, guard)
        payload["exit_code"] = code
    except REQUEST_ERRORS as error:
        payload = failure_payload(op, error)

    payload["id"] = rid
    payload["ok"] = payload.get("status") != "error"
    payload["tenant"] = tenant if isinstance(tenant, str) else None
    return payload
