"""Worker-side request execution: validate, build configs, run engines.

Every job runs on a pool thread under its own per-request
:class:`~repro.runtime.RuntimeGuard`: the effective ``wall_ms`` is the
request's ``params.wall_ms`` (else the server's default SLA), the
``max_rss_mb`` ceiling is shared, and the :class:`CancelToken` handed
in by the event loop is tripped by an explicit ``cancel`` op or by the
client disconnecting.  Engines run with
:attr:`~repro.config.OnBudget.RETURN`, so a tripped guard degrades to
the same partial payload the CLI would print — the response is the CLI
``--json`` object (built by :mod:`repro.payloads`) plus the envelope
keys ``id``, ``ok``, ``tenant`` (and ``cached`` on artifact-cache
hits).

Protocol ops
------------
``ping``           liveness round-trip through the pool
``chase``          one-shot chase (``theory``, ``database``)
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
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from .. import payloads
from ..errors import BudgetError, ReproError
from ..payloads import EXIT_ERROR, EXIT_INCOMPLETE, EXIT_OK, stop_code
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


def _field(request: Dict[str, Any], name: str) -> str:
    value = request.get(name)
    if not isinstance(value, str) or not value.strip():
        raise RequestError(f"request needs a non-empty string {name!r} field")
    return value


def _params(request: Dict[str, Any]) -> Dict[str, Any]:
    params = request.get("params") or {}
    if not isinstance(params, dict):
        raise RequestError("params must be a JSON object")
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


def _op_chase(session, request, params, guard):
    from ..chase import ChaseConfig, chase

    theory = session.theory(_field(request, "theory"))
    database = session.database(_field(request, "database"))
    config = ChaseConfig(max_depth=_int_param(params, "depth", 8), **guard)
    return payloads.chase_payload(chase(database, theory, config))


def _op_certain(session, request, params, guard):
    from ..chase import ChaseConfig, certain_report

    theory = session.theory(_field(request, "theory"))
    database = session.database(_field(request, "database"))
    query = session.query(_field(request, "query"), _free(request))
    # Mirrors the CLI's certain defaults exactly (parity battery).
    config = ChaseConfig(
        max_depth=_int_param(params, "depth", 12),
        max_facts=200_000,
        max_elements=None,
        **guard,
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
    max_steps = _int_param(params, "max_steps", 20_000)
    max_queries = _int_param(params, "max_queries", 2_000)

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


def _op_fc_search(session, request, params, guard):
    from ..fc import SearchConfig, search_finite_model

    theory = session.theory(_field(request, "theory"))
    database = session.database(_field(request, "database"))
    forbidden = None
    if request.get("query") is not None:
        forbidden = session.query(_field(request, "query"), _free(request))
    max_elements = _int_param(params, "max_elements", 10)
    max_nodes = _int_param(params, "max_nodes", 50_000)
    config = SearchConfig(
        max_elements=max_elements,
        max_nodes=max_nodes,
        heuristic=params.get("heuristic", "dfs"),
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
    return _field(request, "view")


def _view_counts(view) -> Dict[str, int]:
    return {
        "depth": view.depth,
        "facts": len(view),
        "elements": view.structure.domain_size,
        "base_facts": len(view.base_facts()),
    }


def _op_view_create(session: TheorySession, request, params, guard):
    from ..chase import ChaseView, IncrementalConfig

    name = _view_name(request)
    theory = session.theory(_field(request, "theory"))
    database = session.database(_field(request, "database"))
    config = IncrementalConfig(max_depth=_int_param(params, "depth", 8), **guard)
    view = ChaseView(database, theory, config)
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


JOB_HANDLERS = {
    "ping": _op_ping,
    "chase": _op_chase,
    "certain": _op_certain,
    "rewrite": _op_rewrite,
    "classify": _op_classify,
    "countermodel": _op_countermodel,
    "fc-search": _op_fc_search,
    "skeleton": _op_skeleton,
    "view-create": _op_view_create,
    "view-update": _op_view_update,
    "view-query": _op_view_query,
    "view-close": _op_view_close,
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

    def failure(error: BaseException, code: int) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "command": op,
            "status": "error",
            "error": str(error),
            "exit_code": code,
        }
        if isinstance(error, BudgetError):
            payload["stopped_reason"] = error.stopped_reason
        return payload

    try:
        hook = _serve_fault_hook
        if hook is not None:
            hook(request, token)
        if not isinstance(tenant, str) or not tenant:
            raise RequestError("tenant must be a non-empty string")
        if op == "session-close":
            payload: Dict[str, Any] = {
                "command": "session-close",
                "status": "closed" if registry.close(tenant) else "not-found",
                "counts": {"sessions": len(registry)},
            }
            code = EXIT_OK
        else:
            handler = JOB_HANDLERS.get(op)
            if handler is None:
                raise RequestError(f"unknown op {op!r}")
            session = registry.get(tenant)
            session.requests += 1
            params = _params(request)
            guard = _guard_fields(params, config, token, deadline)
            payload, code = handler(session, request, params, guard)
            payload["exit_code"] = code
    except (ReproError, OSError, ValueError, TypeError, KeyError) as error:
        payload, code = failure(error, EXIT_ERROR), EXIT_ERROR

    payload["id"] = rid
    payload["ok"] = payload.get("status") != "error"
    payload["tenant"] = tenant if isinstance(tenant, str) else None
    return payload
