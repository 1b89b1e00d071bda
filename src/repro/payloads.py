"""The machine-readable result surface shared by the CLI and the server.

``repro --json`` and ``repro serve`` describe the same run with
byte-identical payloads: both run the request through
:func:`repro.serve.jobs.execute_request`, whose ops build their
payloads here, with the exit-code table and the guard-stop mapping.
:mod:`repro.cli` prints them to stdout and :mod:`repro.serve` writes
them to sockets.

Every builder takes an engine result and returns ``(payload, code)``:
the JSON-able dict (without ``exit_code`` — the emitter stamps that)
and the exit code from the shared table.  The payload keys are pinned
by ``tests/test_cli_json.py``; change them only with a migration story
for both front-ends.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from .runtime import StopReason

#: Exit codes (see the :mod:`repro.cli` docstring table).
EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCOMPLETE = 2
EXIT_NO_COUNTERMODEL = 3
#: The conventional 128+SIGINT code: the run was cooperatively cancelled.
EXIT_INTERRUPTED = 130

Payload = Dict[str, Any]

#: Keys of the stats blocks that are *not* a pure function of the
#: request: every engine's wall times, and the plan-cache counters,
#: which depend on what ran earlier in the process (a rule's plans are
#: fetched on its first use only).  Consumers comparing runs strip them.
TIMING_FIELDS = (
    "wall_ms",
    "plans_compiled",
    "plan_cache_hits",
    "plan_cache_misses",
    "plan_requests",
    "materialise_ms",
    "saturate_ms",
    "canonical_ms",
    "query_ms",
    "expand_ms",
    "rewrite_ms",
    "factor_ms",
    "subsume_ms",
    "minimize_ms",
)


def stop_code(stopped_reason, default: int) -> int:
    """Map a guard stop onto the exit-code table (guards win over *default*)."""
    if stopped_reason == StopReason.CANCELLED:
        return EXIT_INTERRUPTED
    if stopped_reason in (StopReason.DEADLINE, StopReason.MEMORY):
        return EXIT_INCOMPLETE
    return default


def stats_dict(stats) -> "Optional[Dict[str, Any]]":
    return stats.as_dict() if stats is not None else None


def chase_payload(result) -> Tuple[Payload, int]:
    """``chase``: one-shot fixpoint (``ChaseResult``)."""
    status = "saturated" if result.saturated else "truncated"
    code = stop_code(result.stopped_reason, EXIT_OK)
    payload = {
        "command": "chase",
        "status": status,
        "stopped_reason": result.stopped_reason,
        "counts": {
            "depth": result.depth,
            "facts": len(result.structure),
            "elements": result.structure.domain_size,
            "invented": len(result.new_elements),
        },
        "facts": [str(f) for f in result.structure.sorted_facts()],
        "stats": stats_dict(result.stats),
    }
    return payload, code


def incremental_chase_payload(view, results) -> Tuple[Payload, int]:
    """``chase --incremental``: a maintained view after *results* updates."""
    status = "saturated" if view.saturated else "truncated"
    code = stop_code(view.stopped_reason, EXIT_OK)
    payload = {
        "command": "chase",
        "mode": "incremental",
        "status": status,
        "stopped_reason": view.stopped_reason,
        "counts": {
            "depth": view.depth,
            "facts": len(view),
            "elements": view.structure.domain_size,
            "base_facts": len(view.base_facts()),
            "updates": len(results),
        },
        "updates": [r.stats.as_dict() for r in results],
        "facts": [str(f) for f in view.structure.sorted_facts()],
        "stats": stats_dict(view.initial_result.stats),
    }
    return payload, code


def certain_payload(report) -> Tuple[Payload, int]:
    """``certain``: a :class:`~repro.chase.certain.CertainReport`."""
    verdict = {True: "certain", False: "not-certain", None: "unknown"}[report.verdict]
    code = EXIT_OK if report.verdict is not None else EXIT_INCOMPLETE
    code = stop_code(report.result.stopped_reason, code)
    rows = sorted(report.answers, key=str)
    payload = {
        "command": "certain",
        "status": verdict,
        "stopped_reason": report.result.stopped_reason,
        "complete": report.complete,
        "counts": {
            "answers": len(report.answers),
            "depth": report.result.depth,
            "facts": len(report.result.structure),
        },
        "answers": [[str(value) for value in row] for row in rows],
        "stats": stats_dict(report.stats),
    }
    return payload, code


def rewrite_payload(result) -> Tuple[Payload, int]:
    """``rewrite``: a :class:`~repro.rewriting.RewritingResult`."""
    code = EXIT_OK if result.saturated else EXIT_INCOMPLETE
    code = stop_code(result.stopped_reason, code)
    payload = {
        "command": "rewrite",
        "status": "saturated" if result.saturated else "budget-exhausted",
        "stopped_reason": result.stopped_reason,
        "counts": {
            "disjuncts": len(result.ucq),
            "steps": result.steps,
            "generated": result.generated,
            "max_width": result.max_width,
            "depth_bound": result.depth_bound,
        },
        "disjuncts": [str(d) for d in result.ucq],
        "stats": stats_dict(result.stats),
    }
    return payload, code


def classify_payload(profile) -> Tuple[Payload, int]:
    """``classify``: the syntactic-class profile dict."""
    payload = {
        "command": "classify",
        "status": "ok",
        "counts": {"classes": len(profile)},
        "profile": {name: bool(verdict) for name, verdict in profile.items()},
    }
    return payload, EXIT_OK


def countermodel_payload(result) -> Tuple[Payload, int]:
    """``countermodel``: a pipeline :class:`~repro.core.FiniteModelResult`.

    A run stopped before a verdict (``on_budget=RETURN``) holds neither
    a model nor a certain query: its status is ``incomplete``.
    """
    if result.query_certain:
        status, code = "query-certain", EXIT_NO_COUNTERMODEL
    elif result.model is not None:
        status, code = "model-found", EXIT_OK
    else:
        status = "incomplete"
        code = stop_code(result.stopped_reason, EXIT_INCOMPLETE)
    payload = {
        "command": "countermodel",
        "status": status,
        "stopped_reason": result.stopped_reason,
        "counts": {
            "model_size": result.model_size,
            "kappa": result.kappa,
            "eta": result.eta,
            "depth": result.depth,
            "skeleton_size": result.skeleton_size,
            "interior_size": result.interior_size,
            "attempts": len(result.attempts),
        },
        "facts": (
            [str(f) for f in result.model.sorted_facts()]
            if result.model is not None
            else []
        ),
        "stats": [s.as_dict() for s in result.chase_stats],
    }
    return payload, code


def fc_search_payload(outcome) -> Tuple[Payload, int]:
    """``fc-search``: a :class:`~repro.fc.SearchResult`."""
    stats = outcome.stats
    if outcome.found:
        status, code = "model-found", EXIT_OK
    elif stats.exhausted:
        status, code = "exhausted-no-model", EXIT_NO_COUNTERMODEL
    else:
        status, code = "budget-exhausted", EXIT_INCOMPLETE
    code = stop_code(outcome.stopped_reason, code)
    payload = {
        "command": "fc-search",
        "status": status,
        "stopped_reason": outcome.stopped_reason,
        "counts": {
            "nodes": stats.nodes,
            "duplicates": stats.duplicates,
            "pruned_by_query": stats.pruned_by_query,
            "model_size": (
                outcome.model.domain_size if outcome.model is not None else 0
            ),
        },
        "facts": (
            [str(f) for f in outcome.model.sorted_facts()]
            if outcome.model is not None
            else []
        ),
        "stats": stats_dict(stats),
    }
    return payload, code


def skeleton_payload(result, report) -> Tuple[Payload, int]:
    """``skeleton``: the S(D,T) extraction plus its Lemma-3 report."""
    code = EXIT_OK if report.all_hold else EXIT_INCOMPLETE
    payload = {
        "command": "skeleton",
        "status": "lemma3-holds" if report.all_hold else "lemma3-violated",
        "counts": {
            "skeleton_atoms": len(result.structure),
            "elements": result.structure.domain_size,
            "flesh_atoms": len(result.flesh),
            "degree_observed": report.degree_observed,
            "degree_bound": report.degree_bound,
        },
        "lemma3": {
            "forest": report.forest,
            "acyclic": report.acyclic,
            "in_degree_at_most_one": report.in_degree_at_most_one,
            "vtdag": report.vtdag,
        },
        "facts": [str(f) for f in result.structure.sorted_facts()],
    }
    return payload, code
