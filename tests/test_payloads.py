"""Payload builders: the status and exit code an engine result maps to."""

import pytest

from repro.core.finite_model import PipelineConfig, build_finite_counter_model
from repro.lf import parse_query, parse_structure, parse_theory
from repro.payloads import EXIT_INCOMPLETE, countermodel_payload
from repro.runtime import StopReason


@pytest.mark.parametrize("overrides, reason", [
    ({"wall_ms": 0}, StopReason.DEADLINE),
    ({"chase_depths": (1,)}, StopReason.BUDGET),
])
def test_countermodel_stopped_without_a_model_is_incomplete(overrides, reason):
    # on_budget=RETURN hands back a result that has neither a model
    # nor a certain query; neither surface runs the pipeline this way
    result = build_finite_counter_model(
        parse_theory("E(x,y) -> exists z. E(y,z)"),
        parse_structure("E(a,b)"),
        parse_query("E(x,x)"),
        config=PipelineConfig(on_budget="return", **overrides),
    )
    assert result.model is None
    assert not result.query_certain
    payload, code = countermodel_payload(result)
    assert payload["status"] == "incomplete"
    assert payload["stopped_reason"] == reason
    assert payload["facts"] == []
    assert code == EXIT_INCOMPLETE
