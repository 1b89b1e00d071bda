"""The unified config contract: OnBudget, BudgetedConfig, overrides.

One budget vocabulary across the chase, the rewriter, and the
pipeline — enum members or their string values, accepted silently.
"""

import dataclasses

import pytest

from repro.chase import ChaseConfig, chase
from repro.config import BudgetedConfig, OnBudget, coerce_enum
from repro.core import PipelineConfig, build_finite_counter_model
from repro.fc import SearchHeuristic
from repro.lf import parse_query, parse_structure, parse_theory
from repro.rewriting import RewriteConfig, rewrite


class TestOnBudget:
    def test_members_compare_equal_to_their_strings(self):
        # str subclassing keeps existing `== "raise"` call sites valid.
        assert OnBudget.RAISE == "raise"
        assert OnBudget.RETURN == "return"

    def test_coerce_passes_members_through_silently(self):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            member = coerce_enum(OnBudget.RAISE, OnBudget, "on_budget")
        assert member is OnBudget.RAISE

    def test_coerce_rejects_unknown_values(self):
        with pytest.raises(ValueError, match="on_budget"):
            coerce_enum("explode", OnBudget, "on_budget")
        with pytest.raises(ValueError, match="on_budget"):
            coerce_enum(7, OnBudget, "on_budget")

    def test_coerce_enum_without_deprecation_is_silent(self):
        import warnings
        cases = [
            ("dfs", SearchHeuristic, "heuristic", SearchHeuristic.DFS),
            ("return", OnBudget, "on_budget", OnBudget.RETURN),
        ]
        for value, enum_cls, field, expected in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                member = coerce_enum(value, enum_cls, field)
            assert member is expected


@pytest.mark.parametrize(
    "config_cls, default",
    [
        (ChaseConfig, OnBudget.RETURN),
        (RewriteConfig, OnBudget.RAISE),
        (PipelineConfig, OnBudget.RAISE),
    ],
)
class TestSharedContract:
    def test_defaults(self, config_cls, default):
        config = config_cls()
        assert isinstance(config, BudgetedConfig)
        assert config.on_budget is default
        assert config.should_raise is (default is OnBudget.RAISE)

    def test_legacy_strings_accepted_with_warning(self, config_cls, default):
        config = config_cls(on_budget="raise")
        assert config.on_budget is OnBudget.RAISE
        assert config.should_raise

    def test_with_overrides_returns_validated_copy(self, config_cls, default):
        config = config_cls()
        other = OnBudget.RETURN if default is OnBudget.RAISE else OnBudget.RAISE
        copy = config.with_overrides(on_budget=other)
        assert copy is not config
        assert copy.on_budget is other
        assert config.on_budget is default  # original untouched
        assert dataclasses.replace(config) is not config

    def test_with_overrides_rejects_unknown_fields(self, config_cls, default):
        with pytest.raises(TypeError):
            config_cls().with_overrides(no_such_field=1)

    def test_with_overrides_without_arguments_is_identity(self, config_cls, default):
        config = config_cls()
        assert config.with_overrides() is config


class TestEnginesHonorThePolicy:
    def test_chase_returns_partial_by_default(self):
        database = parse_structure("E(a,b)")
        theory = parse_theory("E(x,y) -> exists z. E(y,z)")
        result = chase(database, theory, ChaseConfig(max_facts=3, max_depth=None))
        assert not result.saturated

    def test_chase_raises_when_asked(self):
        from repro.errors import ChaseBudgetExceeded

        database = parse_structure("E(a,b)")
        theory = parse_theory("E(x,y) -> exists z. E(y,z)")
        config = ChaseConfig(max_facts=3, max_depth=None,
                             on_budget=OnBudget.RAISE)
        with pytest.raises(ChaseBudgetExceeded):
            chase(database, theory, config)

    def test_rewrite_return_policy_reports_unsaturated(self):
        # transitive closure with free endpoints: the rewriting expands
        # to paths of every length, so a 1-step budget cannot saturate
        theory = parse_theory("E(x,y), E(y,z) -> E(x,z)")
        config = RewriteConfig(max_steps=1, on_budget=OnBudget.RETURN)
        result = rewrite(parse_query("E(u,v)", free=["u", "v"]), theory, config)
        assert not result.saturated

    def test_pipeline_return_policy_yields_partial_result(self):
        # An impossible schedule: with RETURN the pipeline hands back
        # the result object (model=None, reasons in attempts) instead
        # of raising PipelineError.
        theory = parse_theory("E(x,y) -> exists z. E(y,z)")
        database = parse_structure("E(a,b)")
        query = parse_query("E(x,x)")
        config = PipelineConfig(chase_depths=(2,), on_budget=OnBudget.RETURN)
        result = build_finite_counter_model(theory, database, query, config)
        assert result.model is None
        assert not result.query_certain
        assert result.attempts
