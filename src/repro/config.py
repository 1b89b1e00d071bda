"""The unified configuration contract shared by every engine.

Every long-running engine in the library — the chase
(:class:`repro.chase.ChaseConfig`), the UCQ rewriter
(:class:`repro.rewriting.RewriteConfig`), the Theorem-2 pipeline
(:class:`repro.core.PipelineConfig`), and the finite-model search
(:class:`repro.fc.SearchConfig`) — runs under *budgets* (the
underlying problems are undecidable, so budgets are unavoidable) and
must decide what to do when a budget is hit.  This module is the one
place that contract lives:

* :class:`OnBudget` — the two budget policies, as an enum.  Its string
  values ``"return"`` / ``"raise"`` are accepted everywhere too, the
  way every enum-typed config field accepts its values
  (:func:`coerce_enum`).
* :class:`BudgetedConfig` — the dataclass base of the config
  dataclasses, giving them the shared surface:
  :attr:`~BudgetedConfig.should_raise`,
  :meth:`~BudgetedConfig.with_overrides` (a type-checked
  ``dataclasses.replace`` that re-runs validation, replacing the old
  fragile ``{**config.__dict__, **overrides}`` merges), and the
  **runtime-guard fields** shared by every engine
  (:mod:`repro.runtime`): :attr:`~BudgetedConfig.wall_ms` (monotonic
  wall-clock deadline), :attr:`~BudgetedConfig.max_rss_mb` (soft peak
  RSS ceiling), :attr:`~BudgetedConfig.cancel_token` (cooperative
  cancellation), and :attr:`~BudgetedConfig.deadline` (an
  already-ticking deadline).  A config that sets none of them runs
  under the shared inactive guard.

Every engine entry point takes its budgets from one place: its config
(``None`` selects the entry point's default config), with any keyword
``**overrides`` applied on top by :meth:`~BudgetedConfig.with_overrides`,
so ``chase(D, T, config, max_depth=3)`` runs *config* with three rounds.
An engine that runs another engine hands it its guard
(:meth:`repro.runtime.RuntimeGuard.fields`): one deadline, cancel token
and memory ceiling bound the whole run.

Hitting any guard obeys the same :class:`OnBudget` policy as the count
budgets: ``RETURN`` yields a partial result whose ``stopped_reason``
names the cause, ``RAISE`` raises the matching typed exception
(:class:`~repro.errors.DeadlineExceeded`,
:class:`~repro.errors.Cancelled`,
:class:`~repro.errors.MemoryBudgetExceeded`) carrying the partial
stats snapshot.

Because :class:`OnBudget` subclasses :class:`str`, existing comparisons
such as ``config.on_budget == "raise"`` keep working unchanged.
"""

from __future__ import annotations

import dataclasses
from enum import Enum
from typing import TYPE_CHECKING, Any, Optional, Type, TypeVar

if TYPE_CHECKING:  # pragma: no cover
    from .runtime.guard import CancelToken, Deadline

E = TypeVar("E", bound="Enum")
C = TypeVar("C", bound="BudgetedConfig")


def coerce_enum(value: Any, enum_cls: "Type[E]", field_name: str) -> E:
    """Normalise *value* to a member of *enum_cls*.

    Enum members pass through; strings are looked up by value (raising
    ``ValueError`` with the allowed values on a miss).
    """
    if isinstance(value, enum_cls):
        return value
    if isinstance(value, str):
        try:
            return enum_cls(value)
        except ValueError:
            allowed = ", ".join(repr(m.value) for m in enum_cls)
            raise ValueError(
                f"{field_name} must be one of {allowed}, got {value!r}"
            ) from None
    raise ValueError(
        f"{field_name} must be a {enum_cls.__name__} (or its string value), "
        f"got {value!r}"
    )


class OnBudget(str, Enum):
    """What an engine does when it exhausts a budget.

    Attributes
    ----------
    RETURN:
        Stop quietly and return a partial result flagged as incomplete
        (``saturated=False`` / ``model=None`` depending on the engine).
    RAISE:
        Raise the engine's budget exception
        (:class:`~repro.errors.ChaseBudgetExceeded`,
        :class:`~repro.errors.RewritingBudgetExceeded`,
        :class:`~repro.errors.PipelineError`) — or, when a runtime
        guard tripped, the matching
        :class:`~repro.errors.DeadlineExceeded` /
        :class:`~repro.errors.Cancelled` /
        :class:`~repro.errors.MemoryBudgetExceeded`.  All carry the
        engine's stats snapshot on ``.stats``.
    """

    RETURN = "return"
    RAISE = "raise"


@dataclasses.dataclass
class BudgetedConfig:
    """Dataclass base giving engine configs the shared budget surface.

    Subclasses redeclare ``on_budget`` to pick their engine's default
    policy; their ``__post_init__`` must call
    ``super().__post_init__()`` so the ``on_budget`` coercion and the
    guard validation run.

    Attributes
    ----------
    on_budget:
        What to do when any budget — count-based or guard-based — is
        hit (:class:`OnBudget`).
    wall_ms:
        Monotonic wall-clock budget for the whole run, in milliseconds
        (``None`` = no deadline).  Checked at every engine checkpoint
        by the run's :class:`~repro.runtime.RuntimeGuard`.
    deadline:
        An already-ticking :class:`~repro.runtime.Deadline` to run
        under instead of starting a fresh ``wall_ms`` budget.  This is
        how ``repro serve`` makes queue time count: the admission layer
        starts the deadline when a request is *admitted*, and the
        worker's guard inherits it, so a request that waited 400ms of a
        500ms SLA has 100ms of engine budget left.  When set it wins
        over ``wall_ms``.
    max_rss_mb:
        Soft ceiling on the process's peak RSS in MiB (``None`` = no
        ceiling).  Polled cheaply every few checkpoints via
        ``resource.getrusage``; degrades to a partial result.
    cancel_token:
        A :class:`~repro.runtime.CancelToken` polled at every
        checkpoint (``None`` = not cancellable).
    """

    on_budget: OnBudget = OnBudget.RETURN
    wall_ms: "Optional[float]" = None
    max_rss_mb: "Optional[float]" = None
    cancel_token: "Optional[CancelToken]" = None
    deadline: "Optional[Deadline]" = None

    def __post_init__(self) -> None:
        self.on_budget = coerce_enum(self.on_budget, OnBudget, "on_budget")
        if self.deadline is not None and not hasattr(self.deadline, "expired"):
            raise ValueError(
                f"deadline must be a repro.runtime.Deadline, got "
                f"{self.deadline!r}"
            )
        if self.wall_ms is not None and self.wall_ms < 0:
            raise ValueError(f"wall_ms must be >= 0, got {self.wall_ms}")
        if self.max_rss_mb is not None and self.max_rss_mb <= 0:
            raise ValueError(f"max_rss_mb must be > 0, got {self.max_rss_mb}")

    @property
    def should_raise(self) -> bool:
        """Whether hitting a budget raises (vs returning a partial result)."""
        return self.on_budget is OnBudget.RAISE

    def with_overrides(self: "C", **overrides: Any) -> "C":
        """A copy with the given fields replaced.

        Built on :func:`dataclasses.replace`, so unknown field names
        raise ``TypeError`` and the subclass's ``__post_init__``
        re-validates the merged result.  With no overrides the instance
        itself is returned (configs are treated as immutable by
        convention).
        """
        if not overrides:
            return self
        return dataclasses.replace(self, **overrides)
