"""Property suite: ``ChaseView.update`` ≡ full rechase.

The contract under fuzz (random add/retract streams):

* **datalog theories** — the restricted chase of a datalog theory is
  its unique minimal fixpoint, so the maintained view must equal a
  from-scratch rechase of the evolved base *fact for fact*, after
  every batch.
* **existential theories** — the restricted chase is not confluent
  under suppression, so only homomorphic equivalence is promised:
  whenever both sides saturate, the constants-only facts, Boolean
  verdicts, and certain answers must coincide (nulls may differ in
  number and name).
* **stats invariants** — the IncrStats counters are internally
  consistent on every update.
"""

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro.chase import (
    ChaseConfig,
    ChaseView,
    chase,
    chase_entails,
)
from repro.config import OnBudget
from repro.lf import Atom, Constant, Rule, Structure, Theory, Variable

from .strategies import bdd_theories, conjunctive_queries

#: Constants-only fact material: invented nulls never collide with it.
_consts = st.builds(Constant, st.sampled_from(["a", "b", "c", "d"]))
_X, _Y, _B = Variable("x"), Variable("y"), Constant("b")
_E_BA = Atom("E", (_B, Constant("a")))


@st.composite
def const_facts(draw):
    if draw(st.booleans()):
        return Atom(draw(st.sampled_from(["E", "R"])),
                    (draw(_consts), draw(_consts)))
    return Atom(draw(st.sampled_from(["U", "V"])), (draw(_consts),))


@st.composite
def datalog_rules(draw):
    """A safe datalog rule: head variables all come from the body."""
    body = tuple(draw(st.lists(
        st.builds(
            Atom,
            st.sampled_from(["E", "R"]),
            st.tuples(
                st.builds(Variable, st.sampled_from(["x", "y", "z"])),
                st.builds(Variable, st.sampled_from(["x", "y", "z"])),
            ),
        ),
        min_size=1, max_size=2,
    )))
    body_vars = sorted({v for a in body for v in a.variable_set()})
    head_pred = draw(st.sampled_from(["E", "R", "U"]))
    if head_pred == "U":
        head = Atom("U", (draw(st.sampled_from(body_vars)),))
    else:
        head = Atom(head_pred, (draw(st.sampled_from(body_vars)),
                                draw(st.sampled_from(body_vars))))
    return Rule(body, (head,))


@st.composite
def datalog_theories(draw):
    return Theory(draw(st.lists(datalog_rules(), min_size=1, max_size=3)))


#: A stream script: per batch, facts to add and indices used to pick
#: retractions out of the *current* base (evaluated at apply time, so
#: retracts always name live base facts).
scripts = st.lists(
    st.tuples(
        st.lists(const_facts(), max_size=3),
        st.lists(st.integers(min_value=0, max_value=31), max_size=2),
    ),
    min_size=1, max_size=4,
)


def _apply_script(view, base, script):
    """Drive *view* through *script*, yielding (result, base) per batch."""
    for adds, remove_picks in script:
        live = sorted(base, key=str)
        removes = []
        for pick in remove_picks:
            if not live:
                break
            victim = live[pick % len(live)]
            if victim not in removes:
                removes.append(victim)
        result = view.update(adds=adds, removes=removes)
        base.difference_update(removes)
        base.update(adds)
        assert view.base_facts() == frozenset(base)
        yield result, base


class TestDatalogParity:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(facts=st.lists(const_facts(), max_size=8),
           theory=datalog_theories(), script=scripts)
    def test_stream_equals_rechase(self, facts, theory, script):
        base = set(facts)
        view = ChaseView(Structure(base), theory,
                         max_depth=None, max_facts=50_000)
        assert view.saturated
        for result, current in _apply_script(view, base, script):
            assert result.saturated
            fresh = chase(Structure(current), theory,
                          ChaseConfig(max_depth=None, max_facts=50_000))
            assert fresh.saturated
            assert view.facts() == fresh.structure.facts()

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(facts=st.lists(const_facts(), max_size=8),
           theory=datalog_theories(), script=scripts)
    # Retracting E(b,a) loses U(b); the inserted R(b,c) brings it back
    # two rounds into the delta resume, which must report it as kept,
    # not removed (a view that rechased its base instead did not).
    @example(facts=[_E_BA],
             theory=Theory([Rule([Atom("R", (_X, _Y))], [Atom("E", (_X, _Y))]),
                            Rule([Atom("E", (_X, _Y))], [Atom("U", (_X,))])]),
             script=[([Atom("R", (_B, Constant("c")))], [0])])
    def test_stats_invariants(self, facts, theory, script):
        base = set(facts)
        view = ChaseView(Structure(base), theory,
                         max_depth=None, max_facts=50_000)
        for result, _current in _apply_script(view, base, script):
            stats = result.stats
            # everything rederived was first lost (removed or overdeleted)
            assert stats.rederived <= stats.overdeleted + stats.removes_in
            assert len(stats.delta_sizes) == len(stats.rounds)
            assert stats.resumed_rounds <= len(stats.rounds)
            assert stats.facts_added == sum(
                r.facts_added for r in stats.rounds)
            # the net delta reported by the update matches the view
            for fact in result.added:
                assert view.structure.has_fact(fact)
            for fact in result.removed:
                assert not view.structure.has_fact(fact)


class TestExistentialParity:
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.filter_too_much])
    @given(facts=st.lists(const_facts(), min_size=1, max_size=6),
           theory=bdd_theories(), script=scripts,
           query=conjunctive_queries())
    def test_homomorphic_equivalence(self, facts, theory, script, query):
        budget = dict(max_depth=None, max_facts=400,
                      on_budget=OnBudget.RETURN)
        base = set(facts)
        view = ChaseView(Structure(base), theory, **budget)
        assume(view.saturated)
        for result, current in _apply_script(view, base, script):
            assume(result.saturated)
            fresh = chase(Structure(current), theory, ChaseConfig(**budget))
            assume(fresh.saturated)
            # constants-only facts coincide (nulls may differ)
            ours = {f for f in view.facts()
                    if all(isinstance(t, Constant) for t in f.args)}
            theirs = {f for f in fresh.structure.facts()
                      if all(isinstance(t, Constant) for t in f.args)}
            assert ours == theirs
            # Boolean verdicts coincide
            assert view.certain_one(query).verdict == chase_entails(
                fresh, query)
