"""Integration: the paper's narrative, executed end to end.

Each test tells one of the paper's stories with the real machinery —
these are the executable versions of the prose arguments in Sections
2.1, 3.2–3.3, and 5.5.
"""

from repro.chase import certain_boolean, chase, chase_with_embargo, datalog_saturate, is_model
from repro.coloring import natural_coloring
from repro.lf import parse_structure, satisfies, structure_homomorphism
from repro.ptypes import TypePartition, quotient
from repro.skeleton import lemma3_report, skeleton, verify_lemma4
from repro.vtdag import is_vtdag
from repro.zoo import (
    example1_database,
    example1_theory,
    example1_triangle,
    example7_database,
    example7_theory,
    example9_database,
    example9_theory,
    section55_database,
    section55_query,
    section55_theory,
)

from ..oracles import rule_violations


class TestSection21Story:
    """Why the naive homomorphic image fails (Section 2.1 / Example 1)."""

    def test_triangle_is_homomorphic_image_of_chase(self):
        chased = chase(example1_database(), example1_theory(), max_depth=6)
        mapping = structure_homomorphism(chased.structure, example1_triangle())
        assert mapping is not None

    def test_image_not_model_chase_diverges(self):
        triangle = example1_triangle()
        assert not is_model(triangle, example1_theory())
        rechased = chase(triangle, example1_theory(), max_depth=6)
        assert not rechased.saturated
        assert rechased.structure.facts_with_pred("U")

    def test_chase_never_has_u(self):
        chased = chase(example1_database(), example1_theory(), max_depth=8)
        assert not chased.structure.facts_with_pred("U")


class TestSection32Story:
    """The skeleton: simple enough to be a VTDAG, rich enough to rebuild
    the chase (Definitions 12, Lemmas 3 and 4)."""

    def test_skeleton_properties_all_examples(self):
        for theory, database in (
            (example1_theory(), example1_database()),
            (example7_theory(), example7_database()),
            (example9_theory(), example9_database()),
        ):
            result = skeleton(database, theory, max_depth=4)
            report = lemma3_report(result)
            assert report.all_hold, report.details
            assert is_vtdag(result.structure)
            verdict, reason = verify_lemma4(result, theory)
            assert verdict, reason


class TestSection33Story:
    """Example 8: datalog saturation on the quotient derives atoms that
    are not projections of chase atoms, yet needs no new elements
    (Lemma 5)."""

    def test_example8_new_datalog_derivations(self):
        theory, database = example7_theory(), example7_database()
        chased = chase(database, theory, max_depth=14)
        skel = skeleton(database, theory, max_depth=14)
        colored = natural_coloring(skel.structure, 3)
        from repro.ptypes.partition import TypePartition
        from repro.lf import Null

        # interior deep enough that two same-hue same-type chain levels
        # both fit (hue period 5 for m = 3: levels 5 and 10 merge)
        interior = {
            e for e in skel.structure.domain()
            if not isinstance(e, Null) or e.level <= 10
        }
        partition = TypePartition(colored.structure, 3, elements=interior)
        quotiented = quotient(colored.structure, 3, partition=partition)
        stripped = quotiented.structure.restrict_signature(
            colored.base_relations
        )
        # q_eta(Chase): the projection of chase facts over the interior
        projected_flesh = {
            fact.substitute(quotiented.projection)
            for fact in chased.structure.facts_with_pred("R")
            if all(arg in quotiented.projection for arg in fact.args)
        }
        # the saturation derives R-atoms beyond the projections
        saturated = datalog_saturate(stripped, theory).structure
        new_atoms = saturated.facts_with_pred("R") - projected_flesh
        assert new_atoms, "Example 8 expects extra datalog derivations"
        # ...but Lemma 5: the full chase needs no new elements
        final = chase_with_embargo(stripped, theory)
        assert final.saturated


class TestSection55Story:
    """The non-FC theory: chase avoids Φ, every finite model has it."""

    def test_chase_avoids_phi(self):
        verdict = certain_boolean(
            section55_database(),
            section55_theory(),
            section55_query().boolean(),
            max_depth=10,
        )
        assert verdict is not True

    def test_r_atoms_follow_doubling_pattern(self):
        """Chase has R(a_i, a_{2i}): spot-check the first few."""
        chased = chase(section55_database(), section55_theory(), max_depth=9)
        r_facts = chased.structure.facts_with_pred("R")
        # R(a0,a0) given; rule walks (x,y) -> (x+1, y+2)
        assert len(r_facts) >= 4

    def test_paper_finite_model_argument(self):
        """Build the cycle model by hand and replay the paper's proof
        that Φ becomes true."""
        theory = section55_theory()
        # a lasso: a0 -> a1 -> a2 -> a3 -> a1  (m=1, n=3)
        model = parse_structure(
            """
            E(a0,a1)
            E(a1,a2)
            E(a2,a3)
            E(a3,a1)
            R(a0,a0)
            """
        )
        saturated = datalog_saturate(model, theory).structure
        assert list(rule_violations(saturated, theory)) == []
        assert satisfies(saturated, section55_query().boolean())
