"""Tests for the skeleton S(D,T) and Lemmas 3–4 (Section 3.2)."""

import pytest

from repro.chase import chase
from repro.core.normalize import prepare
from repro.lf import Constant, Structure, atom, parse_structure, parse_theory
from repro.payloads import skeleton_payload
from repro.skeleton import (
    lemma3_report,
    skeleton,
    skeleton_of_chase,
    verify_lemma4,
)
from repro.vtdag import is_vtdag
from repro.zoo import theorem2_corpus

a, b = Constant("a"), Constant("b")


def skeleton_by_insertion(chase_result, database, theory):
    """S(D, T) built one checked fact at a time: the reference for
    :func:`skeleton_of_chase`'s single pass."""
    tgps = theory.tgp_predicates()
    kept = [
        fact
        for fact in chase_result.structure.facts()
        if fact in database.facts() or fact.pred in tgps
    ]
    return Structure(
        kept,
        domain=chase_result.structure.domain(),
        signature=chase_result.structure.signature,
    )

# Example 7's theory: one TGP (E... E is TGP; R is datalog-derived flesh)
EXAMPLE7 = parse_theory(
    """
    E(x,y) -> exists z. E(y,z)
    E(x,y), E(u,y) -> R(x,u)
    """
)
TREE = parse_theory(
    """
    F(x,y) -> exists z. F(y,z)
    F(x,y) -> exists z. G(y,z)
    G(x,y) -> exists z. F(y,z)
    G(x,y) -> exists z. G(y,z)
    F(x,y) -> B(x,y)
    G(x,y) -> B(x,y)
    """
)


class TestSkeletonExtraction:
    def test_database_atoms_kept(self):
        result = skeleton(parse_structure("E(a,b)"), EXAMPLE7, max_depth=5)
        assert atom("E", a, b) in result.structure

    def test_flesh_is_datalog_derived(self):
        result = skeleton(parse_structure("E(a,b)"), EXAMPLE7, max_depth=5)
        assert result.flesh
        assert all(fact.pred == "R" for fact in result.flesh)

    def test_tgp_atoms_kept(self):
        result = skeleton(parse_structure("E(a,b)"), EXAMPLE7, max_depth=5)
        tgp_atoms = [f for f in result.structure.facts() if f.pred == "E"]
        assert len(tgp_atoms) == 6  # E(a,b) + 5 chase rounds

    def test_domain_preserved(self):
        database = parse_structure("E(a,b)")
        chased = chase(database, EXAMPLE7, max_depth=5)
        result = skeleton_of_chase(chased, database, EXAMPLE7)
        assert result.structure.domain() == chased.structure.domain()

    def test_tree_skeleton_drops_b_atoms(self):
        result = skeleton(parse_structure("F(a,b)"), TREE, max_depth=3)
        assert result.tgp_predicates == {"F", "G"}
        assert not result.structure.facts_with_pred("B")
        assert all(fact.pred == "B" for fact in result.flesh)


class TestLemma3:
    def test_chain_skeleton(self):
        result = skeleton(parse_structure("E(a,b)"), EXAMPLE7, max_depth=6)
        report = lemma3_report(result)
        assert report.all_hold
        assert report.forest and report.acyclic and report.in_degree_at_most_one
        assert report.degree_observed <= report.degree_bound

    def test_tree_skeleton(self):
        result = skeleton(parse_structure("F(a,b)"), TREE, max_depth=4)
        report = lemma3_report(result)
        assert report.all_hold
        assert is_vtdag(result.structure)

    def test_degree_bound_matches_paper(self):
        # |Σ| + 1 with Σ the chase signature
        result = skeleton(parse_structure("F(a,b)"), TREE, max_depth=4)
        report = lemma3_report(result)
        assert report.degree_bound == len(result.structure.signature.relation_names()) + 1


    def test_verdicts_do_not_read_relation_names(self):
        # The same transitive DAG spelled with E and with a relation
        # named "cycle": acyclic, not a forest, under either name.
        blocks = []
        for name in ("E", "cycle"):
            theory = parse_theory(
                f"""
                A(x) -> exists z. {name}(x,z)
                {name}(x,y) -> A(y)
                {name}(x,y), {name}(y,w) -> {name}(x,w)
                """
            )
            result = skeleton(parse_structure("A(a)"), theory, max_depth=12)
            payload, _ = skeleton_payload(result, lemma3_report(result))
            blocks.append(payload["lemma3"])
        assert blocks[0] == blocks[1]
        assert blocks[0]["acyclic"] and not blocks[0]["forest"]


class TestLemma4:
    def test_chase_rebuilt_from_skeleton(self):
        result = skeleton(parse_structure("E(a,b)"), EXAMPLE7, max_depth=6)
        verdict, reason = verify_lemma4(result, EXAMPLE7)
        assert verdict, reason

    def test_tree_chase_rebuilt(self):
        result = skeleton(parse_structure("F(a,b)"), TREE, max_depth=4)
        verdict, reason = verify_lemma4(result, TREE)
        assert verdict, reason

    def test_broken_skeleton_detected(self):
        """Removing a single TGP atom breaks the rebuild (the paper's
        remark after Lemma 4: a new element would be created)."""
        result = skeleton(parse_structure("E(a,b)"), EXAMPLE7, max_depth=6)
        # drop a TGP atom deep in the chain but keep its elements
        tgp_atoms = sorted(
            (f for f in result.structure.facts() if f.pred == "E"), key=str
        )
        victim = tgp_atoms[len(tgp_atoms) // 2]
        result.structure.discard_fact(victim)
        verdict, reason = verify_lemma4(result, EXAMPLE7)
        assert not verdict
        assert "witness" in reason or "not rebuilt" in reason


class TestSinglePass:
    """The skeleton is built from the chase facts in one pass, without
    re-checking them: the same facts, domain and signature as inserting
    them one at a time."""

    @staticmethod
    def assert_matches(chased, database, theory):
        built = skeleton_of_chase(chased, database, theory).structure
        reference = skeleton_by_insertion(chased, database, theory)
        assert built.facts() == reference.facts()
        assert built.domain() == reference.domain()
        assert built.signature == reference.signature

    @pytest.mark.parametrize(
        "name, theory, database, query",
        theorem2_corpus(),
        ids=[name for name, *_ in theorem2_corpus()],
    )
    def test_corpus(self, name, theory, database, query):
        prepared = prepare(theory, query).theory
        self.assert_matches(chase(database, prepared, max_depth=8), database, prepared)

    def test_isolated_constant(self):
        database = Structure([atom("E", a, b)], domain=[Constant("c")])
        chased = chase(database, EXAMPLE7, max_depth=4)
        self.assert_matches(chased, database, EXAMPLE7)
        assert Constant("c") in skeleton_of_chase(chased, database, EXAMPLE7).structure.domain()
