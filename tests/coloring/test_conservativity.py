"""Tests for conservativity (Def. 8, 9) and the (♠2)/(♠3) distinction."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConservativityError
from repro.lf import Constant, Null, Structure, atom
from repro.lf.homomorphism import satisfies
from repro.coloring import (
    Color,
    apply_coloring,
    conservativity_report,
    cyclic_coloring,
    find_conservative,
    is_conservative,
    natural_coloring,
    spade3_holds,
)
from repro.ptypes import quotient
from repro.ptypes.ptype import boolean_type_queries, type_queries

from ..property.strategies import structures

n = [Null(i) for i in range(40)]


def report_by_element(colored, n, m, prebuilt=None):
    """``(conservative, witness_element, witness_query)`` of the report
    with every member of every fiber checked, whatever m and n are: the
    reference for the report's least-member shortcut."""
    quotiented = prebuilt if prebuilt is not None else quotient(colored.structure, n)
    base = quotiented.structure.restrict_signature(colored.base_relations)
    source = colored.structure
    for sentence in boolean_type_queries(base, m - 1):
        if not satisfies(source, sentence):
            return False, None, sentence
    fibers = {}
    for element in source.domain():
        if element in quotiented.projection:
            fibers.setdefault(quotiented.project(element), []).append(element)
    for image in sorted(fibers, key=str):
        queries = type_queries(base, image, m)
        for element in sorted(fibers[image], key=str):
            for query in queries:
                if not satisfies(source, query, {query.free[0]: element}):
                    return False, element, query
    return True, None, None


def report_summary(report):
    """The verdict and witness of a :class:`ConservativityReport`."""
    return report.conservative, report.witness_element, report.witness_query


def chain(length):
    return Structure(atom("E", n[i], n[i + 1]) for i in range(length))


def total_order(size):
    return Structure(
        atom("E", n[i], n[j]) for i in range(size) for j in range(i + 1, size)
    )


class TestExample4:
    """The colored chain: conservative up to m with m+1 colors, not m+1."""

    def test_conservative_up_to_m(self):
        colored = cyclic_coloring(chain(25), 3)
        assert is_conservative(colored, n=4, m=2)

    def test_not_conservative_one_size_up(self):
        colored = cyclic_coloring(chain(25), 3)
        report = conservativity_report(colored, n=6, m=3)
        assert not report.conservative
        # the witness is the (m+1)-cycle the projection created
        assert report.witness_query is not None
        assert len([a for a in report.witness_query.atoms if not a.is_equality]) >= 3

    def test_small_n_fails(self):
        """Example 4's last paragraph: n < m breaks preservation."""
        colored = cyclic_coloring(chain(25), 3)
        assert not is_conservative(colored, n=1, m=2)

    def test_more_colors_allow_bigger_m(self):
        colored = cyclic_coloring(chain(30), 5)
        assert is_conservative(colored, n=6, m=4)


class TestExample3:
    def test_uncolored_chain_not_conservative(self):
        trivial = apply_coloring(
            chain(12), {e: Color(0, 0) for e in chain(12).domain()}
        )
        report = conservativity_report(trivial, n=3, m=1)
        assert not report.conservative
        # Example 3's failure: a reflexive E-atom becomes visible
        assert "E" in str(report.witness_query)


class TestExample5:
    def test_chain_is_ptp_conservative(self):
        """Example 5: for each m, the natural coloring works."""
        for m in (1, 2):
            witness = find_conservative(chain(20), m)
            assert witness.n >= m
            assert witness.quotient.size < 21

    def test_find_conservative_reports_attempts(self):
        witness = find_conservative(chain(20), 2)
        assert witness.attempts[-1] == witness.n


class TestExample6:
    """The total order: no bounded-palette coloring is conservative.

    Finite rendition of the paper's infinite statement: for a *fixed*
    palette and quotient parameter, a long enough order must merge two
    comparable elements, creating the reflexive edge ``E(y, y)`` that
    no element of an irreflexive order satisfies.  (On a *short* order
    the boundary effects of positive types can distinguish everything,
    so the length must outgrow the palette.)
    """

    def test_bounded_palette_fails(self):
        for palette in (2, 3):
            colored = cyclic_coloring(total_order(4 * palette), palette)
            report = conservativity_report(colored, n=2, m=1)
            assert not report.conservative
            # the witness is the reflexive edge E(y, y)
            assert "E(y, y)" in str(report.witness_query)

    def test_search_fails_with_cyclic_coloring(self):
        order = total_order(12)
        with pytest.raises(ConservativityError):
            find_conservative(order, m=1, n_start=1, n_max=2,
                              coloring=cyclic_coloring(order, 3))

    def test_short_order_is_degenerately_fine(self):
        """Control: on a short order the quotient is the identity and
        conservativity holds vacuously — the phenomenon needs length."""
        order = total_order(6)
        report = conservativity_report(cyclic_coloring(order, 3), n=3, m=1)
        assert report.conservative
        assert report.quotient.size == 6


class TestRemark3:
    """(♠3) can hold while (♠2) fails: the loop-plus-chain structure."""

    @staticmethod
    def loop_and_chain():
        facts = [atom("E", n[30], n[30])]  # the E(a,a) loop
        facts += [atom("E", n[i], n[j]) for i in range(12) for j in range(i + 1, 12)]
        return Structure(facts)

    def test_spade3_holds_but_spade2_fails(self):
        structure = self.loop_and_chain()
        colored = cyclic_coloring(structure, 3)
        report = conservativity_report(colored, n=2, m=2)
        ok3, counterexample = spade3_holds(colored, n=2, m=2, prebuilt=report.quotient)
        assert ok3, f"unexpected new sentence: {counterexample}"
        assert not report.conservative

    def test_spade3_counterexample_reported(self):
        # an uncolored chain: the quotient has a loop, and a loop is a
        # *sentence* (1 variable) absent from the chain — (♠3) fails too
        trivial = apply_coloring(
            chain(12), {e: Color(0, 0) for e in chain(12).domain()}
        )
        ok, counterexample = spade3_holds(trivial, n=3, m=2)
        assert not ok
        assert counterexample is not None


class TestTypesOverBase:
    """Definition 8 compares types over the base signature Σ: the
    quotient is typed as ``M_n^{Σ̄}(C̄) ↾ Σ``.  Typing the colored
    quotient instead names colors in every witness below, and makes the
    loop-and-chain witness a Boolean sentence with color atoms."""

    @pytest.mark.parametrize(
        "colored, n_value, m",
        [
            (cyclic_coloring(chain(25), 3), 6, 3),
            (cyclic_coloring(chain(25), 3), 1, 2),
            (apply_coloring(chain(12), {e: Color(0, 0) for e in chain(12).domain()}), 3, 1),
            (cyclic_coloring(total_order(8), 2), 2, 1),
            (cyclic_coloring(total_order(12), 3), 2, 1),
            (cyclic_coloring(TestRemark3.loop_and_chain(), 3), 2, 2),
            (cyclic_coloring(chain(15), 3), 1, 2),
        ],
        ids=["example4", "example4-small-n", "example3", "example6-2", "example6-3",
             "remark3", "chain15-small-n"],
    )
    def test_witnesses_name_base_relations_only(self, colored, n_value, m):
        report = conservativity_report(colored, n=n_value, m=m)
        assert not report.conservative
        assert report.witness_query.relation_names() <= colored.base_relations

    def test_loop_and_chain_witness_is_an_element(self):
        colored = cyclic_coloring(TestRemark3.loop_and_chain(), 3)
        report = conservativity_report(colored, n=2, m=3)
        assert str(report.witness_element) == "_:0"


class TestReportMechanics:
    def test_quotient_reusable(self):
        colored = cyclic_coloring(chain(15), 3)
        report = conservativity_report(colored, n=4, m=2)
        again = conservativity_report(colored, n=4, m=2, prebuilt=report.quotient)
        assert again.conservative == report.conservative

    @pytest.mark.parametrize("check", [conservativity_report, spade3_holds])
    def test_prebuilt_at_another_n_rejected(self, check):
        colored = cyclic_coloring(chain(15), 3)
        prebuilt = conservativity_report(colored, n=4, m=2).quotient
        with pytest.raises(ValueError, match="at n = 4, not 3"):
            check(colored, n=3, m=2, prebuilt=prebuilt)

    @pytest.mark.parametrize("check", [conservativity_report, spade3_holds])
    def test_prebuilt_of_another_structure_rejected(self, check):
        colored = cyclic_coloring(chain(15), 3)
        prebuilt = conservativity_report(cyclic_coloring(chain(9), 3), n=4, m=2).quotient
        with pytest.raises(ValueError, match="colored structure"):
            check(colored, n=4, m=2, prebuilt=prebuilt)

    def test_bool_protocol(self):
        colored = cyclic_coloring(chain(15), 3)
        assert conservativity_report(colored, n=4, m=2)
        assert not conservativity_report(colored, n=1, m=2)


#: Three colors, so that drawn colorings both merge and split classes.
PALETTE = (Color(0, 0), Color(0, 1), Color(1, 0))


class TestLeastMember:
    """For m ≤ n the report checks each fiber's least member only: a
    fiber is one ``≡_n`` class, whose members answer every query of at
    most n variables alike (Lemma 1).  For m > n it checks them all."""

    def test_later_member_fails_when_m_exceeds_n(self):
        # _:1 and _:2 share a color and no loop, so one ≡_1 class; the
        # image has the 2-cycle of _:1 (with _:3), which _:2 lacks
        structure = Structure(
            [atom("E", n[1], n[3]), atom("E", n[3], n[1]), atom("E", n[2], n[4])]
        )
        colored = apply_coloring(
            structure,
            {n[1]: PALETTE[0], n[2]: PALETTE[0], n[3]: PALETTE[1], n[4]: PALETTE[2]},
        )
        report = conservativity_report(colored, n=1, m=2)
        assert report.quotient.project(n[1]) == report.quotient.project(n[2])
        assert not report.conservative
        assert report.witness_element == n[2]
        assert satisfies(
            colored.structure, report.witness_query,
            {report.witness_query.free[0]: n[1]},
        )
        assert report_summary(report) == report_by_element(colored, 1, 2)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(structures(min_facts=1, max_facts=8), st.data())
    def test_drawn_colorings_match_every_member(self, structure, data):
        assignment = {
            element: data.draw(st.sampled_from(PALETTE))
            for element in sorted(structure.domain(), key=str)
        }
        n_value = data.draw(st.integers(1, 3))
        m = data.draw(st.integers(1, n_value))
        colored = apply_coloring(structure, assignment)
        report = conservativity_report(colored, n_value, m)
        assert report_summary(report) == report_by_element(colored, n_value, m)
