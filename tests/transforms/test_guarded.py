"""Tests for the Section 5.6 guarded → binary translation."""

import pytest

from repro.chase import certain_boolean, chase
from repro.lf import parse_query, parse_structure, parse_theory, satisfies
from repro.transforms import guarded_to_binary

GUARDED = parse_theory(
    """
    P(x,y,z) -> exists w. R(y,z,w)
    R(x,y,z) -> exists w. P(z,y,w)
    P(x,y,z), S(y) -> G(z)
    """
)
DB = parse_structure("P(a,b,c)\nS(b)")


class TestTranslationShape:
    def test_output_is_binary(self):
        translation = guarded_to_binary(GUARDED)
        assert translation.theory.signature.is_binary

    def test_tgps_detected(self):
        translation = guarded_to_binary(GUARDED)
        assert translation.tgps == {"R", "P"}

    def test_not_guarded_rejected(self):
        unguarded = parse_theory("E(x,y), E(y,z) -> E(x,z)")
        # transitivity *is* guarded? No: no body atom contains x, y, z.
        with pytest.raises(ValueError):
            guarded_to_binary(unguarded)

    def test_multihead_rejected(self):
        theory = parse_theory("E(x,y) -> U(x), U(y)")
        with pytest.raises(ValueError):
            guarded_to_binary(theory)

    def test_witness_must_be_last(self):
        theory = parse_theory("U(y) -> exists z. R(z,y)")
        with pytest.raises(ValueError):
            guarded_to_binary(theory)

    def test_query_translation_keeps_every_disjunct(self):
        # Seven atoms of four variants each: 4^7 = 16,384 combinations,
        # 2,366 of them distinct up to renaming.
        translation = guarded_to_binary(GUARDED)
        query = parse_query("G(x1), S(x2), G(x3), S(x4), G(x5), S(x6), G(x7)")
        assert len(translation.translate_query(query)) == 2_366


class TestDatabaseTranslation:
    def test_tgp_fact_guarded_by_own_element(self):
        translation = guarded_to_binary(GUARDED)
        translated = translation.translate_database(parse_structure("R(a,b,c)"))
        # R is a TGP: c is the young element, a and b its parents
        assert translated.facts_with_pred("Rm_R")
        assert len(translated.facts_with_pred("F_1")) == 1
        assert len(translated.facts_with_pred("F_2")) == 1

    def test_non_tgp_fact_gets_fresh_guard(self):
        translation = guarded_to_binary(GUARDED)
        translated = translation.translate_database(parse_structure("S(b)"))
        monadic = [f for f in translated.facts() if f.pred.startswith("Qm_S")]
        assert len(monadic) == 1

    def test_original_elements_kept(self):
        translation = guarded_to_binary(GUARDED)
        translated = translation.translate_database(DB)
        assert DB.domain() <= translated.domain()


class TestSemantics:
    def test_positive_atomic_query(self):
        """G(c) is certain originally; its translation is certain in T'."""
        assert certain_boolean(DB, GUARDED, parse_query("G('c')"), max_depth=4) is True
        translation = guarded_to_binary(GUARDED)
        translated_db = translation.translate_database(DB)
        translated_query = translation.translate_query(parse_query("G('c')"))
        verdict = certain_boolean(
            translated_db, translation.theory, translated_query, max_depth=6
        )
        assert verdict is True

    def test_negative_atomic_query(self):
        assert certain_boolean(DB, GUARDED, parse_query("G('a')"), max_depth=4) is not True
        translation = guarded_to_binary(GUARDED)
        translated_db = translation.translate_database(DB)
        translated_query = translation.translate_query(parse_query("G('a')"))
        verdict = certain_boolean(
            translated_db, translation.theory, translated_query, max_depth=6
        )
        assert verdict is not True

    def test_tgp_query(self):
        """R(b,c,w) for some w is certain; the binary form agrees."""
        assert (
            certain_boolean(DB, GUARDED, parse_query("R('b','c',w)"), max_depth=4)
            is True
        )
        translation = guarded_to_binary(GUARDED)
        translated_db = translation.translate_database(DB)
        translated_query = translation.translate_query(parse_query("R('b','c',w)"))
        verdict = certain_boolean(
            translated_db, translation.theory, translated_query, max_depth=6
        )
        assert verdict is True

    def test_chase_growth_parallels_original(self):
        """Both chases keep creating elements (the P/R ping-pong)."""
        original = chase(DB, GUARDED, max_depth=4)
        translation = guarded_to_binary(GUARDED)
        translated = chase(
            translation.translate_database(DB), translation.theory, max_depth=8
        )
        assert len(original.new_elements) >= 3
        assert len(translated.new_elements) >= 3


class TestConstantsRejected:
    def test_constant_in_non_tgp_atom_rejected(self):
        theory = parse_theory(
            """
            P(x,y,z) -> exists w. R(y,z,w)
            P(x,y,'fixed') -> G(x)
            """
        )
        with pytest.raises(ValueError):
            guarded_to_binary(theory)
