"""Class predicates, unclassified reasons, and the pattern table."""

from __future__ import annotations

import random

from hypothesis import given
from hypothesis import strategies as st

from corpusgen import random_hallmark
from tangibility import (
    Hallmark,
    TangibilityClass,
    binarize,
    classify,
    classify_by_patterns,
    pattern_table,
)

seeds = st.integers(0, 2**32 - 1)


def _mark(*values):
    return Hallmark.of(*values)


class TestClassify:
    def test_class_i_bodied_data_only(self):
        assert classify(_mark(1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)).outcome is TangibilityClass.I
        assert classify(_mark(0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)).outcome is TangibilityClass.I
        # magnitude and other roles do not matter
        assert classify(_mark("many", 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)).outcome is TangibilityClass.I
        assert classify(_mark(0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6)).outcome is TangibilityClass.I

    def test_class_ii_bodied_plus_intangible_data(self):
        assert classify(_mark(2, 0, 2, 2, 2, 0, 0, 2, 2, 0, 1, 0)).outcome is TangibilityClass.II
        assert classify(_mark(0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0)).outcome is TangibilityClass.II

    def test_class_iii_intangible_data_via_bodied_tools(self):
        assert classify(_mark(0, 0, 1, 0, 1, 0, 1, 1, 0, 0, 1, 0)).outcome is TangibilityClass.III
        assert classify(_mark(0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0)).outcome is TangibilityClass.III

    def test_class_iv_pure_bodied_operation(self):
        assert classify(_mark(0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0)).outcome is TangibilityClass.IV
        assert classify(_mark(0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0)).outcome is TangibilityClass.IV

    def test_rule_identifies_the_predicate(self):
        assert classify(_mark(1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)).rule == "I"
        assert classify(Hallmark.zero()).rule is None

    def test_all_zero_unclassified(self):
        result = classify(Hallmark.zero())
        assert result.outcome is None
        assert result.label == "unclassified"
        assert result.reason == "no data, no bodied operation"

    def test_constraint_only_unclassified(self):
        result = classify(_mark(0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0))
        assert result.outcome is None
        assert result.reason == "no data, no bodied operation"

    def test_intangible_operation_only_unclassified(self):
        result = classify(_mark(0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0))
        assert result.reason == "no data, no bodied operation"

    def test_intangible_data_without_bodied_tools(self):
        result = classify(_mark(0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0))
        assert result.outcome is None
        assert result.reason == "intangible data but no tangible or graspable tool"
        # an intangible tool does not rescue it
        result = classify(_mark(0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0))
        assert result.reason == "intangible data but no tangible or graspable tool"

    def test_tools_without_data(self):
        result = classify(_mark(0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0))
        assert result.outcome is None
        assert result.reason == "tools present but no data"
        # intangible tools block the bodied-operation class too
        result = classify(_mark(0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0))
        assert result.reason == "tools present but no data"

    def test_accepts_binary_hallmarks(self):
        mark = _mark(0, 0, 3, 0, 1, 0, 0, 0, 2, 0, 1, 0)
        assert classify(binarize(mark)).outcome is classify(mark).outcome


class TestPatterns:
    def test_eight_rows_two_per_class(self):
        rows = pattern_table()
        assert len(rows) == 8
        per_class = {}
        for row in rows:
            per_class.setdefault(row.outcome, []).append(row.label)
        assert all(len(labels) == 2 for labels in per_class.values())
        assert [row.label for row in rows] == [
            "I.1", "I.2", "II.1", "II.2", "III.1", "III.2", "IV.1", "IV.2",
        ]

    def test_row_cells_transcription(self):
        by_label = {row.label: row for row in pattern_table()}
        cells = lambda label: "".join(c.value for c in by_label[label].cells)
        assert cells("I.1") == "+00*********"
        assert cells("I.2") == "0+0*********"
        assert cells("II.1") == "+0+*********"
        assert cells("II.2") == "0++*********"
        assert cells("III.1") == "00+0+*******"
        assert cells("III.2") == "00++0*******"
        assert cells("IV.1") == "000000+0****"
        assert cells("IV.2") == "0000000+****"

    def test_first_match_wins_and_labels(self):
        result = classify_by_patterns(_mark(1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0))
        assert result.outcome is TangibilityClass.I
        assert result.rule == "I.1"
        result = classify_by_patterns(_mark(0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0))
        assert result.rule == "III.2"

    def test_both_bodied_data_matches_no_row(self):
        # the positional rows demand exactly one bodied datum column
        result = classify_by_patterns(_mark(1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0))
        assert result.outcome is None
        assert result.reason == "no pattern row matches"
        # while the predicate form classifies it
        assert classify(_mark(1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)).outcome is TangibilityClass.I

    @given(seeds)
    def test_rows_are_mutually_exclusive(self, seed):
        mark = random_hallmark(random.Random(seed))
        matching = [row.label for row in pattern_table() if row.matches(mark)]
        assert len(matching) <= 1


def _predicate_oracle(mark: Hallmark) -> list[TangibilityClass]:
    """Evaluate the four class predicates independently of classify()."""
    d_t, d_g, d_i, t_t, t_g, t_i, o_t, o_g = (
        c.is_positive for c in mark.components[:8]
    )
    hits = []
    if (d_t or d_g) and not d_i:
        hits.append(TangibilityClass.I)
    if (d_t or d_g) and d_i:
        hits.append(TangibilityClass.II)
    if d_i and not d_t and not d_g and (t_t or t_g):
        hits.append(TangibilityClass.III)
    if not (d_t or d_g or d_i or t_t or t_g or t_i) and (o_t or o_g):
        hits.append(TangibilityClass.IV)
    return hits


@given(seeds)
def test_predicates_are_mutually_exclusive(seed):
    mark = random_hallmark(random.Random(seed))
    hits = _predicate_oracle(mark)
    assert len(hits) <= 1
    result = classify(mark)
    assert result.outcome == (hits[0] if hits else None)


@given(seeds)
def test_classification_is_binarization_invariant(seed):
    mark = random_hallmark(random.Random(seed))
    assert classify(mark).outcome == classify(binarize(mark)).outcome


@given(seeds)
def test_patterns_agree_outside_doubled_pairs(seed):
    mark = random_hallmark(random.Random(seed))
    flags = [c.is_positive for c in mark.components]
    doubled = any(flags[i] and flags[i + 1] for i in (0, 3, 6))
    if not doubled:
        assert classify_by_patterns(mark).outcome == classify(mark).outcome
