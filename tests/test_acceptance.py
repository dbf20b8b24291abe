"""Acceptance gate: one check per release criterion, one PASS/FAIL line each.

Criteria 3, 4, and 6 test the published reference table, kept verbatim in
PUBLISHED, with one recorded erratum in ERRATA.  For specimen 26 (Relief)
the printed row, hallmark (1, 0, 0, ...) and class I, omits the
intangible-datum record that Relief's published per-entity annotations
give it (asserted by criteria 1, 2, and 5, and carried by the bundled
corpus).  Criterion 3 proves the erratum from the published figures alone:
the printed rows sum to 144 records, 62 datum records and datnible = 37,
against the published totals of 145, 63 and 38; with row 26 read as
(1, 0, 1, 0, ...) all twelve per-term totals match.  The gate then checks
the program against REFERENCE, the published table with the erratum
applied.  See README.md, section "Data notes", for the full analysis.
"""

from __future__ import annotations

import functools
import os
import random
from collections import defaultdict
from pathlib import Path
import subprocess
import sys

import tangibility

from corpusgen import random_corpus, random_hallmark
from tangibility import (
    BinaryHallmark,
    Hallmark,
    TangibilityClass,
    classify,
    classify_by_patterns,
    class_distribution,
    cluster_by_binary_hallmark,
    cluster_by_hallmark,
    compute_hallmark,
    binarize,
    distinct_binary_hallmark_count,
    distinct_hallmark_count,
    export_json,
    import_json,
    l1_distance,
    hamming_distance,
    load_golden,
    parse_corpus,
    pattern_table,
    role_distribution,
    serialize_corpus,
    term_coverage,
    validate,
)
from tangibility.classify import ClassResult

# Published reference table, verbatim: hallmark vector and class per
# application id.  "N" marks the symbolic count.  Row 26 is wrong as printed;
# ERRATA below holds the correction and criterion 3 proves it.
PUBLISHED = {
    1: ((0, 1, 1, 0, 0, 0, 0, 2, 0, 0, 1, 0), "II"),
    2: ((0, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0), "II"),
    3: ((1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1, 0), "II"),
    4: ((1, 0, 1, 0, 0, 0, 0, 1, 0, 0, 1, 0), "II"),
    5: ((1, 0, 1, 1, 0, 0, 0, 2, 0, 0, 0, 0), "II"),
    6: ((0, 0, 1, 0, 1, 0, 1, 1, 0, 0, 1, 0), "III"),
    7: ((1, 0, 2, 0, 1, 0, 1, 0, 0, 0, 1, 0), "II"),
    8: ((0, 0, 3, 0, 1, 0, 0, 0, 2, 0, 1, 0), "III"),
    9: (("N", 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), "I"),
    10: ((0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0), "II"),
    11: ((0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0), "IV"),
    12: ((0, 1, 1, 0, 0, 0, 1, 0, 0, 0, 1, 1), "II"),
    13: ((2, 0, 2, 2, 2, 0, 0, 2, 2, 0, 1, 0), "II"),
    14: ((0, 1, 1, 0, 2, 0, 0, 0, 0, 0, 1, 1), "II"),
    15: ((1, 0, 3, 0, 0, 1, 0, 0, 0, 0, 1, 0), "II"),
    16: ((0, 1, 1, 0, 1, 0, 0, 0, 1, 0, 1, 0), "II"),
    17: ((0, 1, 3, 0, 4, 0, 0, 0, 0, 0, 1, 0), "II"),
    18: ((0, 0, 2, 0, 2, 4, 0, 0, 2, 0, 1, 0), "III"),
    19: ((0, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0), "II"),
    20: ((0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0), "IV"),
    21: ((0, 0, 1, 1, 0, 0, 1, 0, 0, 0, 0, 0), "III"),
    22: ((0, 1, 1, 0, 0, 0, 0, 0, 0, 3, 2, 0), "II"),
    23: ((0, 1, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0), "II"),
    24: ((0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0), "IV"),
    25: ((0, 0, 1, 1, 1, 1, 0, 1, 0, 0, 1, 0), "III"),
    26: ((1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), "I"),
    27: ((2, 0, 1, 1, 1, 2, 0, 0, 0, 0, 1, 0), "II"),
    28: ((1, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0), "II"),
    29: ((1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), "I"),
    30: ((0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), "I"),
    31: ((0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0), "IV"),
    32: ((1, 0, 2, 0, 1, 0, 0, 0, 0, 0, 1, 0), "II"),
    33: ((0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0), "IV"),
}

PUBLISHED_COVERAGE = {
    "datible": 14,
    "datable": 11,
    "datnible": 38,
    "tolible": 6,
    "tolable": 17,
    "tolnible": 8,
    "opible": 8,
    "opable": 12,
    "opnible": 7,
    "constible": 3,
    "constable": 19,
    "constnible": 2,
}

# Corrections to PUBLISHED.  Row 26 (Relief) is printed as (1, 0, 0, ...),
# class I, without the intangible-datum record ("Topographical map") of
# Relief's own published annotations.  Only with that record do the printed
# rows reach the published totals (PUBLISHED_COVERAGE, 145 records, 63 datum
# records); criterion 3 checks this.  With it Relief is bodied data next to
# intangible data: class II.
ERRATA = {
    26: ((1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0), "II"),
}

# The table the program is checked against.
REFERENCE = {**PUBLISHED, **ERRATA}


# Filled in as criteria run; conftest prints one line per criterion at the
# end of the session, outside pytest's output capture.
RESULTS: list[tuple[int, str, str]] = []


def criterion(number: int, description: str):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                RESULTS.append((number, "FAIL", description))
                print(f"criterion {number:2d}: FAIL - {description}")
                raise
            RESULTS.append((number, "PASS", description))
            print(f"criterion {number:2d}: PASS - {description}")

        return run

    return wrap


def _vector(app) -> tuple:
    return tuple(
        "N" if c.is_many else c.value for c in compute_hallmark(app).components
    )


def _records(component) -> int:
    """Records a published component stands for; the symbolic N is one."""
    return 1 if component == "N" else component


def _binary(vector: tuple) -> tuple[int, ...]:
    return tuple(int(_records(c) > 0) for c in vector)


def _term_totals(table) -> dict[str, int]:
    """Per-term record totals summed over a table's hallmark vectors."""
    # PUBLISHED_COVERAGE lists the terms in hallmark component order.
    columns = zip(*(vector for vector, _ in table.values()))
    return {
        term: sum(map(_records, column))
        for term, column in zip(PUBLISHED_COVERAGE, columns)
    }


def _grouped(vectors: dict[int, tuple]) -> tuple[int, set[frozenset[int]]]:
    """Distinct-vector count and the id sets that share a vector."""
    ids_by_vector = defaultdict(set)
    for app_id, vector in vectors.items():
        ids_by_vector[vector].add(app_id)
    clusters = {frozenset(ids) for ids in ids_by_vector.values() if len(ids) > 1}
    return len(ids_by_vector), clusters


def _oracle_label(vector: tuple) -> str:
    held = _oracle_predicates(_binary(vector))
    return held[0] if held else "unclassified"


@criterion(1, "golden corpus has exactly 33 applications and 145 entity records")
def test_criterion_01_golden_cardinalities():
    corpus = load_golden()
    assert len(corpus.applications) == 33
    assert corpus.record_count == 145
    assert [d for d in validate(corpus) if d.is_error] == []


@criterion(2, "term coverage equals the published per-term record counts")
def test_criterion_02_term_coverage():
    coverage = {t.name: n for t, n in term_coverage(load_golden()).items()}
    assert coverage == PUBLISHED_COVERAGE


@criterion(3, "hallmark vectors match the published table with the Relief (#26) erratum, proven from the published totals")
def test_criterion_03_hallmarks():
    # The tables alone: the corrected table reaches every published total,
    # the printed one does not, and it misses only in terms an erratum changes.
    reference_totals = _term_totals(REFERENCE)
    assert reference_totals == PUBLISHED_COVERAGE
    assert sum(reference_totals.values()) == 145
    assert sum(reference_totals[t] for t in ("datible", "datable", "datnible")) == 63
    printed_totals = _term_totals(PUBLISHED)
    disagreeing = {t for t, n in printed_totals.items() if n != PUBLISHED_COVERAGE[t]}
    corrected = {
        term
        for app_id, (vector, _) in ERRATA.items()
        for term, printed, fixed in zip(PUBLISHED_COVERAGE, PUBLISHED[app_id][0], vector)
        if printed != fixed
    }
    assert disagreeing, "the printed table already reaches the published totals"
    assert disagreeing <= corrected, f"totals off in terms no erratum changes: {disagreeing - corrected}"
    for app_id, (vector, label) in ERRATA.items():
        assert _oracle_label(vector) == label, (app_id, vector, label)

    corpus = load_golden()
    mismatches = {
        app.id: (_vector(app), REFERENCE[app.id][0])
        for app in corpus.applications
        if _vector(app) != REFERENCE[app.id][0]
    }
    assert mismatches == {}, f"computed vs reference: {mismatches}"


@criterion(4, "classes match the published table with the erratum and follow from its vectors; distribution I:3 II:20 III:5 IV:5")
def test_criterion_04_classes():
    for app_id, (vector, label) in REFERENCE.items():
        assert _oracle_label(vector) == label, (app_id, vector, label)

    corpus = load_golden()
    mismatches = {
        app.id: (classify(compute_hallmark(app)).label, REFERENCE[app.id][1])
        for app in corpus.applications
        if classify(compute_hallmark(app)).label != REFERENCE[app.id][1]
    }
    assert mismatches == {}, f"computed vs reference: {mismatches}"
    assert class_distribution(corpus) == {
        "I": 3,
        "II": 20,
        "III": 5,
        "IV": 5,
        "unclassified": 0,
    }


@criterion(5, "role distribution is 63/31/27/24 records, 43/21/19/17 percent")
def test_criterion_05_role_distribution():
    shares = role_distribution(load_golden())
    assert {r.value: s.count for r, s in shares.items()} == {
        "datum": 63,
        "tool": 31,
        "operation": 27,
        "constraint": 24,
    }
    assert {r.value: s.percent for r, s in shares.items()} == {
        "datum": 43,
        "tool": 21,
        "operation": 19,
        "constraint": 17,
    }


@criterion(6, "29 distinct hallmarks and 27 distinct binary hallmarks, clusters of the corrected table")
def test_criterion_06_orthogonality():
    hallmark_clusters = {
        frozenset({2, 19}),
        frozenset({20, 24, 31, 33}),
    }
    binary_clusters = {
        frozenset({2, 10, 19}),
        frozenset({9, 29}),
        frozenset({20, 24, 31, 33}),
    }
    vectors = {app_id: vector for app_id, (vector, _) in REFERENCE.items()}
    assert _grouped(vectors) == (29, hallmark_clusters)
    assert _grouped({app_id: _binary(v) for app_id, v in vectors.items()}) == (27, binary_clusters)

    corpus = load_golden()
    assert distinct_hallmark_count(corpus) == 29
    assert {frozenset(c.members) for c in cluster_by_hallmark(corpus)} == hallmark_clusters
    assert distinct_binary_hallmark_count(corpus) == 27
    assert {frozenset(c.members) for c in cluster_by_binary_hallmark(corpus)} == binary_clusters


def _oracle_flags(hallmark) -> tuple[bool, ...]:
    return tuple(c.is_positive for c in hallmark.components)


def _oracle_predicates(flags) -> list[str]:
    d_t, d_g, d_i, t_t, t_g, t_i, o_t, o_g = flags[:8]
    held = []
    if (d_t or d_g) and not d_i:
        held.append("I")
    if (d_t or d_g) and d_i:
        held.append("II")
    if d_i and not d_t and not d_g and (t_t or t_g):
        held.append("III")
    if not (d_t or d_g or d_i or t_t or t_g or t_i) and (o_t or o_g):
        held.append("IV")
    return held


@criterion(7, "10,000 random hallmarks: exclusive predicates, binarization-invariant, pattern-consistent")
def test_criterion_07_classifier_exclusivity():
    rng = random.Random(0x5EED)
    for _ in range(10_000):
        mark = random_hallmark(rng, allow_many=True)
        flags = _oracle_flags(mark)
        held = _oracle_predicates(flags)
        assert len(held) <= 1, (mark, held)

        result = classify(mark)
        assert result.label == (held[0] if held else "unclassified")

        assert classify(binarize(mark)).label == result.label

        paired_sibling_positive = any(flags[i] and flags[i + 1] for i in (0, 3, 6))
        if not paired_sibling_positive:
            by_patterns = classify_by_patterns(mark)
            assert by_patterns.outcome == result.outcome, (mark, by_patterns, result)


# Exhaustive checks over all 2**12 positivity masks, next to criterion 7.
# The oracles are the tuple-predicate classifier and the first-match pattern
# loop that the mask-based classifiers replaced, kept here as they were.


def _seed_positivity(vector) -> tuple[bool, ...]:
    if isinstance(vector, Hallmark):
        return tuple(c.is_positive for c in vector.components)
    return tuple(bit == 1 for bit in vector.bits)


def _seed_classify(vector) -> ClassResult:
    p = _seed_positivity(vector)
    d_t, d_g, d_i, t_t, t_g, t_i, o_t, o_g = p[:8]

    if (d_t or d_g) and not d_i:
        return ClassResult(TangibilityClass.I, rule="I")
    if (d_t or d_g) and d_i:
        return ClassResult(TangibilityClass.II, rule="II")
    if d_i and not d_t and not d_g and (t_t or t_g):
        return ClassResult(TangibilityClass.III, rule="III")
    if not any((d_t, d_g, d_i, t_t, t_g, t_i)) and (o_t or o_g):
        return ClassResult(TangibilityClass.IV, rule="IV")

    if d_i:
        reason = "intangible data but no tangible or graspable tool"
    elif t_t or t_g or t_i:
        reason = "tools present but no data"
    else:
        reason = "no data, no bodied operation"
    return ClassResult(None, reason=reason)


_SEED_ROWS = (
    ("I.1", TangibilityClass.I, "+ 0 0  * * *  * * *  * * *"),
    ("I.2", TangibilityClass.I, "0 + 0  * * *  * * *  * * *"),
    ("II.1", TangibilityClass.II, "+ 0 +  * * *  * * *  * * *"),
    ("II.2", TangibilityClass.II, "0 + +  * * *  * * *  * * *"),
    ("III.1", TangibilityClass.III, "0 0 +  0 + *  * * *  * * *"),
    ("III.2", TangibilityClass.III, "0 0 +  + 0 *  * * *  * * *"),
    ("IV.1", TangibilityClass.IV, "0 0 0  0 0 0  + 0 *  * * *"),
    ("IV.2", TangibilityClass.IV, "0 0 0  0 0 0  0 + *  * * *"),
)


def _seed_admits(cell: str, positive: bool) -> bool:
    if cell == "0":
        return not positive
    if cell == "+":
        return positive
    return True


def _seed_row_matches(pattern: str, vector) -> bool:
    flags = _seed_positivity(vector)
    return all(_seed_admits(cell, flag) for cell, flag in zip(pattern.split(), flags))


def _seed_classify_by_patterns(vector) -> ClassResult:
    for label, outcome, pattern in _SEED_ROWS:
        if _seed_row_matches(pattern, vector):
            return ClassResult(outcome, rule=label)
    return ClassResult(None, reason="no pattern row matches")


def _mask_vectors(mask: int) -> tuple[Hallmark, BinaryHallmark]:
    """Both vector forms with positivity ``mask``; positive components of
    the counted form cycle through "many", 1 and 3."""
    bits = tuple(mask >> i & 1 for i in range(12))
    counts = (("many", 1, 3)[i % 3] if bit else 0 for i, bit in enumerate(bits))
    return Hallmark.of(*counts), BinaryHallmark(bits)


def test_classifiers_match_the_tuple_oracles_on_every_mask():
    disagreements = 0
    for mask in range(2**12):
        mark, binary = _mask_vectors(mask)
        for vector in (mark, binary):
            assert vector.mask == mask
            assert classify(vector) == _seed_classify(vector), (mask, vector)
            assert classify_by_patterns(vector) == _seed_classify_by_patterns(vector), mask
            matching = [rule.label for rule in pattern_table() if rule.matches(vector)]
            assert matching == [
                label for label, _, pattern in _SEED_ROWS if _seed_row_matches(pattern, vector)
            ], mask
        assert binarize(mark) == binary
        disagreements += classify(mark).outcome != classify_by_patterns(mark).outcome
    assert disagreements == 1168


def test_hamming_distance_matches_the_bit_tuple_oracle_on_every_mask():
    binaries = [_mask_vectors(mask)[1] for mask in range(2**12)]
    sample = random.Random(0x4A11).sample(binaries, 32)
    for a in binaries:
        for b in sample:
            assert hamming_distance(a, b) == sum(x != y for x, y in zip(a.bits, b.bits))


@criterion(8, "parse/serialize and import/export round-trip 1,000 random corpora and the golden corpus")
def test_criterion_08_round_trips():
    for seed in range(1_000):
        corpus = random_corpus(random.Random(seed))
        via_dsl, dsl_diags = parse_corpus(serialize_corpus(corpus))
        assert via_dsl == corpus and not any(d.is_error for d in dsl_diags)
        via_json, json_diags = import_json(export_json(corpus))
        assert via_json == corpus and not any(d.is_error for d in json_diags)
    golden = load_golden()
    assert parse_corpus(serialize_corpus(golden))[0] == golden
    assert import_json(export_json(golden))[0] == golden


@criterion(9, "distance axioms hold on 1,000 random hallmark triples; hamming bounded by L1")
def test_criterion_09_distance_axioms():
    rng = random.Random(0xD157)
    for _ in range(1_000):
        a, b, c = (random_hallmark(rng, allow_many=False) for _ in range(3))
        assert l1_distance(a, a) == 0
        assert (l1_distance(a, b) == 0) == (a == b)
        assert l1_distance(a, b) == l1_distance(b, a)
        assert l1_distance(a, c) <= l1_distance(a, b) + l1_distance(b, c)

        ba, bb = binarize(a), binarize(b)
        h = hamming_distance(ba, bb)
        assert 0 <= h <= 12
        assert (h == 0) == (ba == bb)
        assert h <= l1_distance(a, b)
        assert isinstance(ba, BinaryHallmark)


def _child_env() -> dict[str, str]:
    """This environment with PYTHONPATH set to the tested package's source
    directory, so a child interpreter imports the same code."""
    return {**os.environ, "PYTHONPATH": str(Path(tangibility.__file__).parent.parent)}


@criterion(10, "analyze --golden --format csv is byte-identical across two runs")
def test_criterion_10_determinism():
    command = [sys.executable, "-m", "tangibility.cli", "analyze", "--golden", "--format", "csv"]
    first = subprocess.run(command, capture_output=True, check=True, env=_child_env())
    second = subprocess.run(command, capture_output=True, check=True, env=_child_env())
    assert first.stdout == second.stdout
    assert first.stdout
