"""Corpus analytics over synthetic corpora and the bundled reference corpus."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusgen import random_corpus
from tangibility import (
    Application,
    all_terms,
    Corpus,
    Count,
    Entity,
    EmptyCorpusError,
    Metric,
    Role,
    SymbolicCountError,
    Tangibility,
    class_distribution,
    cluster_by_binary_hallmark,
    cluster_by_hallmark,
    cross_tab,
    distance_matrix,
    distinct_binary_hallmark_count,
    distinct_hallmark_count,
    load_golden,
    parse_term,
    role_distribution,
    term_coverage,
    term_of,
)
from tangibility import analysis
from tangibility.hallmark import binarize, compute_hallmark, hamming_distance, l1_distance

GOLDEN_COVERAGE = {
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


def _app(app_id, *terms, name=None, counts=None):
    counts = counts or [Count(1)] * len(terms)
    entities = tuple(
        Entity(f"e{i}", parse_term(t).role, parse_term(t).tangibility, c)
        for i, (t, c) in enumerate(zip(terms, counts))
    )
    return Application(id=app_id, name=name or f"app {app_id}", entities=entities)


def _vector_app(app_id, vector):
    """An application whose hallmark is ``vector``: one entity per positive term."""
    entities = tuple(
        Entity(f"e{i}", term.role, term.tangibility, Count(n))
        for i, (term, n) in enumerate(zip(all_terms(), vector))
        if n
    )
    return Application(id=app_id, name=f"app {app_id}", entities=entities)


def _assert_cells(corpus, matrix, indices=None):
    """Rows ``indices`` (default all) equal the per-cell distance functions."""
    marks = {app.id: mark for app, mark in zip(corpus.applications, corpus.hallmarks)}
    if matrix.metric is Metric.HAMMING:
        keys = [binarize(marks[i]) for i in matrix.ids]
        distance = hamming_distance
    else:
        keys = [marks[i] for i in matrix.ids]
        distance = l1_distance
    for i in range(len(keys)) if indices is None else indices:
        assert matrix.rows[i] == tuple(distance(keys[i], b) for b in keys)


class TestCoverage:
    def test_zero_filled_for_empty_corpus(self):
        coverage = term_coverage(Corpus())
        assert len(coverage) == 12
        assert set(coverage.values()) == {0}

    def test_counts_records_not_multiplicity(self):
        corpus = Corpus(
            (_app(1, "datible", "datible", counts=[Count(5), Count.MANY]),)
        )
        assert term_coverage(corpus)[parse_term("datible")] == 2

    def test_golden(self):
        coverage = term_coverage(load_golden())
        assert {t.name: n for t, n in coverage.items()} == GOLDEN_COVERAGE
        assert sum(coverage.values()) == 145


class TestRoleDistribution:
    def test_empty_corpus_is_undefined(self):
        with pytest.raises(EmptyCorpusError):
            role_distribution(Corpus())

    def test_half_up_rounding(self):
        # 1/8 = 12.5% rounds to 13; 7/8 = 87.5% rounds to 88
        corpus = Corpus(
            (
                _app(1, *(["datible"] + ["opable"] * 7)),
            )
        )
        shares = role_distribution(corpus)
        assert shares[Role.DATUM].percent == 13
        assert shares[Role.OPERATION].percent == 88
        assert shares[Role.TOOL].count == 0
        assert shares[Role.TOOL].percent == 0

    def test_multiplicity_ignored(self):
        corpus = Corpus((_app(1, "datible", "tolable", counts=[Count.MANY, Count(9)]),))
        shares = role_distribution(corpus)
        assert shares[Role.DATUM].count == 1
        assert shares[Role.TOOL].count == 1
        assert shares[Role.DATUM].percent == 50

    def test_golden(self):
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

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100)
    def test_counts_sum_to_total(self, seed):
        corpus = random_corpus(random.Random(seed))
        if corpus.record_count == 0:
            with pytest.raises(EmptyCorpusError):
                role_distribution(corpus)
            return
        shares = role_distribution(corpus)
        assert sum(s.count for s in shares.values()) == corpus.record_count
        assert all(0 <= s.percent <= 100 for s in shares.values())


# The golden corpus, seeded corpora, entity-less applications and no applications.
COUNTED_CORPORA = {
    "golden": load_golden(),
    **{f"seed {seed}": random_corpus(random.Random(seed), max_apps=40) for seed in range(20)},
    "entity-less applications": Corpus((_app(1), _app(2, "opable", "datible"), _app(3))),
    "entity-less only": Corpus((_app(1), _app(2))),
    "empty": Corpus(),
}


@pytest.mark.parametrize("name", COUNTED_CORPORA)
def test_coverage_and_roles_match_a_per_entity_count(name):
    corpus = COUNTED_CORPORA[name]
    terms = {term: 0 for term in all_terms()}
    roles = {role: 0 for role in Role}
    for app in corpus.applications:
        for entity in app.entities:
            terms[term_of(entity.role, entity.tangibility)] += 1
            roles[entity.role] += 1
    assert list(term_coverage(corpus).items()) == list(terms.items())
    if not corpus.record_count:
        with pytest.raises(EmptyCorpusError):
            role_distribution(corpus)
        return
    shares = role_distribution(corpus)
    assert [(role, share.count) for role, share in shares.items()] == list(roles.items())


class TestClassDistribution:
    def test_empty(self):
        assert class_distribution(Corpus()) == {
            "I": 0,
            "II": 0,
            "III": 0,
            "IV": 0,
            "unclassified": 0,
        }

    def test_golden(self):
        assert class_distribution(load_golden()) == {
            "I": 3,
            "II": 20,
            "III": 5,
            "IV": 5,
            "unclassified": 0,
        }


class TestClusters:
    def test_singletons_are_not_clusters(self):
        corpus = Corpus((_app(1, "datible"), _app(2, "tolable")))
        assert cluster_by_hallmark(corpus) == []
        assert distinct_hallmark_count(corpus) == 2

    def test_identical_hallmarks_cluster(self):
        corpus = Corpus((_app(3, "datible"), _app(1, "datible"), _app(2, "tolable")))
        clusters = cluster_by_hallmark(corpus)
        assert len(clusters) == 1
        assert clusters[0].members == (1, 3)
        assert distinct_hallmark_count(corpus) == 2

    def test_binary_merges_magnitudes(self):
        corpus = Corpus(
            (
                _app(1, "datible"),
                _app(2, "datible", "datible"),
                _app(3, "datible", counts=[Count.MANY]),
            )
        )
        assert cluster_by_hallmark(corpus) == []
        assert distinct_hallmark_count(corpus) == 3
        binary = cluster_by_binary_hallmark(corpus)
        assert [c.members for c in binary] == [(1, 2, 3)]
        assert distinct_binary_hallmark_count(corpus) == 1

    def test_golden_exact(self):
        corpus = load_golden()
        assert [c.members for c in cluster_by_hallmark(corpus)] == [
            (2, 19),
            (20, 24, 31, 33),
        ]
        assert distinct_hallmark_count(corpus) == 29

    def test_golden_binary(self):
        corpus = load_golden()
        assert [c.members for c in cluster_by_binary_hallmark(corpus)] == [
            (2, 10, 19),
            (9, 29),
            (20, 24, 31, 33),
        ]
        assert distinct_binary_hallmark_count(corpus) == 27

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100)
    def test_cluster_members_partition(self, seed):
        corpus = random_corpus(random.Random(seed))
        clusters = cluster_by_hallmark(corpus)
        seen: set[int] = set()
        for cluster in clusters:
            assert len(cluster.members) > 1
            assert list(cluster.members) == sorted(cluster.members)
            assert not seen & set(cluster.members)
            seen.update(cluster.members)
        singles = len(corpus.applications) - len(seen)
        assert distinct_hallmark_count(corpus) == singles + len(clusters)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100)
    def test_binary_clusters_match_a_reference_grouping(self, seed):
        corpus = random_corpus(random.Random(seed), max_apps=12)
        exact: dict = {}
        binary: dict = {}
        for app in corpus.applications:
            mark = compute_hallmark(app)
            exact.setdefault(mark, []).append(app.id)
            binary.setdefault(binarize(mark), []).append(app.id)
        expected = sorted(
            (
                analysis.Cluster(key, tuple(sorted(ids)))
                for key, ids in binary.items()
                if len(ids) > 1
            ),
            key=lambda cluster: cluster.members[0],
        )
        assert cluster_by_binary_hallmark(corpus) == expected
        assert distinct_binary_hallmark_count(corpus) == len(binary)
        assert distinct_hallmark_count(corpus) == len(exact)


class TestDistanceMatrix:
    def test_hamming_golden_values(self):
        corpus = load_golden()
        matrix = distance_matrix(corpus, Metric.HAMMING)
        assert matrix.ids == tuple(range(1, 34))
        at = {app_id: i for i, app_id in enumerate(matrix.ids)}
        # AudioPad vs ReacTable annotations differ in exactly one present term
        assert matrix.rows[at[16]][at[17]] == 1
        # TUISTER and Slurp share a hallmark
        assert matrix.rows[at[20]][at[24]] == 0

    def test_l1_rejects_symbolic_counts(self):
        with pytest.raises(SymbolicCountError, match="application 9"):
            distance_matrix(load_golden(), Metric.L1)

    def test_l1_on_exact_corpus(self):
        corpus = Corpus((_app(1, "datible"), _app(2, "datible", "datible", "opable")))
        matrix = distance_matrix(corpus, Metric.L1)
        assert matrix.rows == ((0, 2), (2, 0))

    def test_a_metric_is_read_from_its_value(self):
        with pytest.raises(SymbolicCountError, match="application 9"):
            distance_matrix(load_golden(), "l1")
        matrix = distance_matrix(load_golden(), "hamming")
        assert matrix.metric is Metric.HAMMING
        assert matrix == distance_matrix(load_golden(), Metric.HAMMING)
        corpus = Corpus((_app(1, "datible"), _app(2, "datible", "datible", "opable")))
        assert distance_matrix(corpus, "l1") == distance_matrix(corpus, Metric.L1)
        with pytest.raises(ValueError, match="'x' is not a valid Metric"):
            distance_matrix(load_golden(), "x")

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50)
    def test_matrix_properties(self, seed):
        rng = random.Random(seed)
        corpus = random_corpus(rng)
        matrix = distance_matrix(corpus, Metric.HAMMING)
        size = len(matrix.ids)
        assert matrix.ids == tuple(sorted(matrix.ids))
        assert len(matrix.rows) == size
        for i in range(size):
            assert matrix.rows[i][i] == 0
            for j in range(size):
                assert matrix.rows[i][j] == matrix.rows[j][i]
                assert 0 <= matrix.rows[i][j] <= 12

    @given(st.integers(0, 2**32 - 1), st.sampled_from(Metric))
    @settings(max_examples=150)
    def test_matches_the_per_cell_distances(self, seed, metric):
        corpus = random_corpus(random.Random(seed), max_apps=12)
        if metric is Metric.L1 and any(mark.has_many for mark in corpus.hallmarks):
            with pytest.raises(SymbolicCountError):
                distance_matrix(corpus, metric)
            return
        matrix = distance_matrix(corpus, metric)
        assert matrix.ids == tuple(sorted(app.id for app in corpus.applications))
        _assert_cells(corpus, matrix)

    # Small values repeat keys; 250-260 straddles a byte's 255 limit.
    @given(
        st.lists(
            st.lists(st.integers(0, 3) | st.integers(250, 260), min_size=12, max_size=12),
            max_size=10,
        )
    )
    @settings(max_examples=100)
    def test_l1_matches_on_any_exact_components(self, vectors):
        corpus = Corpus(tuple(_vector_app(i + 1, v) for i, v in enumerate(vectors)))
        _assert_cells(corpus, distance_matrix(corpus, Metric.L1))

    def test_every_mask(self):
        corpus = Corpus(
            tuple(_vector_app(m + 1, [m >> i & 1 for i in range(12)]) for m in range(4096))
        )
        matrix = distance_matrix(corpus, Metric.HAMMING)
        assert matrix.ids == tuple(range(1, 4097))
        assert len(matrix.rows) == 4096
        _assert_cells(corpus, matrix, random.Random(4096).sample(range(4096), 48))

    @pytest.fixture
    def fallback(self, monkeypatch):
        """Records each use of the pair-by-pair L1 rows."""
        calls = []
        rows = analysis._l1_rows

        def counted(keys, index):
            calls.append(len(index))
            return rows(keys, index)

        monkeypatch.setattr(analysis, "_l1_rows", counted)
        return calls

    def test_l1_lanes_hold_column_maxima_summing_to_255(self, fallback):
        # Column maxima 200 + 50 + 5 = 255, one distance of 255; one more is 256.
        vectors = [[200, 50, 5] + [0] * 9, [0] * 12, [100, 0, 5] + [0] * 9, [0, 50, 1] + [0] * 9]
        corpus = Corpus(tuple(_vector_app(i + 1, v) for i, v in enumerate(vectors)))
        matrix = distance_matrix(corpus, Metric.L1)
        assert max(map(max, matrix.rows)) == matrix.rows[0][1] == 255
        assert isinstance(matrix._distinct[0], bytes)
        _assert_cells(corpus, matrix)
        assert fallback == []
        vectors[1][11] = 1
        corpus = Corpus(tuple(_vector_app(i + 1, v) for i, v in enumerate(vectors)))
        matrix = distance_matrix(corpus, Metric.L1)
        assert matrix.rows[0][1] == 256
        _assert_cells(corpus, matrix)
        assert fallback == [4]

    @pytest.mark.parametrize(
        "big", [255, 10**3999 + 7], ids=["255", "4000 digits"]
    )
    def test_l1_falls_back_on_larger_components(self, fallback, big):
        vectors = [[big] + [0] * 11, [0] * 12, [1] * 12, [big, 254] * 6]
        corpus = Corpus(tuple(_vector_app(i + 1, v) for i, v in enumerate(vectors)))
        matrix = distance_matrix(corpus, Metric.L1)
        assert matrix.rows[0][1] == big
        _assert_cells(corpus, matrix)
        assert fallback == [4]

    @pytest.mark.parametrize("metric", list(Metric))
    def test_no_and_one_application(self, metric):
        empty = distance_matrix(Corpus(), metric)
        assert (empty.ids, empty.rows) == ((), ())
        one = distance_matrix(Corpus((_app(7, "datible"),)), metric)
        assert (one.ids, one.rows) == ((7,), ((0,),))

    def test_equal_keys_share_one_row(self):
        # 2 keeps the L1 lanes; 255 takes the pair-by-pair path.
        for big in (2, 255):
            vectors = [[big, 1] + [0] * 10, [1, big] + [0] * 10, [big, 1] + [0] * 10]
            corpus = Corpus(tuple(_vector_app(i + 1, v) for i, v in enumerate(vectors)))
            hamming = distance_matrix(corpus, Metric.HAMMING)
            assert len(hamming._distinct) == 1
            assert hamming.rows[0] is hamming.rows[1] is hamming.rows[2]
            l1 = distance_matrix(corpus, Metric.L1)
            assert len(l1._distinct) == 2
            assert l1.rows[0] is l1.rows[2]
            assert l1.rows[0] is not l1.rows[1]
            d = 2 * (big - 1)
            assert l1.rows == ((0, d, 0), (d, 0, d), (0, d, 0))


class TestCrossTab:
    def test_rejects_other_keys(self):
        with pytest.raises(ValueError, match="genre"):
            cross_tab(Corpus(), "year")

    def test_golden_by_genre(self):
        table = cross_tab(load_golden(), "genre")
        rows = {row.label: row.cells for row in table.rows}
        assert list(rows) == sorted(rows)
        assert rows["Ambient Media"]["I"] == (9,)
        assert rows["Constructive Assemblies"]["II"] == (2, 3, 19)
        assert rows["Artifacts & Objects"]["IV"] == (20, 24, 31, 33)
        assert rows["Tokens and Constraints"]["II"] == (1, 4)
        assert rows["Tokens and Constraints"]["IV"] == (11,)
        assert all(cells["unclassified"] == () for cells in rows.values())
        assert len(table.apps) == 33

    def test_golden_by_subgenre(self):
        table = cross_tab(load_golden(), "subgenre")
        rows = {row.label: row.cells for row in table.rows}
        assert len(rows) == 13
        tabletop = rows["Tabletop"]
        assert tabletop["II"] == (7, 16, 17, 32)
        assert tabletop["III"] == (6, 8, 18, 25)
        assert rows["Workbench"]["II"] == (13,)

    def test_missing_key_grouped_under_none_last(self):
        corpus = Corpus(
            (
                Application(id=1, name="bare", entities=_app(9, "datible").entities),
                Application(
                    id=2,
                    name="labeled",
                    genre="Z genre",
                    entities=_app(9, "opible").entities,
                ),
            )
        )
        table = cross_tab(corpus, "genre")
        assert [row.label for row in table.rows] == ["Z genre", None]
        assert table.rows[1].cells["I"] == (1,)
        assert table.apps[0].genre is None
        assert table.apps[0].subgenre is None
        assert (table.apps, table.classes) == (corpus.applications, ("I", "IV"))

    def test_a_genre_named_none_is_its_own_row(self):
        entities = _app(9, "datible").entities
        corpus = Corpus(
            (
                Application(id=1, name="named", genre="(none)", entities=entities),
                Application(id=2, name="bare", entities=entities),
            )
        )
        table = cross_tab(corpus, "genre")
        assert [row.label for row in table.rows] == ["(none)", None]
        assert [row.cells["I"] for row in table.rows] == [(1,), (2,)]

    @given(
        st.lists(
            st.tuples(*[st.sampled_from([None, "(none)", "Alpha", "Beta"])] * 2),
            max_size=12,
        ),
        st.sampled_from(["genre", "subgenre"]),
    )
    @settings(max_examples=100)
    def test_rows_partition_the_applications_by_key_value(self, keys, key):
        corpus = Corpus(
            tuple(
                Application(
                    id=i + 1,
                    name=f"app {i + 1}",
                    genre=genre,
                    subgenre=subgenre,
                    entities=_app(9, "datible").entities,
                )
                for i, (genre, subgenre) in enumerate(keys)
            )
        )
        value = {app.id: getattr(app, key) for app in corpus.applications}
        rows = cross_tab(corpus, key).rows
        groups = [sorted(i for ids in row.cells.values() for i in ids) for row in rows]
        assert sorted(i for ids in groups for i in ids) == sorted(value)
        present = set(value.values())
        assert [value[ids[0]] for ids in groups] == (
            sorted(present - {None}) + [None] * (None in present)
        )
        for ids in groups:
            assert ids == [i for i in sorted(value) if value[i] == value[ids[0]]]
