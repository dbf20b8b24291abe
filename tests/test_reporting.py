"""Text, CSV, JSON, and DOT renderings."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import random
import re
import sys
from operator import attrgetter
from pathlib import Path
from typing import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusgen import clean_corpus, random_corpus
from tangibility import (
    Application,
    Corpus,
    Count,
    Entity,
    Hallmark,
    Metric,
    SymbolicCountError,
    all_terms,
    class_distribution,
    classify,
    compute_hallmark,
    export_json,
    import_json,
    load_golden,
    parse_corpus,
    parse_term,
    serialize_corpus,
)
from tangibility import analysis, reporting
from tangibility.cli import main
from tangibility.reporting import (
    Clusters,
    Coverage,
    analytics_report,
    class_table,
    clusters_report,
    coverage_report,
    crosstab_report,
    hallmark_table,
    render,
    render_csv,
    render_dot,
    render_json,
    render_text,
)

TERM_NAMES = [t.name for t in all_terms()]


def _rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _vector_corpus(vectors: dict[int, tuple[int, ...]]) -> Corpus:
    """Applications by id whose hallmark is the id's vector: one entity per nonzero term."""
    return Corpus(
        tuple(
            Application(
                id=app_id,
                name=f"a{app_id}",
                entities=tuple(
                    Entity(f"e{i}", term.role, term.tangibility, Count(n))
                    for i, (term, n) in enumerate(zip(all_terms(), vector))
                    if n
                ),
            )
            for app_id, vector in vectors.items()
        )
    )


def _bits(mask: int) -> tuple[int, ...]:
    return tuple(mask >> i & 1 for i in range(12))


def _spy(monkeypatch, function, record) -> list:
    """``record`` of the argument of each call to the one-argument ``function``,
    spied wherever a tangibility module binds it, as the benchmark's tracer does."""
    calls = []

    def counted(argument):
        calls.append(record(argument))
        return function(argument)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "tangibility":
            for key, value in list(vars(module).items()):
                if value is function:
                    monkeypatch.setattr(module, key, counted)
    return calls


def _spy_compute_hallmark(monkeypatch) -> list[int]:
    """The ids of the applications compute_hallmark is called on."""
    return _spy(monkeypatch, compute_hallmark, attrgetter("id"))


def test_analytics_report_computes_each_hallmark_once(monkeypatch):
    calls = _spy_compute_hallmark(monkeypatch)
    golden = load_golden()
    exact = tuple(
        dataclasses.replace(
            app,
            entities=tuple(
                dataclasses.replace(e, count=Count(2)) if e.count.is_many else e
                for e in app.entities
            ),
        )
        for app in golden.applications
    )
    for apps, metric in ((golden.applications, Metric.HAMMING), (exact, Metric.L1)):
        calls.clear()
        analytics_report(Corpus(apps), metric=metric)
        assert sorted(calls) == sorted(app.id for app in apps)

    # Every report built from one corpus shares its hallmarks, and one sort of
    # its applications by id.
    calls.clear()
    sorts = []  # the ids of each sort of (application, ...) tuples

    def counted_sorted(items, **kwargs):
        items = sorted(items, **kwargs)
        if items and isinstance(items[0], tuple) and isinstance(items[0][0], Application):
            sorts.append([item[0].id for item in items])
        return items

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "tangibility":
            monkeypatch.setattr(module, "sorted", counted_sorted, raising=False)
    corpus = Corpus(exact)
    hallmark_table(corpus)
    class_table(corpus)
    clusters_report(corpus)
    clusters_report(corpus, binary=True)
    for metric in (Metric.HAMMING, Metric.L1):
        analytics_report(corpus, metric=metric)
    assert sorted(calls) == sorted(app.id for app in exact)
    assert sorts == [sorted(app.id for app in exact)]


def test_analytics_report_classifies_each_hallmark_once(monkeypatch):
    marks = _spy(monkeypatch, classify, id)
    for metric, allow_many in ((Metric.HAMMING, True), (Metric.L1, False)):
        rng = random.Random(f"classify {metric.value}")
        corpus = random_corpus(rng, 50, min_apps=50, allow_many=allow_many)
        marks.clear()
        report = analytics_report(corpus, metric=metric)
        assert sorted(marks) == sorted(map(id, corpus.hallmarks))
        assert report.classes == class_distribution(corpus)


def test_analytics_report_hashes_no_count(monkeypatch):
    """Hallmarks hash from their values, read once when built: clusters and
    distinct counts never hash a Count.  One grouping per cluster kind gives
    both, so each application's hallmark is hashed once per report."""
    calls = _spy_compute_hallmark(monkeypatch)
    hashed = []
    count_hash = Count.__hash__

    def spy(count):
        hashed.append(count)
        return count_hash(count)

    marks = []
    mark_hash = Hallmark.__hash__

    def mark_spy(mark):
        marks.append(id(mark))
        return mark_hash(mark)

    monkeypatch.setattr(Count, "__hash__", spy)
    monkeypatch.setattr(Hallmark, "__hash__", mark_spy)
    hash(Count(3))
    assert len(hashed) == 1  # the spy sees a Count hashed
    hashed.clear()
    for metric, allow_many in ((Metric.HAMMING, True), (Metric.L1, False)):
        rng = random.Random(f"hash {metric.value}")
        corpus = random_corpus(rng, 200, min_apps=200, allow_many=allow_many)
        calls.clear()
        marks.clear()
        analytics_report(corpus, metric=metric)
        assert sorted(calls) == sorted(app.id for app in corpus.applications)
        assert sorted(marks) == sorted(map(id, corpus.hallmarks))
    assert hashed == []


def _raising(monkeypatch, modules, names) -> None:
    """Each of ``names`` that a module of ``modules`` binds raises when called."""

    def built(*args, **kwargs):
        raise AssertionError("a section was built that this report does not need")

    for module in modules:
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, built)


def test_l1_refuses_many_before_building_other_sections(monkeypatch, capsys):
    sections = [
        "term_coverage",
        "_term_counts",
        "_coverage",
        "_role_shares",
        "_class_counts",
        "_clustered",
        "cross_tab",
    ]
    for name in sections:
        assert hasattr(reporting, name), name  # each is a name reporting builds with
    _raising(monkeypatch, [reporting], sections)
    with pytest.raises(SymbolicCountError, match="application 9"):
        analytics_report(load_golden(), metric=Metric.L1)
    # DOT builds the cross-tab alone, after the same refusal, and no matrix.
    _raising(monkeypatch, [reporting], ["distance_matrix"])
    with pytest.raises(SymbolicCountError, match="application 9"):
        crosstab_report(load_golden(), metric=Metric.L1)
    assert main(["analyze", "--golden", "--metric", "l1", "--format", "dot"]) == 1
    refusal = "<golden>: error: symbolic count 'many' in application 9; L1 distance is undefined\n"
    assert capsys.readouterr() == ("", refusal)


def test_dot_builds_only_the_cross_tab(monkeypatch, capsys):
    _raising(
        monkeypatch,
        [analysis, reporting],
        [
            "distance_matrix",
            "_clustered",
            "cluster_by_hallmark",
            "cluster_by_binary_hallmark",
            "distinct_hallmark_count",
            "distinct_binary_hallmark_count",
            "term_coverage",
            "_term_counts",
            "role_distribution",
        ],
    )
    assert main(["analyze", "--golden", "--format", "dot"]) == 0
    snapshot = Path(__file__).parent / "snapshots" / "golden" / "analyze-dot-genre-hamming.out"
    assert capsys.readouterr() == (snapshot.read_text(encoding="utf-8"), "")


@pytest.mark.parametrize("fmt", ["text", "csv", "json", "dot"])
def test_a_metric_given_by_value_renders_as_its_member(fmt):
    corpus = load_golden()
    by_value = analytics_report(corpus, metric="hamming")
    assert render(by_value, fmt) == render(analytics_report(corpus, metric=Metric.HAMMING), fmt)


def _id_ordered_outputs(corpus: Corpus) -> Iterator[str]:
    """Every id-ordered report of ``corpus`` in every format, or L1's refusal."""
    for report in (
        class_table(corpus),
        hallmark_table(corpus),
        clusters_report(corpus),
        clusters_report(corpus, binary=True),
    ):
        for fmt in ("text", "csv", "json"):
            yield render(report, fmt)
    for key in ("genre", "subgenre"):
        for metric in Metric:
            try:
                report = analytics_report(corpus, key, metric)
            except SymbolicCountError as error:
                yield f"refused: {error}"
                continue
            for fmt in ("text", "csv", "json", "dot"):
                yield render(report, fmt)


@pytest.mark.parametrize("seed", [None, 0, 1, 2, 3, 4, 5])
def test_output_does_not_depend_on_input_order(seed):
    """Reversed or shuffled, a corpus prints the same reports; the writers keep
    the order they are given.  ``seed`` None is the golden corpus."""
    corpus = load_golden() if seed is None else clean_corpus(seed)
    expected = list(_id_ordered_outputs(corpus))
    apps = corpus.applications
    orders = [apps[::-1], *(tuple(random.Random(s).sample(apps, len(apps))) for s in range(5))]
    for order in orders:
        reordered = Corpus(order)
        assert list(_id_ordered_outputs(reordered)) == expected
        assert parse_corpus(serialize_corpus(reordered))[0].applications == order
        assert import_json(export_json(reordered))[0].applications == order


class TestText:
    def test_hallmark_table_golden(self):
        text = render_text(hallmark_table(load_golden()))
        lines = text.splitlines()
        assert lines[0].split() == ["id", "name", "hallmark", "class"]
        assert len(lines) == 34
        urp = next(l for l in lines if "Urp" in l)
        assert "(2, 0, 2, 2, 2, 0, 0, 2, 2, 0, 1, 0)" in urp
        assert urp.rstrip().endswith("II")
        pinwheels = next(l for l in lines if "Pinwheels" in l)
        assert "(N, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)" in pinwheels

    def test_each_application_listed_once(self):
        text = render_text(hallmark_table(load_golden()))
        assert text.count("ReacTable") == 1
        assert text.count("Slurp") == 1

    def test_no_trailing_spaces_and_lf_only(self):
        text = render_text(hallmark_table(load_golden()))
        assert "\r" not in text
        assert all(line == line.rstrip() for line in text.splitlines())
        assert text.endswith("\n")

    def test_class_table_shows_reason_column(self):
        corpus = Corpus(
            (
                Application(
                    id=1,
                    name="inert",
                    entities=(
                        Entity("c", parse_term("constable").role, parse_term("constable").tangibility),
                    ),
                ),
            )
        )
        text = render_text(class_table(corpus))
        assert text.splitlines()[0].split() == ["id", "name", "class", "reason"]
        assert "unclassified" in text
        assert "no data, no bodied operation" in text

    def test_coverage_empty_corpus_is_header_plus_zeroes(self):
        text = render_text(coverage_report(Corpus()))
        lines = text.splitlines()
        assert lines[0].split() == ["term", "count"]
        assert len(lines) == 13
        assert all(line.split()[1] == "0" for line in lines[1:])

    def test_coverage_with_no_entries(self):
        assert render_text(Coverage(())) == "term  count\n"

    def test_clusters_golden(self):
        text = render_text(clusters_report(load_golden()))
        lines = text.splitlines()
        assert lines[0] == "distinct hallmarks: 29"
        assert lines[1] == "clusters:"
        assert lines[2] == "  (0, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0): 2, 19"
        assert lines[3] == "  (0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0): 20, 24, 31, 33"

    def test_clusters_binary_golden(self):
        text = render_text(clusters_report(load_golden(), binary=True))
        assert text.splitlines()[0] == "distinct binary hallmarks: 27"
        assert ": 2, 10, 19" in text
        assert ": 9, 29" in text

    def test_clusters_none(self):
        text = render_text(clusters_report(Corpus()))
        assert text == "distinct hallmarks: 0\nclusters:\n  none\n"

    @pytest.mark.parametrize("binary", ["no", 1])
    def test_clusters_refuse_a_binary_that_is_not_a_bool(self, binary):
        # The report would print the value back ('"binary":"no"', '"binary":1').
        with pytest.raises(TypeError, match="binary must be a bool"):
            clusters_report(load_golden(), binary=binary)

    def test_analytics_sections(self):
        text = render_text(analytics_report(load_golden()))
        assert "applications: 33" in text
        assert "entity records: 145" in text
        assert "distinct hallmarks: 29" in text
        assert "distinct binary hallmarks: 27" in text
        assert "cross-tab by genre:" in text
        assert "distance matrix (hamming):" in text
        assert "datum" in text and "43%" in text

    def test_matrix_cells_padded_to_their_column(self):
        # Values of one to seven digits, ids of one to four, on both L1 paths.
        for big in (254, 10**6):
            vectors = [(0,) * 12, (9,) + (0,) * 11, (big,) * 12, (1, 2) * 6, (big // 10,) * 12]
            corpus = _vector_corpus(dict(zip((1000, 5, 42, 7, 3), vectors)))
            report = analytics_report(corpus, metric=Metric.L1)
            matrix = report.matrix
            ids = [str(i) for i in matrix.ids]
            widths = [
                max(len(i), *(len(str(row[j])) for row in matrix.rows))
                for j, i in enumerate(ids)
            ]
            first = max(2, *map(len, ids))
            expected = [
                "  " + "  ".join(cell.rjust(w) for cell, w in zip([key, *cells], [first, *widths]))
                for key, cells in [("id", ids)]
                + [(i, [str(v) for v in row]) for i, row in zip(ids, matrix.rows)]
            ]
            text = render_text(report)
            assert text.split("distance matrix (l1):\n")[1].splitlines() == expected

    def test_analytics_empty_corpus(self):
        text = render_text(analytics_report(Corpus()))
        assert "applications: 0" in text
        assert "(no entity records)" in text

    def test_unrenderable_type(self):
        with pytest.raises(TypeError):
            render_text(42)


def _reference_matrix(matrix) -> tuple[list[str], str]:
    """The text lines and CSV of the matrix, formatted cell by cell from its
    int tuples; a column is as wide as its id or its widest cell."""
    ids, rows = matrix.ids, matrix.rows
    widths = [max([len(str(i)), *(len(str(row[j])) for row in rows)]) for j, i in enumerate(ids)]
    first = max([2, *(len(str(i)) for i in ids)])
    lines = [
        "  " + "  ".join(str(cell).rjust(w) for cell, w in zip([key, *cells], [first, *widths]))
        for key, cells in [("id", ids), *zip(ids, rows)]
    ]
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(
        [["id", *ids], *([i, *row] for i, row in zip(ids, rows))]
    )
    return lines, buffer.getvalue()


# Masks by id.  0x00F, 0x03F, 0x07F and 0x0F0 are within 9 of every mask used
# here, and 0x000 and 0x001 are 12 and 11 from 0xFFF: ids 1-9 alternate
# one-digit and two-digit columns.  Ids of 1-7 digits give columns of every
# width up to 7, so cells with odd and even pads.
RUNS = {
    1: 0x03F, 2: 0x000, 3: 0x00F, 4: 0xFFF, 5: 0x03F, 6: 0x000, 7: 0x0F0, 8: 0x001, 9: 0x07F,
    10: 0x00F, 11: 0xFFF, 99: 0x03F, 100: 0x000, 101: 0x0F0, 999: 0x001, 1000: 0xFFF, 1001: 0x03F,
    9_999: 0x0F0, 10_000: 0x000, 99_999: 0xFFF, 100_000: 0x001, 999_999: 0x03F, 1_000_001: 0x00F,
}
# Every id width of RUNS, and the ids on either side of a change of width.
ID_POOL = [
    *range(1, 13), 98, 99, 100, 101, 999, 1000, 1001,
    9_999, 10_000, 99_999, 100_000, 999_999, 1_000_001,
]


class TestMatrixFormats:
    """The byte-path matrix against per-cell formatting of its int tuples:
    ``str.rjust`` per column, ``csv.writer`` and ``json.dumps``."""

    @staticmethod
    def _check(corpus, metric):
        report = analytics_report(corpus, metric=metric)
        text, csv_text, json_text = (render(report, fmt) for fmt in ("text", "csv", "json"))
        lines, csv_rows = _reference_matrix(report.matrix)
        assert text.split(f"distance matrix ({metric.value}):\n")[1].splitlines() == lines
        assert csv_text.rsplit("\n\n", 1)[1] == csv_rows
        payload = json.dumps(report.payload(), separators=(",", ":"), ensure_ascii=False)
        assert json_text == payload + "\n"
        return report.matrix, lines

    @pytest.mark.parametrize("metric", list(Metric))
    def test_runs_of_widths_and_id_boundaries(self, metric):
        matrix, lines = self._check(_vector_corpus({i: _bits(m) for i, m in RUNS.items()}), metric)
        if metric is Metric.HAMMING:
            header = (
                "       id  1   2  3   4  5   6  7   8  9  10  11  99  100  101  999  1000  1001"
                "  9999  10000  99999  100000  999999  1000001"
            )
            assert lines[0] == header
            assert len(set(matrix._distinct)) == len(matrix._distinct) == 7

    @pytest.mark.parametrize("metric", list(Metric))
    @pytest.mark.parametrize("size", [0, 1])
    def test_no_and_one_application(self, metric, size):
        self._check(_vector_corpus({9: _bits(0x0F0)} if size else {}), metric)

    @pytest.mark.parametrize(
        "big",
        [3, 7, 96, 97, 252, 253, 70_000],
        ids=["lanes", "9 and 10", "98 and 99", "99 and 100", "sum 255", "sum 256", "pairwise"],
    )
    def test_l1_on_both_paths(self, big):
        # The column maxima sum to big + 3, the largest distance, and big + 2 occurs
        # too.  Bytes below 100 are formatted as BCD hex, any from 100 up by value.
        vectors = {i: (big * (i % 2), i % 4) + (0,) * 10 for i in (1, 2, 9, 10, 99, 100)}
        vectors[1000] = vectors[2]
        vectors[1001] = (big, 2) + (0,) * 10
        matrix, _ = self._check(_vector_corpus(vectors), Metric.L1)
        assert isinstance(matrix._distinct[0], tuple) is (big + 3 > 255)
        assert max(map(max, matrix.rows)) == big + 3
        assert big + 2 in matrix.rows[-1]

    @given(
        st.dictionaries(
            st.sampled_from(ID_POOL),
            st.integers(0, 4095),
            max_size=len(RUNS),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_any_hamming_corpus(self, masks):
        self._check(_vector_corpus({i: _bits(m) for i, m in masks.items()}), Metric.HAMMING)

    @pytest.mark.parametrize("metric", list(Metric))
    @pytest.mark.parametrize("fmt", ["text", "csv", "json", "dot"])
    def test_rendering_builds_no_int_rows(self, metric, fmt):
        corpus = _vector_corpus({i: _bits(m) for i, m in RUNS.items()})
        report = analytics_report(corpus, metric=metric)
        render(report, fmt)
        assert "rows" not in vars(report.matrix)
        report.matrix.rows
        assert "rows" in vars(report.matrix)


class TestCsv:
    def test_class_table_header_and_rows(self):
        out = render_csv(class_table(load_golden()))
        rows = _rows(out)
        assert rows[0] == ["id", "name"] + TERM_NAMES + ["class"]
        assert rows[0] == (
            "id,name,datible,datable,datnible,tolible,tolable,tolnible,"
            "opible,opable,opnible,constible,constable,constnible,class"
        ).split(",")
        by_id = {row[0]: row for row in rows[1:]}
        assert by_id["20"] == ["20", "TUISTER", "0", "0", "0", "0", "0", "0", "1", "0", "0", "0", "0", "0", "IV"]
        assert by_id["9"][2] == "many"
        assert by_id["9"][-1] == "I"

    def test_hallmark_columns_reimport(self):
        corpus = load_golden()
        rows = _rows(render_csv(hallmark_table(corpus)))
        assert rows[0] == ["id", "name"] + TERM_NAMES
        for row in rows[1:]:
            app = corpus.application(int(row[0]))
            expected = [
                "many" if c.is_many else str(c.value)
                for c in compute_hallmark(app).components
            ]
            assert row[2:] == expected

    def test_quoting_survives_round_trip(self):
        name = 'He said "hi", twice'
        corpus = Corpus(
            (
                Application(
                    id=1,
                    name=name,
                    entities=(
                        Entity("e", parse_term("datible").role, parse_term("datible").tangibility),
                    ),
                ),
            )
        )
        out = render_csv(class_table(corpus))
        assert _rows(out)[1][1] == name

    def test_coverage(self):
        rows = _rows(render_csv(coverage_report(load_golden())))
        assert rows[0] == ["term", "count"]
        assert rows[3] == ["datnible", "38"]

    def test_clusters(self):
        rows = _rows(render_csv(clusters_report(load_golden())))
        assert rows[0] == ["hallmark", "members"]
        assert rows[1] == ["(0, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0)", "2 19"]

    def test_analytics_sections(self):
        out = render_csv(analytics_report(load_golden()))
        assert out.startswith("statistic,value\n")
        assert "applications,33" in out
        assert "entity_records,145" in out
        assert "distinct_hallmarks,29" in out
        assert "distinct_binary_hallmarks,27" in out
        assert "\nterm,count\n" in out
        assert "\nrole,count,percent\n" in out
        assert "datum,63,43" in out
        assert "\nclass,count\n" in out
        assert "\ngenre,I,II,III,IV,unclassified\n" in out
        assert "Ambient Media,9,,,," in out

    def test_unrenderable_type(self):
        with pytest.raises(TypeError):
            render_csv(object())


class TestJson:
    def test_hallmark_table(self):
        payload = json.loads(render_json(hallmark_table(load_golden())))
        apps = payload["applications"]
        assert len(apps) == 33
        assert apps[8]["name"] == "Pinwheels"
        assert apps[8]["hallmark"] == ["many"] + [0] * 11
        assert apps[8]["class"] == "I"
        assert apps[12]["hallmark"] == [2, 0, 2, 2, 2, 0, 0, 2, 2, 0, 1, 0]

    def test_class_table_includes_rule(self):
        payload = json.loads(render_json(class_table(load_golden())))
        tuister = payload["applications"][19]
        assert tuister == {
            "id": 20,
            "name": "TUISTER",
            "class": "IV",
            "rule": "IV",
            "reason": None,
        }

    def test_analytics(self):
        payload = json.loads(render_json(analytics_report(load_golden())))
        assert payload["applications"] == 33
        assert payload["coverage"]["datnible"] == 38
        assert payload["roles"]["datum"] == {"count": 63, "percent": 43}
        assert payload["classes"] == {"I": 3, "II": 20, "III": 5, "IV": 5, "unclassified": 0}
        assert payload["distinct_hallmarks"] == 29
        assert payload["distinct_binary_hallmarks"] == 27
        assert payload["hallmark_clusters"][0]["members"] == [2, 19]
        assert payload["binary_hallmark_clusters"][0]["hallmark"] == [0, 1, 1] + [0] * 9
        assert payload["distance_matrix"]["metric"] == "hamming"

    def test_single_trailing_newline(self):
        out = render_json(coverage_report(Corpus()))
        assert out.endswith("\n") and not out.endswith("\n\n")


class TestDot:
    def test_golden_graph(self):
        dot = render_dot(analytics_report(load_golden()))
        lines = dot.splitlines()
        assert lines[0] == "digraph corpus {"
        assert lines[1] == "  rankdir=LR;"
        assert lines[-1] == "}"
        assert sum(1 for l in lines if "rank=same" in l) == 4
        rank_names = re.findall(
            r'"(?:[^"\\]|\\.)*"', "\n".join(l for l in lines if "rank=same" in l)
        )
        assert len(rank_names) == 55  # 5 genres + 13 subgenres + 33 apps + 4 classes
        assert dot.count(" -> ") == 79  # 13 + 33 + 33
        assert '"Ambient Media" -> "Dynamic everyday objects";' in dot
        assert '"Dynamic everyday objects" -> "Pinwheels";' in dot
        assert '"Pinwheels" -> "Class I";' in dot

    def test_accepts_bare_crosstab(self):
        report = analytics_report(load_golden(), key="subgenre")
        assert render_dot(report.crosstab) == render_dot(report)

    def test_empty_crosstab(self):
        assert render_dot(analytics_report(Corpus())) == "digraph corpus {}\n"

    def test_quotes_escaped(self):
        corpus = Corpus(
            (
                Application(
                    id=1,
                    name='He said "go"',
                    genre="G",
                    subgenre="S",
                    entities=(
                        Entity("e", parse_term("datible").role, parse_term("datible").tangibility),
                    ),
                ),
            )
        )
        dot = render_dot(analytics_report(corpus))
        assert '"He said \\"go\\"" -> "Class I";' in dot

    def test_each_application_keeps_its_own_class(self):
        # A hand-built corpus may repeat an id; each application still gets its own class edge.
        def app(name, term):
            entity = Entity("e", parse_term(term).role, parse_term(term).tangibility)
            return Application(id=1, name=name, genre="G", subgenre="S", entities=(entity,))

        dot = render_dot(analytics_report(Corpus((app("one", "datible"), app("two", "opible")))))
        assert dot.splitlines()[-3:-1] == ['  "one" -> "Class I";', '  "two" -> "Class IV";']

    def test_rejects_flat_reports(self):
        with pytest.raises(TypeError):
            render_dot(hallmark_table(load_golden()))


class TestRenderDispatch:
    def test_formats(self):
        report = hallmark_table(load_golden())
        assert render(report, "text") == render_text(report)
        assert render(report, "csv") == render_csv(report)
        assert render(report, "json") == render_json(report)

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="unknown format"):
            render(hallmark_table(Corpus()), "yaml")

    def test_deterministic(self):
        for fmt in ("text", "csv", "json"):
            assert render(analytics_report(load_golden()), fmt) == render(
                analytics_report(load_golden()), fmt
            )
        assert render_dot(analytics_report(load_golden())) == render_dot(
            analytics_report(load_golden())
        )
