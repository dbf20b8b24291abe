"""Reports of classification and analytics results, and their renderers.

Each report holds its data and builds one format on request: text lines, CSV
tables or a JSON payload; DOT graphs exist for cross-tabs only.  Output is
deterministic (rows in id order, "\\n" newlines); hallmark components print
as "N" in text and as "many" in CSV and JSON, but a cluster's key, one CSV
cell, prints in its text form.  Only the renderers print a missing genre or
subgenre, as "(none)".  Each distinct distance-matrix row is formatted once,
from its bytes, and reused by every application sharing it.  A byte row with
no cell over 99 is formatted by whole-row C calls: its BCD bytes (`_BCD`, one
digit per hex nibble, "f" for a blank) give the CSV and JSON cells as its hex
with "," between bytes and every "f" deleted (`_matrix_cells`), and the text
lines one run of equal-width columns at a time, through one reused buffer of
pad bytes per run (`_matrix_lines`).  DOT quotes each label once.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from itertools import groupby
from typing import Any, Iterable, Iterator

from .analysis import (
    CLASS_LABELS,
    _class_counts,
    Cluster,
    CrossTab,
    DistanceMatrix,
    Metric,
    RoleShare,
    cluster_by_binary_hallmark,
    cluster_by_hallmark,
    cross_tab,
    distance_matrix,
    distinct_binary_hallmark_count,
    distinct_hallmark_count,
    role_distribution,
    term_coverage,
    EmptyCorpusError,
)
from .classify import ClassResult, classify
from .hallmark import Hallmark
from .model import Corpus, Role
from .terms import TERMS, Term

__all__ = [
    "AppRow",
    "HallmarkTable",
    "ClassTable",
    "Coverage",
    "Clusters",
    "Analytics",
    "hallmark_table",
    "class_table",
    "coverage_report",
    "clusters_report",
    "analytics_report",
    "render",
    "render_text",
    "render_csv",
    "render_json",
    "render_dot",
]

Table = Iterable[list[Any]]

_TERM_NAMES = [term.name for term in TERMS]
_json = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False).encode
# Distance v < 100 as a byte whose hex reads v's digits ("f" is a blank); 100 and up as "ee".
_BCD = bytes.fromhex("".join(f"{v:f>2}" for v in range(100))).ljust(256, b"\xee")
_NO_F = str.maketrans("", "", "f")  # deletes BCD blanks in one C pass


def _table_lines(
    headers: tuple[str, ...], rows: list[tuple[str, ...]], aligns: str
) -> list[str]:
    """Fixed-width columns, aligned "l"(eft) or "r"(ight) per column."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    for row in [headers] + rows:
        cells = [
            cell.rjust(widths[i]) if aligns[i] == "r" else cell.ljust(widths[i])
            for i, cell in enumerate(row)
        ]
        lines.append("  ".join(cells).rstrip())
    return lines


class _Padded(dict):
    """Values' decimal strings right-aligned to ``width``, each made once."""

    def __init__(self, width: int) -> None:
        super().__init__()
        self.width = width

    def __missing__(self, value: int) -> str:
        self[value] = cell = str(value).rjust(self.width)
        return cell


def _matrix_cells(matrix: DistanceMatrix) -> list[str]:
    """Each distinct row's cells joined by commas, formatted once per row."""
    rows = matrix._distinct
    if rows and isinstance(rows[0], bytes):  # BCD hex, unless a cell is 100 or more
        cells = [row.translate(_BCD).hex(",").translate(_NO_F) for row in rows]
        if not any("e" in row for row in cells):
            return cells
    strings = _Padded(0)
    return [",".join(map(strings.__getitem__, row)) for row in rows]


def _matrix_lines(matrix: DistanceMatrix) -> Iterator[str]:
    """The matrix as an indented right-aligned table, formatted line by line.

    A distance matrix is symmetric, so column j is as wide as id j or the
    largest value of row j.  Byte rows with no cell over 99 are formatted one
    run of equal-width columns at a time (ids ascend, so there are few runs):
    a cell of width w is w // 2 pad bytes, "ff" in hex, and its BCD byte, after
    a blank from hex's separator if w is odd.  Other rows share one cell lookup
    per column width.
    """
    ids = [str(i) for i in matrix.ids]
    rows = matrix._distinct
    if rows and isinstance(rows[0], bytes):  # a cell of 10 or more outlives deleting 0-9, in C
        ones, twos = bytes(range(10)), bytes(range(100))  # the values of 1, and of up to 2 digits
        widest = [1 + bool(r.translate(None, ones)) + bool(r.translate(None, twos)) for r in rows]
    else:
        widest = list(map(len, map(str, map(max, rows))))
    widths = [max(len(i), widest[k]) for i, k in zip(ids, matrix._index)]
    if rows and isinstance(rows[0], bytes) and max(widest) < 3:
        runs, start = [], 0  # each run's columns, reused buffer, pad bytes per cell, parity
        for width, group in groupby(widths):
            end, pad = start + len(list(group)), width // 2
            lanes = bytearray(b"\xff" * (end - start) * (pad + 1))
            runs.append((slice(start, end), lanes, pad, width % 2))
            start = end
        cells = []
        for row in rows:
            bcd, parts = row.translate(_BCD), []
            for run, lanes, pad, odd in runs:
                lanes[pad :: pad + 1] = bcd[run]
                parts.append(" " + lanes.hex(" ", pad + 1) if odd else lanes.hex())
            cells.append("".join(parts).replace("f", " "))
    else:
        padded = {width: _Padded(width + 2) for width in set(widths)}
        columns = [padded[width] for width in widths]
        cells = ["".join(map(dict.__getitem__, columns, row)) for row in rows]
    first = max([2, *map(len, ids)])
    yield "  " + "  ".join(["id".rjust(first), *map(str.rjust, ids, widths)])
    for i, k in zip(ids, matrix._index):
        yield "  " + i.rjust(first) + cells[k]


def _key_label(value: str | None) -> str:
    """A genre or subgenre as printed: a missing one is "(none)"."""
    return "(none)" if value is None else value


def _indent(lines: list[str]) -> list[str]:
    return ["  " + line for line in lines]


def _ids(ids: Iterable[int], sep: str) -> str:
    return sep.join(str(i) for i in ids)


@dataclass(frozen=True)
class AppRow:
    id: int
    name: str
    hallmark: Hallmark
    result: ClassResult


@dataclass(frozen=True)
class HallmarkTable:
    rows: tuple[AppRow, ...]

    def text_lines(self) -> list[str]:
        rows = [(str(r.id), r.name, str(r.hallmark), r.result.label) for r in self.rows]
        return _table_lines(("id", "name", "hallmark", "class"), rows, "rlll")

    def csv_tables(self) -> list[Table]:
        rows = [[r.id, r.name] + r.hallmark.to_json() for r in self.rows]
        return [[["id", "name"] + _TERM_NAMES] + rows]

    def payload(self) -> dict[str, Any]:
        return {
            "applications": [
                {
                    "id": r.id,
                    "name": r.name,
                    "hallmark": r.hallmark.to_json(),
                    "class": r.result.label,
                }
                for r in self.rows
            ]
        }


@dataclass(frozen=True)
class ClassTable:
    rows: tuple[AppRow, ...]

    def text_lines(self) -> list[str]:
        rows = [
            (str(r.id), r.name, r.result.label, r.result.reason or "")
            for r in self.rows
        ]
        return _table_lines(("id", "name", "class", "reason"), rows, "rlll")

    def csv_tables(self) -> list[Table]:
        rows = [
            [r.id, r.name] + r.hallmark.to_json() + [r.result.label]
            for r in self.rows
        ]
        return [[["id", "name"] + _TERM_NAMES + ["class"]] + rows]

    def payload(self) -> dict[str, Any]:
        return {
            "applications": [
                {
                    "id": r.id,
                    "name": r.name,
                    "class": r.result.label,
                    "rule": r.result.rule,
                    "reason": r.result.reason,
                }
                for r in self.rows
            ]
        }


@dataclass(frozen=True)
class Coverage:
    entries: tuple[tuple[Term, int], ...]

    def text_lines(self) -> list[str]:
        rows = [(term.name, str(count)) for term, count in self.entries]
        return _table_lines(("term", "count"), rows, "lr")

    def csv_tables(self) -> list[Table]:
        return [[["term", "count"]] + [[term.name, n] for term, n in self.entries]]

    def payload(self) -> dict[str, int]:
        return {term.name: count for term, count in self.entries}


@dataclass(frozen=True)
class Clusters:
    binary: bool
    distinct: int
    clusters: tuple[Cluster, ...]

    def text_lines(self, heading: str = "clusters:") -> list[str]:
        kind = "binary hallmarks" if self.binary else "hallmarks"
        lines = [f"distinct {kind}: {self.distinct}", heading]
        if not self.clusters:
            return lines + ["  none"]
        return lines + [f"  {c.key}: {_ids(c.members, ', ')}" for c in self.clusters]

    def csv_tables(self) -> list[Table]:
        rows = [[str(c.key), _ids(c.members, " ")] for c in self.clusters]
        key_column = "binary_hallmark" if self.binary else "hallmark"
        return [[[key_column, "members"]] + rows]

    def payload(self) -> dict[str, Any]:
        clusters = [
            {"hallmark": c.key.to_json(), "members": c.members} for c in self.clusters
        ]
        return {"binary": self.binary, "distinct": self.distinct, "clusters": clusters}


@dataclass(frozen=True)
class Analytics:
    application_count: int
    record_count: int
    coverage: Coverage
    roles: dict[Role, RoleShare] | None
    classes: dict[str, int]
    clusters: Clusters
    binary_clusters: Clusters
    crosstab: CrossTab
    matrix: DistanceMatrix

    def text_lines(self) -> list[str]:
        # Distribution tables are sized with their headers but printed without.
        roles = ["(no entity records)"]
        if self.roles is not None:
            rows = [
                (role.value, str(share.count), f"{share.percent}%")
                for role, share in self.roles.items()
            ]
            roles = _table_lines(("role", "count", "percent"), rows, "lrr")[1:]
        classes = [(label, str(count)) for label, count in self.classes.items()]
        tab = self.crosstab
        tab_rows = [
            (_key_label(row.label), *(_ids(ids, " ") or "-" for ids in row.cells.values()))
            for row in tab.rows
        ]
        return [
            f"applications: {self.application_count}",
            f"entity records: {self.record_count}",
            "",
            "term coverage:",
            *_indent(self.coverage.text_lines()[1:]),
            "",
            "role distribution:",
            *_indent(roles),
            "",
            "class distribution:",
            *_indent(_table_lines(("class", "count"), classes, "lr")[1:]),
            "",
            *self.clusters.text_lines("hallmark clusters:"),
            "",
            *self.binary_clusters.text_lines("binary hallmark clusters:"),
            "",
            f"cross-tab by {tab.key}:",
            *_indent(_table_lines((tab.key,) + CLASS_LABELS, tab_rows, "l" * 6)),
            "",
            f"distance matrix ({self.matrix.metric.value}):",
            *_matrix_lines(self.matrix),
        ]

    def csv_tables(self) -> list[Table | str]:
        statistics = [
            ["statistic", "value"],
            ["applications", self.application_count],
            ["entity_records", self.record_count],
            ["distinct_hallmarks", self.clusters.distinct],
            ["distinct_binary_hallmarks", self.binary_clusters.distinct],
        ]
        roles: list[list[Any]] = [["role", "count", "percent"]]
        if self.roles is not None:
            roles += [[r.value, s.count, s.percent] for r, s in self.roles.items()]
        classes = [["class", "count"]] + [[k, n] for k, n in self.classes.items()]
        tab, matrix = self.crosstab, self.matrix
        crosstab = [[tab.key, *CLASS_LABELS]] + [
            [_key_label(row.label)] + [_ids(ids, " ") for ids in row.cells.values()]
            for row in tab.rows
        ]
        cells = _matrix_cells(matrix)
        matrix_rows = [f"{i},{cells[k]}\n" for i, k in zip(matrix.ids, matrix._index)]
        return [
            statistics,
            *self.coverage.csv_tables(),
            roles,
            classes,
            *self.clusters.csv_tables(),
            *self.binary_clusters.csv_tables(),
            crosstab,
            "".join([",".join(["id", *map(str, matrix.ids)]) + "\n", *matrix_rows]),
        ]

    def payload(self) -> dict[str, Any]:
        return self._payload(self.matrix.rows)

    def _payload(self, rows: Any) -> dict[str, Any]:
        tab, matrix = self.crosstab, self.matrix
        return {
            "applications": self.application_count,
            "entity_records": self.record_count,
            "coverage": self.coverage.payload(),
            "roles": None
            if self.roles is None
            else {
                role.value: {"count": share.count, "percent": share.percent}
                for role, share in self.roles.items()
            },
            "classes": self.classes,
            "distinct_hallmarks": self.clusters.distinct,
            "hallmark_clusters": self.clusters.payload()["clusters"],
            "distinct_binary_hallmarks": self.binary_clusters.distinct,
            "binary_hallmark_clusters": self.binary_clusters.payload()["clusters"],
            "cross_tab": {
                "key": tab.key,
                "rows": [{"label": _key_label(row.label), **row.cells} for row in tab.rows],
            },
            "distance_matrix": {"metric": matrix.metric.value, "ids": matrix.ids, "rows": rows},
        }


def _app_rows(corpus: Corpus) -> tuple[AppRow, ...]:
    return tuple(AppRow(a.id, a.name, m, classify(m)) for a, m in corpus._by_id)


def hallmark_table(corpus: Corpus) -> HallmarkTable:
    return HallmarkTable(_app_rows(corpus))


def class_table(corpus: Corpus) -> ClassTable:
    return ClassTable(_app_rows(corpus))


def coverage_report(corpus: Corpus) -> Coverage:
    return Coverage(tuple(term_coverage(corpus).items()))


def clusters_report(corpus: Corpus, binary: bool = False) -> Clusters:
    if binary:
        distinct, clusters = distinct_binary_hallmark_count, cluster_by_binary_hallmark
    else:
        distinct, clusters = distinct_hallmark_count, cluster_by_hallmark
    return Clusters(binary, distinct(corpus), tuple(clusters(corpus)))


def analytics_report(
    corpus: Corpus, key: str = "genre", metric: Metric = Metric.HAMMING
) -> Analytics:
    # Every section reads the hallmarks, and most the id order, so both are
    # computed outside any one section's time.  The matrix comes first: L1
    # refuses a "many" before any other section is built.
    corpus._by_id
    matrix = distance_matrix(corpus, metric)
    try:
        roles: dict[Role, RoleShare] | None = role_distribution(corpus)
    except EmptyCorpusError:
        roles = None
    crosstab = cross_tab(corpus, key)  # its class labels give the class distribution
    return Analytics(
        application_count=len(corpus.applications),
        record_count=corpus.record_count,
        coverage=coverage_report(corpus),
        roles=roles,
        classes=_class_counts(crosstab.classes),
        clusters=clusters_report(corpus),
        binary_clusters=clusters_report(corpus, binary=True),
        crosstab=crosstab,
        matrix=matrix,
    )


# --- formats ----------------------------------------------------------

_REPORTS = (HallmarkTable, ClassTable, Coverage, Clusters, Analytics)


def _checked(report: Any, fmt: str) -> Any:
    if not isinstance(report, _REPORTS):
        raise TypeError(f"cannot render {type(report).__name__} as {fmt}")
    return report


def render_text(report: Any) -> str:
    # The empty last line ends the output with "\n" without copying it again.
    return "\n".join([*_checked(report, "text").text_lines(), ""])


def _csv(table: Table) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(table)
    return buffer.getvalue()


def render_csv(report: Any) -> str:
    tables = _checked(report, "CSV").csv_tables()  # a str is CSV text already
    return "\n".join(table if isinstance(table, str) else _csv(table) for table in tables)


def render_json(report: Any) -> str:
    if not isinstance(report, Analytics):
        return _json(_checked(report, "JSON").payload()) + "\n"
    # The matrix rows end the payload: its "null}}" gives way to each distinct row's cells.
    rows = ["[" + cells + "]" for cells in _matrix_cells(report.matrix)]
    joined = ",".join(map(rows.__getitem__, report.matrix._index))
    return _json(report._payload(None))[: -len("null}}")] + "[" + joined + "]}}\n"


def _dot_quote(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _class_node(label: str) -> str:
    return _dot_quote("Unclassified" if label == "unclassified" else f"Class {label}")


def render_dot(report: Any) -> str:
    """Genre -> subgenre -> application -> class membership graph.

    Only cross-tabs have the hierarchy this graph needs; other reports
    raise TypeError.
    """
    if isinstance(report, Analytics):
        report = report.crosstab
    if not isinstance(report, CrossTab):
        raise TypeError(f"cannot render {type(report).__name__} as DOT")
    if not report.apps:
        return "digraph corpus {}\n"

    # Nodes are keyed by printed label, so a missing genre and one named "(none)" share
    # one.  Each label is quoted once.
    genres = [_key_label(app.genre) for app in report.apps]
    subgenres = [_key_label(app.subgenre) for app in report.apps]
    quoted = {label: _dot_quote(label) for label in {*genres, *subgenres}}
    names = [_dot_quote(app.name) for app in report.apps]
    classes = {label: _class_node(label) for label in CLASS_LABELS if label in report.classes}

    lines = ["digraph corpus {", "  rankdir=LR;"]
    for group in (
        [quoted[g] for g in sorted(set(genres))],
        [quoted[s] for s in sorted(set(subgenres))],
        names,
        list(classes.values()),
    ):
        lines.append("  { rank=same; " + "; ".join(group) + "; }")
    for genre, subgenre in sorted(set(zip(genres, subgenres))):
        lines.append(f"  {quoted[genre]} -> {quoted[subgenre]};")
    for subgenre, name in zip(subgenres, names):
        lines.append(f"  {quoted[subgenre]} -> {name};")
    for name, label in zip(names, report.classes):
        lines.append(f"  {name} -> {classes[label]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


_RENDERERS = {
    "text": render_text,
    "csv": render_csv,
    "json": render_json,
    "dot": render_dot,
}


def render(report: Any, fmt: str) -> str:
    """Render a report in the named format; unknown formats raise ValueError."""
    if fmt not in _RENDERERS:
        raise ValueError(f"unknown format {fmt!r}")
    return _RENDERERS[fmt](report)
