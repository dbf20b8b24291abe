"""Corpus analytics: coverage, distributions, clusters, distances, cross-tabs.

Coverage and the role distribution count entity records, ignoring
multiplicity: a record counted "many" is still one record.  Hallmark-level
views (clusters, distances) sum multiplicities instead.  All outputs are
deterministically ordered so downstream renderings are byte-stable.

The distance matrix keeps one row per distinct key, computed in CPython's
byte loops rather than per cell.  Each key component is one ``bytes``
column across the applications; ``bytes.translate`` through a 256-byte
table turns a column into its distances to one value, read as a big int and
cached per column and value (at most columns * distinct values * n bytes).
A key's row, kept as ``bytes``, sums its components' ints, so no cell may
exceed 255: Hamming keys are the mask's low 8 bits and high 4, and L1 keys
the twelve components while their column maxima sum to at most 255.  Other
L1 rows are int tuples, summed pair by pair.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain
from operator import attrgetter, sub
from typing import Callable, Collection, Iterable, Sequence, Union

from .classify import classify
from .hallmark import BinaryHallmark, Hallmark, SymbolicCountError, binarize
from .model import Application, Corpus, Metric, Role
from .terms import TERMS, Term

__all__ = [
    "EmptyCorpusError",
    "Metric",
    "RoleShare",
    "Cluster",
    "DistanceMatrix",
    "CrossTabRow",
    "CrossTab",
    "CLASS_LABELS",
    "term_coverage",
    "role_distribution",
    "class_distribution",
    "cluster_by_hallmark",
    "cluster_by_binary_hallmark",
    "distinct_hallmark_count",
    "distinct_binary_hallmark_count",
    "distance_matrix",
    "cross_tab",
]

CLASS_LABELS = ("I", "II", "III", "IV", "unclassified")


class EmptyCorpusError(ValueError):
    """Raised by statistics that are undefined without entity records."""


@dataclass(frozen=True)
class RoleShare:
    count: int
    percent: int


@dataclass(frozen=True)
class Cluster:
    """Applications sharing one hallmark key."""

    key: Union[Hallmark, BinaryHallmark]
    members: tuple[int, ...]


@dataclass(frozen=True)
class DistanceMatrix:
    """``_distinct``: one row per distinct key; ``_index``: each application's row, by id."""

    metric: Metric
    ids: tuple[int, ...]
    _distinct: tuple[Sequence[int], ...]  # bytes, or int tuples on the pair-by-pair path
    _index: tuple[int, ...]

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """Int tuples, built on first read; applications with one row share one tuple."""
        return tuple(map([*map(tuple, self._distinct)].__getitem__, self._index))


@dataclass(frozen=True)
class CrossTabRow:
    label: str | None
    cells: dict[str, tuple[int, ...]]


@dataclass(frozen=True)
class CrossTab:
    """``apps``: the corpus's applications in id order; ``classes``: each one's class label."""

    key: str
    rows: tuple[CrossTabRow, ...]
    apps: tuple[Application, ...]
    classes: tuple[str, ...]


def _tally(corpus: Corpus, attributes: attrgetter) -> Counter:
    """Entity records by ``attributes``, counted in C with no per-record Python code."""
    entities = chain.from_iterable(map(attrgetter("entities"), corpus.applications))
    return Counter(map(attributes, entities))


def term_coverage(corpus: Corpus) -> dict[Term, int]:
    """Entity records per term.  All twelve terms are present, zero-filled."""
    counts = _tally(corpus, attrgetter("role", "tangibility"))
    return {term: counts[term.role, term.tangibility] for term in TERMS}


def _percent_half_up(count: int, total: int) -> int:
    return (200 * count + total) // (2 * total)


def role_distribution(corpus: Corpus) -> dict[Role, RoleShare]:
    """Records and integer percent (rounded half up) per role."""
    total = corpus.record_count
    if total == 0:
        raise EmptyCorpusError("corpus has no entity records")
    counts = _tally(corpus, attrgetter("role"))
    return {role: RoleShare(counts[role], _percent_half_up(counts[role], total)) for role in Role}


def class_distribution(corpus: Corpus) -> dict[str, int]:
    """Applications per class label, including 'unclassified'."""
    return _class_counts(classify(mark).label for mark in corpus.hallmarks)


def _class_counts(labels: Iterable[str]) -> dict[str, int]:
    """How many of ``labels``, one per application, are each class label."""
    counts = Counter(labels)
    return {label: counts[label] for label in CLASS_LABELS}


def cluster_by_hallmark(corpus: Corpus) -> list[Cluster]:
    """Groups of applications with identical hallmarks (multi-member only), filled
    in id order: so ordered by smallest member id, members ascending."""
    keyed: dict[Hallmark, list[int]] = {}
    for app, mark in corpus._by_id:
        keyed.setdefault(mark, []).append(app.id)
    return [Cluster(mark, tuple(ids)) for mark, ids in keyed.items() if len(ids) > 1]


def cluster_by_binary_hallmark(corpus: Corpus) -> list[Cluster]:
    """Like cluster_by_hallmark but on binarized vectors, in the same order."""
    # Binary hallmarks are equal exactly when their masks are; each group is
    # keyed by its first member's hallmark, binarized only for a cluster.
    keyed: dict[int, tuple[Hallmark, list[int]]] = {}
    for app, mark in corpus._by_id:
        keyed.setdefault(mark.mask, (mark, []))[1].append(app.id)
    return [Cluster(binarize(mark), tuple(ids)) for mark, ids in keyed.values() if len(ids) > 1]


def distinct_hallmark_count(corpus: Corpus) -> int:
    return len(set(corpus.hallmarks))


def distinct_binary_hallmark_count(corpus: Corpus) -> int:
    return len({mark.mask for mark in corpus.hallmarks})


def distance_matrix(corpus: Corpus, metric: Metric) -> DistanceMatrix:
    """Pairwise distances between applications, in ascending id order.

    The L1 metric needs exact components, so a corpus containing a "many"
    raises SymbolicCountError naming the offending application.
    """
    pairs = corpus._by_id
    if metric is Metric.L1:
        for app, mark in pairs:
            if mark.has_many:
                raise SymbolicCountError(
                    f"symbolic count 'many' in application {app.id}; "
                    "L1 distance is undefined"
                )
        keys = [mark._values for _, mark in pairs]
    else:
        keys = [(mark.mask & 0xFF, mark.mask >> 8) for _, mark in pairs]
    distinct = {key: i for i, key in enumerate(dict.fromkeys(keys))}
    index = tuple(map(distinct.__getitem__, keys))
    # An L1 cell is at most the sum of its columns' maxima, which must fit one byte.
    if metric is Metric.L1 and sum(map(max, zip(*distinct))) > 255:
        rows = _l1_rows(list(distinct), index)
    else:
        table = _abs_diff_table if metric is Metric.L1 else _xor_popcount_table
        rows = _lane_rows(distinct, [bytes(c) for c in zip(*keys)], table)
    return DistanceMatrix(metric, tuple(app.id for app, _ in pairs), tuple(rows), index)


@cache
def _xor_popcount_table(v: int) -> bytes:
    """Maps byte x to the number of bits in which x and v differ."""
    return bytes((x ^ v).bit_count() for x in range(256))


@cache
def _abs_diff_table(v: int) -> bytes:
    """Maps byte x to |x − v|."""
    return bytes(abs(x - v) for x in range(256))


def _lane_rows(
    distinct: Collection[tuple[int, ...]], columns: list[bytes], table: Callable[[int], bytes]
) -> list[bytes]:
    """One row per distinct key; column c holds component c of every key."""
    sums = [
        {v: int.from_bytes(c.translate(table(v)), "big") for v in set(vals)}
        for c, vals in zip(columns, zip(*distinct))
    ]
    return [sum(map(dict.__getitem__, sums, k)).to_bytes(len(columns[0]), "big") for k in distinct]


def _l1_rows(keys: list[tuple[int, ...]], index: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The L1 rows of distinct int vectors, expanded through ``index``.  Each
    distance is computed once: row i takes its first i cells from the rows before it."""
    rows: list[list[int]] = []
    for i, a in enumerate(keys):
        after = [sum(map(abs, map(sub, a, b))) for b in keys[i + 1 :]]
        rows.append([row[i] for row in rows] + [0] + after)
    return [tuple(map(row.__getitem__, index)) for row in rows]


def cross_tab(corpus: Corpus, key: str) -> CrossTab:
    """Class membership tabulated by genre or subgenre.

    Rows group applications by the key's raw value, sorted, and those lacking
    the key last, as one row labelled ``None``; within a cell, ids ascend.
    ``apps`` and ``classes`` list the corpus's applications and their class
    labels in id order.
    """
    if key not in ("genre", "subgenre"):
        raise ValueError(f"key must be 'genre' or 'subgenre', got {key!r}")
    pairs = corpus._by_id
    classes = tuple(classify(mark).label for _, mark in pairs)
    grouped = defaultdict(lambda: {c: [] for c in CLASS_LABELS})  # key value -> class -> ids
    for (app, _), label in zip(pairs, classes):
        grouped[getattr(app, key)][label].append(app.id)
    rows = tuple(
        CrossTabRow(value, {c: tuple(ids) for c, ids in grouped[value].items()})
        for value in sorted(grouped, key=lambda v: (v is None, v or ""))
    )
    return CrossTab(key, rows, tuple(app for app, _ in pairs), classes)
