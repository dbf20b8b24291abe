"""Corpus analytics: coverage, distributions, clusters, distances, cross-tabs.

Coverage and the role distribution count entity records, ignoring
multiplicity: a record counted "many" is still one record.  Hallmark-level
views (clusters, distances) sum multiplicities instead.  All outputs are
deterministically ordered so downstream renderings are byte-stable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import sub
from typing import Union

from .classify import classify
from .hallmark import BinaryHallmark, Hallmark, SymbolicCountError, binarize
from .model import Application, Corpus, Role
from .terms import TERMS, Term, term_of

__all__ = [
    "EmptyCorpusError",
    "Metric",
    "RoleShare",
    "Cluster",
    "DistanceMatrix",
    "CrossTabRow",
    "CrossTabApp",
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

NONE_LABEL = "(none)"


class EmptyCorpusError(ValueError):
    """Raised by statistics that are undefined without entity records."""


class Metric(enum.Enum):
    L1 = "l1"
    HAMMING = "hamming"


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
    metric: Metric
    ids: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class CrossTabRow:
    label: str
    cells: dict[str, tuple[int, ...]]


@dataclass(frozen=True)
class CrossTabApp:
    id: int
    name: str
    genre: str
    subgenre: str
    class_label: str


@dataclass(frozen=True)
class CrossTab:
    key: str
    rows: tuple[CrossTabRow, ...]
    apps: tuple[CrossTabApp, ...]


def term_coverage(corpus: Corpus) -> dict[Term, int]:
    """Entity records per term.  All twelve terms are present, zero-filled."""
    coverage = {term: 0 for term in TERMS}
    for _, entity in corpus.iter_entities():
        coverage[term_of(entity.role, entity.tangibility)] += 1
    return coverage


def _percent_half_up(count: int, total: int) -> int:
    return (200 * count + total) // (2 * total)


def role_distribution(corpus: Corpus) -> dict[Role, RoleShare]:
    """Records and integer percent (rounded half up) per role."""
    total = corpus.record_count
    if total == 0:
        raise EmptyCorpusError("corpus has no entity records")
    counts = {role: 0 for role in Role}
    for _, entity in corpus.iter_entities():
        counts[entity.role] += 1
    return {
        role: RoleShare(count, _percent_half_up(count, total))
        for role, count in counts.items()
    }


def _by_id(corpus: Corpus) -> list[tuple[Application, Hallmark]]:
    """(application, hallmark) pairs in ascending id order."""
    return sorted(zip(corpus.applications, corpus.hallmarks), key=lambda pair: pair[0].id)


def class_distribution(corpus: Corpus) -> dict[str, int]:
    """Applications per class label, including 'unclassified'."""
    distribution = {label: 0 for label in CLASS_LABELS}
    for mark in corpus.hallmarks:
        distribution[classify(mark).label] += 1
    return distribution


def _clusters(keyed: dict) -> list[Cluster]:
    clusters = [
        Cluster(key, tuple(sorted(ids))) for key, ids in keyed.items() if len(ids) > 1
    ]
    clusters.sort(key=lambda c: c.members[0])
    return clusters


def _group_by_hallmark(corpus: Corpus, binary: bool) -> dict:
    keyed: dict = {}
    for app, mark in zip(corpus.applications, corpus.hallmarks):
        key: Union[Hallmark, BinaryHallmark] = binarize(mark) if binary else mark
        keyed.setdefault(key, []).append(app.id)
    return keyed


def cluster_by_hallmark(corpus: Corpus) -> list[Cluster]:
    """Groups of applications with identical hallmarks (multi-member only),
    ordered by smallest member id, members ascending."""
    return _clusters(_group_by_hallmark(corpus, binary=False))


def cluster_by_binary_hallmark(corpus: Corpus) -> list[Cluster]:
    """Like cluster_by_hallmark but on binarized vectors."""
    return _clusters(_group_by_hallmark(corpus, binary=True))


def distinct_hallmark_count(corpus: Corpus) -> int:
    return len(_group_by_hallmark(corpus, binary=False))


def distinct_binary_hallmark_count(corpus: Corpus) -> int:
    return len(_group_by_hallmark(corpus, binary=True))


def distance_matrix(corpus: Corpus, metric: Metric) -> DistanceMatrix:
    """Pairwise distances between applications, in ascending id order.

    The L1 metric needs exact components, so a corpus containing a "many"
    raises SymbolicCountError naming the offending application.
    """
    pairs = _by_id(corpus)
    if metric is Metric.L1:
        for app, mark in pairs:
            if mark.has_many:
                raise SymbolicCountError(
                    f"symbolic count 'many' in application {app.id}; "
                    "L1 distance is undefined"
                )
        rows = _l1_rows([tuple(c.value for c in mark.components) for _, mark in pairs])
    else:
        masks = [mark.mask for _, mark in pairs]
        rows = tuple(tuple(map(int.bit_count, map(a.__xor__, masks))) for a in masks)
    return DistanceMatrix(metric, tuple(app.id for app, _ in pairs), rows)


def _l1_rows(vectors: list[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """The L1 matrix of int vectors.  It is symmetric, so each distance is
    computed once: row i takes its first i cells from the rows before it."""
    rows: list[tuple[int, ...]] = []
    for i, a in enumerate(vectors):
        after = [sum(map(abs, map(sub, a, b))) for b in vectors[i + 1 :]]
        rows.append(tuple([row[i] for row in rows] + [0] + after))
    return tuple(rows)


def cross_tab(corpus: Corpus, key: str) -> CrossTab:
    """Class membership tabulated by genre or subgenre.

    Applications lacking the key are grouped under "(none)".  Rows are
    sorted by label with "(none)" last; within a cell, ids ascend.
    """
    if key not in ("genre", "subgenre"):
        raise ValueError(f"key must be 'genre' or 'subgenre', got {key!r}")
    apps = []
    grouped: dict[str, dict[str, list[int]]] = {}
    for app, mark in _by_id(corpus):
        label = classify(mark).label
        apps.append(
            CrossTabApp(
                id=app.id,
                name=app.name,
                genre=app.genre if app.genre is not None else NONE_LABEL,
                subgenre=app.subgenre if app.subgenre is not None else NONE_LABEL,
                class_label=label,
            )
        )
        row_value = app.genre if key == "genre" else app.subgenre
        row_label = row_value if row_value is not None else NONE_LABEL
        cells = grouped.setdefault(row_label, {c: [] for c in CLASS_LABELS})
        cells[label].append(app.id)
    labels = sorted(grouped, key=lambda lb: (lb == NONE_LABEL, lb))
    rows = tuple(
        CrossTabRow(
            label,
            {c: tuple(ids) for c, ids in grouped[label].items()},
        )
        for label in labels
    )
    return CrossTab(key=key, rows=rows, apps=tuple(apps))
