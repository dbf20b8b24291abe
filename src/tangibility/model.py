"""Core data model for corpora of annotated tangible-interface specimens.

A corpus is a flat list of applications.  Each application carries catalog
metadata plus a list of entity records; each record names one constituent of
the interface and annotates it with a role (what it is in the interaction)
and a tangibility (how it is present to the user).
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, ClassVar, Iterable

if TYPE_CHECKING:
    from .hallmark import Hallmark

__all__ = [
    "Role",
    "Tangibility",
    "Count",
    "Entity",
    "Application",
    "Corpus",
    "Severity",
    "SourceSpan",
    "Diagnostic",
    "validate",
]


def is_integer(value: object) -> bool:
    """Whether ``value`` is an int proper: ``True`` and ``False`` are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def first_surrogate(text: str) -> int | None:
    """The index of the first lone surrogate in ``text``, or None.  A byte
    that is not UTF-8, decoded with "surrogateescape", is one."""
    if text.isascii():
        return None
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        return exc.start
    return None


class Role(enum.Enum):
    """What an entity is within the interaction."""

    DATUM = "datum"
    TOOL = "tool"
    OPERATION = "operation"
    CONSTRAINT = "constraint"

    # Members are singletons compared by identity; Enum's own hash is Python code.
    __hash__ = object.__hash__


class Tangibility(enum.Enum):
    """How an entity is physically present to the user."""

    TANGIBLE = "tangible"
    GRASPABLE = "graspable"
    INTANGIBLE = "intangible"

    # Members are singletons compared by identity; Enum's own hash is Python code.
    __hash__ = object.__hash__


class Metric(enum.Enum):
    """A distance between hallmarks, for ``analysis.distance_matrix``.  It lives here,
    not in analysis, so the CLI takes its --metric choices without loading analysis."""

    L1 = "l1"
    HAMMING = "hamming"


@dataclass(frozen=True)
class Count:
    """Multiplicity of an entity record.

    Either an exact non-negative integer or the symbolic "many", encoded as
    ``value is None``.  "many" is absorbing under addition and compares equal
    only to itself.
    """

    value: int | None = 1

    MANY: ClassVar["Count"]

    def __post_init__(self) -> None:
        if self.value is not None:
            if not is_integer(self.value):
                raise TypeError(f"count value must be an int or None, got {self.value!r}")
            if self.value < 0:
                raise ValueError(f"exact count must be non-negative, got {self.value}")

    def to_json(self) -> int | str:
        """The value as JSON and CSV carry it: the integer, or "many"."""
        return "many" if self.value is None else self.value

    @property
    def is_many(self) -> bool:
        return self.value is None

    @property
    def is_positive(self) -> bool:
        return self.value is None or self.value > 0

    def __add__(self, other: "Count") -> "Count":
        if not isinstance(other, Count):
            return NotImplemented
        if self.is_many or other.is_many:
            return Count.MANY
        return Count(self.value + other.value)

    def __str__(self) -> str:
        return "many" if self.value is None else str(self.value)


Count.MANY = Count(None)


class _SharedCounts(dict):
    """The one Count of each value 0–63 and of "many" (under None and "many"), for
    every reader and hallmark.  Any other value's is made anew and not kept, so the
    table never grows.  True and 1.0 find Count(1): callers test types first."""

    def __missing__(self, value: int) -> Count:
        return Count(value)


_COUNTS = _SharedCounts({None: Count.MANY, "many": Count.MANY, **{n: Count(n) for n in range(64)}})


# Each __init__ sets the instance dict in one step, not one object.__setattr__ per field
# as a frozen dataclass's does; ==, hash, repr, fields and the frozen guard are generated.
@dataclass(frozen=True, init=False)
class Entity:
    """One annotated constituent of an application."""

    name: str
    role: Role
    tangibility: Tangibility
    count: Count = _COUNTS[1]
    note: str | None = None

    def __init__(
        self, name: str, role: Role, tangibility: Tangibility, count: Count = _COUNTS[1],
        note: str | None = None,
    ) -> None:
        object.__setattr__(self, "__dict__", {
            "name": name, "role": role, "tangibility": tangibility, "count": count, "note": note,
        })


@dataclass(frozen=True, init=False)
class Application:
    """One specimen: catalog metadata plus its entity records."""

    id: int
    name: str
    year: int | None = None
    genre: str | None = None
    subgenre: str | None = None
    refs: tuple[str, ...] = ()
    entities: tuple[Entity, ...] = ()

    def __init__(
        self, id: int, name: str, year: int | None = None, genre: str | None = None,
        subgenre: str | None = None, refs: tuple[str, ...] = (), entities: tuple[Entity, ...] = (),
    ) -> None:
        object.__setattr__(self, "__dict__", {
            "id": id, "name": name, "year": year, "genre": genre, "subgenre": subgenre,
            "refs": refs, "entities": entities,
        })


@dataclass(frozen=True)
class Corpus:
    """An ordered collection of applications."""

    applications: tuple[Application, ...] = ()

    def application(self, app_id: int) -> Application:
        """Look up an application by id.  Raises KeyError if absent."""
        for app in self.applications:
            if app.id == app_id:
                return app
        raise KeyError(app_id)

    @property
    def record_count(self) -> int:
        """Number of entity records across all applications."""
        return sum(len(app.entities) for app in self.applications)

    @cached_property
    def hallmarks(self) -> tuple[Hallmark, ...]:
        """Each application's hallmark, in corpus order, computed once.

        The cache lives in the instance, not in a field, so equality,
        hashing and ``repr`` ignore it and ``dataclasses.replace`` starts fresh.
        """
        # Imported here because hallmark imports this module.
        from .hallmark import compute_hallmark

        return tuple(map(compute_hallmark, self.applications))

    @cached_property
    def _by_id(self) -> tuple[tuple[Application, Hallmark], ...]:
        """(application, hallmark) pairs in ascending id order, sorted once and
        cached like ``hallmarks``; every id-ordered output reads it.  The sort is
        stable, so applications sharing an id keep their corpus order."""
        return tuple(sorted(zip(self.applications, self.hallmarks), key=lambda pair: pair[0].id))


class Severity(enum.Enum):
    WARNING = "warning"
    ERROR = "error"


@dataclass(frozen=True)
class SourceSpan:
    """1-based position of a construct in its source text."""

    line: int
    column: int


@dataclass(frozen=True)
class Diagnostic:
    """A validation or parse finding.  Errors make a corpus non-loadable."""

    severity: Severity
    message: str
    span: SourceSpan | None = None

    @classmethod
    def error(cls, message: str, span: SourceSpan | None = None) -> "Diagnostic":
        return cls(Severity.ERROR, message, span)

    @classmethod
    def warning(cls, message: str, span: SourceSpan | None = None) -> "Diagnostic":
        return cls(Severity.WARNING, message, span)

    @property
    def is_error(self) -> bool:
        return self.severity is Severity.ERROR


class InvariantChecker:
    """The one home of every corpus invariant and of its message.

    Feed it the applications of one corpus in order: it remembers the ids
    and case-folded names seen so far (``_ids``, ``_names``; the canonical
    text reader tests and fills them for applications without a finding).
    ``where`` is the location the caller knows, such as ``application 3``,
    ``applications[3].entities[0]`` or ``entity 'e'``; ``span`` is the source
    position when there is one.  A value of the wrong type (a missing or
    mistyped field, which the reader reports itself) is not checked.  Readers
    add their own syntax and type findings through ``error`` and ``warning``,
    so ``findings`` keeps one order, and ``errors`` counts the errors so far.
    """

    def __init__(self) -> None:
        self.findings: list[Diagnostic] = []
        self.errors = 0
        self._ids: set[int] = set()
        self._names: set[str] = set()

    def error(self, message: str, span: SourceSpan | None = None) -> None:
        self.findings.append(Diagnostic.error(message, span))
        self.errors += 1

    def warning(self, message: str, span: SourceSpan | None = None) -> None:
        self.findings.append(Diagnostic.warning(message, span))

    def app_id(self, where: str, app_id: object, span: SourceSpan | None = None) -> None:
        """Ids are positive and unique within the corpus."""
        if not is_integer(app_id):
            return
        if app_id < 1:
            self.error(f"{where}: id must be positive", span)
        elif app_id in self._ids:
            self.error(f"{where}: duplicate application id {app_id}", span)
        self._ids.add(app_id)

    def name(
        self, where: str, name: object, span: SourceSpan | None = None, *, unique: bool = False
    ) -> None:
        """Names are non-empty; application names (``unique``) also differ
        from every earlier one, ignoring case and surrounding blanks."""
        if not isinstance(name, str):
            return
        folded = name.strip().casefold()
        if not folded:
            self.error(f"{where}: name must be non-empty", span)
        elif unique:
            if folded in self._names:
                self.error(f"{where}: duplicate application name {name!r}", span)
            self._names.add(folded)

    def one_line(self, where: str, field: str, value: object) -> None:
        """Strings hold no line break ("\\n" or "\\r"): the text format cannot
        write one.  Nor a lone surrogate, which no UTF-8 output can hold."""
        if not isinstance(value, str):
            return
        if "\n" in value or "\r" in value:
            self.error(f"{where}: {field} must not contain a line break")
        if first_surrogate(value) is not None:
            self.error(f"{where}: {field} must not contain a lone surrogate")

    def year(self, where: str, year: object) -> None:
        """Years are not negative: the text format has no minus sign."""
        if is_integer(year) and year < 0:
            self.error(f"{where}: year must not be negative")

    def count(self, where: str, count: object, span: SourceSpan | None = None) -> None:
        """Exact counts are positive; "many" is not an integer and always is."""
        if is_integer(count) and count < 1:
            self.error(f"{where}: count must be positive", span)

    def entity_records(self, where: str, records: int, span: SourceSpan | None = None) -> None:
        """An application without entity records loads, with a warning."""
        if records == 0:
            self.warning(f"{where}: no entity records", span)

    def count_total(
        self, where: str, entities: Iterable[Entity], span: SourceSpan | None = None
    ) -> None:
        """An application's exact counts sum to fewer than L digits, where L
        is Python's int-to-str limit (0: none).  Every term sum, and every L1
        distance (< 2·10^(L−1)), can then be printed."""
        total = sum(entity.count.value or 0 for entity in entities)
        limit = sys.get_int_max_str_digits()
        # 2^(3(L−1)) < 10^(L−1), so the power is only built for a huge total.
        if limit and total.bit_length() > 3 * (limit - 1) and total >= 10 ** (limit - 1):
            self.error(f"{where}: counts must sum to fewer than {limit} digits", span)


def validate(corpus: Corpus) -> list[Diagnostic]:
    """Check corpus invariants; return findings ordered by application then entity.

    Pure and idempotent: the corpus is never modified.  An empty corpus is
    valid.  Applications with no entities draw a warning, not an error.
    """
    checker = InvariantChecker()
    for app in corpus.applications:
        where = f"application {app.id}"
        checker.app_id(where, app.id)
        checker.name(where, app.name, unique=True)
        checker.one_line(where, "name", app.name)
        checker.one_line(where, "genre", app.genre)
        checker.one_line(where, "subgenre", app.subgenre)
        for index, ref in enumerate(app.refs):
            checker.one_line(where, f"refs[{index}]", ref)
        checker.year(where, app.year)
        checker.entity_records(where, len(app.entities))
        checker.count_total(where, app.entities)
        for index, entity in enumerate(app.entities, 1):
            at = f"{where}, entity {index}"
            checker.name(at, entity.name)
            checker.one_line(at, "name", entity.name)
            checker.count(at, entity.count.value)
            checker.one_line(at, "note", entity.note)
    return checker.findings
