"""Core data model for corpora of annotated tangible-interface specimens.

A corpus is a flat list of applications.  Each application carries catalog
metadata plus a list of entity records; each record names one constituent of
the interface and annotates it with a role (what it is in the interaction)
and a tangibility (how it is present to the user).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import ClassVar, Iterator

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


class Role(enum.Enum):
    """What an entity is within the interaction."""

    DATUM = "datum"
    TOOL = "tool"
    OPERATION = "operation"
    CONSTRAINT = "constraint"


class Tangibility(enum.Enum):
    """How an entity is physically present to the user."""

    TANGIBLE = "tangible"
    GRASPABLE = "graspable"
    INTANGIBLE = "intangible"


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
            if not isinstance(self.value, int) or isinstance(self.value, bool):
                raise TypeError(f"count value must be an int or None, got {self.value!r}")
            if self.value < 0:
                raise ValueError(f"exact count must be non-negative, got {self.value}")

    @classmethod
    def exact(cls, n: int) -> "Count":
        return cls(n)

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


@dataclass(frozen=True)
class Entity:
    """One annotated constituent of an application."""

    name: str
    role: Role
    tangibility: Tangibility
    count: Count = Count(1)
    note: str | None = None


@dataclass(frozen=True)
class Application:
    """One specimen: catalog metadata plus its entity records."""

    id: int
    name: str
    year: int | None = None
    genre: str | None = None
    subgenre: str | None = None
    refs: tuple[str, ...] = ()
    entities: tuple[Entity, ...] = ()


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

    def iter_entities(self) -> Iterator[tuple[Application, Entity]]:
        for app in self.applications:
            for entity in app.entities:
                yield app, entity

    @property
    def record_count(self) -> int:
        """Number of entity records across all applications."""
        return sum(len(app.entities) for app in self.applications)


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


def validate(corpus: Corpus) -> list[Diagnostic]:
    """Check corpus invariants; return findings ordered by application then entity.

    Pure and idempotent: the corpus is never modified.  An empty corpus is
    valid.  Applications with no entities draw a warning, not an error.
    """
    findings: list[Diagnostic] = []
    seen_ids: set[int] = set()
    seen_names: set[str] = set()

    for app in corpus.applications:
        where = f"application {app.id}"
        if app.id < 1:
            findings.append(Diagnostic.error(f"{where}: id must be positive"))
        if not app.name.strip():
            findings.append(Diagnostic.error(f"{where}: name must be non-empty"))
        if app.id in seen_ids:
            findings.append(Diagnostic.error(f"duplicate application id {app.id}"))
        seen_ids.add(app.id)
        folded = app.name.strip().casefold()
        if folded and folded in seen_names:
            findings.append(
                Diagnostic.error(f"{where}: duplicate application name {app.name!r}")
            )
        seen_names.add(folded)
        if not app.entities:
            findings.append(Diagnostic.warning(f"{where}: application has no entities"))
        for index, entity in enumerate(app.entities):
            if not entity.name.strip():
                findings.append(
                    Diagnostic.error(f"{where}, entity {index + 1}: name must be non-empty")
                )
            if not entity.count.is_positive:
                findings.append(
                    Diagnostic.error(
                        f"{where}, entity {index + 1} ({entity.name!r}): count must be positive"
                    )
                )
    return findings
