"""The twelve what-how terms.

Every role x tangibility pair has a canonical one-word name built from a
role base (dat-, tol-, op-, const-) and a tangibility suffix (-ible, -able,
-nible).  Term order is fixed: role-major, tangibility-minor, with roles
ordered datum, tool, operation, constraint and tangibilities ordered
tangible, graspable, intangible.  That order is the component order of
hallmark vectors and of every tabular output.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .model import Role, Tangibility

__all__ = ["Term", "UnknownTermError", "all_terms", "term_of", "parse_term", "TERMS"]

_BASES = {
    Role.DATUM: "dat",
    Role.TOOL: "tol",
    Role.OPERATION: "op",
    Role.CONSTRAINT: "const",
}

_SUFFIXES = {
    Tangibility.TANGIBLE: "ible",
    Tangibility.GRASPABLE: "able",
    Tangibility.INTANGIBLE: "nible",
}


class UnknownTermError(ValueError):
    """Raised when a name does not match any of the twelve terms."""


@dataclass(frozen=True)
class Term:
    """One role x tangibility combination, its canonical name, and its
    position in canonical order, 0 through 11 (``index``)."""

    role: Role
    tangibility: Tangibility
    name: str
    index: int

    @property
    def gloss(self) -> str:
        """Readable expansion, e.g. 'Tool is intangible'."""
        return f"{self.role.value.capitalize()} is {self.tangibility.value}"


TERMS: tuple[Term, ...] = tuple(
    Term(role, tang, _BASES[role] + _SUFFIXES[tang], index)
    for index, (role, tang) in enumerate(product(Role, Tangibility))
)

_BY_NAME = {term.name: term for term in TERMS}
_BY_PAIR = {(term.role, term.tangibility): term for term in TERMS}


def all_terms() -> tuple[Term, ...]:
    """All twelve terms in canonical order."""
    return TERMS


def term_of(role: Role, tangibility: Tangibility) -> Term:
    return _BY_PAIR[(role, tangibility)]


def parse_term(name: str) -> Term:
    """Resolve a term by name, case-insensitively.

    Raises UnknownTermError for anything that is not one of the twelve.
    """
    term = _BY_NAME.get(name.strip().lower())
    if term is None:
        known = ", ".join(t.name for t in TERMS)
        raise UnknownTermError(f"unknown term {name!r}; expected one of: {known}")
    return term
