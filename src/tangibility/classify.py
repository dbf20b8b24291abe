"""Tangibility classes.

An application's class depends only on which hallmark components are
positive, never on their magnitudes, so classification is invariant under
binarization and accepts either vector form: both classifiers read only the
vector's positivity mask.

Component shorthand used below: D/T/O/C for the datum, tool, operation and
constraint roles, subscripted T/G/I for tangible, graspable, intangible.

The four classes, decided in order:

  I    (D_T or D_G) and no D_I         bodied data without a projected image
  II   (D_T or D_G) and D_I            bodied data next to projected data
  III  D_I only, via bodied tools      projected data worked with graspable
                                       or tangible tools
  IV   no data, no tools, O_T or O_G   a bodied operation is the whole
                                       interface

Anything else is unclassified, with a reason naming the decisive gap.
The predicates are mutually exclusive by construction.

`classify_by_patterns` answers from a positional rule table instead; the
table is kept verbatim as transcribed, first match wins.  The two answers
agree whenever no role has both its tangible and graspable components
positive.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:  # only annotations name them, so classifying never loads hallmark
    from .hallmark import BinaryHallmark, Hallmark

    Vector = Union[Hallmark, BinaryHallmark]

__all__ = [
    "TangibilityClass",
    "ClassResult",
    "Cell",
    "PatternRule",
    "classify",
    "classify_by_patterns",
    "pattern_table",
]


class TangibilityClass(enum.Enum):
    I = "I"
    II = "II"
    III = "III"
    IV = "IV"


@dataclass(frozen=True)
class ClassResult:
    """Outcome of classification.

    `outcome` is None when unclassified; then `reason` says why.  When a
    class is assigned, `rule` identifies the predicate or pattern row that
    fired.
    """

    outcome: TangibilityClass | None
    rule: str | None = None
    reason: str | None = None

    @property
    def label(self) -> str:
        return self.outcome.value if self.outcome else "unclassified"


# Positivity mask bits (bit i is term i, so datum is the rightmost group of
# three): bodied (tangible or graspable) and intangible data, bodied and all
# tools, bodied operations.
_D_BODIED = 0b000_000_011
_D_I = 0b000_000_100
_T_BODIED = 0b000_011_000
_TOOLS = 0b000_111_000
_O_BODIED = 0b011_000_000

# The results are immutable, so every classification shares these.
_CLASS_I = ClassResult(TangibilityClass.I, rule="I")
_CLASS_II = ClassResult(TangibilityClass.II, rule="II")
_CLASS_III = ClassResult(TangibilityClass.III, rule="III")
_CLASS_IV = ClassResult(TangibilityClass.IV, rule="IV")
_NO_BODIED_TOOL = ClassResult(None, reason="intangible data but no tangible or graspable tool")
_NO_DATA = ClassResult(None, reason="tools present but no data")
_NO_DATA_NO_OPERATION = ClassResult(None, reason="no data, no bodied operation")


def classify(vector: Vector) -> ClassResult:
    """Assign a tangibility class from component positivity."""
    mask = vector.mask
    if mask & _D_BODIED:
        return _CLASS_II if mask & _D_I else _CLASS_I
    if mask & _D_I:
        return _CLASS_III if mask & _T_BODIED else _NO_BODIED_TOOL
    if mask & _TOOLS:
        return _NO_DATA
    return _CLASS_IV if mask & _O_BODIED else _NO_DATA_NO_OPERATION


class Cell(enum.Enum):
    """One constraint cell of a pattern row."""

    ZERO = "0"
    POSITIVE = "+"
    ANY = "*"


@dataclass(frozen=True)
class PatternRule:
    """A pattern row as two masks: the bits it constrains (``care``) and
    the values it wants there (``want``)."""

    label: str
    outcome: TangibilityClass
    care: int
    want: int

    @property
    def cells(self) -> tuple[Cell, ...]:
        """The row as transcribed, one cell per term."""
        return tuple(
            Cell.ANY if not self.care >> i & 1
            else Cell.POSITIVE if self.want >> i & 1
            else Cell.ZERO
            for i in range(12)
        )

    def matches(self, vector: Vector) -> bool:
        return vector.mask & self.care == self.want


def _row(label: str, outcome: TangibilityClass, pattern: str) -> PatternRule:
    cells = [Cell(ch) for ch in pattern.split()]
    assert len(cells) == 12
    care = sum(1 << i for i, cell in enumerate(cells) if cell is not Cell.ANY)
    want = sum(1 << i for i, cell in enumerate(cells) if cell is Cell.POSITIVE)
    return PatternRule(label, outcome, care, want)


# Cell order is canonical term order: datum, tool, operation, constraint,
# each tangible / graspable / intangible.
_PATTERN_TABLE: tuple[PatternRule, ...] = (
    _row("I.1", TangibilityClass.I, "+ 0 0  * * *  * * *  * * *"),
    _row("I.2", TangibilityClass.I, "0 + 0  * * *  * * *  * * *"),
    _row("II.1", TangibilityClass.II, "+ 0 +  * * *  * * *  * * *"),
    _row("II.2", TangibilityClass.II, "0 + +  * * *  * * *  * * *"),
    _row("III.1", TangibilityClass.III, "0 0 +  0 + *  * * *  * * *"),
    _row("III.2", TangibilityClass.III, "0 0 +  + 0 *  * * *  * * *"),
    _row("IV.1", TangibilityClass.IV, "0 0 0  0 0 0  + 0 *  * * *"),
    _row("IV.2", TangibilityClass.IV, "0 0 0  0 0 0  0 + *  * * *"),
)


def pattern_table() -> tuple[PatternRule, ...]:
    """The eight pattern rows, in precedence order."""
    return _PATTERN_TABLE


def classify_by_patterns(vector: Vector) -> ClassResult:
    """Assign a class from the pattern table; first matching row wins."""
    for rule in _PATTERN_TABLE:
        if rule.matches(vector):
            return ClassResult(rule.outcome, rule=rule.label)
    return ClassResult(None, reason="no pattern row matches")
