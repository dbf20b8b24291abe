"""Hallmark vectors: per-term entity multiplicities of an application.

A hallmark has twelve components in canonical term order, each a Count.
Binarization cuts every component to presence (0 or 1); "many" binarizes
to 1.  L1 distance is defined only on hallmarks free of "many"; Hamming
distance is defined on binary hallmarks and never exceeds 12.

Both vector forms carry their positivity as a 12-bit int, ``mask``: bit i
is set when component i (``TERMS[i]``) is positive.  Classification and
Hamming distance work on the mask alone.  A hallmark reads its component
values once, when it is built, and computes its mask from them then; it
hashes and prints those values, not its Counts.  Equal hallmarks hash equal,
but the hash value is not part of the API.  `compute_hallmark` takes its
Counts from the shared table `model._COUNTS`: one object per value 0–63 and "many".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from operator import attrgetter, ne, sub
from typing import Union

from .model import _COUNTS, Application, Count, is_integer
from .terms import TERMS, Term

__all__ = [
    "Hallmark",
    "BinaryHallmark",
    "SymbolicCountError",
    "compute_hallmark",
    "binarize",
    "l1_distance",
    "hamming_distance",
]

COMPONENT_COUNT = 12

_BITS = tuple(1 << i for i in range(COMPONENT_COUNT))
_ZEROS = (0,) * COMPONENT_COUNT
_VALUE = attrgetter("value")


class SymbolicCountError(ValueError):
    """Raised where an exact number is required but 'many' is present."""


def _as_count(value: Union[int, str, Count]) -> Count:
    if isinstance(value, Count):
        return value
    if value == "many" or is_integer(value):
        return _COUNTS[value]
    raise TypeError(f"component must be an int, 'many', or Count, got {value!r}")


@dataclass(frozen=True)
class Hallmark:
    """Twelve Counts in canonical term order, and their positivity mask."""

    components: tuple[Count, ...]
    mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.components) != COMPONENT_COUNT:
            raise ValueError(
                f"hallmark needs {COMPONENT_COUNT} components, got {len(self.components)}"
            )
        # ``_values`` (each component's value, None for "many") is a plain
        # instance attribute, not a field: ``repr``, ``fields`` and ``replace``
        # see only ``components`` and ``mask``.
        values = tuple(map(_VALUE, self.components))
        object.__setattr__(self, "_values", values)
        # A component is positive when its value is not 0; "many" (None) is.
        object.__setattr__(self, "mask", sum(compress(_BITS, map(ne, values, _ZEROS))))

    def __hash__(self) -> int:
        return hash(self._values)

    @classmethod
    def of(cls, *values: Union[int, str, Count]) -> "Hallmark":
        """Build a hallmark from ints, 'many', or Counts, in term order."""
        return cls(tuple(_as_count(v) for v in values))

    @classmethod
    def zero(cls) -> "Hallmark":
        return cls((_COUNTS[0],) * COMPONENT_COUNT)

    def component(self, term: Term) -> Count:
        return self.components[term.index]

    @property
    def has_many(self) -> bool:
        return None in self._values

    def to_json(self) -> list[int | str]:
        """Components as JSON and CSV carry them: integers, or "many"."""
        return ["many" if v is None else v for v in self._values]

    def __str__(self) -> str:
        return "(" + ", ".join("N" if v is None else str(v) for v in self._values) + ")"


@dataclass(frozen=True)
class BinaryHallmark:
    """Presence vector: one bit per term, in canonical term order, and the
    same bits as a mask."""

    bits: tuple[int, ...]
    mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.bits) != COMPONENT_COUNT:
            raise ValueError(
                f"binary hallmark needs {COMPONENT_COUNT} bits, got {len(self.bits)}"
            )
        if not all(type(bit) is int and bit in (0, 1) for bit in self.bits):
            raise ValueError("binary hallmark bits must be 0 or 1")
        object.__setattr__(self, "mask", sum(1 << i for i, bit in enumerate(self.bits) if bit))

    def to_json(self) -> list[int]:
        return list(self.bits)

    def __str__(self) -> str:
        return "(" + ", ".join(str(bit) for bit in self.bits) + ")"


_INDEX = {(term.role, term.tangibility): term.index for term in TERMS}


def compute_hallmark(app: Application) -> Hallmark:
    """Sum entity counts per term.  An application with no entities is all zero.

    Summing absorbs "many": any term with a many-counted entity gets "many".
    """
    totals: list[int | None] = [0] * COMPONENT_COUNT
    for entity in app.entities:
        index = _INDEX[entity.role, entity.tangibility]
        try:
            totals[index] += entity.count.value
        except TypeError:  # "many" (None) on either side: it absorbs the sum
            totals[index] = None
    return Hallmark(tuple(map(_COUNTS.__getitem__, totals)))


def binarize(hallmark: Hallmark) -> BinaryHallmark:
    mask = hallmark.mask
    return BinaryHallmark(tuple(mask >> i & 1 for i in range(COMPONENT_COUNT)))


def l1_distance(a: Hallmark, b: Hallmark) -> int:
    """Sum of absolute component differences.

    Undefined when either hallmark carries "many"; that raises
    SymbolicCountError rather than guessing a magnitude.
    """
    if a.has_many or b.has_many:
        raise SymbolicCountError("L1 distance is undefined on a symbolic count 'many'")
    return sum(map(abs, map(sub, a._values, b._values)))


def hamming_distance(a: BinaryHallmark, b: BinaryHallmark) -> int:
    return (a.mask ^ b.mask).bit_count()
