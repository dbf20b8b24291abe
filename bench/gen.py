"""Seeded corpus generator, canonical emitters and reference model.

Everything here is independent of the `tangibility` package, so that the
commit under test and its parent read byte-identical inputs and are checked
against the same expected values:

- `generate_corpus` draws application records from a seed;
- `emit_text` writes the canonical annotation form documented in the
  README (two-space indent, fields in the order id/year/genre/subgenre/
  refs/entities, `count` omitted when it is 1);
- `emit_json` writes the compact JSON interchange form with every key that
  `export --format json` writes, so `json.loads` of either compares equal;
- the remaining functions recompute hallmarks, classes and analytics from
  the records, with the four class predicates copied from the paper.
"""

from __future__ import annotations

import json
import random
import re
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple, Optional

ROLES = ("datum", "tool", "operation", "constraint")
HOWS = ("tangible", "graspable", "intangible")
TERM_NAMES = tuple(
    base + suffix
    for base in ("dat", "tol", "op", "const")
    for suffix in ("ible", "able", "nible")
)
CLASS_LABELS = ("I", "II", "III", "IV", "unclassified")
NONE_LABEL = "(none)"

# Name material: quotes and backslashes exercise the two escapes, the rest
# exercise non-ASCII text, comment marks and braces inside strings.
_WORDS = (
    "Marble", "Urp", "Pin\"wheel", "Back\\slash", "Café", "Größe", "naïve",
    "Ω-board", "Sand", "Relief", "Tisch", "Block", "Token", "Lens", "Cube",
    "Knob", "Bricks", "Loom", "#tag", "{brace}", "Žebřík", "日本", "Ελλάδα",
)
_REF_WORDS = ("ishii", "ullmer", "fitzmaurice", "underkoffler", "wellner", "piper")

ManyCount = None  # a count of None means the symbolic "many"


class Entity(NamedTuple):
    name: str
    what: str
    how: str
    count: Optional[int]
    note: Optional[str]


class App(NamedTuple):
    id: int
    name: str
    year: Optional[int]
    genre: Optional[str]
    subgenre: Optional[str]
    refs: tuple[str, ...]
    entities: tuple[Entity, ...]


_STRING_FIELD = re.compile(r'^  (genre|subgenre): "((?:[^"\\]|\\.)*)"\s*$')


@lru_cache(maxsize=None)
def golden_genres(golden_path: Path) -> tuple[tuple[str, str], ...]:
    """Sorted distinct (genre, subgenre) pairs of the bundled corpus file."""
    pairs: set[tuple[str, str]] = set()
    fields: dict[str, str] = {}
    for line in golden_path.read_text(encoding="utf-8").splitlines():
        if line.startswith("application "):
            fields = {}
        match = _STRING_FIELD.match(line)
        if match:
            fields[match.group(1)] = re.sub(r"\\(.)", r"\1", match.group(2))
        if line == "}" and "genre" in fields and "subgenre" in fields:
            pairs.add((fields["genre"], fields["subgenre"]))
    if not pairs:
        raise ValueError(f"no genre/subgenre pairs in {golden_path}")
    return tuple(sorted(pairs))


def _text(rng: random.Random, words: int) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(words))


def _entity(rng: random.Random, many_share: float) -> Entity:
    roll = rng.random()
    if roll < many_share:
        count: Optional[int] = ManyCount
    elif roll < many_share + 0.15:
        count = rng.randint(2, 5)
    else:
        count = 1
    return Entity(
        name=_text(rng, rng.randint(1, 3)),
        what=rng.choice(ROLES),
        how=rng.choice(HOWS),
        count=count,
        note=_text(rng, 2) if rng.random() < 0.1 else None,
    )


def generate_corpus(
    rng: random.Random,
    size: int,
    genres: tuple[tuple[str, str], ...],
    many_share: float,
) -> list[App]:
    """`size` valid applications with 1-9 entities each, in shuffled id order.

    Ids are unique and positive; names are unique after case folding because
    each carries its id.  A share `many_share` of entity counts is "many".
    """
    ids = rng.sample(range(1, 10 * size + 1), size)
    apps = []
    for app_id in ids:
        genre, subgenre = rng.choice(genres)
        if rng.random() < 0.05:
            genre, subgenre = None, None
        apps.append(
            App(
                id=app_id,
                name=f"{_text(rng, rng.randint(1, 2))} {app_id}",
                year=rng.randint(1970, 2025) if rng.random() < 0.95 else None,
                genre=genre,
                subgenre=subgenre,
                refs=tuple(
                    f"{rng.choice(_REF_WORDS)}{rng.randint(1970, 2025)}"
                    for _ in range(rng.randint(0, 3))
                ),
                entities=tuple(
                    _entity(rng, many_share) for _ in range(rng.randint(1, 9))
                ),
            )
        )
    return apps


# --- emitters -----------------------------------------------------------


def _quote(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def emit_text(apps: list[App]) -> str:
    """Canonical annotation text, as `export` must write it back."""
    blocks = []
    for app in apps:
        lines = [f"application {_quote(app.name)} {{", f"  id: {app.id}"]
        if app.year is not None:
            lines.append(f"  year: {app.year}")
        if app.genre is not None:
            lines.append(f"  genre: {_quote(app.genre)}")
        if app.subgenre is not None:
            lines.append(f"  subgenre: {_quote(app.subgenre)}")
        if app.refs:
            lines.append("  refs: [" + ", ".join(_quote(r) for r in app.refs) + "]")
        for entity in app.entities:
            lines.append(f"  entity {_quote(entity.name)} {{")
            lines.append(f"    what: {entity.what}")
            lines.append(f"    how: {entity.how}")
            if entity.count is ManyCount:
                lines.append("    count: many")
            elif entity.count != 1:
                lines.append(f"    count: {entity.count}")
            if entity.note is not None:
                lines.append(f"    note: {_quote(entity.note)}")
            lines.append("  }")
        lines.append("}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + ("\n" if blocks else "")


def json_document(apps: list[App]) -> dict:
    """The interchange object with every key `export --format json` writes."""
    applications = []
    for app in apps:
        record: dict = {"id": app.id, "name": app.name}
        if app.year is not None:
            record["year"] = app.year
        if app.genre is not None:
            record["genre"] = app.genre
        if app.subgenre is not None:
            record["subgenre"] = app.subgenre
        record["refs"] = list(app.refs)
        entities = []
        for e in app.entities:
            entity: dict = {
                "name": e.name,
                "what": e.what,
                "how": e.how,
                "count": "many" if e.count is ManyCount else e.count,
            }
            if e.note is not None:
                entity["note"] = e.note
            entities.append(entity)
        record["entities"] = entities
        applications.append(record)
    return {"applications": applications}


def emit_json(apps: list[App]) -> str:
    return json.dumps(json_document(apps), separators=(",", ":"), ensure_ascii=False)


# --- reference model ----------------------------------------------------


def term_index(entity: Entity) -> int:
    return ROLES.index(entity.what) * 3 + HOWS.index(entity.how)


def hallmark(app: App) -> tuple[Optional[int], ...]:
    """Twelve per-term sums; None is "many" and absorbs addition."""
    totals: list[Optional[int]] = [0] * 12
    for entity in app.entities:
        i = term_index(entity)
        if totals[i] is ManyCount or entity.count is ManyCount:
            totals[i] = ManyCount
        else:
            totals[i] += entity.count
    return tuple(totals)


def binary(mark: tuple[Optional[int], ...]) -> tuple[int, ...]:
    return tuple(1 if c is ManyCount or c > 0 else 0 for c in mark)


def classify(mark: tuple[Optional[int], ...]) -> tuple[str, Optional[str], Optional[str]]:
    """(label, rule, reason) from the four class predicates, decided in order."""
    d_t, d_g, d_i, t_t, t_g, t_i, o_t, o_g = (bool(b) for b in binary(mark)[:8])
    if (d_t or d_g) and not d_i:
        return "I", "I", None
    if (d_t or d_g) and d_i:
        return "II", "II", None
    if d_i and (t_t or t_g):
        return "III", "III", None
    if not (d_t or d_g or d_i or t_t or t_g or t_i) and (o_t or o_g):
        return "IV", "IV", None
    if d_i:
        reason = "intangible data but no tangible or graspable tool"
    elif t_t or t_g or t_i:
        reason = "tools present but no data"
    else:
        reason = "no data, no bodied operation"
    return "unclassified", None, reason


def hamming(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    return sum(x != y for x, y in zip(a, b))


def l1(a: tuple[Optional[int], ...], b: tuple[Optional[int], ...]) -> int:
    return sum(abs(x - y) for x, y in zip(a, b))


class Expected:
    """Values the program's outputs must show for one generated corpus."""

    def __init__(self, apps: list[App]):
        self.apps = apps
        self.by_id = sorted(apps, key=lambda a: a.id)
        self.ids = [app.id for app in self.by_id]
        self.marks = {app.id: hallmark(app) for app in apps}
        self.binaries = {i: binary(m) for i, m in self.marks.items()}
        self.classes = {i: classify(m) for i, m in self.marks.items()}
        self.record_count = sum(len(app.entities) for app in apps)
        coverage = [0] * 12
        for app in apps:
            for entity in app.entities:
                coverage[term_index(entity)] += 1
        self.coverage = dict(zip(TERM_NAMES, coverage))
        self.class_distribution = {label: 0 for label in CLASS_LABELS}
        for label, _, _ in self.classes.values():
            self.class_distribution[label] += 1
        self.distinct = len(set(self.marks.values()))
        self.distinct_binary = len(set(self.binaries.values()))
        self.first_many = next(
            (i for i in self.ids if ManyCount in self.marks[i]), None
        )

    def distance(self, metric: str, a: int, b: int) -> int:
        if metric == "l1":
            return l1(self.marks[a], self.marks[b])
        return hamming(self.binaries[a], self.binaries[b])

    def cross_tab(self, key: str) -> list[dict]:
        """Rows of the `cross_tab` JSON payload: label order, "(none)" last."""
        grouped: dict[str, dict[str, list[int]]] = {}
        for app in self.by_id:
            value = app.genre if key == "genre" else app.subgenre
            label = value if value is not None else NONE_LABEL
            cells = grouped.setdefault(label, {c: [] for c in CLASS_LABELS})
            cells[self.classes[app.id][0]].append(app.id)
        labels = sorted(grouped, key=lambda lb: (lb == NONE_LABEL, lb))
        return [{"label": label, **grouped[label]} for label in labels]
