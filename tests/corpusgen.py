"""Seeded random builders and hypothesis strategies shared by round-trip
and property tests."""

from __future__ import annotations

import json
import random

from hypothesis import strategies as st

from tangibility import Application, Corpus, Count, Entity, Hallmark, Role, Tangibility
from tangibility.terms import TERMS

# Deliberately hostile: quotes, backslashes, braces, comment marks, unicode.
NAME_CHARS = 'abcdefXYZ0189 _-#{}[]:,"\\()\u00e9\u00d7'
# Names, genres and subgenres are all drawn from these, so they collide with
# one another, with DOT's class nodes and with the "(none)" printed for a
# missing key; they hold quotes, a backslash and non-ASCII text.
COLLIDING_LABELS = (
    "(none)", "G", "Class I", "Unclassified", 'say "hi" \\ there', "G\u00e9nre \u00d7"
)


def _name(rng: random.Random, prefix: str = "") -> str:
    body = "".join(rng.choice(NAME_CHARS) for _ in range(rng.randint(1, 12)))
    text = prefix + body
    if not text.strip():
        text += rng.choice("abc")
    return text


def random_entity(rng: random.Random, allow_many: bool = True) -> Entity:
    if rng.random() < 0.15 and allow_many:
        count = Count.MANY
    else:
        count = Count(rng.randint(1, 5))
    return Entity(
        name=_name(rng),
        role=rng.choice(list(Role)),
        tangibility=rng.choice(list(Tangibility)),
        count=count,
        note=_name(rng) if rng.random() < 0.3 else None,
    )


def random_corpus(
    rng: random.Random, max_apps: int = 5, *, min_apps: int = 0, allow_many: bool = True
) -> Corpus:
    apps = []
    for i in range(rng.randint(min_apps, max_apps)):
        apps.append(
            Application(
                id=100 * i + rng.randint(1, 99),
                name=_name(rng, prefix=f"app {i} "),
                year=rng.choice([None, rng.randint(1970, 2025)]),
                genre=rng.choice([None, f"Genre {rng.randint(1, 3)}"]),
                subgenre=rng.choice([None, f"Sub {rng.randint(1, 4)}"]),
                refs=tuple(f"ref{rng.randint(1, 99)}" for _ in range(rng.randint(0, 3))),
                entities=tuple(
                    random_entity(rng, allow_many) for _ in range(rng.randint(0, 5))
                ),
            )
        )
    return Corpus(tuple(apps))


def clean_corpus(seed: int) -> Corpus:
    """A random corpus whose applications all have entities."""
    corpus = random_corpus(random.Random(seed), max_apps=6)
    return Corpus(tuple(a for a in corpus.applications if a.entities))


# The JSON text written for each "@" in a string; no generated string holds one.
JSON_ESCAPES = {
    "escaped \\n": "\\n",
    "escaped \\r": "\\r",
    "escaped \\u000d": "\\u000d",
    "escaped \\ud800": "\\ud800",
    "escaped \\u00e9": "\\u00e9",  # no finding
}


def mutated_json(kind: str, rng: random.Random, data: dict) -> str:
    """export_json's ``data`` changed by one edit of ``kind``, as JSON text."""
    app = rng.choice(data["applications"])
    entity = rng.choice(app["entities"])
    obj = rng.choice([app, entity])
    repeated = None  # the key that the key "@" repeats
    if kind == "id 0":
        app["id"] = 0
    elif kind == "duplicate id":
        app["id"] = rng.choice(data["applications"])["id"]
    elif kind == "id true or 1.5":
        app["id"] = rng.choice([True, 1.5])
    elif kind.startswith("count "):
        entity["count"] = json.loads(kind.removeprefix("count "))
    elif kind == "empty name":
        obj["name"] = rng.choice(["", " "])
    elif kind == "duplicate name":
        app["name"] = rng.choice(data["applications"])["name"].swapcase()
    elif kind == "no entities":
        del app["entities"][:]
    elif kind == "unknown key":
        obj[rng.choice(["color", "tags"])] = rng.choice(["red", [1, 2]])
    elif kind == "repeated key":
        obj = rng.choice([data, app, entity])
        repeated = rng.choice(list(obj))
        items = [*obj.items()]
        repeat = ("@", rng.choice([obj[repeated], "x", 2]))
        obj.clear()
        obj.update([repeat, *items] if rng.random() < 0.5 else [*items, repeat])
    elif kind.startswith(("year ", "refs ", "genre ")):
        key, value = kind.split(" ", 1)
        app[key] = json.loads(value)
    elif kind.startswith(("what ", "how ")):
        key, value = kind.split(" ", 1)
        entity[key] = json.loads(value)
    elif kind in JSON_ESCAPES:
        field = rng.choice(["name", "genre", "subgenre", "refs", "entity name", "note"])
        if field == "refs":
            app["refs"] = [*app["refs"], "r@"]
        else:
            target = entity if field in ("entity name", "note") else app
            key = field.removeprefix("entity ")
            target[key] = (target.get(key) or "") + "@"
    elif kind == "top-level array":
        data = rng.choice([data["applications"], [data]])
    elif kind == "extra top-level key":
        data = dict(rng.sample([*data.items(), ("extra", 1)], 2))
    text = json.dumps(data, ensure_ascii=rng.random() < 0.5)
    if repeated is not None:
        text = text.replace('"@"', json.dumps(repeated))
    return text.replace("@", JSON_ESCAPES.get(kind, "@"))


# Each kind of one-edit change that mutated_json makes.
JSON_MUTATIONS = (
    "id 0",
    "duplicate id",
    "id true or 1.5",
    "count 0",
    "count -1",
    "count null",
    "count true",
    'count "3"',
    "count 1.0",
    'what ["datum"]',
    "what null",
    'how "Tangible"',
    "empty name",
    "duplicate name",
    "no entities",
    "unknown key",
    "repeated key",
    "year -1",
    "year 1.5",
    "refs null",
    "refs [1]",
    "genre 3",
    *JSON_ESCAPES,
    "top-level array",
    "extra top-level key",
)


def random_hallmark(rng: random.Random, allow_many: bool = True) -> Hallmark:
    pool: list[int | str] = [0, 0, 1, 2]
    if allow_many:
        pool.append("many")
    return Hallmark.of(*(rng.choice(pool) for _ in range(12)))


@st.composite
def colliding_corpus(draw) -> Corpus:
    """A corpus that loads, whose printed labels collide: see ``COLLIDING_LABELS``.
    A missing genre or subgenre is as likely as each label, ids are out of
    order, and counts include 300 (so L1 sums pair by pair) and "many"."""
    labels = st.sampled_from(COLLIDING_LABELS)
    names = draw(st.lists(labels, unique=True, max_size=len(COLLIDING_LABELS)))
    ids = draw(st.lists(st.integers(1, 99), unique=True, min_size=len(names), max_size=len(names)))
    counts = st.sampled_from([Count(1), Count(2), Count(300), Count.MANY])
    entities = st.lists(st.tuples(st.sampled_from(TERMS), counts), max_size=4)
    return Corpus(
        tuple(
            Application(
                id=app_id,
                name=name,
                genre=draw(st.none() | labels),
                subgenre=draw(st.none() | labels),
                entities=tuple(
                    Entity(f"e{i}", term.role, term.tangibility, count)
                    for i, (term, count) in enumerate(draw(entities))
                ),
            )
            for app_id, name in zip(ids, names)
        )
    )
