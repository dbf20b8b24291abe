"""Seeded random builders shared by round-trip and property tests."""

from __future__ import annotations

import random

from tangibility import Application, Corpus, Count, Entity, Hallmark, Role, Tangibility

# Deliberately hostile: quotes, backslashes, braces, comment marks, unicode.
NAME_CHARS = 'abcdefXYZ0189 _-#{}[]:,"\\()\u00e9\u00d7'


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


def random_hallmark(rng: random.Random, allow_many: bool = True) -> Hallmark:
    pool: list[int | str] = [0, 0, 1, 2]
    if allow_many:
        pool.append("many")
    return Hallmark.of(*(rng.choice(pool) for _ in range(12)))
