"""Pinned command-line outputs: stdout, stderr and exit code, byte for byte.

Every report command runs in every format it offers: classify, hallmark,
cluster and cluster --binary in text/CSV/JSON, and analyze in
text/CSV/JSON/DOT for both --key values and both --metric values.  The
ingest commands run too: validate, and export as text and as JSON.

- The golden corpus is pinned verbatim: stdout in
  ``snapshots/golden/<case>.out``, stderr and exit code in
  ``snapshots/golden.json``.  (``--metric l1`` exits 1 on it, because
  Pinwheels counts ``many``.)
- The empty corpus and 40 seeded ``corpusgen.random_corpus`` corpora
  (hostile names included) are pinned as one SHA-256 digest per case in
  ``snapshots/digests.json``.
- Three larger seeded corpora pin the analyze cases alone, in the same
  file: 1,000 applications with "many" (L1 refused), 1,000 without (the
  L1 byte kernel), and 300 where one term sums to 255 (L1 pair by pair).
- One hand-built corpus whose printed labels collide on purpose pins every
  case, in the same file: application names equal to a genre, a class node
  or ``(none)``, a genre equal to its subgenre, genres and subgenres named
  ``(none)`` next to missing ones, quotes, backslashes and non-ASCII text,
  and one term summing to 300 (L1 pair by pair).
- ``import_json`` alone, not the CLI, is pinned on JSON with one edit of each
  ``corpusgen.JSON_MUTATIONS`` kind, over 60 seeded corpora: one digest per
  kind of each loaded corpus and every diagnostic, in the same file.  One
  more digest pins it on one-application corpora whose one entity takes
  every combination of ``ENTITY_GRID``'s values, and one more on two-application
  corpora whose second application takes every combination of
  ``APPLICATION_GRID``'s values.
- ``serialize_corpus`` and ``export_json`` alone are pinned on one
  library-built corpus (``writer_corpus``): one digest of both texts.

Generated corpora are fed as JSON on stdin, so diagnostics name
``<stdin>`` and do not depend on a temporary path.  The snapshots record
the behaviour the program had when they were written.  Regenerate them,
only to add pins or for an intended output change recorded in that
change's own commit, with

    PYTHONPATH=src python tests/test_snapshots.py
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path
from typing import Iterable

import pytest

from tangibility import (
    Application, Corpus, Count, Entity, Role, Tangibility, export_json, import_json,
    serialize_corpus,
)
from tangibility.cli import main

try:
    from corpusgen import JSON_MUTATIONS, clean_corpus, mutated_json, random_corpus
except ImportError:  # run as a script from the repository root
    sys.path.insert(0, str(Path(__file__).parent))
    from corpusgen import JSON_MUTATIONS, clean_corpus, mutated_json, random_corpus

SNAPSHOTS = Path(__file__).parent / "snapshots"
GOLDEN_DIR = SNAPSHOTS / "golden"
GOLDEN_STATUS = SNAPSHOTS / "golden.json"
DIGESTS = SNAPSHOTS / "digests.json"

SEEDS = range(40)
MAX_APPS = 8
GENERATED = ["empty"] + [f"seed-{seed}" for seed in SEEDS]
# name -> (seed, applications, "many" allowed, one term summing to 255)
LARGE = {
    "large-many": (1, 1000, True, False),
    "large-exact": (2, 1000, False, False),
    "large-wide": (3, 300, False, True),
}
COLLISIONS = "collisions"
JSON_MUTATION_DIGESTS = "json-mutations"
ENTITY_GRID_DIGEST = "json-entity-grid"
APPLICATION_GRID_DIGEST = "json-application-grid"
WRITER_DIGEST = "writers"
MISSING = object()  # a grid value: the key is left out
# Valid values, and each way the JSON reader can find one wrong; "color" is an unknown key.
ENTITY_GRID = {
    "name": ["e", "", " ", 1, MISSING],
    "what": ["datum", "Datum", 1, ["datum"], None, MISSING],
    "how": ["tangible", "Tangible", 1, ["tangible"], None, MISSING],
    "count": [1, 63, 64, 0, -1, 1.0, True, "many", "3", None, MISSING],
    "note": ["n", None, 1, MISSING],
    "color": [MISSING, "red"],
}
# The same for an application read after one with id 1 and name "A" (so that 1 and
# " a " repeat them); "entities" holds one valid entity, none, or one that is not an object.
APPLICATION_GRID = {
    "id": [2, 1, 0, True],
    "name": ["b", " a ", " ", 1, MISSING],
    "year": [0, -1, True, None],
    "genre": ["g", 1],
    "subgenre": [MISSING, {}],
    "refs": [["r"], "r", [[]], MISSING],
    "entities": [[{"name": "e", "what": "datum", "how": "tangible"}], [], {}, [[]]],
    "color": [MISSING, "red"],
}
FIRST_APPLICATION = {
    "id": 1, "name": "A", "genre": "é",
    "entities": [{"name": "e", "what": "tool", "how": "graspable"}],
}


def _cases() -> dict[str, list[str]]:
    cases = {
        "validate": ["validate"],
        "export-text": ["export"],
        "export-json": ["export", "--format", "json"],
    }
    for fmt in ("text", "csv", "json"):
        for command in ("classify", "hallmark", "cluster"):
            cases[f"{command}-{fmt}"] = [command, "--format", fmt]
        cases[f"cluster-binary-{fmt}"] = ["cluster", "--binary", "--format", fmt]
    for fmt in ("text", "csv", "json", "dot"):
        for key in ("genre", "subgenre"):
            for metric in ("hamming", "l1"):
                cases[f"analyze-{fmt}-{key}-{metric}"] = [
                    "analyze", "--format", fmt, "--key", key, "--metric", metric,
                ]
    return cases


CASES = _cases()
ANALYZE = [case for case in CASES if case.startswith("analyze-")]


def _generated_corpus(name: str) -> str:
    if name == "empty":
        return export_json(Corpus(()))
    seed = int(name.removeprefix("seed-"))
    return export_json(random_corpus(random.Random(seed), max_apps=MAX_APPS))


def _large_corpus(name: str) -> str:
    seed, size, allow_many, wide = LARGE[name]
    corpus = random_corpus(
        random.Random(seed), max_apps=size, min_apps=size, allow_many=allow_many
    )
    if wide:
        first, *rest = corpus.applications
        entity = Entity("wide", Role.DATUM, Tangibility.TANGIBLE, Count(255))
        corpus = Corpus((replace(first, entities=(*first.entities, entity)), *rest))
    return export_json(corpus)


def _collision_corpus() -> str:
    """Five applications, listed out of id order, whose labels collide."""

    def app(app_id, name, genre, subgenre, *terms):
        entities = tuple(
            Entity(f"e{i}", Role(role), Tangibility(tangibility), Count(n))
            for i, (role, tangibility, n) in enumerate(terms)
        )
        return Application(app_id, name, genre=genre, subgenre=subgenre, entities=entities)

    corpus = Corpus((
        app(5, "Génre ×", "Génre ×", "Unclassified",
            ("datum", "intangible", 1), ("tool", "tangible", 2)),
        app(1, "Class I", "G", "G", ("datum", "tangible", 200), ("datum", "tangible", 100)),
        app(4, "(none)", 'Quote " and \\ back', None, ("operation", "tangible", 1)),
        app(2, "G", "(none)", "S", ("datum", "tangible", 1), ("datum", "intangible", 3)),
        app(3, "Unclassified", None, "(none)", ("tool", "intangible", 1)),
    ))
    return export_json(corpus)


def _imported(text: str) -> list:
    """import_json's result on ``text``: the corpus as export_json writes it, and
    each diagnostic's severity, message and span, in order."""
    corpus, diagnostics = import_json(text)
    findings = [
        [d.severity.value, d.message, d.span and [d.span.line, d.span.column]]
        for d in diagnostics
    ]
    return [export_json(corpus), findings]


def _sha256(results: list) -> str:
    return hashlib.sha256(json.dumps(results).encode("ascii")).hexdigest()


def json_mutation_digest(kind: str) -> str:
    """The digest of import_json's result on each seed's clean corpus, exported
    and changed by one edit of ``kind``."""
    results = []
    for seed in range(60):
        rng = random.Random(seed)
        data = json.loads(export_json(clean_corpus(seed)))
        if not data["applications"]:
            continue
        results.append(_imported(mutated_json(kind, rng, data)))
    return _sha256(results)


def json_entity_grid_digest() -> str:
    """The digest of import_json's result on each one-application corpus whose one
    entity takes a combination of ``ENTITY_GRID``'s values, read as is and with a
    \\u00e9 escape in the application's name."""
    results = []
    for values in itertools.product(*ENTITY_GRID.values()):
        entity = {key: value for key, value in zip(ENTITY_GRID, values) if value is not MISSING}
        for name in ("a", "a\\u00e9"):
            app = f'{{"id":1,"name":"{name}","entities":[{json.dumps(entity)}]}}'
            results.append(_imported(f'{{"applications":[{app}]}}'))
    return _sha256(results)


def json_application_grid_digest() -> str:
    """The digest of import_json's result on each two-application corpus whose second
    application takes a combination of ``APPLICATION_GRID``'s values, read as is and
    with the first application's genre "é" written as a \\u00e9 escape."""
    results = []
    for values in itertools.product(*APPLICATION_GRID.values()):
        app = {key: value for key, value in zip(APPLICATION_GRID, values) if value is not MISSING}
        for escaped in (False, True):
            first = json.dumps(FIRST_APPLICATION, ensure_ascii=escaped)
            results.append(_imported(f'{{"applications":[{first},{json.dumps(app)}]}}'))
    return _sha256(results)


def writer_corpus() -> Corpus:
    """A corpus built by the library, not read: every role and tangibility pair,
    a freshly built Count(1), the default one, "many" and counts of 64 and more,
    an empty note, and quotes, backslashes and non-ASCII text in every string."""
    pairs = [(role, tangibility) for role in Role for tangibility in Tangibility]
    counts = [Count(1), Count.MANY, Count(64), Count(999), Count(2), Count(63)]
    notes = [None, "", 'say "hi"', "back\\slash", "é ×", None]
    entities = tuple(
        Entity(f'e{i} "q" \\ é', role, tangibility, counts[i % 6], notes[i % 6])
        for i, (role, tangibility) in enumerate(pairs)
    )
    return Corpus((
        Application(
            7, 'Quote " and \\ back', 2001, 'Genre "g" \\', "Sub\\genre é",
            ('ref"1', "ref\\2", ""), entities,
        ),
        Application(3, "bare", entities=(Entity("default", Role.TOOL, Tangibility.GRASPABLE),)),
        Application(12, "no entities", year=0, genre="", subgenre=""),
    ))


def writer_digest() -> str:
    """The digest of serialize_corpus and export_json of ``writer_corpus``."""
    corpus = writer_corpus()
    return _sha256([serialize_corpus(corpus), export_json(corpus)])


def _byte_stream(data: bytes = b"") -> io.TextIOWrapper:
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


def run_cli(argv: list[str], stdin_text: str = "") -> tuple[int, bytes, str]:
    """main(argv) on byte-backed standard streams, as in a real process: the
    exit code, the bytes written to stdout and the text written to stderr."""
    out, err = _byte_stream(), _byte_stream()
    saved_stdin = sys.stdin
    sys.stdin = _byte_stream(stdin_text.encode("utf-8"))
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved_stdin
    return code, out.buffer.getvalue(), err.buffer.getvalue().decode("utf-8")


def _digest(code: int, stdout: bytes, stderr: str) -> str:
    framed = json.dumps([code, stdout.decode("utf-8"), stderr], ensure_ascii=False)
    return hashlib.sha256(framed.encode("utf-8")).hexdigest()


def _corpus_digests(corpus_json: str, cases: Iterable[str] = CASES) -> dict[str, str]:
    return {case: _digest(*run_cli(CASES[case] + ["-"], corpus_json)) for case in cases}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden(case):
    status = json.loads(GOLDEN_STATUS.read_text(encoding="utf-8"))[case]
    code, stdout, stderr = run_cli(CASES[case] + ["--golden"])
    assert code == status["exit"]
    assert stderr == status["stderr"]
    assert stdout == (GOLDEN_DIR / f"{case}.out").read_bytes()


@pytest.mark.parametrize("name", GENERATED)
def test_generated(name):
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))[name]
    actual = _corpus_digests(_generated_corpus(name))
    changed = sorted(case for case in CASES if actual[case] != pinned.get(case))
    assert not changed, f"{name}: outputs differ for {changed}"
    assert set(pinned) == set(CASES)


@pytest.mark.parametrize("name", LARGE)
def test_large(name):
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))[name]
    actual = _corpus_digests(_large_corpus(name), ANALYZE)
    assert actual == pinned


def test_collisions():
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))[COLLISIONS]
    assert _corpus_digests(_collision_corpus()) == pinned


def _write_snapshots() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    status = {}
    for case, argv in CASES.items():
        code, stdout, stderr = run_cli(argv + ["--golden"])
        (GOLDEN_DIR / f"{case}.out").write_bytes(stdout)
        status[case] = {"exit": code, "stderr": stderr}
    digests = {name: _corpus_digests(_generated_corpus(name)) for name in GENERATED}
    digests.update({name: _corpus_digests(_large_corpus(name), ANALYZE) for name in LARGE})
    digests[COLLISIONS] = _corpus_digests(_collision_corpus())
    digests[JSON_MUTATION_DIGESTS] = {kind: json_mutation_digest(kind) for kind in JSON_MUTATIONS}
    digests[ENTITY_GRID_DIGEST] = json_entity_grid_digest()
    digests[APPLICATION_GRID_DIGEST] = json_application_grid_digest()
    digests[WRITER_DIGEST] = writer_digest()
    for path, payload in ((GOLDEN_STATUS, status), (DIGESTS, digests)):
        path.write_text(
            json.dumps(payload, indent=1, sort_keys=True, ensure_ascii=False) + "\n",
            encoding="utf-8",
        )


if __name__ == "__main__":
    _write_snapshots()
