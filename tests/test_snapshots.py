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
  L1 lane kernel), and 300 where one term sums to 255 (L1 pair by pair).

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
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path
from typing import Iterable

import pytest

from tangibility import Corpus, Count, Entity, Role, Tangibility, export_json
from tangibility.cli import main

try:
    from corpusgen import random_corpus
except ImportError:  # run as a script from the repository root
    sys.path.insert(0, str(Path(__file__).parent))
    from corpusgen import random_corpus

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


def _write_snapshots() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    status = {}
    for case, argv in CASES.items():
        code, stdout, stderr = run_cli(argv + ["--golden"])
        (GOLDEN_DIR / f"{case}.out").write_bytes(stdout)
        status[case] = {"exit": code, "stderr": stderr}
    digests = {name: _corpus_digests(_generated_corpus(name)) for name in GENERATED}
    digests.update({name: _corpus_digests(_large_corpus(name), ANALYZE) for name in LARGE})
    for path, payload in ((GOLDEN_STATUS, status), (DIGESTS, digests)):
        path.write_text(
            json.dumps(payload, indent=1, sort_keys=True, ensure_ascii=False) + "\n",
            encoding="utf-8",
        )


if __name__ == "__main__":
    _write_snapshots()
