"""Independent checks of CLI output against the benchmark's own expected values.

Each check returns a list of mismatch descriptions; an empty list means the
output is correct.  Checks run outside the timed region.  They compare every
per-application value the output carries, except for distance matrices, of
which a seeded sample of pairs is compared.
"""

from __future__ import annotations

import csv
import io
import json
import random
import re
from typing import Optional

from gen import ROLES, TERM_NAMES, Expected, json_document

PAIR_SAMPLE = 64

_CLASS_NODE = {
    "I": "Class I",
    "II": "Class II",
    "III": "Class III",
    "IV": "Class IV",
    "unclassified": "Unclassified",
}

GOLDEN = {
    "applications": 33,
    "entity_records": 145,
    "classes": {"I": 3, "II": 20, "III": 5, "IV": 5, "unclassified": 0},
    "distinct_hallmarks": 29,
    "distinct_binary_hallmarks": 27,
}


def _option(argv: list[str], name: str, default: str) -> str:
    return argv[argv.index(name) + 1] if name in argv else default


def _cell(count: Optional[int]) -> str:
    return "many" if count is None else str(count)


def _diff(what: str, got, want) -> list[str]:
    return [] if got == want else [f"{what}: got {got!r}, expected {want!r}"]


def _role_shares(expected: Expected) -> dict:
    total = expected.record_count
    counts = [sum(expected.coverage[t] for t in TERM_NAMES[3 * r : 3 * r + 3]) for r in range(4)]
    return {
        role: {"count": c, "percent": (200 * c + total) // (2 * total)}
        for role, c in zip(ROLES, counts)
    }


def _pairs(expected: Expected, rng: random.Random) -> list[tuple[int, int]]:
    n = len(expected.ids)
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(PAIR_SAMPLE)]


def _check_matrix(
    expected: Expected, metric: str, rows: list[list[str]], rng: random.Random
) -> list[str]:
    """`rows` holds one row of cells per application: its id, then distances.
    Every diagonal cell and a seeded sample of the others are compared."""
    if len(rows) != len(expected.ids):
        return [f"distance matrix has {len(rows)} rows, expected {len(expected.ids)}"]
    problems = []
    for i, row in enumerate(rows):
        if row[0] != str(expected.ids[i]) or len(row) != len(rows) + 1 or row[i + 1] != "0":
            return [f"distance matrix row {i} is malformed or has a nonzero diagonal"]
    for i, j in _pairs(expected, rng):
        a, b = expected.ids[i], expected.ids[j]
        want = str(expected.distance(metric, a, b))
        problems += _diff(f"{metric} distance {a}-{b}", rows[i][j + 1], want)
    return problems


# --- analyze ------------------------------------------------------------


def _analyze_json(expected: Expected, argv: list[str], out: str, rng: random.Random) -> list[str]:
    payload = json.loads(out)
    key = _option(argv, "--key", "genre")
    metric = _option(argv, "--metric", "hamming")
    problems = []
    problems += _diff("applications", payload["applications"], len(expected.ids))
    problems += _diff("entity_records", payload["entity_records"], expected.record_count)
    problems += _diff("coverage", payload["coverage"], expected.coverage)
    problems += _diff("roles", payload["roles"], _role_shares(expected))
    problems += _diff("classes", payload["classes"], expected.class_distribution)
    problems += _diff("distinct_hallmarks", payload["distinct_hallmarks"], expected.distinct)
    problems += _diff(
        "distinct_binary_hallmarks", payload["distinct_binary_hallmarks"], expected.distinct_binary
    )
    problems += _diff("cross_tab", payload["cross_tab"], {"key": key, "rows": expected.cross_tab(key)})
    matrix = payload["distance_matrix"]
    problems += _diff("matrix metric", matrix["metric"], metric)
    problems += _diff("matrix ids", matrix["ids"], expected.ids)
    rows = [[str(i)] + [str(d) for d in row] for i, row in zip(matrix["ids"], matrix["rows"])]
    return problems + _check_matrix(expected, metric, rows, rng)


def _section(lines: list[str], title: str, length: int) -> list[list[str]]:
    start = lines.index(title) + 1
    return [line.split() for line in lines[start : start + length]]


def _analyze_text(expected: Expected, argv: list[str], out: str, rng: random.Random) -> list[str]:
    metric = _option(argv, "--metric", "hamming")
    lines = out.split("\n")
    problems = []
    problems += _diff("applications line", lines[0], f"applications: {len(expected.ids)}")
    problems += _diff("records line", lines[1], f"entity records: {expected.record_count}")
    coverage = {term: int(n) for term, n in _section(lines, "term coverage:", 12)}
    problems += _diff("coverage", coverage, expected.coverage)
    classes = {label: int(n) for label, n in _section(lines, "class distribution:", 5)}
    problems += _diff("classes", classes, expected.class_distribution)
    problems += _diff(
        "distinct line", f"distinct hallmarks: {expected.distinct}" in lines, True
    )
    problems += _diff(
        "distinct binary line",
        f"distinct binary hallmarks: {expected.distinct_binary}" in lines,
        True,
    )
    rows = _section(lines, f"distance matrix ({metric}):", len(expected.ids) + 1)
    problems += _diff("matrix header", rows[0], ["id"] + [str(i) for i in expected.ids])
    return problems + _check_matrix(expected, metric, rows[1:], rng)


def _analyze_csv(expected: Expected, argv: list[str], out: str, rng: random.Random) -> list[str]:
    metric = _option(argv, "--metric", "hamming")
    sections = [list(csv.reader(io.StringIO(s))) for s in out.split("\n\n")]
    problems = []
    problems += _diff(
        "statistics",
        sections[0],
        [
            ["statistic", "value"],
            ["applications", str(len(expected.ids))],
            ["entity_records", str(expected.record_count)],
            ["distinct_hallmarks", str(expected.distinct)],
            ["distinct_binary_hallmarks", str(expected.distinct_binary)],
        ],
    )
    problems += _diff(
        "coverage", sections[1][1:], [[t, str(n)] for t, n in expected.coverage.items()]
    )
    problems += _diff(
        "classes",
        sections[3][1:],
        [[label, str(n)] for label, n in expected.class_distribution.items()],
    )
    matrix = sections[-1]
    problems += _diff("matrix header", matrix[0], ["id"] + [str(i) for i in expected.ids])
    return problems + _check_matrix(expected, metric, matrix[1:], rng)


def _dot_quote(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _analyze_dot(expected: Expected, argv: list[str], out: str, rng: random.Random) -> list[str]:
    lines = set(out.split("\n"))
    missing = [
        app.id
        for app in expected.by_id
        if f"  {_dot_quote(app.name)} -> {_dot_quote(_CLASS_NODE[expected.classes[app.id][0]])};"
        not in lines
    ]
    problems = _diff("dot header", out.startswith("digraph corpus {\n  rankdir=LR;\n"), True)
    if missing:
        problems.append(f"dot lacks the class edge of applications {missing[:5]}")
    return problems


_ANALYZE = {"json": _analyze_json, "text": _analyze_text, "csv": _analyze_csv, "dot": _analyze_dot}


# --- ingest commands ----------------------------------------------------


def _classify_json(expected: Expected, out: str) -> list[str]:
    got = json.loads(out)["applications"]
    want = [
        {"id": app.id, "name": app.name, "class": label, "rule": rule, "reason": reason}
        for app in expected.by_id
        for label, rule, reason in [expected.classes[app.id]]
    ]
    return _diff("classify rows", got, want)


def _hallmark_csv(expected: Expected, out: str) -> list[str]:
    got = list(csv.reader(io.StringIO(out)))
    want = [["id", "name", *TERM_NAMES]] + [
        [str(app.id), app.name, *(_cell(c) for c in expected.marks[app.id])]
        for app in expected.by_id
    ]
    return _diff("hallmark rows", got, want)


def expected_exit(expected: Expected, argv: list[str]) -> int:
    """1 for `analyze --metric l1` on a corpus holding "many", else 0."""
    l1 = argv[0] == "analyze" and _option(argv, "--metric", "hamming") == "l1"
    return 1 if l1 and expected.first_many is not None else 0


def check(
    expected: Expected,
    argv: list[str],
    exit_code: Optional[int],
    out: str,
    err: str,
    canonical_text: Optional[str],
    rng: random.Random,
) -> list[str]:
    """Mismatches between one request's result and the expected values.

    `argv` is the command without its input path; `canonical_text` is the
    request's input when that input is the canonical text form.
    """
    command = argv[0]
    fmt = _option(argv, "--format", "text")
    if expected_exit(expected, argv):
        problems = _diff("exit code", exit_code, 1) + _diff("stdout", out, "")
        if not re.search(rf"\bapplication {expected.first_many}\b", err):
            problems.append(f"refusal does not name application {expected.first_many}: {err!r}")
        return problems
    problems = _diff("exit code", exit_code, 0) + _diff("stderr", err, "")
    if problems:
        return problems
    try:
        if command == "validate":
            return _diff("stdout", out, "")
        if command == "analyze":
            return _ANALYZE[fmt](expected, argv, out, rng)
        if command == "classify" and fmt == "json":
            return _classify_json(expected, out)
        if command == "hallmark" and fmt == "csv":
            return _hallmark_csv(expected, out)
        if command == "export" and fmt == "json":
            return _diff("export json", json.loads(out), json_document(expected.apps))
        if command == "export" and canonical_text is not None:
            return _diff("export text", out == canonical_text, True)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable {command} {fmt} output: {type(exc).__name__}: {exc}"]
    raise ValueError(f"no check for {' '.join(argv)}")


def check_golden(out: str) -> list[str]:
    """`analyze --golden --format json` against the bundled corpus's known figures."""
    try:
        payload = json.loads(out)
        return [
            problem
            for key, want in GOLDEN.items()
            for problem in _diff(f"golden {key}", payload[key], want)
        ]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable golden analyze output: {type(exc).__name__}: {exc}"]

