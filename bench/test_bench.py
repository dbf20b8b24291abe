"""Tests of the benchmark itself: seeded inputs, the checker, the report.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

import run
from check import check
from gen import Expected, emit_json, emit_text, generate_corpus, golden_genres

GENRES = golden_genres(run.SRC / "tangibility" / "data" / "golden.corpus")


@pytest.fixture
def workdir():
    path = run.WORK / f"test-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _inputs(workload: str, seed: int, directory) -> list[bytes]:
    directory.mkdir()
    spec = run.WORKLOADS[workload]
    return [run.make_corpus(spec, seed, i, directory).path.read_bytes() for i in range(6)]


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_same_seed_gives_same_input_bytes(workload, workdir):
    first = _inputs(workload, 7, workdir / "a")
    assert first == _inputs(workload, 7, workdir / "b")
    assert first != _inputs(workload, 8, workdir / "c")


def test_inputs_have_the_stated_properties(workdir):
    spec = run.WORKLOADS["analyze-l1"]
    corpora = [run.make_corpus(spec, 3, i, workdir).expected for i in range(16)]
    assert [e.first_many is not None for e in corpora] == [i % 4 == 3 for i in range(16)]
    assert all(150 <= len(e.ids) <= 400 for e in corpora)
    text = emit_text(generate_corpus(random.Random(1), 300, GENRES, 0.03))
    assert '\\"' in text and "\\\\" in text and not text.isascii()
    assert "count: many" in text


def _request(argv: list[str], apps, directory, as_json: bool):
    sys.path.insert(0, str(run.SRC))
    from tangibility import cli

    path = directory / ("in.json" if as_json else "in.txt")
    path.write_text(emit_json(apps) if as_json else emit_text(apps), encoding="utf-8")
    _, code, out, err = run.call(cli.main, [*argv, str(path)])
    return code, out, err


def _plant(out: str, old: str, new: str) -> str:
    assert old in out
    return out.replace(old, new, 1)


PLANTS = [
    (["classify", "--format", "json"], False, '"class":"', '"class":"x'),
    (["hallmark", "--format", "csv"], False, "\n", "\n9"),
    (["export"], False, "  id: ", "  id: 1"),
    (["export", "--format", "json"], False, '"what":"', '"what":"x'),
    (["analyze", "--format", "json"], True, '"rows":[[0,', '"rows":[[1,'),
    (["analyze", "--format", "text"], True, "applications: ", "applications: 1"),
    (["analyze", "--format", "csv"], True, "entity_records,", "entity_records,1"),
    (["analyze", "--format", "dot"], True, '-> "Class I', '-> "Class V'),
    (["analyze", "--metric", "l1", "--format", "json"], True, '"classes":{"I":', '"classes":{"I":1'),
]


@pytest.mark.parametrize("argv,as_json,old,new", PLANTS, ids=[" ".join(p[0]) for p in PLANTS])
def test_checker_passes_real_output_and_flags_a_planted_error(argv, as_json, old, new, workdir):
    apps = generate_corpus(random.Random(5), 40, GENRES, 0.0 if "l1" in argv else 0.03)
    expected = Expected(apps)
    code, out, err = _request(argv, apps, workdir, as_json)
    canonical = emit_text(apps) if argv == ["export"] else None
    assert check(expected, argv, code, out, err, canonical, random.Random(1)) == []
    planted = _plant(out, old, new)
    assert check(expected, argv, code, planted, err, canonical, random.Random(1))


def test_checker_flags_a_wrong_refusal(workdir):
    apps = generate_corpus(random.Random(6), 30, GENRES, 0.1)
    expected = Expected(apps)
    argv = ["analyze", "--metric", "l1"]
    code, out, err = _request(argv, apps, workdir, True)
    assert code == 1
    assert check(expected, argv, code, out, err, None, random.Random(1)) == []
    wrong = err.replace(f"application {expected.first_many}", "application 0")
    assert check(expected, argv, code, out, wrong, None, random.Random(1))
    assert check(expected, argv, 0, out, err, None, random.Random(1))


def _declared(kind: str) -> dict[str, str]:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace, capsys):
    assert run.main(["--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.split()[:1] == [name] and f" {unit} " in f"{line} " for line in lines)
    if not trace:
        assert any(line.split()[:2] == ["error_rate", "0"] for line in lines)


def test_fails_without_the_program(workdir):
    (workdir / "bench").mkdir()
    for path in run.ROOT.joinpath("bench").glob("*.py"):
        shutil.copy(path, workdir / "bench" / path.name)
    shutil.copy(run.ROOT / "BENCHMARK.json", workdir)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ingest", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=workdir, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "metrics" not in done.stdout
