#!/usr/bin/env python3
"""Closed-loop benchmark of the `tangibility` command line, one client.

    python3 bench/run.py --workload ingest --seed 1 --seconds 30 --trace 0

Run from the repository root (or any directory holding `src/` and `bench/`).
The benchmark generates seeded input corpora, calls `tangibility.cli.main`
in-process on them until `--seconds` have passed, checks every output
against values it computes itself, and prints one summary line per metric
followed, as the last line, by one JSON object.  `--trace 0` reports the
end-to-end metrics; `--trace 1` runs each request twice, once with the
layer wrappers of `tracing.py` installed and once without, and reports the
per-layer metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Callable, NamedTuple, Optional

import gen
from check import check, check_golden, expected_exit
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_LAUNCHES = 9
OUTPUT_BYTES_REQUESTS = 16
PHI = (math.sqrt(5) - 1) / 2
# setup_s is launch wall time scaled to a machine on which the reference
# work takes this long, so that it drifts with the program, not the machine.
NOMINAL_REFERENCE_S = 0.010
END_TO_END = ("setup_s", "latency_p50_rel", "latency_tail_rel", "apps_per_ref", "peak_rss_mb")


@dataclass(frozen=True)
class Workload:
    input_format: str  # "text" or "json"
    sizes: tuple[int, int]  # applications per corpus, inclusive range
    many_share: float  # share of entity counts that are "many"
    commands: tuple[tuple[str, ...], ...]  # rotated; the input path is appended
    # The tail percentile: the highest with at least 10 of the requests a
    # 30-second run makes beyond it.  It is fixed, because a percentile that
    # followed the request count would move with the machine's speed.
    tail_percentile: int
    refusal_every: int = 0  # every n-th corpus contains "many" and is refused (0: none)


# Why each workload exists is recorded in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    "ingest": Workload(
        "text",
        (200, 800),
        0.03,
        (
            ("validate",),
            ("classify", "--format", "json"),
            ("hallmark", "--format", "csv"),
            ("export",),
            ("export", "--format", "json"),
        ),
        tail_percentile=85,
    ),
    "analyze-hamming": Workload(
        "json",
        (200, 600),
        0.03,
        tuple(
            ("analyze", "--format", fmt, "--key", key)
            for fmt in ("text", "csv", "json", "dot")
            for key in ("genre", "subgenre")
        ),
        tail_percentile=75,
    ),
    "analyze-l1": Workload(
        "json",
        (150, 400),
        0.0,
        (("analyze", "--metric", "l1", "--format", "json"),),
        tail_percentile=75,
        refusal_every=4,
    ),
}


class Corpus(NamedTuple):
    path: Path
    text: str
    input_bytes: int
    expected: gen.Expected


class Request(NamedTuple):
    index: int
    apps: int
    input_bytes: int
    argv: tuple[str, ...]
    ns: int
    reference_ns: int
    exit_code: Optional[int]
    expected_exit: int
    output_bytes: int
    problems: list[str]


# --- inputs -------------------------------------------------------------


def make_corpus(workload: Workload, seed: int, index: int, directory: Path) -> Corpus:
    """The input of request `index`, written to `directory`.

    Sizes follow a golden-ratio sequence over the workload's range, the same
    for every seed, so any run of consecutive requests sees a balanced size
    mix.  The records are drawn from `seed` and `index` alone.
    """
    rng = random.Random(f"{seed}:{index}")
    low, high = workload.sizes
    size = low + round((high - low) * ((0.5 + index * PHI) % 1.0))
    refuses = workload.refusal_every and index % workload.refusal_every == workload.refusal_every - 1
    genres = gen.golden_genres(SRC / "tangibility" / "data" / "golden.corpus")
    apps = gen.generate_corpus(rng, size, genres, 0.03 if refuses else workload.many_share)
    if refuses and not any(e.count is None for app in apps for e in app.entities):
        first = apps[0]
        many = first.entities[0]._replace(count=None)
        apps[0] = first._replace(entities=(many,) + first.entities[1:])
    text = gen.emit_text(apps) if workload.input_format == "text" else gen.emit_json(apps)
    data = text.encode("utf-8")
    path = directory / f"corpus.{workload.input_format}"
    path.write_bytes(data)
    return Corpus(path, text, len(data), gen.Expected(apps))


# --- timing -------------------------------------------------------------


class Reference:
    """Machine-speed yardstick: fixed pure-Python work owned by the benchmark.

    The speed of a shared machine drifts by tens of percent within seconds.
    Work that resembles the program's (building records, formatting text,
    scanning characters, pairwise distances) slows down with it, so request
    time divided by the time of this work, taken just before and just after
    the request, stays steady where raw times do not.
    """

    def __init__(self) -> None:
        self._apps = gen.generate_corpus(random.Random(0), 60, (("Reference", "Work"),), 0.03)

    def once(self) -> int:
        start = perf_counter_ns()
        expected = gen.Expected(self._apps)
        text = gen.emit_text(self._apps) + gen.emit_json(self._apps)
        sum(1 for ch in text if ch.isalnum())
        marks = list(expected.binaries.values())
        sum(gen.hamming(a, b) for a in marks for b in marks)
        return perf_counter_ns() - start

    def around(self, request: Callable[[], tuple]) -> tuple[int, tuple]:
        """(mean reference ns before and after, result of `request()`)."""
        before = self.once()
        result = request()
        return (before + self.once()) // 2, result


class Sink:
    """Collects written text; cheaper than a terminal or a file."""

    def __init__(self) -> None:
        self.parts: list[str] = []

    def write(self, text: str) -> int:
        self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass

    def value(self) -> str:
        return "".join(self.parts)


def call(main: Callable, argv: list[str]) -> tuple[int, Optional[int], str, str]:
    """(ns, exit code or None after an exception, stdout, stderr) of one request."""
    out, err = Sink(), Sink()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        start = perf_counter_ns()
        try:
            code: Optional[int] = main(argv)
        except Exception:  # the CLI must never raise; a traceback fails the request
            code = None
            err.write(traceback.format_exc())
        ns = perf_counter_ns() - start
    finally:
        sys.stdout, sys.stderr = saved
    return ns, code, out.value(), err.value()


_SETUP_CODE = (
    "import time, json\n"
    "t0 = time.perf_counter()\n"
    "import tangibility.cli\n"
    "t1 = time.perf_counter()\n"
    "tangibility.cli.load_golden()\n"
    "t2 = time.perf_counter()\n"
    "print(json.dumps({'import_s': t1 - t0, 'golden_s': t2 - t1}))\n"
)


def launch_setup(reference: Reference) -> dict:
    """One fresh interpreter that imports the CLI and loads the golden corpus:
    its wall time, the reference time around it and its own import and load
    times, in seconds."""
    before = reference.once()
    start = perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", _SETUP_CODE],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    wall = perf_counter() - start
    reference_s = (before + reference.once()) / 2e9
    if done.returncode != 0:
        raise RuntimeError(f"setup launch failed: {done.stderr.strip()}")
    return dict(json.loads(done.stdout), wall_s=wall, reference_s=reference_s)


# --- the loop -----------------------------------------------------------


def run_one(main: Callable, reference: Reference, index: int, corpus: Corpus,
            argv: tuple[str, ...], check_rng: random.Random) -> Request:
    gc.collect()
    gc.freeze()  # the benchmark's own objects stay out of the program's collections
    ref_ns, (ns, code, out, err) = reference.around(
        lambda: call(main, [*argv, str(corpus.path)])
    )
    expected = corpus.expected
    canonical = corpus.text if argv == ("export",) else None
    problems = check(expected, list(argv), code, out, err, canonical, check_rng)
    return Request(
        index, len(expected.ids), corpus.input_bytes, argv, ns, ref_ns, code,
        expected_exit(expected, list(argv)), len(out.encode("utf-8")), problems,
    )


def run_loop(cli_main: Callable, reference: Reference, workload: Workload, seed: int,
             seconds: float, directory: Path,
             tracer: Optional[Tracer]) -> tuple[list[Request], list[Request], list[dict]]:
    """Closed loop, one request at a time, for `seconds` (at least one request).

    With a tracer each request runs twice, traced and untraced, alternating
    which goes first.  The set-up launches are spread over the run, so that
    their median, like the request medians, samples the whole run.  Returns
    (untraced requests, traced requests, set-up launches).
    """
    check_rng = random.Random(seed)
    plain: list[Request] = []
    traced: list[Request] = []
    setup: list[dict] = []
    traced_main = tracer.span("cli.main", cli_main) if tracer else cli_main
    start = perf_counter()
    index = 0
    while index == 0 or perf_counter() < start + seconds:
        if perf_counter() >= start + len(setup) * seconds / SETUP_LAUNCHES:
            setup.append(launch_setup(reference))
        corpus = make_corpus(workload, seed, index, directory)
        argv = workload.commands[index % len(workload.commands)]
        sides = (False,) if tracer is None else ((False, True) if index % 2 else (True, False))
        for with_trace in sides:
            if not with_trace:
                plain.append(run_one(cli_main, reference, index, corpus, argv, check_rng))
                continue
            tracer.request = index
            tracer.install()
            try:
                traced.append(run_one(traced_main, reference, index, corpus, argv, check_rng))
            finally:
                tracer.uninstall()
        index += 1
    while len(setup) < SETUP_LAUNCHES:
        setup.append(launch_setup(reference))
    return plain, traced, setup


# --- metrics ------------------------------------------------------------


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def latency(requests: list[Request], tail_pct: int) -> dict:
    """Request-time metrics, raw and relative to the reference work."""
    ms = [r.ns / 1e6 for r in requests]
    rel = [r.ns / r.reference_ns for r in requests]
    apps = sum(r.apps for r in requests)
    return {
        "latency_p50_rel": (median(rel), "ratio"),
        "latency_tail_rel": (percentile(rel, tail_pct), "ratio"),
        "apps_per_ref": (apps / sum(rel), "apps/ref"),
        "latency_p50_ms": (median(ms), "ms"),
        "latency_tail_ms": (percentile(ms, tail_pct), "ms"),
        "apps_per_s": (apps / (sum(ms) / 1e3), "apps/s"),
        "reference.ms": (median(r.reference_ns / 1e6 for r in requests), "ms"),
    }


def per_layer(traced: list[Request], plain: list[Request], tracer: Tracer) -> dict:
    totals = tracer.request_totals()
    ok = [r for r in traced if r.exit_code == 0]

    def layer(name: str, key: str = "ns") -> float:
        return median(totals[r.index][name][key] / 1e6 for r in ok if name in totals[r.index])

    def calls_per_app(name: str) -> float:
        hit = [r for r in ok if name in totals[r.index]]
        apps = sum(r.apps for r in hit)
        return sum(totals[r.index][name]["calls"] for r in hit) / apps if apps else 0.0

    metrics: dict[str, tuple[float, str]] = {"cli.main.self_ms": (layer("cli.main", "self_ns"), "ms")}
    for name in ("parse_corpus", "lex", "serialize_corpus", "export_json", "import_json"):
        metrics[f"dsl.{name}.ms"] = (layer(f"dsl.{name}"), "ms")
    parsed = [r for r in ok if "dsl.parse_corpus" in totals[r.index]]
    metrics["dsl.parse_corpus.mb_per_s"] = (
        median(r.input_bytes / totals[r.index]["dsl.parse_corpus"]["ns"] * 1e3 for r in parsed),
        "MB/s",
    )
    validate_calls = sum(totals[r.index].get("model.validate", {}).get("calls", 0) for r in ok)
    metrics["model.validate.calls"] = (validate_calls / len(ok) if ok else 0.0, "count")
    metrics["model.validate.ms"] = (layer("model.validate"), "ms")
    hallmark_calls = calls_per_app("hallmark.compute_hallmark")
    metrics["hallmark.compute_hallmark.calls_per_app"] = (hallmark_calls, "calls/app")
    metrics["hallmark.useful_ratio"] = (1 / hallmark_calls if hallmark_calls else 0.0, "ratio")
    metrics["hallmark.compute_hallmark.ms"] = (layer("hallmark.compute_hallmark"), "ms")
    metrics["classify.classify.calls_per_app"] = (calls_per_app("classify.classify"), "calls/app")
    metrics["classify.classify.ms"] = (layer("classify.classify"), "ms")
    pairs = matrix_ns = 0
    for metric in ("hamming", "l1"):
        name = f"analysis.distance_matrix.{metric}"
        metrics[f"{name}.ms"] = (layer(name), "ms")
        for r in ok:
            if name in totals[r.index]:
                pairs += r.apps**2
                matrix_ns += totals[r.index][name]["ns"]
    metrics["analysis.distance_matrix.pairs_per_s"] = (
        pairs / matrix_ns * 1e9 if matrix_ns else 0.0, "1/s",
    )
    for name in (
        "term_coverage", "role_distribution", "class_distribution", "cluster_by_hallmark",
        "cluster_by_binary_hallmark", "distinct_hallmark_count",
        "distinct_binary_hallmark_count", "cross_tab",
    ):
        metrics[f"analysis.{name}.ms"] = (layer(f"analysis.{name}"), "ms")
    metrics["reporting.analytics_report.self_ms"] = (
        layer("reporting.analytics_report", "self_ns"), "ms",
    )
    for fmt in ("text", "csv", "json", "dot"):
        metrics[f"reporting.render.{fmt}.ms"] = (layer(f"reporting.render.{fmt}"), "ms")
    metrics["reporting.class_table.ms"] = (layer("reporting.class_table"), "ms")
    metrics["reporting.hallmark_table.ms"] = (layer("reporting.hallmark_table"), "ms")
    metrics["reporting.output_bytes"] = (
        median(r.output_bytes for r in traced[:OUTPUT_BYTES_REQUESTS]), "bytes",
    )
    metrics["trace.overhead"] = (median(r.ns for r in traced) / median(r.ns for r in plain) - 1, "ratio")
    main_spans = [(totals[r.index]["cli.main"], r.ns) for r in traced]
    metrics["trace.named_share"] = (
        median((span["ns"] - span["self_ns"]) / ns for span, ns in main_spans), "ratio",
    )
    metrics["trace.accounted_share"] = (median(span["ns"] / ns for span, ns in main_spans), "ratio")
    metrics["latency.samples"] = (len(traced), "count")
    return metrics


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tangibility" / "cli.py").is_file():
        print(f"error: no program to measure at {SRC / 'tangibility'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    reference = Reference()
    launch_setup(reference)  # warms the bytecode cache; not counted
    sys.path.insert(0, str(SRC))
    from tangibility import cli

    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        print(f"error: imported {cli.__file__}, not the program under {SRC}", file=sys.stderr)
        return 2

    directory = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    directory.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    try:
        _, code, out, _ = call(cli.main, ["analyze", "--golden", "--format", "json"])
        golden_problems = check_golden(out) if code == 0 else [f"golden analyze exited {code}"]
        warm_up = run_one(
            cli.main, reference, 0, make_corpus(workload, args.seed, 0, directory),
            workload.commands[0], random.Random(args.seed),
        )
        plain, traced, setup = run_loop(
            cli.main, reference, workload, args.seed, args.seconds, directory, tracer
        )
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    checked = [warm_up] + plain + traced
    unexpected = sum(r.exit_code != r.expected_exit for r in checked)
    mismatched = sum(bool(r.problems) and r.exit_code == r.expected_exit for r in checked)
    mismatched += bool(golden_problems)
    attempted = len(checked) + 1
    failed = mismatched + unexpected
    for r in checked:
        for problem in r.problems[:3]:
            print(f"mismatch: request {r.index} ({' '.join(r.argv)}): {problem}", file=sys.stderr)
    for problem in golden_problems:
        print(f"mismatch: analyze --golden: {problem}", file=sys.stderr)

    tail_pct = workload.tail_percentile
    metrics = latency(plain, tail_pct)
    n = f"n={len(plain)}"
    beyond = f"p{tail_pct}, {n}, {len(plain) * (100 - tail_pct) / 100:g} beyond"
    apps = f"{sum(r.apps for r in plain)} apps"
    notes = {
        "setup_s": f"median of {len(setup)} launches, at {NOMINAL_REFERENCE_S * 1e3:g} ms reference time",
        "setup.wall_ms": f"median of {len(setup)} launches",
        "latency_p50_rel": f"{n}, request time / reference work time",
        "latency_tail_rel": beyond,
        "latency_p50_ms": n,
        "latency_tail_ms": beyond,
        "apps_per_ref": apps,
        "apps_per_s": apps,
        "reference.ms": n,
        "error_rate": f"{failed} of {attempted} failed",
    }
    metrics["error_rate"] = (failed / attempted, "ratio")
    metrics["setup.wall_ms"] = (median(s["wall_s"] for s in setup) * 1e3, "ms")
    if tracer is None:
        metrics["setup_s"] = (
            median(s["wall_s"] / s["reference_s"] for s in setup) * NOMINAL_REFERENCE_S, "s",
        )
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        reported = END_TO_END
    else:
        metrics.update(per_layer(traced, plain, tracer))
        metrics["latency_tail.percentile"] = (tail_pct, "%")
        metrics["golden.load_golden.cold_ms"] = (median(s["golden_s"] for s in setup) * 1e3, "ms")
        metrics["setup.import_ms"] = (median(s["import_s"] for s in setup) * 1e3, "ms")
        metrics["check.mismatch"] = (mismatched, "count")
        metrics["cli.exit_unexpected"] = (unexpected, "count")
        trace_path = WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        notes["latency.samples"] = f"spans in {trace_path.relative_to(ROOT)}"
        reported = tuple(name for name in metrics if name not in END_TO_END)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit:<9} {notes.get(name, '')}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in reported},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
