"""Outside-in tracing of the tangibility layers.

`Tracer.install` replaces each traced public function with a wrapper at
every place a caller looks it up: each loaded `tangibility` module attribute
that is bound to the function.  Coarse calls become spans, kept in memory
with a name, start, end, parent and request id.  Hot kernels, called once
or more per application, are only counted and timed; their time is charged
to the enclosing span, so that span's self time excludes them.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns
from typing import Callable

# (defining module, function, span name).  A name ending in "." is completed
# by a label taken from the call's arguments.  Functions missing from the
# program under test are skipped, so `dsl._lex` is traced while it exists.
SPANS = (
    ("tangibility.dsl", "parse_corpus", "dsl.parse_corpus"),
    ("tangibility.dsl", "_lex", "dsl.lex"),
    ("tangibility.dsl", "import_json", "dsl.import_json"),
    ("tangibility.dsl", "serialize_corpus", "dsl.serialize_corpus"),
    ("tangibility.dsl", "export_json", "dsl.export_json"),
    ("tangibility.model", "validate", "model.validate"),
    ("tangibility.reporting", "analytics_report", "reporting.analytics_report"),
    ("tangibility.reporting", "class_table", "reporting.class_table"),
    ("tangibility.reporting", "hallmark_table", "reporting.hallmark_table"),
    ("tangibility.reporting", "render", "reporting.render."),
    ("tangibility.analysis", "term_coverage", "analysis.term_coverage"),
    ("tangibility.analysis", "role_distribution", "analysis.role_distribution"),
    ("tangibility.analysis", "class_distribution", "analysis.class_distribution"),
    ("tangibility.analysis", "cluster_by_hallmark", "analysis.cluster_by_hallmark"),
    ("tangibility.analysis", "cluster_by_binary_hallmark", "analysis.cluster_by_binary_hallmark"),
    ("tangibility.analysis", "distinct_hallmark_count", "analysis.distinct_hallmark_count"),
    (
        "tangibility.analysis",
        "distinct_binary_hallmark_count",
        "analysis.distinct_binary_hallmark_count",
    ),
    ("tangibility.analysis", "cross_tab", "analysis.cross_tab"),
    ("tangibility.analysis", "distance_matrix", "analysis.distance_matrix."),
)

KERNELS = (
    ("tangibility.hallmark", "compute_hallmark", "hallmark.compute_hallmark"),
    ("tangibility.classify", "classify", "classify.classify"),
)


def _label(value) -> str:
    return str(getattr(value, "value", value))


class Tracer:
    def __init__(self) -> None:
        # Each span: [request, name, start_ns, end_ns, parent index or -1, kernel_ns].
        self.spans: list[list] = []
        self.kernels: dict[tuple[int, str], list[int]] = defaultdict(lambda: [0, 0])
        self.request = -1
        self._stack: list[int] = []
        self._in_kernel = False
        self._patches: list[tuple[object, str, object]] = []

    # --- wrappers -------------------------------------------------------

    def span(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if name.endswith("."):
                label = name + _label([*args, *kwargs.values()][-1])
            else:
                label = name
            record = [self.request, label, 0, 0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(record)
            record[2] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = perf_counter_ns()
                stack.pop()

        return traced

    def kernel(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack

        def counted(*args, **kwargs):
            if self._in_kernel:
                return fn(*args, **kwargs)
            self._in_kernel = True
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                self._in_kernel = False
                stats = self.kernels[(self.request, name)]
                stats[0] += 1
                stats[1] += elapsed
                if stack:
                    spans[stack[-1]][5] += elapsed

        return counted

    # --- patching -------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function wherever a `tangibility` module binds it."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "tangibility"]
        for table, wrap in ((SPANS, self.span), (KERNELS, self.kernel)):
            for module_name, attr, name in table:
                original = getattr(sys.modules.get(module_name), attr, None)
                if original is None:
                    continue
                wrapper = wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, key, original))
                            setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    # --- results --------------------------------------------------------

    def request_totals(self) -> dict[int, dict[str, dict[str, int]]]:
        """Per request and name: calls, inclusive ns and self ns."""
        child_ns = [0] * len(self.spans)
        for request, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: dict[int, dict[str, dict[str, int]]] = defaultdict(dict)
        for index, (request, name, start, end, _, kernel_ns) in enumerate(self.spans):
            entry = totals[request].setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0})
            entry["calls"] += 1
            entry["ns"] += end - start
            entry["self_ns"] += end - start - child_ns[index] - kernel_ns
        for (request, name), (calls, ns) in self.kernels.items():
            totals[request][name] = {"calls": calls, "ns": ns, "self_ns": ns}
        return totals

    def write(self, path: Path) -> None:
        """Spans as JSON lines, then one line per request and kernel."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for request, name, start, end, parent, kernel_ns in self.spans:
                out.write(
                    json.dumps(
                        {"request": request, "name": name, "start_ns": start,
                         "end_ns": end, "parent": parent, "kernel_ns": kernel_ns}
                    )
                    + "\n"
                )
            for (request, name), (calls, ns) in sorted(self.kernels.items()):
                out.write(
                    json.dumps({"request": request, "kernel": name, "calls": calls, "ns": ns})
                    + "\n"
                )
