"""In-memory spans around calls into docgraph, and self-time aggregation.

Spans are recorded by the benchmark around each public call it makes, so
every span has a request (root) span as its parent and no deeper nesting.
A span's self time is its duration minus the time of its children; for a
root span that remainder is the time no layer span covers.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns


def untraced(name, fn, *args, **kwargs):
    """Call ``fn`` directly; same signature as ``Tracer.call``."""
    return fn(*args, **kwargs)


def percentile(values, q):
    """The q-th percentile (0-100) by statistics.quantiles, or the value itself."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Tracer:
    """Records spans as ``[name, start_ns, end_ns, parent, request]`` lists."""

    def __init__(self):
        self.spans: list[list] = []
        self._parent: int | None = None
        self._request: str | None = None

    @contextmanager
    def request(self, name: str, request_id: str):
        index = len(self.spans)
        self.spans.append([name, perf_counter_ns(), 0, None, request_id])
        self._parent, self._request = index, request_id
        try:
            yield
        finally:
            self.spans[index][2] = perf_counter_ns()
            self._parent = self._request = None

    def call(self, name, fn, *args, **kwargs):
        span = [name, perf_counter_ns(), 0, self._parent, self._request]
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter_ns()

    def write(self, path: Path) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "request")
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")

    def requests(self, prefix: str) -> list[int]:
        """Indexes of root spans whose request id starts with ``prefix``."""
        return [
            i for i, s in enumerate(self.spans)
            if s[3] is None and s[4].startswith(prefix)
        ]

    def self_times(self, prefix: str) -> dict[str, list[float]]:
        """Per request matching ``prefix``: self ms by span name.

        Every returned list has one entry per request, in request order, so
        a name absent from a request contributes 0. The root spans' own
        remainder is keyed ``(uncovered)``.
        """
        roots = self.requests(prefix)
        position = {root: i for i, root in enumerate(roots)}
        table: dict[str, list[float]] = {"(uncovered)": [0.0] * len(roots)}
        for root in roots:
            _, start, end, _, _ = self.spans[root]
            table["(uncovered)"][position[root]] += (end - start) / 1e6
        for name, start, end, parent, _ in self.spans:
            if parent is None or parent not in position:
                continue
            ms = (end - start) / 1e6
            row = table.setdefault(name, [0.0] * len(roots))
            row[position[parent]] += ms
            table["(uncovered)"][position[parent]] -= ms
        return table

    def total_ms(self, prefix: str) -> list[float]:
        return [
            (self.spans[i][2] - self.spans[i][1]) / 1e6 for i in self.requests(prefix)
        ]


def layer_table(tracer: Tracer, prefix: str) -> list[str]:
    """Text rows of per-layer self time (p50, p99, total) over requests."""
    by_name = tracer.self_times(prefix)
    layers: dict[str, list[float]] = {}
    for name, values in by_name.items():
        layer = name if name == "(uncovered)" else name.split(".", 1)[0]
        row = layers.setdefault(layer, [0.0] * len(values))
        for i, value in enumerate(values):
            row[i] += value
    totals = tracer.total_ms(prefix)
    base = sum(totals)
    rows = [
        f"# self time over {len(totals)} traced requests, "
        f"base = {base:.1f} ms traced request time",
        f"# {'layer':<14}{'p50 ms':>12}{'p99 ms':>12}{'total ms':>12}{'share':>9}",
    ]
    for layer, values in sorted(layers.items(), key=lambda kv: -sum(kv[1])):
        total = sum(values)
        share = total / base if base else 0.0
        rows.append(
            f"# {layer:<14}{percentile(values, 50):>12.3f}"
            f"{percentile(values, 99):>12.3f}{total:>12.1f}{share:>9.1%}"
        )
    return rows
