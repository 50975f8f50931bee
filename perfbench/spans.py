"""Spans around the benchmark's calls into prodplan, kept in memory.

A span is one timed call: its name (``<layer>.<function>``), start and
end in nanoseconds since the tracer was made, the id of the span it ran
inside, the goal it served, and any sizes noted on it. Spans are written
as one JSON document when the run ends.

With tracing off, ``call`` runs the call and records nothing, so the
untraced passes pay one extra Python call per layer call.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans: list[dict] = []
        self.goal: str | None = None
        self._stack: list[int] = []
        self._zero = time.perf_counter_ns()

    def call(self, name: str, thunk, sizes=None):
        """Run ``thunk()``; when enabled, record a span named ``name``.

        ``sizes`` maps the result to counts noted on the span, such as
        the fluents of a ground task; it runs after the span has ended.
        """
        if not self.enabled:
            return thunk()
        with self.span(name) as span:
            result = thunk()
        if sizes is not None:
            span.update(sizes(result))
        return result

    def span(self, name: str):
        """A context whose value is the span record ({} when disabled)."""
        return _Span(self, name) if self.enabled else contextlib.nullcontext({})

    def write(self, path, **header) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**header, "spans": self.spans}, handle)


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.record = {
            "id": len(tracer.spans),
            "name": name,
            "parent": tracer._stack[-1] if tracer._stack else None,
            "goal": tracer.goal,
        }

    def __enter__(self) -> dict:
        tracer = self.tracer
        tracer.spans.append(self.record)
        tracer._stack.append(self.record["id"])
        self.record["start"] = time.perf_counter_ns() - tracer._zero
        return self.record

    def __exit__(self, *exc) -> None:
        tracer = self.tracer
        self.record["end"] = time.perf_counter_ns() - tracer._zero
        tracer._stack.pop()


def self_times(spans: list[dict]) -> dict[int, int]:
    """Each span's duration minus what its direct children cover, in ns."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_totals(spans: list[dict], root: int) -> dict[str, dict]:
    """Per layer, the self time (ns), call count and summed sizes of the
    spans below ``root`` (a pass span), keyed by the name's first part."""
    below = {root}
    own = self_times(spans)
    totals: dict[str, dict] = defaultdict(lambda: defaultdict(int))
    for s in spans:  # parents always precede their children
        if s["parent"] in below:
            below.add(s["id"])
            layer = totals[s["name"].split(".", 1)[0]]
            layer["ns"] += own[s["id"]]
            layer["calls"] += 1
            for key, value in s.items():
                if key not in _SPAN_KEYS:
                    layer[key] += value
    return totals


_SPAN_KEYS = {"id", "name", "parent", "goal", "start", "end"}
