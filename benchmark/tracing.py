"""In-memory spans and work counts for the traced benchmark run.

Spans are recorded by the benchmark around its own calls into the
package; nothing in src/randdd is edited. A span holds its name, start,
end, the id of the span that was open when it began (its parent) and a
point id naming the workload point it belongs to.
"""
from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Spans kept in memory until `dump`, named integer counts, and
    named maxima. Point ids are prefixed with the workload name."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.peaks: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, point: str = ""):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "point": f"{self.workload}/{point}",
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += int(n)

    def peak(self, name: str, value: float) -> None:
        self.peaks[name] = max(self.peaks[name], value)

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name: duration minus the children's.

        Children of one span run one after another, so the part of the
        parent they cover is the sum of their durations.
        """
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out = defaultdict(float)
        for s in self.spans:
            out[s["name"]] += s["end"] - s["start"] - child[s["id"]]
        return dict(out)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "peaks": dict(self.peaks)}


@contextmanager
def traced_names(module, names, tracer: Tracer):
    """Temporarily wrap `module.<name>` for each name in a span.

    Used on randdd.expcli so that its calls into the other modules are
    bracketed; the originals are restored on exit.
    """
    saved = {name: getattr(module, name) for name in names}

    def wrap(fn):
        label = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        @functools.wraps(fn)
        def inner(*args, **kwargs):
            with tracer.span(label):
                return fn(*args, **kwargs)

        return inner

    try:
        for name, fn in saved.items():
            setattr(module, name, wrap(fn))
        yield
    finally:
        for name, fn in saved.items():
            setattr(module, name, fn)
