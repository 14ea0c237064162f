"""In-memory span recorder for the traced benchmark run.

Spans are recorded only around the benchmark's own calls into the package's
layers; nothing inside the package is instrumented. Each span holds its
name, start, end, parent span and the root span of the operation it belongs
to, plus free-form counts (rows in/out, hits, ...). A layer's self time is
its duration minus the part of that interval covered by its child spans.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Yield a counts dict for the span; a disabled tracer records nothing."""
        if not self.enabled:
            yield {}
            return
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = {
            "id": sid,
            "name": name,
            "parent": parent,
            "op": sid if parent is None else self.spans[parent]["op"],
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Per span: duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append((s["start"], s["end"]))
        out = []
        for s in self.spans:
            covered, cur_start, cur_end = 0.0, None, None
            for a, b in sorted(children.get(s["id"], [])):
                if cur_end is None or a > cur_end:
                    if cur_end is not None:
                        covered += cur_end - cur_start
                    cur_start, cur_end = a, b
                else:
                    cur_end = max(cur_end, b)
            if cur_end is not None:
                covered += cur_end - cur_start
            out.append((s["end"] - s["start"]) - covered)
        return out

    def by_name(self) -> dict[str, dict]:
        """Totals per span name: calls, total and self seconds, summed counts."""
        out: dict[str, dict] = {}
        for s, self_s in zip(self.spans, self.self_times()):
            agg = out.setdefault(
                s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}}
            )
            agg["calls"] += 1
            agg["total_s"] += s["end"] - s["start"]
            agg["self_s"] += self_s
            for k, v in s["counts"].items():
                agg["counts"][k] = agg["counts"].get(k, 0) + v
        return out

    def to_dict(self) -> dict:
        """Totals by name plus every span, times relative to the first start."""
        t0 = min((s["start"] for s in self.spans), default=0.0)
        spans = [
            {**s, "start": s["start"] - t0, "end": s["end"] - t0, "self_s": st}
            for s, st in zip(self.spans, self.self_times())
        ]
        return {"by_name": self.by_name(), "spans": spans}
