"""In-memory spans around the program's layers, written out when a run ends.

Spans are recorded from the benchmark's own files only: ``Tracer.wrap``
replaces a function in the module namespace its caller looks it up in (for
example ``pipelines.validate.merge_stats``, which ``validate.py`` binds at
import) and restores it on ``close``. The program itself is not changed.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        # op id -> name -> count
        self.op_counts: defaultdict[int, defaultdict[str, float]] = \
            defaultdict(lambda: defaultdict(float))
        self.op = 0  # the identifier shared by the spans of one timed op
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    def span(self, name: str):
        return _Span(self, name)

    def begin_op(self) -> None:
        self.op += 1

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.op_counts[self.op][name] += n

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``on_result(tracer, result)`` may record counts from the result."""
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            with self.span(name):
                out = orig(*args, **kwargs)
            if on_result is not None:
                on_result(self, out)
            return out

        self._restore.append((owner, attr, orig))
        setattr(owner, attr, traced)

    def close(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def durations(self, name: str, op: int | None = None) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and (op is None or s["op"] == op)]

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "counts": self.op_counts}, f)


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.t = tracer
        self.name = name

    def __enter__(self):
        self.rec = {"name": self.name, "op": self.t.op,
                    "start": time.perf_counter(), "end": None}
        with self.t._lock:
            self.t.spans.append(self.rec)
        return self.rec

    def __exit__(self, *exc):
        self.rec["end"] = time.perf_counter()
