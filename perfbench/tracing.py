"""In-memory spans around calls into the program, and self times per layer."""

from __future__ import annotations

import contextlib
import time

CLOCK = time.perf_counter


class Tracer:
    """Collects spans as [name, start, end, parent, op]; `parent` is the index
    of the enclosing span in `spans` or None, `op` the operation id."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self.op = -1

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        idx = len(self.spans)
        rec = [name, CLOCK(), 0.0, parent, self.op]
        self.spans.append(rec)
        self._open.append(idx)
        try:
            yield
        finally:
            rec[2] = CLOCK()
            self._open.pop()

    def self_times(self, weight=lambda op: 1.0) -> dict[str, float]:
        """Total self time per span name, the duration minus the children's,
        each span's share multiplied by weight(its operation id)."""
        out: dict[str, float] = {}
        for name, start, end, parent, op in self.spans:
            w = weight(op)
            out[name] = out.get(name, 0.0) + (end - start) * w
            if parent is not None:
                pname = self.spans[parent][0]
                out[pname] = out.get(pname, 0.0) - (end - start) * w
        return out

    def as_records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "op": op}
            for n, s, e, p, op in self.spans
        ]


class NullTracer:
    """Tracing off: every span is the same no-op context."""

    _null = contextlib.nullcontext()
    op = -1

    def span(self, name: str):
        return self._null
