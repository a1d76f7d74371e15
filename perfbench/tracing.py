"""In-memory spans recorded by the benchmark around calls into the package.

A span holds name, start, end, parent and the id of the op it belongs to;
the spans of one op share that id. Spans are kept in memory and written out
once, at the end of a traced run. Nothing inside the package is
instrumented: every span wraps a call that the benchmark itself makes.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager, nullcontext


class Tracer:
    """Collects spans and named probe values for one traced run."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.values: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._op_of: dict[int, int] = {}
        self._local = threading.local()
        self._origin = time.perf_counter()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        """Id of the innermost open span on this thread, for handing to workers."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, parent: int | None = None, **attrs):
        """Time the body; yields the attrs dict so callers can add results.

        Without an explicit parent the span nests under the innermost open
        span of the calling thread; a span with no parent starts a new op.
        """
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span_id = next(self._ids)
        op = self._op_of[parent] if parent is not None else span_id
        self._op_of[span_id] = op
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        except BaseException:
            attrs["raised"] = True
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append({
                "id": span_id,
                "parent": parent,
                "op": op,
                "name": name,
                "start": start - self._origin,
                "end": end - self._origin,
                "attrs": attrs,
            })

    def dump(self, path: str, meta: dict) -> dict:
        """Write meta, probe values and spans to `path`; returns what was written."""
        dump = {"meta": meta, "values": self.values, "spans": self.spans}
        with open(path, "w") as handle:
            json.dump(dump, handle)
        return dump


class NullTracer:
    """Stand-in for untraced runs: spans cost one context manager, record nothing."""

    enabled = False

    def current(self) -> None:
        return None

    def span(self, name: str, parent: int | None = None, **attrs):
        return nullcontext(attrs)


NULL = NullTracer()
