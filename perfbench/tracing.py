"""Outside-in tracing: spans recorded around calls into each layer.

The traced run replaces chosen module or class attributes with timing
wrappers, at the place where the caller looks the name up (a module
global the caller resolves at call time, or a class attribute).  Nothing
under ``src/`` changes, and the untraced run installs nothing: its
benchmark code holds a :data:`NULL` tracer whose ``span`` is a shared
no-op context manager.

Spans live in memory as ``(name, start, end, parent, op, phase)``;
``parent`` indexes the enclosing span on the same thread and ``op`` is
the id shared by every span of one op.  :meth:`Tracer.self_times` gives
each span its duration minus the part its children cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

_NULL_CONTEXT = contextlib.nullcontext()


class NullTracer:
    """Tracing off: every hook costs one attribute lookup and call."""

    active = False

    def span(self, name: str, op: int | None = None):
        return _NULL_CONTEXT


NULL = NullTracer()


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    phase: str


class Tracer:
    """In-memory span recorder (thread-aware)."""

    active = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = "setup"
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, op: int | None = None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None and parent is not None:
            op = self.spans[parent].op
        record = Span(name, time.perf_counter(), 0.0, parent, op, self.phase)
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield record
        finally:
            stack.pop()
            record.end = time.perf_counter()

    def add(
        self, name: str, start: float, end: float, *,
        parent: int | None = None, op: int | None = None,
    ) -> int:
        """Record a span whose bounds were measured elsewhere."""
        with self._lock:
            self.spans.append(Span(name, start, end, parent, op, self.phase))
            return len(self.spans) - 1

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``."""
        original = vars(owner).get(attr)
        target = getattr(owner, attr)
        tracer = self

        @functools.wraps(target)
        def traced(*args, **kwargs):
            with tracer.span(name):
                return target(*args, **kwargs)

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every wrapped attribute back."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            if original is None:
                delattr(owner, attr)  # it was inherited
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the time its direct children cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        return [
            (span.end - span.start) - covered[i]
            for i, span in enumerate(self.spans)
        ]

    def totals(self, phase: str = "timed") -> dict[str, dict[str, float]]:
        """Per span name: call count, total seconds and self seconds."""
        selfs = self.self_times()
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for span, own in zip(self.spans, selfs):
            if span.phase != phase:
                continue
            entry = out[span.name]
            entry["calls"] += 1
            entry["total_s"] += span.end - span.start
            entry["self_s"] += own
        return dict(out)

    def op_coverage(self, root: str, layers) -> list[float]:
        """Per op: the share of its root spans' wall time spent in the
        self time of spans of the named ``layers`` (the first dotted part
        of a span's name).  Time in the root or in spans of other layers, such
        as the runner's catch-all spans, is not covered."""
        selfs = self.self_times()
        inside: dict[int, float] = defaultdict(float)
        walls: dict[int, float] = defaultdict(float)
        for span, own in zip(self.spans, selfs):
            if span.phase != "timed" or span.op is None:
                continue
            if span.name == root:
                walls[span.op] += span.end - span.start
            elif span.name.split(".")[0] in layers:
                inside[span.op] += own
        return [
            inside[op] / wall if wall > 0 else 1.0
            for op, wall in walls.items()
        ]

    def write(self, path) -> None:
        """Dump every span as one JSON line (times relative to the first)."""
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span.name,
                            "start": round(span.start - origin, 9),
                            "end": round(span.end - origin, 9),
                            "parent": span.parent,
                            "op": span.op,
                            "phase": span.phase,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )
