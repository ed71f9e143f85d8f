"""Hierarchical query spans: the EXPLAIN-ANALYZE view of a statement.

Every SQL statement the server executes opens a *root span*; nested
operations (parse, plan choice, each purpose-function call) open child
spans, producing a tree.  A span records its duration (from the
registry's injected timer) and -- the part the paper's flat trace
messages cannot express -- the *metric deltas* that occurred while it
was open:

* every span carries the counter increments (``MetricsRegistry.inc``)
  its own thread made while it was open; a closing span adds them to
  its parent, so a span costs in proportion to the counters it moved,
  not to the size of the registry;
* the root span also diffs the gauges and the pull collectors (buffer
  pools, sbspaces, WAL, locks) between its start and its end, so it
  carries every delta of its statement.

Consecutive calls of one purpose function under one parent -- the
``am_getnext`` calls of a scan -- can be *folded* into a single span
whose ``calls`` attribute counts them and whose duration is the time
spent inside them only (:meth:`SpanRecorder.fold`).

A statement's root may be opened *bare* (:meth:`SpanRecorder.statement`
with ``tree`` false): while it is open on a thread, :meth:`~SpanRecorder.span`,
:meth:`~SpanRecorder.fold` and :meth:`~SpanRecorder.add_completed_child`
record nothing after one thread-local check, so the root keeps its name,
attributes, duration and full metric-delta map (the counters its
children would have carried reach it directly) and no children.
Recorders used directly, with no statement open, always build trees.

The recorder is shared by every worker thread of the serving layer, but
a span tree belongs to exactly one statement on one thread, so the
*current-span stack* is thread-local: two interleaved wire clients can
never parent their spans under each other's trees.  Only the finished
root list (and the id sequence) is shared, guarded by one lock.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from typing import Any, Deque, Dict, List, Optional

from repro.obs.metrics import MetricsRegistry


class Span:
    """One node of a span tree."""

    __slots__ = (
        "name",
        "span_id",
        "attrs",
        "children",
        "start_time",
        "end_time",
        "metric_deltas",
    )

    def __init__(
        self,
        name: str,
        attrs: Optional[Dict[str, Any]] = None,
        span_id: int = 0,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.attrs: Dict[str, Any] = attrs or {}
        self.children: List["Span"] = []
        self.start_time: Optional[float] = None
        self.end_time: Optional[float] = None
        self.metric_deltas: Dict[str, float] = {}

    @property
    def finished(self) -> bool:
        return self.end_time is not None

    @property
    def duration(self) -> float:
        if self.start_time is None or self.end_time is None:
            return 0.0
        return self.end_time - self.start_time

    @property
    def trace_id(self) -> Optional[str]:
        """The distributed trace this span belongs to (root attr)."""
        return self.attrs.get("trace_id")

    def find(self, name: str) -> Optional["Span"]:
        """Depth-first search for a descendant (or self) named *name*."""
        if self.name == name:
            return self
        for child in self.children:
            found = child.find(name)
            if found is not None:
                return found
        return None

    def leaves(self) -> List["Span"]:
        """All descendants without children (self when childless)."""
        if not self.children:
            return [self]
        result: List["Span"] = []
        for child in self.children:
            result.extend(child.leaves())
        return result

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "attrs": dict(self.attrs),
            "duration": self.duration,
            "metric_deltas": dict(sorted(self.metric_deltas.items())),
            "children": [child.to_dict() for child in self.children],
        }

    def format(self, indent: int = 0) -> List[str]:
        pad = "  " * indent
        attrs = "".join(
            f" {key}={value!r}" for key, value in sorted(self.attrs.items())
        )
        timing = (
            f" [{self.duration * 1000.0:.3f} ms]" if self.finished else " [open]"
        )
        lines = [f"{pad}{self.name}{timing}{attrs}"]
        for key, value in sorted(self.metric_deltas.items()):
            rendered = f"{value:+g}" if isinstance(value, (int, float)) else value
            lines.append(f"{pad}  . {key} {rendered}")
        for child in self.children:
            lines.extend(child.format(indent + 1))
        return lines

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, children={len(self.children)})"


def _add(into: Dict[str, float], deltas: Dict[str, float]) -> None:
    for key, value in deltas.items():
        into[key] = into.get(key, 0) + value


class _Skip:
    """The shared do-nothing context manager: a span nobody records."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


SKIP = _Skip()


class _Open:
    """``with recorder.span(...)``: a new span, open for the block."""

    __slots__ = ("recorder", "stack", "span", "saved", "pulled")

    def __init__(self, recorder: "SpanRecorder", span: Span) -> None:
        self.recorder = recorder
        self.stack = recorder._local.stack
        self.span = span
        #: A root's gauges and collector maps at its start.
        self.pulled: Optional[Dict[Optional[str], Any]] = None

    def __enter__(self) -> Span:
        recorder, stack, span = self.recorder, self.stack, self.span
        registry = recorder.registry
        if stack:
            stack[-1].children.append(span)
        else:
            self.pulled = registry.pull()
            recorder._add_root(span)
        sink = registry.sink
        self.saved = sink.deltas
        sink.deltas = span.metric_deltas
        stack.append(span)
        span.start_time = registry.timer()
        return span

    def __exit__(self, exc_type, exc, tb) -> None:
        span, saved = self.span, self.saved
        registry = self.recorder.registry
        span.end_time = registry.timer()
        self.stack.pop()
        registry.sink.deltas = saved
        if self.pulled is not None:
            deltas = span.metric_deltas
            registry.publish(deltas)
            registry.pull_deltas(self.pulled, deltas)
        elif saved is not None:
            _add(saved, span.metric_deltas)


class _Statement(_Open):
    """``with recorder.statement(...)``: a statement's span, which sets
    whether the spans opened inside it on its thread are recorded."""

    __slots__ = ("bare", "outer")

    def __init__(self, recorder: "SpanRecorder", span: Span, bare: bool) -> None:
        super().__init__(recorder, span)
        self.bare = bare

    def __enter__(self) -> Span:
        local = self.recorder._local
        span = _Open.__enter__(self)
        self.outer, local.bare = local.bare, self.bare
        return span

    def __exit__(self, exc_type, exc, tb) -> None:
        self.recorder._local.bare = self.outer
        _Open.__exit__(self, exc_type, exc, tb)


class _Resume:
    """``with recorder.fold(...)``: one more call of a folded span."""

    __slots__ = ("registry", "stack", "span", "saved", "interval", "start")

    def __init__(
        self, registry: MetricsRegistry, stack: List[Span], span: Span
    ) -> None:
        self.registry = registry
        self.stack = stack
        self.span = span

    def __enter__(self) -> Span:
        registry = self.registry
        sink = registry.sink
        self.saved = sink.deltas
        self.interval = sink.deltas = {}
        self.stack.append(self.span)
        self.start = registry.timer()
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        registry, span, start = self.registry, self.span, self.start
        elapsed = registry.timer() - start
        if span.start_time is None:
            span.start_time = span.end_time = start
        span.end_time += elapsed
        self.stack.pop()
        registry.sink.deltas = self.saved
        interval = self.interval
        if interval:
            _add(span.metric_deltas, interval)
            _add(self.saved, interval)


class _Local(threading.local):
    """One thread's open spans, and whether they are recorded."""

    def __init__(self) -> None:
        self.stack: List[Span] = []
        #: Inside a bare statement: record no span below its root.
        self.bare = False


class SpanRecorder:
    """Builds span trees; keeps the most recent *max_roots* root spans.

    Thread contract: each statement's span tree is built by one thread.
    The open-span stack lives in ``threading.local`` storage, so trees
    built by concurrent sessions stay disjoint; the shared root list is
    guarded by :attr:`_roots_lock`.
    """

    def __init__(self, registry: MetricsRegistry, max_roots: int = 128) -> None:
        self.registry = registry
        #: Finished and open roots, oldest first; past *max_roots* the
        #: oldest drops out.
        self.roots: Deque[Span] = deque(maxlen=max_roots)
        self._roots_lock = threading.Lock()
        self._local = _Local()
        self._ids = itertools.count(1)

    @property
    def current(self) -> Optional[Span]:
        stack = self._local.stack
        return stack[-1] if stack else None

    def _add_root(self, span: Span) -> None:
        with self._roots_lock:
            self.roots.append(span)

    def statement(self, name: str, attrs: Dict[str, Any], tree: bool) -> _Open:
        """A context manager: a statement's span, open while the block
        runs -- a root, or the current span's child when a statement
        runs inside another span.  With *tree* false the block records
        no span below it (see the module docstring); otherwise it
        records them as :meth:`span` does."""
        return _Statement(self, Span(name, attrs, span_id=next(self._ids)), not tree)

    def span(self, name: str, **attrs):
        """A context manager: a new span, the current span's child (or
        a root) while the block runs; inside a bare statement, nothing."""
        if self._local.bare:
            return SKIP
        return _Open(self, Span(name, attrs, span_id=next(self._ids)))

    def fold(self, name: str, **attrs):
        """Like :meth:`span`, except that a call made right after
        another fold of *name* under the same parent -- with no other
        span opened there in between -- reopens that span.

        The folded span's ``calls`` attribute counts the calls, and its
        duration is the sum of the time spent inside them: what runs
        between two calls stays in the parent's self time.  With no
        span open this is a plain :meth:`span`.
        """
        local = self._local
        if local.bare:
            return SKIP
        stack = local.stack
        if not stack:
            return self.span(name, **attrs)
        siblings = stack[-1].children
        last = siblings[-1] if siblings else None
        # A folded span is the one with a ``calls`` attribute.
        if last is None or last.name != name or "calls" not in last.attrs:
            last = Span(name, attrs, span_id=next(self._ids))
            last.attrs["calls"] = 0
            siblings.append(last)
        last.attrs["calls"] += 1
        return _Resume(self.registry, stack, last)

    def add_completed_child(
        self, name: str, start_time: float, end_time: float, **attrs
    ) -> Optional[Span]:
        """Attach an already-measured interval as a child of the current
        span (used for work timed before its parent span existed, e.g.
        parsing, which decides whether the statement is traced at all);
        inside a bare statement, nothing (``None``)."""
        local = self._local
        if local.bare:
            return None
        span = Span(name, attrs, span_id=next(self._ids))
        span.start_time = start_time
        span.end_time = end_time
        stack = local.stack
        if stack:
            stack[-1].children.append(span)
        else:
            self._add_root(span)
        return span

    # ------------------------------------------------------------------

    def select(
        self,
        *,
        name: Optional[str] = None,
        connection: Optional[int] = None,
        trace_id: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[Span]:
        """Finished roots, oldest first, filtered and tail-limited.

        ``connection`` matches the ``conn`` attribute the serving layer
        stamps onto statement spans; ``trace_id`` matches the propagated
        wire trace context; ``limit`` keeps only the most recent *n*.
        """
        with self._roots_lock:
            roots = list(self.roots)
        selected = [
            span
            for span in roots
            if span.finished
            and (name is None or span.name == name)
            and (connection is None or span.attrs.get("conn") == connection)
            and (trace_id is None or span.attrs.get("trace_id") == trace_id)
        ]
        if limit is not None and limit >= 0:
            selected = selected[len(selected) - min(limit, len(selected)):]
        return selected

    def last_root(self, name: Optional[str] = None) -> Optional[Span]:
        """The most recent finished root span (optionally by name)."""
        spans = self.select(name=name, limit=1)
        return spans[-1] if spans else None

    def to_dicts(
        self,
        *,
        connection: Optional[int] = None,
        trace_id: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        return [
            span.to_dict()
            for span in self.select(
                connection=connection, trace_id=trace_id, limit=limit
            )
        ]

    def format_trees(
        self,
        limit: Optional[int] = None,
        *,
        connection: Optional[int] = None,
        trace_id: Optional[str] = None,
    ) -> str:
        finished = self.select(
            connection=connection, trace_id=trace_id, limit=limit
        )
        if not finished:
            return "(no spans recorded)"
        lines: List[str] = []
        for span in finished:
            lines.extend(span.format())
        return "\n".join(lines)

    def clear(self) -> None:
        with self._roots_lock:
            self.roots.clear()
