"""Span-based request tracing with thread-local propagation.

A :func:`span` context manager opens a span under the current thread's
innermost active span; :func:`carry_current_span` re-establishes that
parent on pool worker threads so a cluster fan-out keeps one
connected tree: ``cluster.forecast_all`` -> ``shard.forecast`` ->
``service.flush`` -> ``batch.assemble`` -> ``plan.replay``.

Completed spans land in a bounded ring-buffer :class:`TraceRecorder`
(oldest dropped first) and export as Chrome trace-event JSON — load the
file at ``chrome://tracing`` / https://ui.perfetto.dev to see the tree.

When tracing is disabled (the default), ``span()`` returns a shared
no-op context manager and ``carry_current_span`` returns its argument
unchanged: no allocation, no thread-local access.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import deque
from time import perf_counter as _perf_counter
from typing import Callable, Dict, List, Optional

from .metrics import _STATE

__all__ = [
    "Span",
    "TraceRecorder",
    "span",
    "current_span",
    "carry_current_span",
    "default_recorder",
    "chrome_trace",
    "export_spans",
    "import_spans",
]

_NEXT_ID = itertools.count(1)
_LOCAL = threading.local()


def _stack() -> List["Span"]:
    stack = getattr(_LOCAL, "spans", None)
    if stack is None:
        stack = []
        _LOCAL.spans = stack
    return stack


class Span:
    """One timed region; a context manager that records itself on exit."""

    __slots__ = ("name", "args", "span_id", "parent_id", "start", "duration", "thread_id", "_recorder")

    def __init__(self, name: str, args: Dict[str, object], recorder: "TraceRecorder") -> None:
        self.name = name
        self.args = args
        self.span_id = 0
        self.parent_id: Optional[int] = None
        self.start = 0.0
        self.duration = 0.0
        self.thread_id = 0
        self._recorder = recorder

    def __enter__(self) -> "Span":
        stack = _stack()
        parent = stack[-1] if stack else None
        self.parent_id = parent.span_id if parent is not None else None
        self.span_id = next(_NEXT_ID)
        self.thread_id = threading.get_ident()
        stack.append(self)
        self.start = _perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration = _perf_counter() - self.start
        stack = _stack()
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # defensive: unbalanced exit keeps siblings sane
            stack.remove(self)
        self._recorder.record(self)
        return False


class _NullSpan:
    """Shared no-op returned by ``span()`` when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class TraceRecorder:
    """Bounded ring buffer of completed spans (oldest dropped first)."""

    def __init__(self, capacity: int = 4096) -> None:
        self._lock = threading.Lock()
        self._spans: deque = deque(maxlen=capacity)

    @property
    def capacity(self) -> int:
        return self._spans.maxlen or 0

    def record(self, span_: Span) -> None:
        with self._lock:
            self._spans.append(span_)

    def spans(self) -> List[Span]:
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def chrome_events(self) -> List[Dict[str, object]]:
        """Spans as Chrome trace-event dicts (complete ``"ph": "X"`` events)."""
        return [
            {
                "name": span_.name,
                "ph": "X",
                "ts": span_.start * 1e6,
                "dur": span_.duration * 1e6,
                "pid": 1,
                "tid": span_.thread_id,
                "cat": "repro",
                "args": {
                    "span_id": span_.span_id,
                    "parent_id": span_.parent_id,
                    **span_.args,
                },
            }
            for span_ in self.spans()
        ]

    def export_chrome(self, path: Optional[str] = None) -> Dict[str, object]:
        """Chrome trace JSON document; also written to ``path`` if given."""
        document = chrome_trace(self.chrome_events())
        if path is not None:
            with open(path, "w") as handle:
                json.dump(document, handle, indent=2, default=repr)
        return document


def chrome_trace(events: List[Dict[str, object]]) -> Dict[str, object]:
    """Wrap trace events in the Chrome trace-viewer document shape."""
    return {"traceEvents": events, "displayTimeUnit": "ms"}


_DEFAULT_RECORDER = TraceRecorder()


def default_recorder() -> TraceRecorder:
    """The process-wide recorder all built-in spans land in."""
    return _DEFAULT_RECORDER


def span(name: str, recorder: Optional[TraceRecorder] = None, **args: object):
    """Open a span named ``name`` under the current thread's active span.

    Keyword arguments become the span's ``args`` payload in the Chrome
    export.  Returns a shared no-op context manager when tracing is off.
    """
    if not _STATE.tracing:
        return _NULL_SPAN
    return Span(name, args, recorder if recorder is not None else _DEFAULT_RECORDER)


def current_span() -> Optional[Span]:
    """The innermost active span on this thread, if any."""
    stack = getattr(_LOCAL, "spans", None)
    return stack[-1] if stack else None


def export_spans(spans: List[Span]) -> List[Dict[str, object]]:
    """Serialise completed spans as plain wire-safe records.

    This is the process-boundary counterpart of :func:`carry_current_span`:
    a worker exports the spans its command produced, ships them back in
    the reply, and the coordinator grafts them under its own active span
    with :func:`import_spans` — one connected tree across processes.
    ``args`` values that are not JSON scalars are stringified (span args
    are labels, not data).
    """
    records: List[Dict[str, object]] = []
    for span_ in spans:
        args = {
            key: value if isinstance(value, (str, int, float, bool, type(None))) else str(value)
            for key, value in span_.args.items()
        }
        records.append(
            {
                "name": span_.name,
                "args": args,
                "span_id": span_.span_id,
                "parent_id": span_.parent_id,
                "start": span_.start,
                "duration": span_.duration,
            }
        )
    return records


def import_spans(
    records: List[Dict[str, object]],
    parent_id: Optional[int] = None,
    rebase: float = 0.0,
    recorder: Optional[TraceRecorder] = None,
) -> int:
    """Graft exported spans into this process's trace.

    Span ids are remapped through this process's id counter (two workers'
    id sequences would otherwise collide), internal parent links are
    preserved, and roots are re-parented under ``parent_id``.  ``rebase``
    is added to every start time: each process has its own
    ``perf_counter`` origin, so the caller passes (local send time −
    worker root start) to place the subtree on the local clock.

    Returns the number of spans imported.
    """
    target = recorder if recorder is not None else _DEFAULT_RECORDER
    # Two passes: spans are recorded in completion order (children before
    # parents), so every id must be remapped before links are resolved.
    mapping: Dict[int, int] = {}
    for record in records:
        mapping[int(record["span_id"])] = next(_NEXT_ID)
    for record in records:
        span_ = Span(str(record["name"]), dict(record.get("args") or {}), target)
        span_.span_id = mapping[int(record["span_id"])]
        old_parent = record.get("parent_id")
        if old_parent is not None and int(old_parent) in mapping:
            span_.parent_id = mapping[int(old_parent)]
        else:
            span_.parent_id = parent_id
        span_.start = float(record.get("start", 0.0)) + rebase
        span_.duration = float(record.get("duration", 0.0))
        span_.thread_id = threading.get_ident()
        target.record(span_)
    return len(records)


def carry_current_span(fn: Callable) -> Callable:
    """Wrap ``fn`` so the caller's active span parents spans in ``fn``.

    Captures the *caller's* innermost span at wrap time and re-establishes
    it on whatever thread later runs ``fn`` — this is what keeps the shard
    collects that a cluster fan-out (:func:`~repro.cluster.coordinator.fan_out`)
    runs on a thread pool attached to the cluster-level span.
    Identity when tracing is off or no span is active (zero overhead).
    """
    if not _STATE.tracing:
        return fn
    parent = current_span()
    if parent is None:
        return fn

    def carried(*args, **kwargs):
        stack = _stack()
        stack.append(parent)
        try:
            return fn(*args, **kwargs)
        finally:
            if stack and stack[-1] is parent:
                stack.pop()
            elif parent in stack:
                stack.remove(parent)

    return carried
