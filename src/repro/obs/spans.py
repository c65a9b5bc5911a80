"""Hierarchical spans with contextvars propagation.

A :class:`Tracer` collects :class:`Span` records: named, timestamped
(monotonic, relative to the tracer's epoch), attributed, and linked into
a tree through ``parent_id``.  The *current* span is carried in a
``contextvars.ContextVar``, so nested subsystem calls — ``translate``
calling ``preselect`` calling the query layer — attach automatically
without threading a tracer argument through every signature.

Tracing is **off by default**: the module-level active tracer is
``None`` and :func:`span` returns a shared no-op context manager.  Hot
call sites that would pay even for building an attribute dict guard with
:func:`get_tracer`::

    tracer = obs.get_tracer()
    if tracer is not None:
        tracer.metrics.counter("pdl.parse_cache.hit").inc()

Cross-thread notes: the active tracer is a plain module global (visible
from worker threads, e.g. the registry server's executor pool), while
span *parentage* is context-local.  A span started on a fresh thread
therefore roots a new trace unless an explicit ``trace_id``/``parent``
is passed — exactly what HTTP trace-id propagation does.
"""

from __future__ import annotations

import contextvars
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

from repro.obs.digest import fingerprint_payload
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "Span",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "span",
    "current_trace_id",
]

#: wall-clock spans measured with ``perf_counter`` against the tracer epoch
WALL_CLOCK = "wall"
#: spans replayed from a simulated-time :class:`~repro.runtime.trace.TraceLog`
SIM_CLOCK = "sim"


@dataclass
class Span:
    """One timed operation."""

    name: str
    span_id: int
    trace_id: str
    parent_id: Optional[int]
    start: float
    end: Optional[float] = None
    attributes: dict = field(default_factory=dict)
    status: str = "ok"
    error: Optional[str] = None
    #: ``"wall"`` (tracer epoch) or ``"sim"`` (simulated seconds)
    clock: str = WALL_CLOCK
    #: logical track for exporters (thread name or sim worker lane)
    track: str = ""

    @property
    def duration(self) -> Optional[float]:
        if self.end is None:
            return None
        return self.end - self.start

    def set(self, **attributes: Any) -> "Span":
        """Attach attributes; returns the span for chaining."""
        self.attributes.update(attributes)
        return self

    def to_payload(self) -> dict:
        """Deterministic JSON shape (attribute keys sorted)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "status": self.status,
            "error": self.error,
            "clock": self.clock,
            "track": self.track,
            "attributes": {k: self.attributes[k] for k in sorted(self.attributes)},
        }


class _SpanContext:
    """Context manager for one in-flight span (re-raises, marks errors)."""

    __slots__ = ("_tracer", "span", "_token")

    def __init__(self, tracer: "Tracer", span_: Span):
        self._tracer = tracer
        self.span = span_
        self._token: Optional[contextvars.Token] = None

    def __enter__(self) -> Span:
        self._token = _CURRENT_SPAN.set(self.span)
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._token is not None:
            _CURRENT_SPAN.reset(self._token)
        if exc is not None:
            self.span.status = "error"
            self.span.error = f"{exc_type.__name__}: {exc}"
        self._tracer._finish(self.span)
        return False  # never swallow


class _NullSpan:
    """Shared disabled-mode stand-in; every operation is a no-op."""

    __slots__ = ()

    trace_id = ""
    span_id = -1
    attributes: dict = {}

    def set(self, **attributes: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


NULL_SPAN = _NullSpan()


class _DeferredSpans:
    """A placeholder for finished spans with ids ``first_id`` onwards,
    which ``build(first_id)`` makes when the tracer is read."""

    __slots__ = ("first_id", "build")

    def __init__(self, first_id: int, build: Callable[[int], list]):
        self.first_id = first_id
        self.build = build


_CURRENT_SPAN: contextvars.ContextVar[Optional[Span]] = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)


class Tracer:
    """Collects finished spans and owns a :class:`MetricsRegistry`.

    ``trace_id`` fixes the id new root spans inherit (useful for
    deterministic payloads and tests); by default each root span starts
    a fresh 16-hex-digit trace id.

    A block of spans can be *deferred* (:meth:`defer_spans`): its ids and
    its place in completion order are fixed when it is recorded, but its
    :class:`Span` objects are built on the first read of the tracer —
    :meth:`finished`, :attr:`spans`, :meth:`roots`, :meth:`children_of`,
    iteration, or a payload.  ``len()`` counts deferred spans without
    building them.
    """

    def __init__(self, *, trace_id: Optional[str] = None):
        self._lock = threading.Lock()
        self._epoch = time.perf_counter()
        self._next_id = 1
        self._default_trace_id = trace_id
        #: finished spans and unbuilt :class:`_DeferredSpans`, in completion order
        self._spans: list = []
        self._deferred_blocks = 0
        #: spans the unbuilt blocks stand for beyond their own list slots
        self._deferred_extra = 0
        self.metrics = MetricsRegistry()

    # -- time ---------------------------------------------------------------
    def now(self) -> float:
        """Seconds since this tracer's epoch (monotonic)."""
        return time.perf_counter() - self._epoch

    # -- span lifecycle -----------------------------------------------------
    def _allocate_id(self) -> int:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            return span_id

    def _new_trace_id(self) -> str:
        if self._default_trace_id is not None:
            return self._default_trace_id
        return uuid.uuid4().hex[:16]

    def _resolve_parent(
        self, parent: Optional[Span] = None, trace_id: Optional[str] = None
    ) -> tuple[Optional[Span], str]:
        """The parent a new span links to (``parent``, else the current
        span) and the trace it joins (``trace_id``, else the parent's,
        else a new root trace)."""
        if parent is None:
            parent = _CURRENT_SPAN.get()
        if trace_id is None:
            trace_id = parent.trace_id if parent is not None else self._new_trace_id()
        return parent, trace_id

    def start_span(
        self,
        name: str,
        *,
        trace_id: Optional[str] = None,
        parent: Optional[Span] = None,
        attributes: Optional[dict] = None,
    ) -> Span:
        """Begin a span *without* entering it as the context-local parent.

        Used by the bridge and by code that must end the span from a
        different stack frame; most callers want :meth:`span`.
        """
        parent, trace_id = self._resolve_parent(parent, trace_id)
        return Span(
            name=name,
            span_id=self._allocate_id(),
            trace_id=trace_id,
            parent_id=parent.span_id if parent is not None else None,
            start=self.now(),
            attributes=dict(attributes) if attributes else {},
            track=threading.current_thread().name,
        )

    def _finish(self, span_: Span) -> None:
        if span_.end is None:
            span_.end = self.now()
        with self._lock:
            self._spans.append(span_)

    def end_span(self, span_: Span) -> None:
        """Finish a span started with :meth:`start_span`."""
        self._finish(span_)

    def span(self, name: str, *, trace_id: Optional[str] = None, **attributes):
        """Context manager: open a child of the current span.

        >>> tracer = Tracer()
        >>> with tracer.span("parent"):
        ...     with tracer.span("child", detail=1):
        ...         pass
        >>> [s.name for s in tracer.spans]
        ['child', 'parent']
        """
        return _SpanContext(
            self, self.start_span(name, trace_id=trace_id, attributes=attributes)
        )

    def record_span(
        self,
        name: str,
        start: float,
        end: float,
        *,
        parent: Optional[Span] = None,
        trace_id: Optional[str] = None,
        clock: str = WALL_CLOCK,
        track: str = "",
        status: str = "ok",
        **attributes: Any,
    ) -> Span:
        """Append an already-timed span (external data)."""
        parent, trace_id = self._resolve_parent(parent, trace_id)
        span_ = Span(
            name=name,
            span_id=self._allocate_id(),
            trace_id=trace_id,
            parent_id=parent.span_id if parent is not None else None,
            start=start,
            end=end,
            attributes=attributes,
            clock=clock,
            track=track or threading.current_thread().name,
            status=status,
        )
        with self._lock:
            self._spans.append(span_)
        return span_

    def defer_spans(self, count: int, build: Callable[[int], list]) -> None:
        """Record ``count`` finished spans that ``build(first_id)`` makes
        on the first read, with ids ``first_id .. first_id + count - 1``.

        The ids are reserved and the block takes its place in completion
        order now, so spans recorded later keep the ids and order they
        would have had if the block had been built here.  ``build`` must
        return exactly ``count`` spans and must not call the tracer.
        """
        with self._lock:
            first_id = self._next_id
            self._next_id += count
            self._spans.append(_DeferredSpans(first_id, build))
            self._deferred_blocks += 1
            self._deferred_extra += count - 1

    def _built(self) -> list[Span]:
        """The span list with every deferred block built (lock held)."""
        if self._deferred_blocks:
            spans: list[Span] = []
            for item in self._spans:
                if type(item) is _DeferredSpans:
                    spans.extend(item.build(item.first_id))
                else:
                    spans.append(item)
            self._spans[:] = spans
            self._deferred_blocks = self._deferred_extra = 0
        return self._spans

    # -- introspection ------------------------------------------------------
    @property
    def spans(self) -> list[Span]:
        """The finished spans in completion order (the live list)."""
        with self._lock:
            return self._built()

    def current_span(self) -> Optional[Span]:
        return _CURRENT_SPAN.get()

    def finished(self) -> list[Span]:
        """Snapshot of finished spans in completion order."""
        with self._lock:
            return list(self._built())

    def roots(self) -> list[Span]:
        with self._lock:
            return [s for s in self._built() if s.parent_id is None]

    def children_of(self, span_: Span) -> list[Span]:
        with self._lock:
            kids = [s for s in self._built() if s.parent_id == span_.span_id]
        return sorted(kids, key=lambda s: (s.start, s.span_id))

    def clear(self) -> None:
        """Drop every finished span, deferred blocks included."""
        with self._lock:
            self._spans.clear()
            self._deferred_blocks = self._deferred_extra = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans) + self._deferred_extra

    def __iter__(self) -> Iterator[Span]:
        return iter(self.finished())

    # -- payloads -----------------------------------------------------------
    def to_payload(self) -> dict:
        """Deterministic JSON: spans sorted by (start, span_id)."""
        spans = sorted(self.finished(), key=lambda s: (s.start, s.span_id))
        return {
            "kind": "repro-trace",
            "version": 1,
            "spans": [s.to_payload() for s in spans],
            "metrics": self.metrics.to_payload(),
        }

    def fingerprint(self) -> str:
        return fingerprint_payload(self.to_payload())

    def __repr__(self) -> str:
        return f"Tracer(spans={len(self)}, metrics={self.metrics!r})"


# -- module-level active tracer ---------------------------------------------

_active_tracer: Optional[Tracer] = None
_active_lock = threading.Lock()


def get_tracer() -> Optional[Tracer]:
    """The active tracer, or ``None`` when tracing is disabled.

    The disabled check is a single global read — cheap enough for hot
    paths to call per operation.
    """
    return _active_tracer


def set_tracer(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Install (or, with ``None``, disable) the active tracer globally.

    Returns the previously active tracer.
    """
    global _active_tracer
    with _active_lock:
        previous = _active_tracer
        _active_tracer = tracer
        return previous


class use_tracer:
    """Scope a tracer: ``with use_tracer(t): ...`` activates ``t`` and
    restores the previous tracer on exit.  The activation is process-wide
    (worker threads see it), matching how the registry server's executor
    pool must observe the tracer installed by the serving thread.
    """

    def __init__(self, tracer: Optional[Tracer]):
        self._tracer = tracer
        self._previous: Optional[Tracer] = None

    def __enter__(self) -> Optional[Tracer]:
        self._previous = set_tracer(self._tracer)
        return self._tracer

    def __exit__(self, *exc_info) -> None:
        set_tracer(self._previous)


def span(name: str, *, trace_id: Optional[str] = None, **attributes):
    """Open a span on the active tracer — or do nothing when disabled.

    The no-op path allocates nothing beyond the call's own frame (the
    returned context manager is a shared singleton); truly hot loops
    should still guard with :func:`get_tracer` to skip building keyword
    attributes.
    """
    tracer = _active_tracer
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, trace_id=trace_id, **attributes)


def current_trace_id() -> Optional[str]:
    """Trace id of the context's current span (for HTTP propagation)."""
    current = _CURRENT_SPAN.get()
    return current.trace_id if current is not None else None
