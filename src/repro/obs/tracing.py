"""Nestable spans: where the imputation pipeline spends its time.

A span is one timed region (``impute.trajectory``, ``impute.segment``,
``bert.forward``) with wall-clock duration, free-form attributes (cell
count, beam width, model level used, candidates filtered), and children —
together the spans of one operation form a tree mirroring the paper's
module decomposition.

Tracing is **off by default**: :func:`span` then returns a shared no-op
context manager, so a hot loop pays roughly one attribute load and one
branch per span. Enable it (``enable_tracing()`` or the CLI's
``--trace``) to collect real trees, readable via :func:`finished_spans`
and serializable with :meth:`Span.to_dict`.

Spans nest per-thread (a thread-local stack), exception-safely: a span
that exits through an exception is closed, marked with the exception
type, and re-raises.

**Wire format.** :meth:`Span.to_dict` / :meth:`Span.from_dict` round-trip
a whole tree through plain JSON-able dicts, so serving workers can ship
their span trees to the pool over the result pipe. Timestamps are
``time.perf_counter`` values, which are *process-local*: a tree arriving
from another process must be rebased with :meth:`Span.shift` using the
difference of the two processes' :func:`clock_offset` anchors before it
can share a timeline (a merged Chrome trace) with local spans.

**Trace IDs** tie one request's telemetry together: entry points
(``Kamel.impute``, ``StreamingImputationService.process``, the eval
harness) open a :func:`trace_scope`, and every span opened — and every
log line emitted via :mod:`repro.obs.logging` — inside that scope
carries the scope's id. Scopes are thread-local and independent of
whether span *collection* is enabled, so logs stay correlated even with
tracing off.
"""

from __future__ import annotations

import threading
import time
import uuid
from contextlib import contextmanager
from typing import Any, Iterator, Optional

__all__ = [
    "Span",
    "Tracer",
    "clock_offset",
    "get_tracer",
    "span",
    "enable_tracing",
    "disable_tracing",
    "tracing_enabled",
    "finished_spans",
    "clear_spans",
    "new_trace_id",
    "current_trace_id",
    "trace_scope",
]


def clock_offset() -> float:
    """This process's epoch-to-perf_counter anchor.

    ``time.time() - time.perf_counter()``, sampled back to back. Two
    processes on the same machine share the epoch clock, so a span tree
    shipped from process W rebases into process P's perf_counter timebase
    by shifting it ``clock_offset_W - clock_offset_P`` (see
    :meth:`Span.shift`). Sub-millisecond accurate — the two reads are a
    few hundred nanoseconds apart — which is plenty for aligning
    cross-process request timelines.
    """
    return time.time() - time.perf_counter()


def new_trace_id() -> str:
    """A fresh 16-hex-char request id (random, collision-negligible)."""
    return uuid.uuid4().hex[:16]


class Span:
    """One timed region of the pipeline, with attributes and children."""

    __slots__ = (
        "name", "attributes", "children", "start_s", "end_s", "error",
        "trace_id", "thread_id",
    )

    def __init__(
        self,
        name: str,
        attributes: Optional[dict[str, Any]] = None,
        trace_id: Optional[str] = None,
    ) -> None:
        self.name = name
        self.attributes: dict[str, Any] = attributes or {}
        self.children: list[Span] = []
        self.start_s = time.perf_counter()
        self.end_s: Optional[float] = None
        self.error: Optional[str] = None
        self.trace_id = trace_id
        self.thread_id = threading.get_ident()

    @property
    def duration_s(self) -> Optional[float]:
        if self.end_s is None:
            return None
        return self.end_s - self.start_s

    def set(self, **attributes: Any) -> "Span":
        """Attach attributes to the span (chainable)."""
        self.attributes.update(attributes)
        return self

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> list["Span"]:
        """Every span named ``name`` in this subtree."""
        return [s for s in self.walk() if s.name == name]

    def to_dict(self) -> dict:
        """A JSON-able tree. Round-trips through :meth:`from_dict`:
        ``start_s``/``end_s`` (process-local perf_counter values) and the
        recording thread id ride along so a reconstructed tree keeps its
        timeline and lane assignment."""
        out: dict[str, Any] = {
            "name": self.name,
            "duration_s": self.duration_s,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "thread_id": self.thread_id,
        }
        if self.trace_id is not None:
            out["trace_id"] = self.trace_id
        if self.attributes:
            out["attributes"] = dict(self.attributes)
        if self.error is not None:
            out["error"] = self.error
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        """Rebuild a span tree from :meth:`to_dict` output.

        Tolerates minimal dicts (only ``name``): missing timestamps
        reconstruct as a zero-length span at origin 0, so old exports
        stay loadable. The rebuilt span is *finished* — it never joins a
        live tracer stack.
        """
        span_obj = cls.__new__(cls)
        span_obj.name = data["name"]
        span_obj.attributes = dict(data.get("attributes") or {})
        span_obj.start_s = float(data.get("start_s") or 0.0)
        end_s = data.get("end_s")
        if end_s is None:
            duration = data.get("duration_s")
            end_s = span_obj.start_s + (float(duration) if duration else 0.0)
        span_obj.end_s = float(end_s)
        span_obj.error = data.get("error")
        span_obj.trace_id = data.get("trace_id")
        span_obj.thread_id = int(data.get("thread_id") or 0)
        span_obj.children = [cls.from_dict(c) for c in data.get("children") or []]
        return span_obj

    def shift(self, offset_s: float) -> "Span":
        """Shift this tree's timeline by ``offset_s`` seconds, in place.

        The cross-process alignment primitive: a tree shipped from
        another process moves into the local perf_counter timebase with
        ``tree.shift(remote_clock_offset - clock_offset())``. Durations
        are unchanged. Returns the span (chainable).
        """
        for span_obj in self.walk():
            span_obj.start_s += offset_s
            if span_obj.end_s is not None:
                span_obj.end_s += offset_s
        return self

    def render(self, indent: int = 0) -> str:
        """An indented text rendering of the subtree."""
        duration = f"{self.duration_s * 1000:.3f} ms" if self.duration_s is not None else "open"
        attrs = " ".join(f"{k}={v}" for k, v in self.attributes.items())
        line = "  " * indent + f"{self.name} [{duration}]" + (f" {attrs}" if attrs else "")
        return "\n".join([line] + [c.render(indent + 1) for c in self.children])

    def __repr__(self) -> str:
        return f"Span({self.name!r}, duration_s={self.duration_s}, children={len(self.children)})"


class _NoopSpan:
    """The disabled-tracing fast path: every operation is a no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set(self, **attributes: Any) -> "_NoopSpan":
        return self


_NOOP_SPAN = _NoopSpan()


class _SpanContext:
    """Context manager pushing a real span onto the tracer's stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", name: str, attributes: dict[str, Any]) -> None:
        self._tracer = tracer
        self._span = Span(name, attributes, trace_id=tracer.current_trace_id())

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self._span.error = exc_type.__name__
        self._tracer._pop(self._span)
        return False


class Tracer:
    """Per-thread span stacks plus the finished root-span buffer."""

    def __init__(self, max_roots: int = 1000) -> None:
        self.enabled = False
        self.max_roots = max_roots
        self._local = threading.local()
        self._roots: list[Span] = []
        self._lock = threading.Lock()

    # -- collection ----------------------------------------------------------

    def span(self, name: str, **attributes: Any):
        """Open a span under the current one (no-op when disabled)."""
        if not self.enabled:
            return _NOOP_SPAN
        return _SpanContext(self, name, attributes)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span_obj: Span) -> None:
        stack = self._stack()
        if stack:
            stack[-1].children.append(span_obj)
        stack.append(span_obj)

    def _pop(self, span_obj: Span) -> None:
        span_obj.end_s = time.perf_counter()
        stack = self._stack()
        # Exception-safe unwind: close everything above the span too.
        while stack:
            top = stack.pop()
            if top.end_s is None:
                top.end_s = span_obj.end_s
            if top is span_obj:
                break
        if not stack:
            with self._lock:
                self._roots.append(span_obj)
                if len(self._roots) > self.max_roots:
                    del self._roots[: len(self._roots) - self.max_roots]

    def current(self) -> Optional[Span]:
        """The innermost open span on this thread, if any."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    # -- trace ids -----------------------------------------------------------

    def current_trace_id(self) -> Optional[str]:
        """This thread's active request id (None outside any trace scope)."""
        return getattr(self._local, "trace_id", None)

    def set_trace_id(self, trace_id: Optional[str]) -> None:
        self._local.trace_id = trace_id

    # -- inspection ----------------------------------------------------------

    def finished(self) -> list[Span]:
        """Completed root spans, oldest first (bounded by ``max_roots``)."""
        with self._lock:
            return list(self._roots)

    def clear(self) -> None:
        with self._lock:
            self._roots.clear()

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"Tracer({state}, finished={len(self._roots)})"


_tracer = Tracer()


def get_tracer() -> Tracer:
    """The process-wide tracer used by the instrumented pipeline."""
    return _tracer


def span(name: str, **attributes: Any):
    """Open a pipeline span (module-level shorthand; no-op when disabled)."""
    if not _tracer.enabled:
        return _NOOP_SPAN
    return _SpanContext(_tracer, name, attributes)


def enable_tracing() -> None:
    _tracer.enabled = True


def disable_tracing() -> None:
    _tracer.enabled = False


def tracing_enabled() -> bool:
    return _tracer.enabled


def current_trace_id() -> Optional[str]:
    """The calling thread's active request id, if a trace scope is open."""
    return _tracer.current_trace_id()


@contextmanager
def trace_scope(trace_id: Optional[str] = None, *, inherit: bool = True):
    """Bind a request id to the calling thread for the block's duration.

    Every span opened and every ``repro.*`` log record emitted inside the
    block carries the id. With ``inherit`` (the default), entering a
    scope inside another one keeps the outer id — so the streaming
    service opens the scope and ``Kamel.impute`` joins it — while
    ``inherit=False`` forces a fresh id. Yields the active id.
    """
    previous = _tracer.current_trace_id()
    if trace_id is None:
        trace_id = previous if (inherit and previous is not None) else new_trace_id()
    _tracer.set_trace_id(trace_id)
    try:
        yield trace_id
    finally:
        _tracer.set_trace_id(previous)


def finished_spans() -> list[Span]:
    """Completed root spans collected since the last :func:`clear_spans`."""
    return _tracer.finished()


def clear_spans() -> None:
    _tracer.clear()
