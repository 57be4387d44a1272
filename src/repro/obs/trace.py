"""Lightweight cross-process span tracing for the serving stack.

One request crosses four layers — client facade, asyncio service
admission, pool dispatch, pool worker processes — each with its own
clocks and threads.  This module stitches them into **one trace**:

* a :class:`Span` records what ran (name, attrs), where (pid/tid/process
  label), and when (wall-clock epoch microseconds for cross-process
  alignment, ``perf_counter`` for the duration);
* a :class:`Tracer` hands out spans as context managers, keeps the
  current span in a :data:`contextvars.ContextVar` (so nested spans link
  to their parent automatically, across ``await`` points too), and
  collects finished spans in a bounded ring buffer;
* **propagation** is explicit where contextvars cannot reach: callers
  :meth:`~Tracer.inject` the current context into a plain *carrier* dict,
  ship it over a thread hop or the shard pool's command protocol, and the
  far side re-enters the trace with :meth:`~Tracer.activate`.  Worker
  processes trace into their own buffer and ship finished spans back in
  replies; the parent :meth:`~Tracer.ingest`\\ s them, correcting
  timestamps by the clock offset estimated from PING round-trips
  (:class:`ClockOffset`);
* **export** is Chrome ``trace_event`` JSON (:func:`to_chrome_trace`,
  loadable in Perfetto / ``chrome://tracing``) or the plain-text tree of
  :func:`repro.perf.report.trace_tree`;
* :class:`timed` is the one way instrumented code times a region: one
  pair of clock reads feeds the span, a histogram and a ledger.

Tracing is **off by default** and the disabled path is engineered to be
free: ``tracer.span(...)`` returns a shared no-op context manager without
allocating, and hot loops may guard on the plain-bool
:attr:`Tracer.enabled` attribute to skip even argument construction.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import threading
import time
from collections import deque
from dataclasses import dataclass

from repro.util.checks import ValidationError, check_positive

__all__ = [
    "Span",
    "SpanContext",
    "Tracer",
    "ClockOffset",
    "get_tracer",
    "enable_tracing",
    "disable_tracing",
    "timed",
    "to_chrome_trace",
    "validate_chrome_trace",
]

#: The ambient trace position: a (trace_id, span_id) pair or None.
_CURRENT: contextvars.ContextVar = contextvars.ContextVar("repro_trace", default=None)

_ids = itertools.count(1)


def _new_id(prefix: str = "") -> str:
    """Process-unique, cheap span/trace id (pid ties it to this process)."""
    return f"{prefix}{os.getpid():x}-{next(_ids):x}"


@dataclass(slots=True)
class SpanContext:
    """The propagatable identity of a span: carrier form of a trace position."""

    trace_id: str
    span_id: str

    def to_carrier(self) -> dict:
        """Plain-dict form for crossing pickle/JSON boundaries."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_carrier(cls, carrier: dict | None) -> "SpanContext | None":
        if not carrier or "trace_id" not in carrier or "span_id" not in carrier:
            return None
        return cls(trace_id=carrier["trace_id"], span_id=carrier["span_id"])


@dataclass(slots=True)
class Span:
    """One finished (or in-flight) span.

    ``start_us`` is wall-clock epoch microseconds so spans from different
    processes on one host line up after offset correction; ``dur_us`` is
    measured with ``perf_counter`` so it is immune to wall-clock steps.
    """

    trace_id: str
    span_id: str
    parent_id: str | None
    name: str
    start_us: float
    dur_us: float = 0.0
    pid: int = 0
    tid: int = 0
    process: str = "main"
    attrs: dict | None = None

    def to_tuple(self) -> tuple:
        """Compact picklable form for shipping over reply queues."""
        return (
            self.trace_id,
            self.span_id,
            self.parent_id,
            self.name,
            self.start_us,
            self.dur_us,
            self.pid,
            self.tid,
            self.process,
            self.attrs,
        )

    @classmethod
    def from_tuple(cls, t: tuple) -> "Span":
        return cls(*t)


class _NoopSpan:
    """Shared do-nothing context manager: the disabled-tracer fast path."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def set(self, **attrs):  # matches _LiveSpan's surface
        return self

    def finish(self):
        pass

    @property
    def context(self):
        return None


_NOOP = _NoopSpan()


class _LiveSpan:
    """An open span: context manager that finishes into the tracer's ring."""

    __slots__ = ("_tracer", "span", "_t0", "_token")

    def __init__(self, tracer: "Tracer", name: str, parent, attrs: dict | None):
        self._tracer = tracer
        if parent is None:
            parent = _CURRENT.get()  # ambient (trace_id, span_id) or None
        elif isinstance(parent, dict):
            ctx = SpanContext.from_carrier(parent)
            parent = (ctx.trace_id, ctx.span_id) if ctx is not None else None
        elif isinstance(parent, SpanContext):
            parent = (parent.trace_id, parent.span_id)
        if parent is not None:
            trace_id, parent_id = parent
        else:
            trace_id, parent_id = _new_id("t"), None
        self.span = Span(
            trace_id=trace_id,
            span_id=_new_id("s"),
            parent_id=parent_id,
            name=name,
            start_us=time.time() * 1e6,
            pid=os.getpid(),
            tid=threading.get_ident(),
            process=tracer.process,
            attrs=attrs or None,
        )
        self._t0 = time.perf_counter()
        self._token = None

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.span.trace_id, self.span.span_id)

    def set(self, **attrs):
        """Attach attributes to the span (merged into any existing)."""
        if self.span.attrs is None:
            self.span.attrs = {}
        self.span.attrs.update(attrs)
        return self

    def __enter__(self):
        self._token = _CURRENT.set((self.span.trace_id, self.span.span_id))
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close(exc_type)
        return False

    def close(self, exc_type=None, dur_s: float | None = None):
        """Leave the span's context and finish it (see :meth:`finish`)."""
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None
        if exc_type is not None:
            self.set(error=exc_type.__name__)
        self.finish(dur_s)

    def finish(self, dur_s: float | None = None):
        """Record the span; ``dur_s`` is a duration the caller measured
        from this span's start, else the clock is read now."""
        if dur_s is None:
            dur_s = time.perf_counter() - self._t0
        self.span.dur_us = dur_s * 1e6
        self._tracer._record(self.span)


class _Activation:
    """Context manager entering a foreign trace position (from a carrier)."""

    __slots__ = ("_ctx", "_token")

    def __init__(self, ctx: SpanContext | None):
        self._ctx = ctx
        self._token = None

    def __enter__(self):
        if self._ctx is not None:
            self._token = _CURRENT.set((self._ctx.trace_id, self._ctx.span_id))
        return self._ctx

    def __exit__(self, *exc):
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None
        return False


@dataclass(slots=True)
class ClockOffset:
    """Remote-minus-local wall-clock offset estimated from one round-trip.

    The parent stamps ``t0`` before sending PING and ``t1`` when the pong
    arrives; the worker stamps its own wall clock ``remote`` while
    serving it.  Assuming the transfer is symmetric, the remote clock
    read ``remote`` corresponds to local time ``(t0 + t1) / 2``, so
    ``offset_us = remote − midpoint`` and a worker timestamp ``w`` maps
    to ``w − offset_us`` on the parent's axis.  ``rtt_us`` bounds the
    estimation error.
    """

    offset_us: float = 0.0
    rtt_us: float = 0.0

    @classmethod
    def from_roundtrip(cls, t0: float, t1: float, remote: float) -> "ClockOffset":
        """All arguments are wall-clock seconds (``time.time``)."""
        midpoint = (t0 + t1) / 2.0
        return cls(offset_us=(remote - midpoint) * 1e6, rtt_us=(t1 - t0) * 1e6)

    def to_local_us(self, remote_us: float) -> float:
        return remote_us - self.offset_us


class Tracer:
    """Span factory + bounded collector for one process.

    Parameters
    ----------
    capacity:
        Ring-buffer bound on retained finished spans; the oldest spans
        are dropped first, so a long-lived service never grows an
        unbounded trace.
    process:
        Label stamped on every span (``"main"``, ``"shard-3"``, ...) and
        exported as the Chrome trace's process name.
    enabled:
        Start state; flip with :meth:`enable` / :meth:`disable`.
    """

    def __init__(self, capacity: int = 4096, process: str = "main", enabled: bool = False):
        check_positive(capacity, "capacity")
        self.capacity = capacity
        self.process = process
        self.enabled = bool(enabled)
        self._spans: deque = deque(maxlen=capacity)
        self._dropped = 0
        self._lock = threading.Lock()

    # -- lifecycle ----------------------------------------------------------
    def enable(self, capacity: int | None = None) -> "Tracer":
        if capacity is not None:
            check_positive(capacity, "capacity")
            with self._lock:
                self.capacity = capacity
                self._spans = deque(self._spans, maxlen=capacity)
        self.enabled = True
        return self

    def disable(self) -> "Tracer":
        self.enabled = False
        return self

    @property
    def dropped(self) -> int:
        """Finished spans evicted by the ring bound since the last clear."""
        return self._dropped

    # -- span creation ------------------------------------------------------
    def span(self, name: str, parent=None, **attrs):
        """Open a span as a context manager.

        Disabled tracers return a shared no-op object — no allocation, no
        clock reads.  ``parent`` overrides the ambient context: a
        :class:`SpanContext`, a carrier dict, or None (ambient).  Entering
        the span makes it the ambient parent for anything nested, across
        threads only via explicit ``parent=``/:meth:`activate`.
        """
        if not self.enabled:
            return _NOOP
        return _LiveSpan(self, name, parent, attrs)

    def record_span(
        self,
        name: str,
        dur_s: float,
        *,
        parent=None,
        start_wall: float | None = None,
        **attrs,
    ) -> Span | None:
        """Retro-record an already-measured interval as a finished span.

        ``dur_s`` is seconds; ``start_wall`` is the wall-clock start
        (defaults to now minus the duration).  Returns the recorded span,
        or None when disabled.  A region timed in this process should use
        :class:`timed`, which feeds the span and the region's other
        consumers from one clock reading.
        """
        if not self.enabled:
            return None
        if parent is None:
            parent = _CURRENT.get()
        elif isinstance(parent, dict):
            ctx = SpanContext.from_carrier(parent)
            parent = (ctx.trace_id, ctx.span_id) if ctx is not None else None
        elif isinstance(parent, SpanContext):
            parent = (parent.trace_id, parent.span_id)
        if parent is not None:
            trace_id, parent_id = parent
        else:
            trace_id, parent_id = _new_id("t"), None
        if start_wall is None:
            start_wall = time.time() - dur_s
        span = Span(
            trace_id=trace_id,
            span_id=_new_id("s"),
            parent_id=parent_id,
            name=name,
            start_us=start_wall * 1e6,
            dur_us=dur_s * 1e6,
            pid=os.getpid(),
            tid=threading.get_ident(),
            process=self.process,
            attrs=attrs or None,
        )
        self._record(span)
        return span

    # -- propagation --------------------------------------------------------
    def current(self) -> SpanContext | None:
        """The ambient trace position, if inside a span."""
        cur = _CURRENT.get()
        if cur is None:
            return None
        return SpanContext(trace_id=cur[0], span_id=cur[1])

    def inject(self) -> dict | None:
        """Carrier dict for the ambient position (None when disabled/outside)."""
        if not self.enabled:
            return None
        ctx = self.current()
        return ctx.to_carrier() if ctx is not None else None

    def activate(self, carrier) -> _Activation:
        """Re-enter a propagated trace position (carrier dict or context).

        Usable on any thread/process; the position only lives for the
        ``with`` block.  A None/empty carrier activates nothing, so call
        sites need no branching.
        """
        if isinstance(carrier, SpanContext) or carrier is None:
            return _Activation(carrier)
        return _Activation(SpanContext.from_carrier(carrier))

    # -- collection ---------------------------------------------------------
    def _record(self, span: Span):
        with self._lock:
            if len(self._spans) == self._spans.maxlen:
                self._dropped += 1
            self._spans.append(span)

    def ingest(self, spans, offset: ClockOffset | None = None):
        """Fold foreign (worker-shipped) spans into this tracer's buffer.

        ``spans`` are :class:`Span` objects or their :meth:`Span.to_tuple`
        forms; ``offset`` (estimated from a PING round-trip) maps their
        wall-clock timestamps onto this process's axis.
        """
        for s in spans:
            if not isinstance(s, Span):
                s = Span.from_tuple(tuple(s))
            if offset is not None:
                s.start_us = offset.to_local_us(s.start_us)
            self._record(s)

    def spans(self) -> list:
        """Copy of the retained finished spans (oldest first)."""
        with self._lock:
            return list(self._spans)

    def drain(self) -> list:
        """Retained spans, clearing the buffer (for shipping in replies)."""
        with self._lock:
            out = list(self._spans)
            self._spans.clear()
            self._dropped = 0
            return out

    def clear(self):
        with self._lock:
            self._spans.clear()
            self._dropped = 0

    def __repr__(self):
        return (
            f"Tracer(process={self.process!r}, enabled={self.enabled}, "
            f"spans={len(self._spans)}/{self.capacity})"
        )


#: The process-wide default tracer every instrumented layer uses.
_GLOBAL = Tracer()


def get_tracer() -> Tracer:
    """The process-wide default tracer (disabled until enabled)."""
    return _GLOBAL


def enable_tracing(capacity: int | None = None) -> Tracer:
    """Turn the default tracer on (optionally resizing its ring buffer)."""
    return _GLOBAL.enable(capacity)


def disable_tracing() -> Tracer:
    """Turn the default tracer off (retained spans stay exportable)."""
    return _GLOBAL.disable()


class timed:
    """Time one region once and feed every consumer from that reading.

    ``with timed(name, hist=h, labels={...}, **attrs) as t:`` reads
    ``perf_counter`` at entry and exit.  The duration becomes the span
    ``name`` (when the default tracer is on; entered, so spans opened
    inside nest under it), an observation of histogram ``hist`` under
    ``labels`` (pass None while the registry is off), and ``t.seconds``
    for a per-call ledger.  ``parent`` is as in :meth:`Tracer.span`;
    :meth:`set` attaches span attributes from inside the region.
    """

    __slots__ = ("seconds", "_span", "_hist", "_labels", "_t0")

    def __init__(self, name: str, *, hist=None, labels=None, parent=None, **attrs):
        self._span = _LiveSpan(_GLOBAL, name, parent, attrs) if _GLOBAL.enabled else None
        self._hist = hist
        self._labels = labels
        self.seconds = 0.0

    def set(self, **attrs) -> "timed":
        if self._span is not None:
            self._span.set(**attrs)
        return self

    def __enter__(self) -> "timed":
        span = self._span
        if span is None:
            self._t0 = time.perf_counter()
        else:
            span.__enter__()
            self._t0 = span._t0
        return self

    def __exit__(self, exc_type, exc, tb):
        self.seconds = dt = time.perf_counter() - self._t0
        if self._span is not None:
            self._span.close(exc_type, dt)
        if self._hist is not None:
            self._hist.observe(dt, **(self._labels or {}))
        return False


# -- Chrome trace_event export ----------------------------------------------
def to_chrome_trace(spans, *, label: str = "repro") -> dict:
    """Chrome ``trace_event`` JSON document for a span list.

    Each span becomes one complete ("X") event; per-(pid, process) and
    per-(pid, tid) metadata events name the tracks.  Load the dumped JSON
    in Perfetto or ``chrome://tracing``.
    """
    events = []
    named_procs: set = set()
    named_threads: set = set()
    for s in spans:
        if not isinstance(s, Span):
            s = Span.from_tuple(tuple(s))
        args = dict(s.attrs or {})
        args["trace_id"] = s.trace_id
        args["span_id"] = s.span_id
        if s.parent_id is not None:
            args["parent_id"] = s.parent_id
        events.append(
            {
                "ph": "X",
                "name": s.name,
                "cat": label,
                "ts": s.start_us,
                "dur": s.dur_us,
                "pid": s.pid,
                "tid": s.tid,
                "args": args,
            }
        )
        if s.pid not in named_procs:
            named_procs.add(s.pid)
            events.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": s.pid,
                    "tid": 0,
                    "args": {"name": s.process},
                }
            )
        if (s.pid, s.tid) not in named_threads:
            named_threads.add((s.pid, s.tid))
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": s.pid,
                    "tid": s.tid,
                    "args": {"name": f"{s.process}:{s.tid}"},
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def validate_chrome_trace(
    doc: dict,
    *,
    require_worker_process: bool = False,
    require_single_trace: bool = False,
) -> dict:
    """Structural validation of a ``trace_event`` document (the CI gate).

    Checks every duration event carries the required ``ph``/``ts``/
    ``pid``/``tid`` keys, optionally that spans from **more than one
    process** are present (a worker actually traced), and that every span
    is **reachable from a root** (no orphaned parent links — the
    cross-process stitching held).  Raises
    :class:`~repro.util.checks.ValidationError` on the first violation;
    returns summary counts for reporting.
    """
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        raise ValidationError("trace document has no traceEvents")
    spans = [e for e in events if e.get("ph") == "X"]
    if not spans:
        raise ValidationError("trace has no complete ('X') span events")
    for e in spans:
        for key in ("ph", "ts", "pid", "tid", "name"):
            if key not in e:
                raise ValidationError(f"span event missing required key {key!r}: {e}")
        if "dur" not in e:
            raise ValidationError(f"span event missing duration: {e}")
    pids = {e["pid"] for e in spans}
    if require_worker_process and len(pids) < 2:
        raise ValidationError(
            f"expected spans from >1 process (worker spans), got pids={sorted(pids)}"
        )
    by_id = {e["args"]["span_id"]: e for e in spans if "span_id" in e.get("args", {})}
    if len(by_id) != len(spans):
        raise ValidationError("span events missing args.span_id identities")
    trace_ids = {e["args"].get("trace_id") for e in spans}
    if require_single_trace and len(trace_ids) != 1:
        raise ValidationError(
            f"expected one stitched trace, got {len(trace_ids)} trace ids"
        )
    roots = 0
    for e in spans:
        parent = e["args"].get("parent_id")
        if parent is None:
            roots += 1
            continue
        seen = set()
        while parent is not None:
            if parent in seen:
                raise ValidationError(f"parent cycle at span {e['args']['span_id']}")
            seen.add(parent)
            node = by_id.get(parent)
            if node is None:
                raise ValidationError(
                    f"span {e['args']['span_id']} ({e['name']}) has orphaned "
                    f"parent {parent}: not reachable from a root"
                )
            parent = node["args"].get("parent_id")
    if roots == 0:
        raise ValidationError("trace has no root span")
    return {
        "spans": len(spans),
        "processes": len(pids),
        "traces": len(trace_ids),
        "roots": roots,
    }
