"""Wall-clock tracing spans with a Chrome-trace exporter.

``span("rewrite.cascade", n=4096)`` is a context manager that records a
complete-event (begin + duration) into a bounded ring buffer.  Tracing is
off by default — a disabled span is one boolean check on ``__enter__``
and one on ``__exit__`` — and is switched on per run via
:func:`set_tracing` (the CLI's ``--trace-out`` flag does this for you).

The recorder exports the standard Chrome trace-event JSON format, so a
captured run drops straight into ``chrome://tracing`` / Perfetto:
nested spans on one thread render as a flame graph, concurrent service
threads render as parallel tracks.

Cross-process collection (shard federation): spans recorded inside a
process shard would die in the shard's own ring.  Each telemetry pull
therefore ships them as portable tuples (:func:`drain_portable`: an
:func:`export_portable` and a clear, so no span travels twice;
timestamps re-anchored to the wall-clock epoch), and the router merges
them with :func:`absorb_portable`.  They keep the shard's pid, so one
trace shows every shard as its own process track, named with
:meth:`TraceRecorder.set_process_name` (``repro-shard-0`` instead of
the anonymous ``repro-worker-<pid>``).

Cross-process *request* correlation: :class:`trace_context` binds a
request id to the current thread; every span completed while a context
is bound carries a ``request_id`` attribute.  The HTTP edge opens a
context per request, the shard pipe protocol forwards the bound id with
every command, and the worker re-binds it around command execution — so
one submit/advance renders as a single filterable flamegraph spanning
the edge, the router, and every shard process it touched.

The ring drops the *oldest* span on overflow; every drop increments the
``repro_trace_spans_dropped_total`` counter and the recorder's
:attr:`~TraceRecorder.dropped` tally, so a truncated trace is visible
instead of silently partial.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque

from repro.obs.metrics import REGISTRY, _switch

_SPANS_DROPPED = REGISTRY.counter(
    "repro_trace_spans_dropped_total",
    "Spans evicted from the bounded trace ring (oldest-first overflow)",
)


class SpanRecord:
    """One completed span: name, microsecond start/duration, thread, attrs.

    ``pid`` is None for spans recorded in this process; spans absorbed
    from process shards carry the shard's pid.
    """

    __slots__ = ("name", "ts_us", "dur_us", "tid", "attrs", "pid")

    def __init__(
        self,
        name: str,
        ts_us: float,
        dur_us: float,
        tid: int,
        attrs: dict,
        pid: int | None = None,
    ) -> None:
        self.name = name
        self.ts_us = ts_us
        self.dur_us = dur_us
        self.tid = tid
        self.attrs = attrs
        self.pid = pid

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SpanRecord({self.name!r}, ts_us={self.ts_us:.1f}, "
            f"dur_us={self.dur_us:.1f}, tid={self.tid}, attrs={self.attrs}, "
            f"pid={self.pid})"
        )


class TraceRecorder:
    """A thread-safe ring buffer of completed spans.

    The ring bounds memory no matter how long a traced run goes: with the
    default 65536-span capacity the oldest spans fall off first, and the
    :attr:`dropped` counter says how many did.
    """

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError("trace ring capacity must be positive")
        self._buffer: deque[SpanRecord] = deque(maxlen=int(capacity))
        self._lock = threading.Lock()
        self._tids: dict[int, tuple[int, str]] = {}
        self._process_names: dict[int, str] = {}
        self._dropped = 0

    @property
    def capacity(self) -> int:
        return self._buffer.maxlen or 0

    @property
    def dropped(self) -> int:
        """Spans evicted by ring overflow since the last :meth:`clear`."""
        with self._lock:
            return self._dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._buffer)

    def _append(self, record: SpanRecord) -> None:
        """Append under the lock, counting the eviction if the ring is full."""
        if len(self._buffer) == self._buffer.maxlen:
            self._dropped += 1
            _SPANS_DROPPED.inc()
        self._buffer.append(record)

    def record(self, record: SpanRecord) -> None:
        with self._lock:
            self._append(record)

    def add(self, name: str, ts_us: float, dur_us: float, attrs: dict) -> None:
        """Record a span for the calling thread (one lock acquisition)."""
        ident = threading.get_ident()
        with self._lock:
            entry = self._tids.get(ident)
            if entry is None:
                entry = (len(self._tids), threading.current_thread().name)
                self._tids[ident] = entry
            self._append(SpanRecord(name, ts_us, dur_us, entry[0], attrs))

    def records(self) -> list[SpanRecord]:
        with self._lock:
            return list(self._buffer)

    def set_process_name(self, pid: int, name: str) -> None:
        """Name a foreign pid's lane in the Chrome export (e.g. a shard).

        Absorbed spans keep their worker's pid; without a name the lane
        renders as ``repro-worker-<pid>``.  The cluster router names its
        shard lanes ``repro-shard-<index>`` when it federates telemetry.
        """
        with self._lock:
            self._process_names[int(pid)] = str(name)

    def clear(self) -> None:
        with self._lock:
            self._buffer.clear()
            self._tids.clear()
            self._process_names.clear()
            self._dropped = 0

    # -- exposition ----------------------------------------------------

    def to_chrome_trace(self) -> dict:
        """The ``chrome://tracing`` / Perfetto JSON object format."""
        local_pid = os.getpid()
        with self._lock:
            records = list(self._buffer)
            tids = dict(self._tids)
            process_names = dict(self._process_names)
        events: list[dict] = [
            {
                "name": "thread_name",
                "ph": "M",
                "pid": local_pid,
                "tid": track,
                "args": {"name": thread_name},
            }
            for track, thread_name in sorted(tids.values())
        ]
        foreign_pids: set[int] = set()
        for rec in records:
            pid = local_pid if rec.pid is None else rec.pid
            if rec.pid is not None and rec.pid != local_pid:
                foreign_pids.add(rec.pid)
            events.append(
                {
                    "name": rec.name,
                    "ph": "X",
                    "ts": rec.ts_us,
                    "dur": rec.dur_us,
                    "pid": pid,
                    "tid": rec.tid,
                    "args": rec.attrs,
                }
            )
        process_meta = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": process_names.get(pid, f"repro-worker-{pid}")},
            }
            for pid in sorted(foreign_pids)
        ]
        if process_meta:
            process_meta.insert(
                0,
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": local_pid,
                    "tid": 0,
                    "args": {"name": "repro"},
                },
            )
        return {
            "traceEvents": events[: len(tids)] + process_meta + events[len(tids) :],
            "displayTimeUnit": "ms",
        }

    def export(self, path) -> int:
        """Write the Chrome trace JSON to ``path``; returns the span count."""
        trace = self.to_chrome_trace()
        with open(path, "w") as fh:
            json.dump(trace, fh, default=str)
        return sum(1 for e in trace["traceEvents"] if e["ph"] == "X")


_recorder = TraceRecorder()
#: perf_counter origin for microsecond timestamps (per-process, monotonic).
_T0 = time.perf_counter()


def _anchor_us() -> float:
    """Microseconds between the Unix epoch and this process's span origin.

    ``span.ts_us + _anchor_us()`` is an epoch-based timestamp — the
    process-independent form worker spans are shipped in.  Computed per
    call (cheap: two clock reads) so a forked worker does not reuse the
    parent's cached offset.
    """
    return (time.time() - time.perf_counter() + _T0) * 1e6


def set_tracing(enabled: bool, capacity: int | None = None) -> bool:
    """Turn span recording on or off; returns the previous state.

    ``capacity`` (spans kept) replaces the recorder ring when given —
    existing records are dropped.
    """
    global _recorder
    previous = _switch.tracing
    if capacity is not None:
        _recorder = TraceRecorder(capacity)
    _switch.set(_switch.enabled, enabled)
    return previous


def tracing_enabled() -> bool:
    return _switch.tracing


def get_recorder() -> TraceRecorder:
    """The active trace ring (swapped by ``set_tracing(capacity=...)``)."""
    return _recorder


# ----------------------------------------------------------------------
# Request-scoped trace context
# ----------------------------------------------------------------------

_context = threading.local()


class trace_context:
    """Bind a request id to the current thread for the enclosed region.

    Every span that *completes* while a context is bound carries a
    ``request_id`` attribute, which is what lets a Chrome trace be
    filtered down to one end-to-end request across the edge, the router,
    and the shard workers.  Contexts nest (a stack per thread); binding
    ``None`` is a no-op marker that keeps call sites unconditional.

    Thread-scoped on purpose: the HTTP edge binds it on the connection's
    thread while the router works, and the shard pipe protocol re-binds
    the forwarded id in the worker process.
    """

    __slots__ = ("_request_id",)

    def __init__(self, request_id: str | None) -> None:
        self._request_id = request_id

    def __enter__(self) -> "trace_context":
        stack = getattr(_context, "stack", None)
        if stack is None:
            stack = _context.stack = []
        stack.append(self._request_id)
        return self

    def __exit__(self, *exc) -> bool:
        _context.stack.pop()
        return False


def current_request_id() -> str | None:
    """The innermost non-None request id bound to this thread, or None."""
    stack = getattr(_context, "stack", None)
    if not stack:
        return None
    for request_id in reversed(stack):
        if request_id is not None:
            return request_id
    return None


# ----------------------------------------------------------------------
# Cross-process span shipping
# ----------------------------------------------------------------------


def export_portable() -> list[tuple]:
    """The recorder's spans as process-independent tuples.

    Each tuple is ``(name, epoch_ts_us, dur_us, pid, tid, attrs)`` —
    timestamps re-anchored to the wall-clock epoch so the parent can
    place them on its own timeline.  :func:`drain_portable` is its
    federation form.
    """
    anchor = _anchor_us()
    pid = os.getpid()
    return [
        (rec.name, rec.ts_us + anchor, rec.dur_us, pid, rec.tid, rec.attrs)
        for rec in _recorder.records()
    ]


def drain_portable() -> list[tuple]:
    """Export the recorder's spans portably and clear the ring.

    The federation form of :func:`export_portable`: a long-lived shard
    worker answers periodic telemetry pulls, so it must hand each span
    over exactly once — export and clear happen before returning, and the
    next pull starts from an empty ring.
    """
    spans = export_portable()
    _recorder.clear()
    return spans


def absorb_portable(spans) -> int:
    """Merge portable worker spans into this process's recorder.

    Timestamps are re-anchored from the epoch back to this process's
    span origin, so worker spans line up with the parent's own spans in
    one Chrome trace; the worker's pid is kept, so each shard renders as
    a separate process track.  Returns the number of spans absorbed.
    """
    anchor = _anchor_us()
    count = 0
    for name, epoch_us, dur_us, pid, tid, attrs in spans:
        _recorder.record(
            SpanRecord(name, epoch_us - anchor, dur_us, tid, attrs, pid=pid)
        )
        count += 1
    return count


class span:
    """Context manager timing one named region of the pipeline.

    Keyword attributes land in the Chrome trace's ``args`` panel.  When
    tracing is disabled (the default) enter/exit are a boolean check
    each, so instrumented hot paths cost nothing measurable.
    """

    __slots__ = ("name", "attrs", "_t0")

    def __init__(self, name: str, **attrs: object) -> None:
        self.name = name
        self.attrs = attrs
        self._t0: float | None = None

    def __enter__(self) -> "span":
        if _switch.tracing:
            self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        t0 = self._t0
        if t0 is not None and _switch.tracing:
            record_span(self.name, t0, time.perf_counter() - t0, self.attrs)
        return False


def record_span(name: str, t0: float, seconds: float, attrs: dict) -> None:
    """Record a completed span that began at ``perf_counter()`` ``t0``
    (the one recording path of :class:`span` and :func:`repro.obs.stage`),
    tagged with the thread's request id."""
    request_id = current_request_id()
    if request_id is not None:
        attrs = dict(attrs, request_id=request_id)
    _recorder.add(name, ts_us=(t0 - _T0) * 1e6, dur_us=seconds * 1e6, attrs=attrs)
