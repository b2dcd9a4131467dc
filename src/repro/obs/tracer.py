"""Structured span tracing — the event-timeline half of ``repro.obs``.

Legion ships Legion Prof because the costs the paper measures (dependence
analysis, equivalence-set refinement, shipping, recovery) are invisible
without per-phase attribution.  This module records them as **spans**: a
named, categorized interval with a start/end timestamp, a process/thread
attribution (``pid``/``tid`` — mapped to shard ids by the distributed
backends), a parent link (spans nest through a thread-local stack), and a
free-form ``args`` mapping.  Alongside spans a tracer buffers **instant
events** (recovery incidents: crash, respawn, replay, adoption) and
timestamped **counter samples**.

The buffers export losslessly to the Chrome trace-event / Perfetto JSON
format (:mod:`repro.obs.export`) and feed the offline critical-path
analyzer (:mod:`repro.obs.critpath`).

Design constraints, in order:

1. **A disabled tracer is (almost) free.**  The process-global default
   tracer is disabled; every instrumentation point goes through
   :func:`span`/:func:`traced`, whose fast path is one attribute check
   returning a shared no-op context manager.  The micro-benchmark in
   ``benchmarks/test_obs_overhead.py`` holds this under 5% of analysis
   time.
2. **Injectable clock.**  Timestamps come from the same clock protocol as
   :class:`repro.distributed.faults.SystemClock` /
   :class:`~repro.distributed.faults.FakeClock`, so trace tests assert on
   exact synthetic times instead of real elapsed time.
3. **Thread-safe, picklable payloads.**  Finished spans append under a
   lock (the analysis service's session executor threads record spans
   concurrently); the
   :class:`Span` records themselves are plain dataclasses of primitives
   so worker processes can ship their buffers back inside a
   :class:`~repro.distributed.verify.ShardReport`.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional

#: pid used for the driver (control) process; workers use ``shard + 1``.
DRIVER_PID = 0


class _MonotonicClock:
    """Default clock: the same protocol as
    :class:`repro.distributed.faults.SystemClock` (``monotonic``/``sleep``),
    defined locally because this module sits *below* the distributed layer
    in the import graph — the backends instrument themselves with it, so a
    faults import here would be circular.  Inject a faults ``SystemClock``
    or ``FakeClock`` freely; the protocols are identical.
    """

    monotonic = staticmethod(time.monotonic)
    sleep = staticmethod(time.sleep)


_DEFAULT_CLOCK = _MonotonicClock()


@dataclass
class Span:
    """One finished, named interval.  Times are clock-monotonic seconds;
    the exporter converts to trace-event microseconds."""

    name: str
    category: str
    start: float
    end: float
    pid: int = DRIVER_PID
    tid: int = 0
    span_id: int = 0
    parent_id: Optional[int] = None
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def shifted(self, offset: float) -> "Span":
        """A copy with both timestamps moved by ``offset`` (clock-offset
        alignment when merging worker buffers into the driver trace)."""
        return replace(self, start=self.start + offset,
                       end=self.end + offset)


@dataclass
class Instant:
    """A zero-duration event (recovery incidents, markers)."""

    name: str
    category: str
    ts: float
    pid: int = DRIVER_PID
    tid: int = 0
    args: dict = field(default_factory=dict)


@dataclass
class CounterSample:
    """One timestamped sample of a named numeric series."""

    name: str
    ts: float
    value: float
    pid: int = DRIVER_PID


@dataclass
class TraceBuffer:
    """A self-contained snapshot of everything a tracer recorded."""

    spans: list[Span] = field(default_factory=list)
    instants: list[Instant] = field(default_factory=list)
    counters: list[CounterSample] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.spans) + len(self.instants) + len(self.counters)


_span_ids = itertools.count(1)

#: Flight-recorder sink (:class:`repro.obs.flight.FlightRecorder`).
#: Installed by :mod:`repro.obs.flight` at import; every finished span
#: and instant is offered to it when armed.  The disarmed fast path is
#: two attribute checks — see ``benchmarks/test_obs_overhead.py``.
_FLIGHT = None


def set_flight_sink(sink) -> None:
    """Install the recorder finished spans/instants are offered to."""
    global _FLIGHT
    _FLIGHT = sink


class _NoopSpan:
    """Shared do-nothing context manager: the disabled-tracer fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **args) -> None:
        """Discard args (mirrors :meth:`_OpenSpan.set`)."""


_NOOP = _NoopSpan()


class _OpenSpan:
    """An in-flight span: context manager and mutable handle."""

    __slots__ = ("_tracer", "name", "category", "args", "start",
                 "span_id", "parent_id", "pid", "tid")

    def __init__(self, tracer: "Tracer", name: str, category: str,
                 args: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.category = category
        self.args = args

    def set(self, **args) -> None:
        """Attach or update args while the span is open (e.g. the
        dependence list, known only once the scan finishes)."""
        self.args.update(args)

    def __enter__(self) -> "_OpenSpan":
        tracer = self._tracer
        self.span_id = next(_span_ids)
        stack = tracer._stack()
        self.parent_id = stack[-1].span_id if stack else None
        self.pid, self.tid = tracer._attribution()
        stack.append(self)
        self.start = tracer.clock.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        end = tracer.clock.monotonic()
        stack = tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        if exc_type is not None:
            self.args.setdefault("error", exc_type.__name__)
        finished = Span(self.name, self.category, self.start, end,
                        self.pid, self.tid, self.span_id, self.parent_id,
                        self.args)
        if tracer.retain:
            with tracer._lock:
                tracer._buffer.spans.append(finished)
        flight = _FLIGHT
        if flight is not None and flight.armed:
            flight.record_span(finished)
        return False


class _Scope:
    """Thread-local pid/tid override (shard attribution)."""

    __slots__ = ("_tracer", "_pid", "_tid", "_prev")

    def __init__(self, tracer: "Tracer", pid: Optional[int],
                 tid: Optional[int]) -> None:
        self._tracer = tracer
        self._pid = pid
        self._tid = tid

    def __enter__(self) -> "_Scope":
        local = self._tracer._local
        self._prev = getattr(local, "override", None)
        prev_pid, prev_tid = self._prev if self._prev else (None, None)
        local.override = (self._pid if self._pid is not None else prev_pid,
                          self._tid if self._tid is not None else prev_tid)
        return self

    def __exit__(self, *exc) -> bool:
        self._tracer._local.override = self._prev
        return False


class Tracer:
    """Records spans, instants and counter samples with per-thread nesting.

    Parameters
    ----------
    clock:
        Monotonic clock (``monotonic()``); defaults to
        :class:`~repro.distributed.faults.SystemClock`.  Inject a
        :class:`~repro.distributed.faults.FakeClock` for exact-time tests.
    enabled:
        When False every recording entry point is a no-op; flip the
        attribute at any time.
    pid:
        Default process attribution for recorded events
        (:data:`DRIVER_PID` for the control process).
    retain:
        When False, finished spans/instants/counters are *not* kept in
        the tracer's own buffer — they are still offered to the flight
        recorder.  A long-lived service arms the recorder with a
        ``retain=False`` tracer so span memory stays bounded by the
        recorder's rings instead of growing for the process lifetime.
    """

    def __init__(self, clock=None, enabled: bool = True,
                 pid: int = DRIVER_PID, retain: bool = True) -> None:
        self.clock = clock if clock is not None else _DEFAULT_CLOCK
        self.enabled = enabled
        self.pid = pid
        self.retain = retain
        self._lock = threading.Lock()
        self._buffer = TraceBuffer()
        self._local = threading.local()
        self._tids: dict[int, int] = {}

    # ------------------------------------------------------------------
    # per-thread state
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _attribution(self) -> tuple[int, int]:
        """(pid, tid) for an event recorded on the calling thread."""
        override = getattr(self._local, "override", None)
        pid = tid = None
        if override is not None:
            pid, tid = override
        if pid is None:
            pid = self.pid
        if tid is None:
            ident = threading.get_ident()
            tid = self._tids.get(ident)
            if tid is None:
                with self._lock:
                    tid = self._tids.setdefault(ident, len(self._tids))
        return pid, tid

    def scope(self, pid: Optional[int] = None, tid: Optional[int] = None):
        """Context manager attributing everything recorded by this thread
        to the given pid/tid (the backends map both to shard ids)."""
        if not self.enabled:
            return _NOOP
        return _Scope(self, pid, tid)

    def current(self) -> Optional[_OpenSpan]:
        """The innermost open span of the calling thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def span(self, name: str, category: str = "", **args):
        """Open a span as a context manager; ``with tracer.span(...)``."""
        if not self.enabled:
            return _NOOP
        return _OpenSpan(self, name, category, args)

    def instant(self, name: str, category: str = "", **args) -> None:
        """Record a zero-duration event at the current time."""
        if not self.enabled:
            return
        pid, tid = self._attribution()
        event = Instant(name, category, self.clock.monotonic(), pid, tid,
                        args)
        if self.retain:
            with self._lock:
                self._buffer.instants.append(event)
        flight = _FLIGHT
        if flight is not None and flight.armed:
            flight.record_instant(event)

    def counter(self, name: str, value: float) -> None:
        """Record one timestamped sample of a counter series."""
        if not self.enabled:
            return
        if not self.retain:
            return
        pid, _ = self._attribution()
        sample = CounterSample(name, self.clock.monotonic(), float(value),
                               pid)
        with self._lock:
            self._buffer.counters.append(sample)

    # ------------------------------------------------------------------
    # buffer management
    # ------------------------------------------------------------------
    def absorb(self, spans: Iterable[Span] = (),
               instants: Iterable[Instant] = (),
               offset: float = 0.0) -> None:
        """Merge externally recorded events (a worker's shipped buffer)
        into this tracer, shifting times by ``offset`` for clock
        alignment."""
        spans = [s.shifted(offset) for s in spans]
        instants = [replace(i, ts=i.ts + offset) for i in instants]
        if self.retain:
            with self._lock:
                self._buffer.spans.extend(spans)
                self._buffer.instants.extend(instants)
        flight = _FLIGHT
        if flight is not None and flight.armed:
            flight.record_spans(spans)
            for event in instants:
                flight.record_instant(event)

    def snapshot(self) -> TraceBuffer:
        """Copy of everything recorded so far."""
        with self._lock:
            return TraceBuffer(list(self._buffer.spans),
                               list(self._buffer.instants),
                               list(self._buffer.counters))

    def drain(self) -> TraceBuffer:
        """Remove and return everything recorded so far (workers drain
        their buffer into each analyze reply)."""
        with self._lock:
            out = self._buffer
            self._buffer = TraceBuffer()
            return out

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return (f"Tracer({state}, spans={len(self._buffer.spans)}, "
                f"instants={len(self._buffer.instants)})")


# ----------------------------------------------------------------------
# the process-global active tracer
# ----------------------------------------------------------------------
#: Instrumentation points record against this tracer (like the root
#: logger); the default is disabled, so unconfigured runs pay only the
#: ``enabled`` check.
_ACTIVE = Tracer(enabled=False)


def active_tracer() -> Tracer:
    """The process-global tracer instrumentation records against."""
    return _ACTIVE


def set_tracer(tracer: Tracer) -> Tracer:
    """Install a new active tracer; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    return previous


def span(name: str, category: str = "", **args):
    """Open a span on the active tracer (no-op when disabled)."""
    tracer = _ACTIVE
    if not tracer.enabled:
        return _NOOP
    return _OpenSpan(tracer, name, category, args)


def instant(name: str, category: str = "", **args) -> None:
    """Record an instant event on the active tracer."""
    tracer = _ACTIVE
    if tracer.enabled:
        tracer.instant(name, category, **args)


def counter(name: str, value: float) -> None:
    """Record a counter sample on the active tracer."""
    tracer = _ACTIVE
    if tracer.enabled:
        tracer.counter(name, value)


def traced(name: str, category: Optional[str] = None):
    """Decorator instrumenting a method with a span.

    ``category=None`` resolves the instance's ``_obs_cat`` attribute at
    call time (set by :class:`~repro.visibility.base.CoherenceAlgorithm`
    to ``"visibility.<algorithm>"``), so one decorator serves every
    subclass.  The disabled fast path adds a single attribute check.
    """
    import functools

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            tracer = _ACTIVE
            if not tracer.enabled:
                return fn(self, *args, **kwargs)
            cat = category if category is not None \
                else getattr(self, "_obs_cat", "")
            with _OpenSpan(tracer, name, cat, {}):
                return fn(self, *args, **kwargs)
        return wrapper
    return decorate
