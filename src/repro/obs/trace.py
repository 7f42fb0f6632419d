"""Span-based tracing, exportable as Chrome trace-event JSON.

Instrumented code wraps its stages in :func:`span`::

    with span("sweep.execute", trials=n, backend="vectorized"):
        rows = run(...)

When tracing is disabled (the default) ``span`` returns a shared no-op
context manager -- no object allocation, no clock reads -- so the hot
paths pay only a module-global ``is None`` check.  When a
:class:`Tracer` is installed (:func:`enable_tracing`, or the CLI's
``--trace out.json``), each span records one *complete* event with
wall-clock epoch timestamps, so events recorded in different processes
(the parent and its sweep workers) land on one common timeline.

Exports:

* :meth:`Tracer.export_chrome` -- Chrome trace-event JSON
  (``{"traceEvents": [...]}``), loadable in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing``;
* :meth:`Tracer.export_ndjson` -- one event per line, for ``jq`` and
  log shippers.

Tracing is strictly a side channel: spans observe timing, never
results, and every instrumented path produces byte-identical output
with tracing on or off.
"""

from __future__ import annotations

import json
import os
import threading
import time

__all__ = [
    "Tracer",
    "span",
    "add_complete_event",
    "enable_tracing",
    "disable_tracing",
    "get_tracer",
    "tracing_enabled",
    "now_us",
]


def now_us() -> int:
    """Wall-clock epoch microseconds (comparable across processes)."""
    return time.time_ns() // 1000


class Tracer:
    """A thread-safe collector of complete ('ph: X') trace events."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._events: list[dict] = []

    def add_complete(
        self,
        name: str,
        start_us: int,
        duration_us: int,
        args: dict | None = None,
        pid: int | None = None,
        tid: int | None = None,
    ) -> None:
        """Record one complete event (a closed span)."""
        event = {
            "name": name,
            "ph": "X",
            "ts": int(start_us),
            "dur": max(int(duration_us), 0),
            "pid": int(os.getpid() if pid is None else pid),
            "tid": int(
                threading.get_ident() % 2**31 if tid is None else tid
            ),
        }
        if args:
            event["args"] = args
        with self._lock:
            self._events.append(event)

    def events(self) -> list[dict]:
        """A snapshot of recorded events, ordered by start time."""
        with self._lock:
            events = list(self._events)
        return sorted(events, key=lambda e: (e["ts"], e["name"]))

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def chrome_payload(self) -> dict:
        """The Chrome trace-event JSON object (Perfetto-loadable)."""
        return {"traceEvents": self.events(), "displayTimeUnit": "ms"}

    def export_chrome(self, path: str) -> None:
        """Write :meth:`chrome_payload` to ``path`` as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_payload(), handle, sort_keys=True)
            handle.write("\n")

    def export_ndjson(self, path: str) -> None:
        """Write one JSON event per line to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            for event in self.events():
                handle.write(json.dumps(event, sort_keys=True))
                handle.write("\n")


_TRACER: Tracer | None = None


class _NullSpan:
    """The shared do-nothing span used while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """A live span: times its block, records one complete event."""

    __slots__ = ("_tracer", "_name", "_args", "_start_us")

    def __init__(self, tracer: Tracer, name: str, args: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._args = args
        self._start_us = 0

    def __enter__(self) -> "_Span":
        self._start_us = now_us()
        return self

    def __exit__(self, *exc) -> bool:
        self._tracer.add_complete(
            self._name, self._start_us, now_us() - self._start_us, self._args
        )
        return False


def span(name: str, **args):
    """A context manager timing ``name``; no-op when tracing is off."""
    tracer = _TRACER
    if tracer is None:
        return _NULL_SPAN
    return _Span(tracer, name, args)


def add_complete_event(
    name: str,
    start_us: int,
    duration_us: int,
    args: dict | None = None,
    pid: int | None = None,
    tid: int | None = None,
) -> None:
    """Record an already-timed event (e.g. shipped from a worker).

    No-op when tracing is disabled, like :func:`span` -- callers hand
    over timings they measured anyway and let the tracer decide.
    """
    tracer = _TRACER
    if tracer is not None:
        tracer.add_complete(name, start_us, duration_us, args, pid, tid)


def enable_tracing(tracer: Tracer | None = None) -> Tracer:
    """Install (and return) the active tracer; spans start recording."""
    global _TRACER
    _TRACER = tracer if tracer is not None else Tracer()
    return _TRACER


def disable_tracing() -> Tracer | None:
    """Uninstall the active tracer (returned for export), if any."""
    global _TRACER
    tracer = _TRACER
    _TRACER = None
    return tracer


def get_tracer() -> Tracer | None:
    """The active tracer, or ``None`` when tracing is disabled."""
    return _TRACER


def tracing_enabled() -> bool:
    return _TRACER is not None
