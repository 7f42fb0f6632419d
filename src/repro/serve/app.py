"""The async serving tier: one warm Session behind an HTTP/1.1 front.

Pure stdlib (``asyncio.start_server`` + hand-rolled HTTP/1.1 -- no
framework dependency), one process, three layers:

1. **Admission control.**  Pool-bound work costs a slot; the server
   holds at most ``concurrency + queue_depth`` slots (``concurrency``
   requests executing on the thread pool, ``queue_depth`` waiting in
   its queue).  A request that would exceed that is rejected
   immediately with a structured 429 -- the pool is never
   oversubscribed and latency under overload stays flat instead of
   collapsing.

2. **Request coalescing.**  Identical concurrent requests (canonical
   key from :func:`~repro.serve.protocol.request_key`) execute once:
   the leader takes the slot, followers await its future for free.
   Observable via ``GET /stats`` and the ``X-Repro-Coalesced`` header.

3. **Execution.**  The blocking verbs run on a ``ThreadPoolExecutor``
   via ``run_in_executor`` against ONE shared
   :class:`~repro.core.session.Session` (thread-safe as of this tier),
   so every request shares warm topology caches and the one persistent
   worker pool that ``--workers`` sizes.  Experiments run there too,
   answered as one report or, with ``"stream": true``, as NDJSON cells
   in grid order as they finish.

Every request carries a generated id (echoed as ``X-Repro-Request-Id``
and attached to spans and access-log lines), is timed into per-endpoint
latency histograms, and -- with ``--access-log`` -- emits one
structured JSON log line.  ``GET /metrics`` exposes the server's and
the process's instruments in Prometheus text exposition format.

Endpoints::

    GET  /healthz      liveness probe (+ uptime / RSS / version)
    GET  /stats        admission / coalescing / cache / pool counters
                       + per-endpoint latency summaries
    GET  /metrics      Prometheus text exposition
    POST /v1/describe  POST /v1/sweep  POST /v1/design-search
    POST /v1/temporal
    POST /v1/experiment   (``"stream": true`` -> NDJSON cell stream)
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from ..obs.logging import AccessLogger, new_request_id
from ..obs.metrics import REGISTRY, MetricsRegistry
from ..obs.process import process_info
from ..obs.trace import add_complete_event, now_us, span
from ..resilience.sweep import SweepRequestError, WorkerDiedError
from .protocol import (
    ServeError,
    request_key,
    validate_describe,
    validate_design_search,
    validate_experiment,
    validate_sweep,
    validate_temporal,
)
from .coalesce import RequestCoalescer

__all__ = ["ReproServer", "run_server"]

#: Largest accepted request body, bytes (far above any sane request).
MAX_BODY = 4 * 1024 * 1024
#: Largest accepted request-line + headers block, bytes.
MAX_HEAD = 64 * 1024

_JSON_HEADERS = {"Content-Type": "application/json"}
#: ``Content-Type`` of the Prometheus text exposition format.
_METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
#: The endpoints that get their own metric label; anything else
#: (typos, scanners) collapses into ``other`` so label cardinality
#: stays bounded no matter what clients throw at the socket.
_KNOWN_ENDPOINTS = frozenset(
    {
        "/healthz",
        "/stats",
        "/metrics",
        "/v1/describe",
        "/v1/sweep",
        "/v1/design-search",
        "/v1/experiment",
        "/v1/temporal",
    }
)
_REQUESTS_HELP = "HTTP requests by endpoint and status"
_LATENCY_HELP = "HTTP request wall time by endpoint"
_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def _dumps(payload) -> bytes:
    return json.dumps(payload, sort_keys=True).encode() + b"\n"


def _serve_error(exc: Exception) -> ServeError:
    """The structured error a failed request answers with.

    A :class:`ServeError` stands as raised.  A sweep request the built
    machine rejects (the stratified trial floor, traffic it cannot
    carry) is the caller's mistake, a 400 like a door check; a pool
    worker that died mid-run is a 503 ``worker_died`` (the next request
    runs on a fresh pool); anything else is a 500 ``internal``.  Plain
    answers and stream error lines both come from here.
    """
    if isinstance(exc, ServeError):
        return exc
    if isinstance(exc, SweepRequestError):
        return ServeError(str(exc), code=exc.code, details=exc.details)
    if isinstance(exc, WorkerDiedError):
        return ServeError(str(exc), code="worker_died", status=503)
    return ServeError(
        f"{type(exc).__name__}: {exc}", code="internal", status=500
    )


class _Admission:
    """Slot counter: ``concurrency + queue_depth`` admitted at most.

    Mutations happen on the event loop, but counters are *read* from
    other threads too (``/stats`` snapshots in tests and benchmarks,
    the metrics renderer), so every access goes through one lock --
    :meth:`stats` is an atomic snapshot, never a torn mid-update view.
    Rejections are counted, never queued -- the bounded queue is the
    executor's own.
    """

    def __init__(self, concurrency: int, queue_depth: int) -> None:
        self.capacity = concurrency + queue_depth
        self.active = 0
        self.admitted = 0
        self.rejected = 0
        self._lock = threading.Lock()

    def try_acquire(self) -> bool:
        with self._lock:
            if self.active >= self.capacity:
                self.rejected += 1
                return False
            self.active += 1
            self.admitted += 1
            return True

    def release(self) -> None:
        with self._lock:
            self.active -= 1

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "capacity": self.capacity,
                "active": self.active,
                "admitted": self.admitted,
                "rejected": self.rejected,
            }


class ReproServer:
    """One Session, one thread pool, one coalescer, one asyncio server.

    ``concurrency`` bounds simultaneous executing requests (thread-pool
    size); ``queue_depth`` bounds how many more may wait; ``workers``
    is the Session's sweep-pool size (``None``: its auto default);
    ``access_log`` enables structured JSON access logging (``"-"`` for
    stderr, a path, or a file-like object).
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        session=None,
        workers=None,
        concurrency: int = 4,
        queue_depth: int = 8,
        access_log=None,
    ) -> None:
        from ..core.session import Session

        if concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {concurrency}")
        if queue_depth < 0:
            raise ValueError(f"queue_depth must be >= 0, got {queue_depth}")
        self.host = host
        self.port = port
        self._owns_session = session is None
        self.session = Session(workers=workers) if session is None else session
        self.coalescer = RequestCoalescer()
        self.admission = _Admission(concurrency, queue_depth)
        #: the server's own HTTP instruments (``repro_http_*``); sweep
        #: and cache families live in the process-wide global registry,
        #: and ``/metrics`` renders the union of both
        self.metrics = MetricsRegistry()
        self.access_log = (
            access_log
            if isinstance(access_log, AccessLogger)
            else AccessLogger(access_log)
            if access_log is not None
            else None
        )
        self._started_at = time.time()
        self._executor = ThreadPoolExecutor(
            max_workers=concurrency, thread_name_prefix="repro-serve"
        )
        self._server: asyncio.AbstractServer | None = None
        self._stopping: asyncio.Event | None = None
        self._requests_served = 0

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting; resolves :attr:`port` when 0."""
        self._stopping = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Graceful teardown: sockets, thread pool, then the Session.

        Idempotent.  Owned sessions close their worker pools here (the
        pools' ``close``/``join``, so no resource-tracker warnings on
        SIGINT/SIGTERM); injected sessions stay open for their owner.
        """
        if self._stopping is not None:
            self._stopping.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._executor.shutdown(wait=True)
        if self._owns_session and not self.session.closed:
            self.session.close()

    async def serve_forever(self, *, install_signals: bool = False) -> None:
        """Run until :meth:`stop` (or SIGINT/SIGTERM when installed)."""
        if self._server is None:
            await self.start()
        if install_signals:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGINT, signal.SIGTERM):
                loop.add_signal_handler(sig, self._stopping.set)
        await self._stopping.wait()
        await self.stop()

    def _process_payload(self) -> dict:
        """Uptime / RSS / version -- the restart-and-leak probe fields."""
        info = process_info()
        info["uptime_seconds"] = round(time.time() - self._started_at, 3)
        return info

    def stats(self) -> dict[str, object]:
        """The ``GET /stats`` payload: every tier's counters.

        Each tier's counters are snapshotted under that tier's own
        lock (admission, coalescer, cache), so the payload never shows
        torn mid-update values.  ``latency`` summarizes the
        per-endpoint request histograms (count/sum/mean/p50/p95/p99).
        """
        latency = {
            dict(labels).get("endpoint", ""): histogram.summary()
            for labels, histogram in sorted(
                self.metrics.series("repro_http_request_seconds").items()
            )
        }
        return {
            "admission": self.admission.stats(),
            "coalescer": self.coalescer.stats(),
            "cache": self.session.cache_stats(),
            "pools_started": self.session.pools_started,
            "requests_served": self._requests_served,
            "latency": latency,
            **self._process_payload(),
        }

    def render_metrics(self) -> str:
        """The ``GET /metrics`` body: Prometheus text exposition.

        The union of the server's HTTP instruments and the process-wide
        registry (sweep chunks, cache ops, design-search counters),
        plus synthetic gauges for the admission/coalescer/cache tiers
        and process facts -- one scrape sees the whole server.
        """
        merged = MetricsRegistry()
        merged.merge(REGISTRY.snapshot())
        merged.merge(self.metrics.snapshot())
        admission = self.admission.stats()
        merged.gauge(
            "repro_admission_active", "Requests currently holding a slot"
        ).set(admission["active"])
        merged.gauge(
            "repro_admission_capacity", "Admission slot capacity"
        ).set(admission["capacity"])
        merged.counter(
            "repro_admission_admitted_total", "Requests granted a slot"
        ).inc(admission["admitted"])
        merged.counter(
            "repro_admission_rejected_total", "Requests rejected with 429"
        ).inc(admission["rejected"])
        coalescer = self.coalescer.stats()
        merged.counter(
            "repro_coalescer_leaders_total", "Flights led (work executed)"
        ).inc(coalescer["leaders"])
        merged.counter(
            "repro_coalescer_followers_total", "Duplicate requests absorbed"
        ).inc(coalescer["followers"])
        merged.gauge(
            "repro_coalescer_in_flight", "Coalesced flights currently open"
        ).set(coalescer["in_flight"])
        cache = self.session.cache_stats()
        for key in ("hits", "misses", "evictions"):
            merged.counter(
                f"repro_session_cache_{key}_total",
                f"Session spec-cache {key}",
            ).inc(cache[key])
        merged.gauge(
            "repro_session_cache_size", "Cached built networks"
        ).set(cache["size"])
        merged.gauge(
            "repro_pools_started", "Persistent worker pools alive"
        ).set(self.session.pools_started)
        merged.counter(
            "repro_requests_served_total", "Requests answered successfully"
        ).inc(self._requests_served)
        info = self._process_payload()
        merged.gauge(
            "repro_server_uptime_seconds", "Seconds since server start"
        ).set(info["uptime_seconds"])
        merged.gauge(
            "repro_process_rss_bytes", "Resident set size"
        ).set(info["rss_bytes"])
        merged.gauge(
            "repro_build_info",
            "Constant 1; the version label carries the package version",
            {"version": info["version"]},
        ).set(1)
        return merged.render_prometheus()

    # ------------------------------------------------------------------
    # HTTP plumbing.
    # ------------------------------------------------------------------
    def _new_ctx(self, writer) -> dict:
        """Per-request context: id, clocks, and what the response was."""
        peer = writer.get_extra_info("peername")
        return {
            "id": new_request_id(),
            "start_us": now_us(),
            "t0": time.perf_counter(),
            "method": "",
            "target": "",
            "status": 0,
            "bytes": 0,
            "coalesced": "",
            "peer": f"{peer[0]}:{peer[1]}" if peer else "",
        }

    def _finish_request(self, ctx: dict) -> None:
        """Record one finished request: metrics, access log, trace event.

        ``status`` 0 means the connection died before any response was
        attempted (client hang-up mid-head) -- nothing to record.
        """
        if not ctx["status"]:
            return
        endpoint = (
            ctx["target"] if ctx["target"] in _KNOWN_ENDPOINTS else "other"
        )
        seconds = time.perf_counter() - ctx["t0"]
        self.metrics.counter(
            "repro_http_requests_total",
            _REQUESTS_HELP,
            {"endpoint": endpoint, "status": str(ctx["status"])},
        ).inc()
        self.metrics.histogram(
            "repro_http_request_seconds", _LATENCY_HELP,
            {"endpoint": endpoint},
        ).observe(seconds)
        if self.access_log is not None:
            self.access_log.log(
                request_id=ctx["id"],
                peer=ctx["peer"],
                method=ctx["method"],
                target=ctx["target"],
                status=ctx["status"],
                duration_ms=round(seconds * 1e3, 3),
                bytes=ctx["bytes"],
                coalesced=ctx["coalesced"] or None,
            )
        add_complete_event(
            "serve.request",
            ctx["start_us"],
            now_us() - ctx["start_us"],
            args={
                "request_id": ctx["id"],
                "method": ctx["method"],
                "target": ctx["target"],
                "status": ctx["status"],
                "coalesced": ctx["coalesced"],
            },
        )

    async def _handle_connection(self, reader, writer) -> None:
        ctx = self._new_ctx(writer)
        try:
            try:
                with span("serve.parse", request_id=ctx["id"]):
                    head = await reader.readuntil(b"\r\n\r\n")
            except asyncio.LimitOverrunError:
                await self._respond(
                    writer, 413, ServeError(
                        "request head too large", code="bad_request",
                        status=413,
                    ).payload(), ctx=ctx,
                )
                return
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            if len(head) > MAX_HEAD:
                await self._respond(
                    writer, 413, ServeError(
                        "request head too large", code="bad_request",
                        status=413,
                    ).payload(), ctx=ctx,
                )
                return
            method, target, headers = self._parse_head(head)
            ctx["method"], ctx["target"] = method, target
            body = b""
            declared = headers.get("content-length", "0")
            if not (declared.isascii() and declared.isdigit()):
                raise ServeError(
                    f"malformed Content-Length {declared!r}: expected a "
                    "non-negative decimal integer"
                )
            length = int(declared)
            if length > MAX_BODY:
                await self._respond(
                    writer, 413, ServeError(
                        f"request body over {MAX_BODY} bytes",
                        code="bad_request", status=413,
                    ).payload(), ctx=ctx,
                )
                return
            if length:
                body = await reader.readexactly(length)
            await self._dispatch(reader, writer, method, target, body, ctx)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception as exc:  # never leak a traceback as raw bytes
            error = _serve_error(exc)
            await self._respond(writer, error.status, error.payload(), ctx=ctx)
        finally:
            self._finish_request(ctx)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    def _parse_head(head: bytes):
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            raise ServeError(f"malformed request line {lines[0]!r}")
        method, target, _version = parts
        headers = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        return method, target, headers

    async def _respond(
        self, writer, status: int, payload, *, extra=None, ctx=None
    ) -> None:
        await self._write_response(
            writer, status, _dumps(payload), {**_JSON_HEADERS, **(extra or {})},
            ctx=ctx,
        )

    async def _respond_text(
        self, writer, status: int, text: str, content_type: str, *, ctx=None
    ) -> None:
        await self._write_response(
            writer, status, text.encode("utf-8"),
            {"Content-Type": content_type}, ctx=ctx,
        )

    async def _write_response(
        self, writer, status: int, body: bytes, headers: dict, *, ctx=None
    ) -> None:
        if ctx is not None:
            headers = {**headers, "X-Repro-Request-Id": ctx["id"]}
            ctx["status"] = status
            ctx["bytes"] = len(body)
        head = [f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}"]
        head += [f"{k}: {v}" for k, v in headers.items()]
        head += [f"Content-Length: {len(body)}", "Connection: close", "", ""]
        writer.write("\r\n".join(head).encode("latin-1") + body)
        await writer.drain()

    # ------------------------------------------------------------------
    # Routing and verb execution.
    # ------------------------------------------------------------------
    async def _dispatch(self, reader, writer, method, target, body, ctx) -> None:
        if target in ("/healthz", "/stats", "/metrics") and method != "GET":
            raise ServeError(
                f"{target} is GET-only", code="bad_request", status=405
            )
        if target == "/healthz":
            await self._respond(
                writer, 200, {"ok": True, **self._process_payload()}, ctx=ctx
            )
            return
        if target == "/stats":
            await self._respond(writer, 200, self.stats(), ctx=ctx)
            return
        if target == "/metrics":
            await self._respond_text(
                writer, 200, self.render_metrics(), _METRICS_CONTENT_TYPE,
                ctx=ctx,
            )
            return
        if not target.startswith("/v1/"):
            raise ServeError(
                f"no such endpoint {target!r}", code="not_found", status=404
            )
        verb = target[len("/v1/"):]
        if verb not in (
            "describe", "sweep", "design-search", "experiment", "temporal"
        ):
            raise ServeError(
                f"no such verb {verb!r}", code="not_found", status=404
            )
        if method != "POST":
            raise ServeError(
                f"/v1/{verb} is POST-only", code="bad_request", status=405
            )
        try:
            payload = json.loads(body.decode() or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServeError(
                f"request body is not valid JSON: {exc}"
            ) from None
        if verb == "experiment":
            await self._handle_experiment(reader, writer, payload, ctx)
        else:
            await self._handle_simple(writer, verb, payload, ctx)

    def _run_verb(self, verb: str, normalized: dict):
        """Blocking execution of one normalized request (pool thread)."""
        if verb == "describe":
            return self.session.describe(normalized["spec"])
        if verb == "sweep":
            return self.session.resilience_sweep(
                normalized["spec"],
                **{k: v for k, v in normalized.items() if k != "spec"},
            ).as_dict()
        if verb == "design-search":
            return self.session.design_search(**normalized).as_dict()
        if verb == "temporal":
            return self.session.temporal_sweep(
                normalized["spec"],
                **{k: v for k, v in normalized.items() if k != "spec"},
            ).as_dict()
        raise ServeError(f"no such verb {verb!r}", status=404)

    async def _handle_simple(self, writer, verb, payload, ctx) -> None:
        validator = {
            "describe": validate_describe,
            "sweep": validate_sweep,
            "design-search": validate_design_search,
            "temporal": validate_temporal,
        }[verb]
        with span("serve.validate", request_id=ctx["id"], verb=verb):
            normalized = validator(payload)
        await self._respond_coalesced(
            writer, request_key(verb, normalized),
            lambda: self._run_verb(verb, normalized), ctx,
        )

    async def _handle_experiment(self, reader, writer, payload, ctx) -> None:
        with span("serve.validate", request_id=ctx["id"], verb="experiment"):
            experiment, normalized = validate_experiment(payload)
        if normalized["stream"]:
            await self._stream_experiment(reader, writer, experiment, ctx)
            return
        await self._respond_coalesced(
            writer, request_key("experiment", normalized),
            lambda: self.session.run_experiment(experiment).as_dict(), ctx,
        )

    def _admit(self) -> None:
        """Take an admission slot, or answer a structured 429."""
        if not self.admission.try_acquire():
            raise ServeError(
                "server at capacity, retry later",
                code="overloaded",
                status=429,
                details=self.admission.stats(),
            )

    async def _respond_coalesced(self, writer, key: str, work, ctx) -> None:
        """Single-flight + admission: the heart of the serving tier.

        Answers 200 with ``work()``'s result.  Followers join the
        in-flight future without taking an admission slot (they cost
        nothing).  The leader must win a slot BEFORE registering the
        flight -- a rejected request must not become a flight that
        followers pile onto.  No await between ``join`` and ``lead``,
        so flights never duplicate.
        """
        request_id = ctx["id"]
        existing = self.coalescer.join(key)
        if existing is not None:
            with span("serve.coalesce", request_id=request_id,
                      role="follower"):
                result, role = await existing, "follower"
        else:
            with span("serve.admission", request_id=request_id):
                self._admit()
            future = self.coalescer.lead(key)
            loop = asyncio.get_running_loop()
            try:
                with span("serve.execute", request_id=request_id):
                    result = await loop.run_in_executor(self._executor, work)
            except Exception as exc:
                error = _serve_error(exc)
                self.coalescer.resolve(key, future, error=error)
                raise error
            finally:
                self.admission.release()
            self.coalescer.resolve(key, future, result=result)
            role = "leader"
        self._requests_served += 1
        ctx["coalesced"] = role
        await self._respond(
            writer, 200, result, extra={"X-Repro-Coalesced": role}, ctx=ctx
        )

    async def _stream_experiment(self, reader, writer, experiment, ctx) -> None:
        """NDJSON: header line, one line per cell in grid order, footer.

        A request thread drives :meth:`Session.iter_experiment` on the
        shared session and feeds an asyncio queue; each cell goes over
        the wire as soon as the session yields it.  A stream holds an
        admission slot for its whole duration (it occupies a request
        thread) and is never coalesced -- each stream writes its own
        socket as its cells arrive.  A failure ends the stream with the
        structured error line a plain request would answer with.  A
        client that hangs up (EOF on its socket, or a failed write)
        stops the grid before its next cell: the cell in flight
        finishes (on a pool, so do its dispatched chunks), then the
        slot and the thread are free.
        """
        self._admit()
        loop = asyncio.get_running_loop()
        feed: asyncio.Queue = asyncio.Queue()
        gone = threading.Event()

        def put(line) -> None:
            loop.call_soon_threadsafe(feed.put_nowait, line)

        def pump() -> None:
            cells = self.session.iter_experiment(experiment)
            try:
                index = -1
                for index, cell in enumerate(cells):
                    put({"index": index, "cell": cell.as_dict()})
                    if gone.is_set():
                        return
                put({"done": True, "cells": index + 1})
            except Exception as exc:
                put(_serve_error(exc).payload())
            finally:
                cells.close()  # closes the spans of a grid cut short
                put(None)  # the stream ends whatever happened

        async def watch() -> None:
            # the request is fully read: the next EOF is the hang-up
            try:
                while await reader.read(4096):
                    pass
            except OSError:
                pass
            gone.set()

        ctx["status"] = 200
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"X-Repro-Request-Id: " + ctx["id"].encode("latin-1") + b"\r\n"
            b"Connection: close\r\n\r\n"
        )
        writer.write(_dumps({"experiment": experiment.as_dict()}))
        await writer.drain()
        watcher = asyncio.ensure_future(watch())
        pumping = loop.run_in_executor(self._executor, pump)
        try:
            while (line := await feed.get()) is not None:
                writer.write(_dumps(line))
                await writer.drain()
        finally:
            gone.set()  # a failed write is a hang-up too
            watcher.cancel()
            await pumping
            self.admission.release()
            self._requests_served += 1


def run_server(
    *,
    host: str = "127.0.0.1",
    port: int = 8000,
    workers=None,
    concurrency: int = 4,
    queue_depth: int = 8,
    ready=None,
    access_log=None,
) -> None:
    """Blocking entry point (the CLI's ``repro serve``).

    Installs SIGINT/SIGTERM handlers for graceful shutdown: stop
    accepting, drain the thread pool, close the Session's worker
    pools.  ``ready`` (optional callable) fires with the bound port
    once the socket is listening -- the test/bench harness hook.
    ``access_log`` (path, ``"-"`` for stderr, or ``None`` to disable)
    enables one structured JSON line per request.
    """

    async def main() -> None:
        server = ReproServer(
            host=host,
            port=port,
            workers=workers,
            concurrency=concurrency,
            queue_depth=queue_depth,
            access_log=access_log,
        )
        await server.start()
        if ready is not None:
            ready(server.port)
        await server.serve_forever(install_signals=True)

    asyncio.run(main())
