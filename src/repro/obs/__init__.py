"""Observability: metrics, span tracing, access logs, process probes.

The layer every execution path reports into and the serving tier
exposes:

* :mod:`repro.obs.metrics` -- the process-wide :data:`REGISTRY` of
  counters/gauges/histograms, fork-aware worker registries, and
  Prometheus text exposition (``GET /metrics``);
* :mod:`repro.obs.trace` -- :func:`span`-based tracing of sweep
  stages, cache builds, chunk dispatch, design-search candidate loops
  and serve requests, exported as Perfetto-loadable Chrome trace JSON
  (``--trace out.json``);
* :mod:`repro.obs.logging` -- structured JSON access logs and the
  request ids echoed as ``X-Repro-Request-Id``;
* :mod:`repro.obs.process` -- uptime / RSS / version for ``/healthz``.

All instrumentation is side-channel only: results are byte-identical
with observability on or off, at any worker count.
"""

from repro.obs.logging import AccessLogger, new_request_id
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
    get_registry,
    reset_worker_registry,
    worker_registry,
)
from repro.obs.process import process_info, rss_bytes, uptime_seconds
from repro.obs.trace import (
    Tracer,
    add_complete_event,
    disable_tracing,
    enable_tracing,
    get_tracer,
    now_us,
    span,
    tracing_enabled,
)

__all__ = [
    "AccessLogger",
    "new_request_id",
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "get_registry",
    "reset_worker_registry",
    "worker_registry",
    "process_info",
    "rss_bytes",
    "uptime_seconds",
    "Tracer",
    "add_complete_event",
    "disable_tracing",
    "enable_tracing",
    "get_tracer",
    "now_us",
    "span",
    "tracing_enabled",
]
