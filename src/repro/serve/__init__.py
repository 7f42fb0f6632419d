"""repro.serve: the async serving tier over a shared Session.

A stdlib-only HTTP front for the library's expensive verbs, built from
four pieces:

- :mod:`~repro.serve.protocol` -- JSON request validation and the
  canonical request keys;
- :mod:`~repro.serve.coalesce` -- single-flight execution of identical
  concurrent requests;
- :mod:`~repro.serve.app` -- the asyncio server: admission control,
  thread-pool execution against one warm Session and its one worker
  pool, NDJSON experiment streaming;
- :mod:`~repro.serve.client` -- a blocking client and the in-thread
  server harness used by tests and benchmarks.

Start one from the command line::

    python -m repro serve --port 8000 --workers 4 --queue-depth 8
"""

from .app import ReproServer, run_server
from .client import ServeClient, run_in_thread
from .coalesce import RequestCoalescer
from .protocol import SERVE_VERBS, ServeError, request_key

__all__ = [
    "SERVE_VERBS",
    "ReproServer",
    "RequestCoalescer",
    "ServeClient",
    "ServeError",
    "request_key",
    "run_server",
    "run_in_thread",
]
