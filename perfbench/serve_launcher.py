"""The serving tier with the benchmark's layer wrappers and tracing on.

Takes the ``repro serve`` flags the benchmark uses plus ``--dump-dir``.
It installs :class:`layers.LayerClock`, enables the program's span
tracer, and calls :func:`repro.serve.app.run_server`.  ``SIGUSR1``
writes ``<dump-dir>/before.json``; after ``SIGTERM`` has stopped the
server it writes ``<dump-dir>/after.json``.  Each dump holds the layer
totals and the summed durations of the spans named in ``run.SPAN_NAMES``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal

from layers import LayerClock, span_seconds
from run import SPAN_NAMES


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dump-dir", required=True)
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--concurrency", type=int, default=4)
    parser.add_argument("--queue-depth", type=int, default=8)
    args = parser.parse_args()

    from repro.obs.trace import enable_tracing
    from repro.serve.app import run_server

    clock = LayerClock()
    clock.install()
    tracer = enable_tracing()

    def dump(name: str) -> None:
        payload = {
            "layers": clock.totals(),
            "spans": span_seconds(tracer.events(), SPAN_NAMES),
        }
        path = os.path.join(args.dump_dir, f"{name}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(path + ".tmp", path)

    signal.signal(signal.SIGUSR1, lambda *_: dump("before"))
    run_server(
        port=args.port,
        workers=args.workers,
        concurrency=args.concurrency,
        queue_depth=args.queue_depth,
        ready=lambda port: print(f"serving on http://127.0.0.1:{port}", flush=True),
    )
    dump("after")


if __name__ == "__main__":
    main()
