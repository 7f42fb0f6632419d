"""CI smoke test for the serving tier, against a real server process.

Boots ``python -m repro serve`` as a subprocess, then asserts the two
serving-tier guarantees end to end over the wire:

1. **Coalescing** -- N identical concurrent sweep requests produce one
   leader, N-1 followers, identical bodies, and ``/stats`` counters
   agreeing (exactly one execution happened).
2. **Streaming** -- a streamed (NDJSON) experiment equals the plain
   one: the same header, then the same cells in grid order, then a
   footer counting them.
3. **Observability** -- ``/metrics`` serves parseable Prometheus text
   exposition with the expected families, every response carries an
   ``X-Repro-Request-Id``, and ``--access-log`` writes one JSON line
   per request.
4. **Error paths** -- caller mistakes (importance sampling on the
   ``link`` fault model, a temporal ``curve_points`` above 512, an
   experiment ``shards`` field) answer a structured 400 with their
   request id, never a ``500 internal``.
5. **Fast default** -- a ``connectivity`` sweep that names no
   ``backend`` runs on the vectorized kernel: its chunk shows up in
   ``repro_sweep_chunks_total{backend="vectorized"}``.
6. **Negative seeds** -- a ``full`` sweep with ``"seed": -1`` answers
   200: its workloads take any integer seed.
7. **Experiment replays counted** -- an experiment's fault-process
   cell raises ``repro_temporal_trials_total`` like a ``/v1/temporal``
   replay does.

Finally the server is sent SIGTERM and must exit 0 with a silent
stderr (graceful pool shutdown, no resource-tracker noise).

Usage: ``PYTHONPATH=src python scripts/serve_smoke.py``
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import tempfile
import threading
import urllib.error
import urllib.request
from pathlib import Path

CONCURRENT_DUPLICATES = 8


def post(port: int, verb: str, payload: dict):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/v1/{verb}",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=120) as response:
        return json.load(response), response.headers.get("X-Repro-Coalesced")


def stream(port: int, payload: dict) -> list[dict]:
    """The parsed NDJSON lines of a streamed ``/v1/experiment``."""
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/v1/experiment",
        data=json.dumps({**payload, "stream": True}).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=120) as response:
        content_type = response.headers.get("Content-Type")
        assert content_type == "application/x-ndjson", content_type
        return [json.loads(line) for line in response if line.strip()]


def get(port: int, path: str):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=30
    ) as response:
        return json.load(response)


def rejected(port: int, verb: str, payload: dict):
    """``(status, request id, error)`` of a request the server refuses."""
    try:
        post(port, verb, payload)
    except urllib.error.HTTPError as exc:
        request_id = exc.headers.get("X-Repro-Request-Id", "")
        return exc.code, request_id, json.load(exc)["error"]
    raise AssertionError(f"{verb} {payload} was accepted")


def scrape_metrics(port: int) -> tuple[dict[str, str], dict[str, float]]:
    """GET /metrics; validate the exposition.

    Returns ``(name -> kind, "name{labels}" -> sample value)``.
    """
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}/metrics", timeout=30
    ) as response:
        content_type = response.headers.get("Content-Type", "")
        request_id = response.headers.get("X-Repro-Request-Id", "")
        body = response.read().decode("utf-8")
    assert content_type.startswith("text/plain; version=0.0.4"), content_type
    assert len(request_id) == 16, f"bad request id {request_id!r}"
    kinds: dict[str, str] = {}
    samples: dict[str, float] = {}
    for line in body.splitlines():
        if line.startswith("# TYPE"):
            _, _, name, kind = line.split()
            kinds[name] = kind
        elif line.startswith("# HELP") or not line.strip():
            continue
        else:  # every sample line must be "name[{labels}] number"
            sample, _, value = line.rpartition(" ")
            assert sample, f"malformed sample line {line!r}"
            samples[sample] = float(value)
    return kinds, samples


def main() -> int:
    access_log = Path(tempfile.mkstemp(suffix=".access.jsonl")[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "0", "--concurrency", "4", "--queue-depth", "8",
         "--access-log", str(access_log)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        banner = proc.stdout.readline().strip()
        assert banner.startswith("serving on http://"), banner
        port = int(banner.rsplit(":", 1)[-1])
        print(f"[serve-smoke] {banner}")

        health = get(port, "/healthz")
        assert health["ok"] is True, health
        assert health["uptime_seconds"] >= 0, health
        assert isinstance(health["version"], str) and health["version"]

        # 1. concurrent duplicates -> exactly one execution
        # batched keeps the leader in flight long enough for every
        # duplicate to join it (the vectorized kernel answers in ~10 ms)
        sweep = {"spec": "sk(2,2,2)", "trials": 2000, "seed": 42,
                 "metrics": "connectivity", "backend": "batched"}
        results: list = []

        def fire() -> None:
            results.append(post(port, "sweep", sweep))

        threads = [
            threading.Thread(target=fire)
            for _ in range(CONCURRENT_DUPLICATES)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        roles = sorted(role for _, role in results)
        assert roles.count("leader") == 1, roles
        assert roles.count("follower") == CONCURRENT_DUPLICATES - 1, roles
        bodies = {json.dumps(body, sort_keys=True) for body, _ in results}
        assert len(bodies) == 1, f"{len(bodies)} distinct sweep bodies"
        stats = get(port, "/stats")
        assert stats["coalescer"]["leaders"] == 1, stats
        assert stats["coalescer"]["followers"] == CONCURRENT_DUPLICATES - 1
        print(
            f"[serve-smoke] coalescing OK: "
            f"{CONCURRENT_DUPLICATES} duplicates -> 1 execution"
        )

        # 2. a streamed experiment equals the plain one, cell for cell
        plan = {"specs": ["pops(2,2)", "sk(2,2,2)"],
                "metrics": ["connectivity", "full"],
                "trials": [4], "seed": 7}
        plain, _ = post(port, "experiment", plan)
        lines = stream(port, plan)
        cells = plain.pop("cells")
        assert lines[0] == {"experiment": plain}, lines[0]
        assert [line["cell"] for line in lines[1:-1]] == cells
        assert [line["index"] for line in lines[1:-1]] == list(
            range(len(cells))
        )
        assert lines[-1] == {"done": True, "cells": len(cells)}, lines[-1]
        print(f"[serve-smoke] streaming OK: {len(cells)} NDJSON cells == "
              "plain experiment")

        # 3. observability: /metrics exposition + access log
        kinds, _ = scrape_metrics(port)
        for family, kind in {
            "repro_http_requests_total": "counter",
            "repro_http_request_seconds": "histogram",
            "repro_admission_active": "gauge",
            "repro_coalescer_followers_total": "counter",
            "repro_build_info": "gauge",
        }.items():
            assert kinds.get(family) == kind, (family, kinds.get(family))
        log_lines = [
            json.loads(line)
            for line in access_log.read_text().splitlines()
        ]
        assert log_lines, "access log is empty"
        assert all(
            rec["status"] == 200 and len(rec["request_id"]) == 16
            for rec in log_lines
        ), log_lines[:3]
        print(
            f"[serve-smoke] observability OK: {len(kinds)} metric "
            f"families, {len(log_lines)} access-log lines"
        )

        # 4. caller mistakes are structured 400s, not 500s
        for verb, payload, code, words in (
            ("sweep", {"spec": "pops(2,2)", "model": "link",
                       "sampling": "importance"}, "bad_request",
             "cardinality distribution"),
            ("temporal", {"spec": "pops(2,2)", "curve_points": 1000},
             "bad_request", "curve_points"),
            ("experiment", {"specs": ["pops(2,2)"], "trials": [2],
                            "shards": 2}, "invalid_experiment",
             "unknown experiment field(s): shards"),
        ):
            status, request_id, error = rejected(port, verb, payload)
            assert status == 400, (status, error)
            assert error["code"] == code, error
            assert words in error["message"], error
            assert len(request_id) == 16, f"bad request id {request_id!r}"
            print(f"[serve-smoke] {verb} error path OK: 400 {error['code']}")

        # 5. a default connectivity sweep runs on the vectorized kernel
        chunks = 'repro_sweep_chunks_total{backend="vectorized"}'
        before = scrape_metrics(port)[1].get(chunks, 0.0)
        post(port, "sweep", {"spec": "sk(2,2,2)", "trials": 64, "seed": 9,
                             "metrics": "connectivity"})
        after = scrape_metrics(port)[1].get(chunks, 0.0)
        assert after > before, f"{chunks}: {before} -> {after}"
        print(f"[serve-smoke] default backend OK: {chunks} {before:g} -> "
              f"{after:g}")

        # 6. a negative seed is a valid seed in full mode too
        body, _ = post(port, "sweep", {"spec": "pops(2,2)", "seed": -1,
                                       "trials": 2, "metrics": "full"})
        assert body["seed"] == -1 and body["trials"] == 2, body
        print("[serve-smoke] negative seed OK: full sweep at seed -1 -> 200")

        # 7. an experiment's replay cell counts like any other replay
        replays = 'repro_temporal_trials_total{metrics="connectivity"}'
        before = scrape_metrics(port)[1].get(replays, 0.0)
        post(port, "experiment", {"specs": ["pops(2,2)"], "trials": [3],
                                  "models": ["coupler:1", "coupler-renewal:1"]})
        after = scrape_metrics(port)[1].get(replays, 0.0)
        assert after - before == 3, f"{replays}: {before} -> {after}"
        print(f"[serve-smoke] experiment replays OK: {replays} {before:g} -> "
              f"{after:g}")

        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=60)
        stderr = proc.stderr.read()
        assert code == 0, f"exit code {code}: {stderr}"
        assert stderr.strip() == "", f"noisy shutdown:\n{stderr}"
        print("[serve-smoke] shutdown OK: exit 0, silent stderr")
        return 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
        access_log.unlink(missing_ok=True)


if __name__ == "__main__":
    sys.exit(main())
