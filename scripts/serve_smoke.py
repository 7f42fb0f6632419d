"""CI smoke test for the serving tier, against a real server process.

Boots ``python -m repro serve`` as a subprocess, then asserts the two
serving-tier guarantees end to end over the wire:

1. **Coalescing** -- N identical concurrent sweep requests produce one
   leader, N-1 followers, identical bodies, and ``/stats`` counters
   agreeing (exactly one execution happened).
2. **Sharded determinism** -- an experiment run with ``shards=2`` and
   ``shards=3`` is byte-identical to the single-host run.
3. **Observability** -- ``/metrics`` serves parseable Prometheus text
   exposition with the expected families, every response carries an
   ``X-Repro-Request-Id``, and ``--access-log`` writes one JSON line
   per request.
4. **Error paths** -- caller mistakes (importance sampling on the
   ``link`` fault model, a temporal ``curve_points`` above 512) answer
   a structured 400 with their request id, never a ``500 internal``.

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


def scrape_metrics(port: int) -> dict[str, str]:
    """GET /metrics; validate the exposition; return name -> kind."""
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}/metrics", timeout=30
    ) as response:
        content_type = response.headers.get("Content-Type", "")
        request_id = response.headers.get("X-Repro-Request-Id", "")
        body = response.read().decode("utf-8")
    assert content_type.startswith("text/plain; version=0.0.4"), content_type
    assert len(request_id) == 16, f"bad request id {request_id!r}"
    kinds: dict[str, str] = {}
    for line in body.splitlines():
        if line.startswith("# TYPE"):
            _, _, name, kind = line.split()
            kinds[name] = kind
        elif line.startswith("# HELP") or not line.strip():
            continue
        else:  # every sample line must be "name[{labels}] number"
            sample, _, value = line.rpartition(" ")
            assert sample, f"malformed sample line {line!r}"
            float(value)
    return kinds


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
        sweep = {"spec": "sk(2,2,2)", "trials": 500, "seed": 42,
                 "metrics": "connectivity"}
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

        # 2. sharded experiment byte-identical to single-host
        plan = {"specs": ["pops(2,2)", "sk(2,2,2)"],
                "metrics": ["connectivity", "full"],
                "trials": [4], "seed": 7}
        single, _ = post(port, "experiment", {**plan, "shards": 0})
        for shards in (2, 3):
            sharded, _ = post(port, "experiment", {**plan, "shards": shards})
            assert json.dumps(sharded, sort_keys=True) == json.dumps(
                single, sort_keys=True
            ), f"shards={shards} diverged from single-host"
        print("[serve-smoke] sharding OK: shards 2 and 3 == single-host")

        # 3. observability: /metrics exposition + access log
        kinds = scrape_metrics(port)
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
        for verb, payload, words in (
            ("sweep", {"spec": "pops(2,2)", "model": "link",
                       "sampling": "importance"}, "cardinality distribution"),
            ("temporal", {"spec": "pops(2,2)", "curve_points": 1000},
             "curve_points"),
        ):
            status, request_id, error = rejected(port, verb, payload)
            assert status == 400, (status, error)
            assert error["code"] == "bad_request", error
            assert words in error["message"], error
            assert len(request_id) == 16, f"bad request id {request_id!r}"
            print(f"[serve-smoke] {verb} error path OK: 400 {error['code']}")

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
