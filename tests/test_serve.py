"""The serving tier: protocol, coalescing, experiment streams, the HTTP front.

End-to-end tests drive a real socket via the in-thread harness
(:func:`repro.serve.client.run_in_thread`); determinism tests pin the
serving contract -- streamed experiment cells arrive in grid order and
equal ``ExperimentResult.to_json()`` at any worker count, on the
server's own session and pool; N identical concurrent sweeps execute
exactly once; and admission overflow answers a structured 429.
"""

import asyncio
import json
import multiprocessing
import socket
import sys
import threading
import time

import pytest

from repro.core.experiment import Experiment
from repro.core.session import Session
from repro.obs.metrics import REGISTRY
from repro.serve.coalesce import RequestCoalescer
from repro.serve.protocol import (
    ServeError,
    request_key,
    validate_describe,
    validate_design_search,
    validate_experiment,
    validate_sweep,
)
from repro.serve.client import ServeHTTPError, run_in_thread


# ----------------------------------------------------------------------
# Protocol: normalization, defaults, canonical keys, structured errors.
# ----------------------------------------------------------------------
class TestProtocol:
    def test_describe_canonicalizes_spec(self):
        assert validate_describe({"spec": "sk 2 2 2"}) == {"spec": "sk(2,2,2)"}

    def test_sweep_fills_defaults_and_canonicalizes(self):
        normalized = validate_sweep({"spec": "pops 2 2"})
        assert normalized["spec"] == "pops(2,2)"
        assert normalized["trials"] == 100
        assert normalized["model"] == "coupler"
        assert normalized["faults"] == 1
        assert normalized["metrics"] == "full"
        assert normalized["backend"] == "auto"

    def test_equivalent_sweeps_share_a_key(self):
        loose = validate_sweep({"spec": "sk 2 2 2"})
        explicit = validate_sweep(
            {"spec": "sk(2,2,2)", "trials": 100, "seed": 0, "model": "coupler"}
        )
        assert request_key("sweep", loose) == request_key("sweep", explicit)

    def test_distinct_sweeps_never_share_a_key(self):
        base = validate_sweep({"spec": "sk(2,2,2)"})
        for field, value in [
            ("trials", 101), ("seed", 1), ("model", "processor"),
            ("metrics", "connectivity"), ("messages", 61),
        ]:
            other = validate_sweep({"spec": "sk(2,2,2)", field: value})
            assert request_key("sweep", base) != request_key("sweep", other)

    def test_unknown_field_rejected_with_allowed_list(self):
        with pytest.raises(ServeError) as err:
            validate_sweep({"spec": "pops(2,2)", "bogus": 1})
        assert err.value.code == "unknown_field"
        assert "trials" in err.value.details["allowed"]

    def test_invalid_spec_is_a_structured_error(self):
        with pytest.raises(ServeError) as err:
            validate_sweep({"spec": "nope(1)"})
        assert err.value.code == "invalid_spec"
        payload = err.value.payload()
        assert payload["error"]["code"] == "invalid_spec"

    def test_backend_metric_combos_rejected(self):
        with pytest.raises(ServeError):
            validate_sweep({"spec": "pops(2,2)", "backend": "vectorized"})
        with pytest.raises(ServeError) as err:
            validate_sweep(
                {"spec": "pops(2,2)", "backend": "legacy",
                 "metrics": "full"}
            )
        assert "unknown sweep backend" in str(err.value)
        assert err.value.details["known"] == ["auto", "batched", "vectorized"]

    def test_type_errors_rejected(self):
        with pytest.raises(ServeError):
            validate_sweep({"spec": "pops(2,2)", "trials": "many"})
        with pytest.raises(ServeError):
            validate_sweep({"spec": "pops(2,2)", "trials": True})
        with pytest.raises(ServeError):
            validate_sweep({"spec": "pops(2,2)", "trials": 0})
        with pytest.raises(ServeError):
            validate_sweep([1, 2])

    def test_design_search_normalizes_families(self):
        normalized = validate_design_search(
            {"max_processors": 8, "families": ["pops"]}
        )
        assert normalized["families"] == ["pops"]
        assert normalized["metrics"] == "connectivity"
        with pytest.raises(ServeError) as err:
            validate_design_search(
                {"max_processors": 8, "families": ["nope"]}
            )
        assert err.value.code == "invalid_family"

    def test_design_search_requires_max_processors(self):
        with pytest.raises(ServeError):
            validate_design_search({})

    def test_experiment_roundtrips_plan(self):
        experiment, normalized = validate_experiment(
            {"specs": ["pops 2 2"], "trials": 4}
        )
        assert normalized["stream"] is False
        assert normalized["specs"] == ["pops(2,2)"]
        assert Experiment.from_payload(experiment.to_payload()) == experiment

    def test_experiment_unknown_field_rejected(self):
        with pytest.raises(ServeError) as err:
            validate_experiment({"specs": ["pops(2,2)"], "bogus": 1})
        assert err.value.code == "invalid_experiment"

    @pytest.mark.parametrize(
        "fields",
        [
            {"model": "link", "sampling": "importance"},
            {"model": "adversarial", "sampling": "stratified"},
        ],
    )
    def test_sampling_needs_a_cardinality_model_at_the_door(self, fields):
        with pytest.raises(ServeError) as err:
            validate_sweep({"spec": "pops(2,2)", **fields})
        assert (err.value.status, err.value.code) == (400, "bad_request")
        assert "cardinality distribution" in str(err.value)
        with pytest.raises(ServeError) as err:
            validate_design_search({"max_processors": 8, **fields})
        assert (err.value.status, err.value.code) == (400, "bad_request")

    @pytest.mark.parametrize(
        "fields",
        [
            {"models": ["link:1"], "samplings": ["importance"]},
            {"messages": "x"},
            {"max_slots": 0},
            {"seed": "abc"},
            {"bound": -3},
        ],
    )
    def test_experiment_cell_values_rejected_at_the_door(self, fields):
        with pytest.raises(ServeError) as err:
            validate_experiment({"specs": ["pops(2,2)"], **fields})
        assert (err.value.status, err.value.code) == (400, "invalid_experiment")

    def test_sweep_errors_keep_their_codes_and_details(self):
        with pytest.raises(ServeError) as err:
            validate_sweep({"spec": "pops(2,2)", "model": "meteor"})
        assert err.value.code == "invalid_model"
        with pytest.raises(ServeError) as err:
            validate_sweep({"spec": "pops(2,2)", "metrics": "deep"})
        assert err.value.details == {
            "known": ["connectivity", "full", "paths"]
        }
        with pytest.raises(ServeError) as err:
            validate_sweep({"spec": "pops(2,2)", "sampling": "sobol"})
        assert err.value.details == {
            "known": ["uniform", "stratified", "importance"]
        }


# ----------------------------------------------------------------------
# Coalescer: single-flight semantics on a bare event loop.
# ----------------------------------------------------------------------
class TestCoalescer:
    def test_join_lead_resolve_cycle(self):
        async def scenario():
            c = RequestCoalescer()
            assert c.join("k") is None
            future = c.lead("k")
            followers = [c.join("k") for _ in range(3)]
            assert all(f is future for f in followers)
            c.resolve("k", future, result="answer")
            assert c.join("k") is None  # flight cleared
            results = [await f for f in followers]
            assert results == ["answer"] * 3
            assert c.stats() == {
                "leaders": 1, "followers": 3, "in_flight": 0,
            }

        asyncio.run(scenario())

    def test_double_lead_is_a_bug_not_a_duplicate(self):
        async def scenario():
            c = RequestCoalescer()
            c.lead("k")
            with pytest.raises(RuntimeError):
                c.lead("k")

        asyncio.run(scenario())

    def test_errors_propagate_to_every_follower(self):
        async def scenario():
            c = RequestCoalescer()
            future = c.lead("k")
            follower = c.join("k")
            c.resolve("k", future, error=ServeError("boom"))
            with pytest.raises(ServeError):
                await follower

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# Experiment streams: cells in grid order, on the session's executor.
# ----------------------------------------------------------------------
#: Frozen and fault-process cells in all three metrics modes.
MIXED_GRID = Experiment(
    specs=("pops(2,2)", "sk(2,2,2)"),
    models=("coupler:1", "coupler-renewal:1", "processor:2"),
    metrics=("connectivity", "paths", "full"),
    trials=(4, 9),
    seed=11,
)
#: sk(2,2,2) paths cells downgrade vectorized -> batched; a streamed
#: cell must carry the backend that ran.
DOWNGRADE_GRID = Experiment(
    specs=("sk(2,2,2)", "pops(2,2)"),
    metrics=("paths",),
    backend="vectorized",
    trials=(4,),
    seed=1,
)


def _trials_run() -> float:
    return sum(
        counter.value
        for counter in REGISTRY.series("repro_sweep_trials_total").values()
    )


class TestExperimentStream:
    @pytest.mark.parametrize("workers", [0, 2])
    @pytest.mark.parametrize(
        "experiment,backends",
        [(MIXED_GRID, None), (DOWNGRADE_GRID, ["batched", "vectorized"])],
    )
    def test_cells_stream_in_grid_order(self, workers, experiment, backends):
        with Session(workers=workers) as session:
            # each compiled pair run on its own: the cell in its place
            standalone = [
                experiment.cell_result(cell, session.run_sweep(spec, cell))
                for spec, cell in experiment.compile()
            ]
            streamed = list(session.iter_experiment(experiment))
            report = session.run_experiment(experiment)
        assert [c.as_dict() for c in streamed] == [
            c.as_dict() for c in standalone
        ]
        assert [c.as_dict() for c in streamed] == [
            c.as_dict() for c in report.cells
        ]
        assert report.to_json() == experiment.run(workers=0).to_json()
        if backends is not None:
            assert [c.backend for c in streamed] == backends

    @pytest.mark.parametrize("workers", [0, 2])
    def test_first_cell_arrives_alone(self, workers):
        # inline, the first step runs only the first cell; pooled, every
        # chunk is dispatched at once, but the first cell is released as
        # soon as its own chunks are in (chunk metrics merge on arrival)
        first_trials = MIXED_GRID.compile()[0][1].trials
        with Session(workers=workers) as session:
            cells = session.iter_experiment(MIXED_GRID)
            before = _trials_run()
            first = next(cells)
            assert _trials_run() - before == first_trials
            rest = list(cells)
        assert first.summary.trials == first_trials
        assert len(rest) == len(MIXED_GRID.compile()) - 1
        assert _trials_run() - before > first_trials

    def test_concurrent_streams_share_one_pool(self):
        # server threads iterate streams on one executor at once; each
        # stream must get exactly its own cells, in order
        with Session(workers=2) as session:
            expected = [
                c.as_dict() for c in session.iter_experiment(MIXED_GRID)
            ]
            results: dict[int, list] = {}

            def consume(i):
                results[i] = [
                    c.as_dict() for c in session.iter_experiment(MIXED_GRID)
                ]

            threads = [
                threading.Thread(target=consume, args=(i,)) for i in range(4)
            ]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(120)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            assert session.pools_started == 1
        assert [results[i] for i in range(4)] == [expected] * 4


# ----------------------------------------------------------------------
# The HTTP front, end to end over a real socket.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def server():
    with run_in_thread(concurrency=4, queue_depth=8, workers=0) as client:
        yield client


class TestHTTP:
    def test_healthz(self, server):
        payload = server.healthz()
        assert payload["ok"] is True
        assert payload["uptime_seconds"] >= 0
        assert payload["rss_bytes"] >= 0
        assert isinstance(payload["version"], str) and payload["version"]

    def test_describe(self, server):
        info = server.describe("pops 2 2")
        assert info["spec"] == "pops(2,2)"
        assert info["processors"] == 4

    def test_sweep_matches_direct_call(self, server):
        from repro import resilience_sweep

        body, _ = server.sweep(
            "sk(2,2,2)", trials=6, seed=2, metrics="connectivity"
        )
        direct = resilience_sweep(
            "sk(2,2,2)", trials=6, seed=2, metrics="connectivity", workers=0
        ).as_dict()
        assert body == json.loads(json.dumps(direct))

    def test_design_search_over_http(self, server):
        body, _ = server.design_search(
            max_processors=8, families=["pops", "sops"], trials=4
        )
        assert body["candidates"]

    def test_experiment_body_equals_report(self, server):
        plan = {"specs": ["pops(2,2)", "sk(2,2,2)"], "trials": [4], "seed": 5}
        body, _ = server.experiment(plan)
        report = Experiment.from_payload(plan).run(workers=0).to_json()
        assert json.dumps(body, indent=2, sort_keys=True) == report

    def test_experiment_stream_reconstructs_report(self, server):
        plan = {"specs": ["pops(2,2)", "sk(2,2,2)"], "trials": [4], "seed": 5}
        lines = list(server.stream_experiment(plan))
        assert lines[-1] == {"done": True, "cells": len(lines) - 2}
        single, _ = server.experiment(plan)
        assert lines[0] == {"experiment": {
            k: v for k, v in single.items() if k != "cells"
        }}
        assert [line["cell"] for line in lines[1:-1]] == single["cells"]
        assert [line["index"] for line in lines[1:-1]] == list(
            range(len(single["cells"]))
        )

    def test_stream_error_line_is_the_plain_error(self, server):
        # traffic a one-processor machine cannot carry: a 400 plain, and
        # the same structured error as the stream's last line
        plan = {"specs": ["pops(1,1)"], "metrics": ["full"], "trials": [2]}
        with pytest.raises(ServeHTTPError) as err:
            server.experiment(plan)
        assert (err.value.status, err.value.code) == (400, "bad_request")
        lines = list(server.stream_experiment(plan))
        assert len(lines) == 2
        assert lines[-1] == err.value.payload

    @pytest.mark.parametrize("value", ["false", "yes", [1], 1, 0, None, {}])
    def test_stream_must_be_a_boolean(self, server, value):
        plan = {"specs": ["pops(2,2)"], "trials": [2], "stream": value}
        with pytest.raises(ServeHTTPError) as err:
            server.post("experiment", plan)
        assert (err.value.status, err.value.code) == (400, "bad_request")
        assert "stream" in str(err.value)

    @pytest.mark.parametrize("stream", [False, True])
    def test_shards_is_an_unknown_field(self, server, stream):
        plan = {"specs": ["pops(2,2)"], "trials": [2], "shards": 2}
        with pytest.raises(ServeHTTPError) as err:
            if stream:
                list(server.stream_experiment(plan))
            else:
                server.experiment(plan)
        assert (err.value.status, err.value.code) == (
            400, "invalid_experiment"
        )
        assert "unknown experiment field(s): shards" in str(err.value)

    def test_concurrent_identical_sweeps_execute_once(
        self, server, monkeypatch
    ):
        before = server.stats()["coalescer"]
        session, coalescer = server.server.session, server.server.coalescer
        run_sweep = session.resilience_sweep

        def gated(*args, **kwargs):
            # the leader runs only once all 7 duplicates have joined it
            deadline = time.monotonic() + 30
            while (
                coalescer.stats()["followers"] < before["followers"] + 7
                and time.monotonic() < deadline
            ):
                time.sleep(0.005)
            return run_sweep(*args, **kwargs)

        monkeypatch.setattr(session, "resilience_sweep", gated)
        results = []

        def fire():
            # batched keeps the leader busy long enough (~0.3 s, against
            # ~10 ms on the vectorized kernel) for every duplicate to
            # arrive while it is in flight
            results.append(
                server.sweep(
                    "sk(2,2,2)", trials=1600, seed=99, metrics="connectivity",
                    backend="batched",
                )
            )

        threads = [threading.Thread(target=fire) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        roles = sorted(role for _, role in results)
        assert roles.count("leader") == 1
        assert roles.count("follower") == 7
        bodies = {json.dumps(body, sort_keys=True) for body, _ in results}
        assert len(bodies) == 1
        after = server.stats()["coalescer"]
        assert after["leaders"] - before["leaders"] == 1
        assert after["followers"] - before["followers"] == 7

    @pytest.mark.parametrize(
        "verb,payload,code",
        [
            ("sweep",
             {"spec": "pops(2,2)", "model": "link", "sampling": "importance"},
             "bad_request"),
            ("design-search",
             {"max_processors": 8, "model": "link", "sampling": "importance"},
             "bad_request"),
            ("experiment",
             {"specs": ["pops(2,2)"], "models": ["link:1"],
              "samplings": ["importance"]},
             "invalid_experiment"),
            ("experiment", {"specs": ["pops(2,2)"], "messages": "x"},
             "invalid_experiment"),
            ("experiment", {"specs": ["pops(2,2)"], "max_slots": 0},
             "invalid_experiment"),
            # checks that need the built machine: the stratified trial
            # floor, and a full-mode workload that does not exist
            ("sweep",
             {"spec": "pops(2,2)", "model": "bernoulli", "faults": 2,
              "sampling": "stratified", "trials": 1,
              "metrics": "connectivity"},
             "bad_request"),
            ("sweep", {"spec": "pops(2,2)", "workload": "nope"},
             "bad_request"),
        ],
    )
    def test_caller_mistakes_are_structured_400s(
        self, server, verb, payload, code
    ):
        with pytest.raises(ServeHTTPError) as err:
            server.post(verb, payload)
        assert (err.value.status, err.value.code) == (400, code)

    def test_bad_spec_maps_to_400(self, server):
        with pytest.raises(ServeHTTPError) as err:
            server.describe("nope(1)")
        assert err.value.status == 400
        assert err.value.code == "invalid_spec"

    def test_unknown_endpoint_404(self, server):
        with pytest.raises(ServeHTTPError) as err:
            server.get("/nope")
        assert err.value.status == 404

    def test_wrong_method_405(self, server):
        with pytest.raises(ServeHTTPError) as err:
            server.post("../healthz", {})
        assert err.value.status in (404, 405)
        with pytest.raises(ServeHTTPError) as err:
            server._request("GET", "/v1/sweep")
        assert err.value.status == 405

    def test_malformed_json_400(self, server):
        import http.client

        conn = http.client.HTTPConnection(
            server.host, server.port, timeout=30
        )
        try:
            conn.request(
                "POST", "/v1/sweep", body="{not json",
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            payload = json.loads(response.read())
            assert response.status == 400
            assert payload["error"]["code"] == "bad_request"
        finally:
            conn.close()

    @pytest.mark.parametrize(
        "declared", [b"abc", b"-1", b"+5", b"1e3", b"", b"\xb2"]
    )
    def test_malformed_content_length_400(self, server, declared):
        body = b'{"spec": "pops(2,2)"}'
        with socket.create_connection((server.host, server.port), 30) as sock:
            sock.sendall(
                b"POST /v1/describe HTTP/1.1\r\nHost: test\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: " + declared + b"\r\n\r\n" + body
            )
            received = b""
            while chunk := sock.recv(65536):
                received += chunk
        head, _, payload = received.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        error = json.loads(payload)["error"]
        assert error["code"] == "bad_request"
        assert "Content-Length" in error["message"]
        # the server keeps answering
        assert server.describe("pops 2 2")["processors"] == 4

    def test_stats_shape(self, server):
        stats = server.stats()
        assert set(stats) >= {
            "admission", "coalescer", "cache", "pools_started",
            "requests_served", "latency", "uptime_seconds", "rss_bytes",
            "version",
        }
        assert stats["admission"]["capacity"] == 12
        assert "candidate_hits" in stats["cache"]
        assert "shards" not in stats


def test_streamed_experiment_runs_on_the_session_pool():
    plan = {"specs": ["pops(2,2)", "sk(2,2,2)"],
            "metrics": ["connectivity", "full"], "trials": [4], "seed": 3}
    outside = {p.pid for p in multiprocessing.active_children()}

    def children():
        return {p.pid for p in multiprocessing.active_children()} - outside

    with run_in_thread(workers=2) as client:
        client.sweep("pops(2,2)", trials=8, metrics="connectivity")
        pool = children()
        assert len(pool) == 2
        streams = []
        for _ in range(2):
            hits = client.stats()["cache"]["hits"]
            lines = []
            for line in client.stream_experiment(plan):
                lines.append(line)
                assert children() == pool
            stats = client.stats()
            assert stats["pools_started"] == 1
            assert stats["cache"]["hits"] > hits
            streams.append(lines)
        body, _ = client.experiment(plan)
        assert children() == pool
    assert streams[0] == streams[1]
    assert [line["cell"] for line in streams[0][1:-1]] == body["cells"]


def test_hung_up_stream_stops_at_the_next_cell():
    # six ~0.2 s full cells; the client reads the header line and hangs
    # up: the cell in flight finishes, no later cell runs, and the
    # admission slot comes back (a pump that runs on for nobody fails
    # the trial count: all six cells' trials)
    grid = Experiment(
        specs=("sk(2,2,2)",),
        models=("coupler:1", "coupler:2", "processor:1", "processor:2",
                "link:1", "link:2"),
        metrics=("full",),
        trials=(300,),
        seed=5,
    )
    cell_trials = [cell.trials for _, cell in grid.compile()]
    body = json.dumps({**grid.to_payload(), "stream": True}).encode()
    with run_in_thread(workers=0) as client:
        admission = client.server.admission
        before = _trials_run()
        with socket.create_connection((client.host, client.port), 30) as sock:
            sock.sendall(
                b"POST /v1/experiment HTTP/1.1\r\nHost: test\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body) + body
            )
            received = b""
            while b"\n" not in received.partition(b"\r\n\r\n")[2]:
                chunk = sock.recv(65536)
                assert chunk, "server closed before the header line"
                received += chunk
        assert b'{"experiment"' in received
        deadline = time.monotonic() + 30
        while admission.stats()["active"] and time.monotonic() < deadline:
            time.sleep(0.01)
        assert admission.stats()["active"] == 0
        ran = _trials_run() - before
    assert 0 < ran <= sum(cell_trials[:2]) < sum(cell_trials)


def test_serve_shards_flag_is_gone(monkeypatch):
    from repro.__main__ import main

    monkeypatch.setattr(
        "repro.serve.app.run_server", lambda **kwargs: None
    )
    with pytest.raises(SystemExit) as exc:
        main(["serve", "--port", "0", "--shards", "2"])
    assert exc.value.code == 2


class TestObservability:
    """``/metrics``, request ids, access logs, latency summaries."""

    def test_metrics_exposition_schema(self, server):
        server.healthz()  # at least one finished request to count
        body, headers = server.get_text("/metrics")
        assert headers["Content-Type"].startswith(
            "text/plain; version=0.0.4"
        )
        typed: dict[str, str] = {}
        for line in body.splitlines():
            if line.startswith("# TYPE"):
                _, _, name, kind = line.split()
                typed[name] = kind
            elif line and not line.startswith("#"):
                float(line.rsplit(" ", 1)[1])  # lines end in a number
        assert typed["repro_http_requests_total"] == "counter"
        assert typed["repro_http_request_seconds"] == "histogram"
        assert typed["repro_admission_active"] == "gauge"
        assert typed["repro_build_info"] == "gauge"
        # histogram expansion: cumulative buckets ending at +Inf
        buckets = [
            ln for ln in body.splitlines()
            if ln.startswith("repro_http_request_seconds_bucket")
        ]
        assert buckets and 'le="+Inf"' in buckets[-1]

    def test_metrics_count_requests_by_endpoint(self, server):
        before = server.metrics()
        server.healthz()
        server.healthz()
        after = server.metrics()

        def count(text):
            for line in text.splitlines():
                if line.startswith("repro_http_requests_total") and (
                    'endpoint="/healthz"' in line
                ):
                    return float(line.rsplit(" ", 1)[1])
            return 0.0

        assert count(after) >= count(before) + 2

    def test_unknown_target_collapses_to_other(self, server):
        with pytest.raises(ServeHTTPError):
            server.get("/no/such/path")
        body = server.metrics()
        assert 'endpoint="other"' in body

    def test_request_id_header_on_every_response(self, server):
        _, headers = server.get_text("/metrics")
        rid = headers["X-Repro-Request-Id"]
        assert len(rid) == 16 and int(rid, 16) >= 0
        _, headers2 = server.get_text("/metrics")
        assert headers2["X-Repro-Request-Id"] != rid

    def test_latency_summary_appears_in_stats(self, server):
        server.healthz()
        latency = server.stats()["latency"]
        assert "/healthz" in latency
        summary = latency["/healthz"]
        assert summary["count"] >= 1
        assert set(summary) == {"count", "sum", "mean", "p50", "p95", "p99"}

    def test_access_log_lines(self):
        import io

        sink = io.StringIO()
        with run_in_thread(workers=0, access_log=sink) as client:
            client.healthz()
            client.describe("pops(2,2)")
        lines = [
            json.loads(ln) for ln in sink.getvalue().strip().splitlines()
        ]
        assert [rec["target"] for rec in lines] == [
            "/healthz", "/v1/describe",
        ]
        for rec in lines:
            assert rec["status"] == 200
            assert rec["duration_ms"] >= 0
            assert len(rec["request_id"]) == 16
        assert lines[1]["coalesced"] == "leader"


class TestAdmissionControl:
    def test_overflow_rejected_with_structured_429(self):
        """Saturate a 1+1 server with blocked work: 3rd request -> 429."""
        with run_in_thread(concurrency=1, queue_depth=1, workers=0) as client:
            release = threading.Event()
            started = threading.Event()

            def blocked(_spec):
                started.set()
                release.wait(30)
                return {"ok": True}

            client.server.session.describe = blocked
            try:
                outcomes = []

                def fire(spec):
                    try:
                        outcomes.append(("ok", client.describe(spec)))
                    except ServeHTTPError as exc:
                        outcomes.append(("err", exc))

                first = threading.Thread(target=fire, args=("pops(2,2)",))
                first.start()
                assert started.wait(30)
                second = threading.Thread(target=fire, args=("sk(2,2,2)",))
                second.start()
                # distinct specs -> no coalescing; slot 2 of 2 is taken.
                deadline = time.monotonic() + 30
                while (
                    client.server.admission.active < 2
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.02)
                assert client.server.admission.active == 2
                with pytest.raises(ServeHTTPError) as err:
                    client.describe("sops(4)")
                assert err.value.status == 429
                assert err.value.code == "overloaded"
                assert err.value.payload["error"]["details"]["capacity"] == 2
            finally:
                release.set()
                first.join(30)
                second.join(30)
            assert client.stats()["admission"]["rejected"] >= 1

    def test_followers_bypass_admission(self):
        """Duplicates of a full server's in-flight request still succeed."""
        with run_in_thread(concurrency=1, queue_depth=0, workers=0) as client:
            release = threading.Event()
            started = threading.Event()

            def blocked(_spec):
                started.set()
                release.wait(30)
                return {"spec": "pops(2,2)"}

            client.server.session.describe = blocked
            results = []

            def fire():
                results.append(client.describe("pops(2,2)"))

            threads = [threading.Thread(target=fire) for _ in range(3)]
            threads[0].start()
            assert started.wait(30)
            for t in threads[1:]:
                t.start()
            # all three target the SAME key: 2 followers join the one
            # admitted flight even though capacity (1) is exhausted.
            deadline = time.monotonic() + 30
            while (
                client.server.coalescer.stats()["followers"] < 2
                and time.monotonic() < deadline
            ):
                time.sleep(0.02)
            assert client.server.coalescer.stats()["followers"] == 2
            release.set()
            for t in threads:
                t.join(30)
            assert len(results) == 3
            assert client.server.admission.rejected == 0


def test_a_dead_worker_is_a_503_and_a_stream_error_line(kill_a_worker):
    # a SIGKILLed pool worker mid-request: a structured 503 plain, the
    # same error as a stream's last line, and the next request runs on
    # a fresh pool
    with run_in_thread(workers=2) as client:
        executor = client.server.session._executor_for(2)
        outcome = {}

        def call(name, run, trials):
            try:
                outcome[name] = run(trials)
            except ServeHTTPError as exc:
                outcome[name] = exc

        runs = {
            "plain": lambda trials: client.sweep(
                "sk(6,3,2)", faults=2, trials=trials, seed=1
            ),
            "stream": lambda trials: list(client.stream_experiment(
                {"specs": ["sk(6,3,2)"], "models": ["coupler:2"],
                 "metrics": ["full"], "trials": [trials], "seed": 1}
            )),
        }
        for name, run in runs.items():
            # 0.5 s into 20,000 trials; a host that finishes those first
            # gets 200,000
            for trials in (20_000, 200_000):
                thread = threading.Thread(
                    target=call, args=(name, run, trials), daemon=True
                )
                thread.start()
                killed = kill_a_worker(executor, running=thread.is_alive)
                thread.join(10)
                assert not thread.is_alive(), f"{name}: no answer 10 s after a worker died"
                if killed:
                    break
        plain, stream = outcome["plain"], outcome["stream"]
        assert (plain.status, plain.code) == (503, "worker_died"), plain
        assert "sk(6,3,2)" in str(plain)
        assert stream[-1]["error"]["code"] == "worker_died", stream
        result, _ = client.sweep("sk(6,3,2)", faults=2, trials=8, seed=1)
        assert result["trials"] == 8
