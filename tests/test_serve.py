"""The serving tier: protocol, coalescing, sharding, and the HTTP front.

End-to-end tests drive a real socket via the in-thread harness
(:func:`repro.serve.client.run_in_thread`); determinism tests pin the
ISSUE's acceptance bar -- sharded experiment output byte-identical to
single-host ``ExperimentResult.to_json()`` at any shard count, N
identical concurrent sweeps executing exactly once, and admission
overflow answering a structured 429.
"""

import asyncio
import json
import threading
import time

import pytest

from repro.core.experiment import Experiment
from repro.serve.coalesce import RequestCoalescer
from repro.serve.protocol import (
    ServeError,
    request_key,
    validate_describe,
    validate_design_search,
    validate_experiment,
    validate_sweep,
)
from repro.serve.shard import (
    iter_sharded_cells,
    partition_indices,
    run_sharded_experiment,
    sharded_to_json,
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
        assert normalized["backend"] == "batched"

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
        assert err.value.details["known"] == ["batched", "vectorized"]

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
            {"specs": ["pops 2 2"], "trials": 4, "shards": 2}
        )
        assert normalized["shards"] == 2
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
# Sharding: deterministic partition and byte-identical merges.
# ----------------------------------------------------------------------
class TestSharding:
    def test_partition_round_robin_covers_everything(self):
        parts = partition_indices(7, 3)
        assert parts == [[0, 3, 6], [1, 4], [2, 5]]
        assert sorted(i for p in parts for i in p) == list(range(7))

    def test_partition_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            partition_indices(4, 0)

    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_sharded_merge_byte_identical(self, shards):
        experiment = Experiment(
            specs=("pops(2,2)", "sk(2,2,2)"),
            models=("coupler:1",),
            metrics=("connectivity", "full"),
            trials=(4,),
            seed=11,
        )
        single = experiment.run(workers=0).to_json()
        merged = run_sharded_experiment(experiment, shards=shards)
        assert sharded_to_json(merged) == single

    @pytest.mark.parametrize("shards", [1, 2])
    def test_shards_record_the_executed_backend(self, shards):
        # sk(2,2,2) paths cells downgrade vectorized -> batched; a shard
        # must label them with the backend that ran, as single-host does
        experiment = Experiment(
            specs=("sk(2,2,2)", "pops(2,2)"),
            metrics=("paths",),
            backend="vectorized",
            trials=(4,),
            seed=1,
        )
        single = experiment.run(workers=0).to_json()
        merged = run_sharded_experiment(experiment, shards=shards)
        assert sharded_to_json(merged) == single
        assert [c["backend"] for c in merged["cells"]] == [
            "batched", "vectorized"
        ]

    def test_cells_stream_in_index_order(self):
        experiment = Experiment(
            specs=("pops(2,2)", "sk(2,2,2)"), trials=(2, 4), seed=1
        )
        indices = [
            i for i, _ in iter_sharded_cells(experiment, shards=2)
        ]
        assert indices == list(range(len(experiment.compile())))

    def test_shards_capped_at_cell_count(self):
        experiment = Experiment(specs=("pops(2,2)",), trials=4)
        merged = run_sharded_experiment(experiment, shards=16)
        assert sharded_to_json(merged) == experiment.run(workers=0).to_json()


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

    def test_experiment_single_vs_sharded_identical(self, server):
        plan = {"specs": ["pops(2,2)", "sk(2,2,2)"], "trials": [4], "seed": 5}
        single, _ = server.experiment({**plan, "shards": 0})
        sharded, _ = server.experiment({**plan, "shards": 2})
        assert json.dumps(single, sort_keys=True) == json.dumps(
            sharded, sort_keys=True
        )

    def test_experiment_stream_reconstructs_report(self, server):
        plan = {"specs": ["pops(2,2)", "sk(2,2,2)"], "trials": [4], "seed": 5}
        lines = list(server.stream_experiment({**plan, "shards": 2}))
        assert lines[-1]["done"] is True
        single, _ = server.experiment({**plan, "shards": 0})
        assert [line["cell"] for line in lines[1:-1]] == single["cells"]
        assert [line["index"] for line in lines[1:-1]] == list(
            range(len(single["cells"]))
        )

    def test_concurrent_identical_sweeps_execute_once(self, server):
        before = server.stats()["coalescer"]
        results = []

        def fire():
            results.append(
                server.sweep(
                    "sk(2,2,2)", trials=400, seed=99, metrics="connectivity"
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

    def test_stats_shape(self, server):
        stats = server.stats()
        assert set(stats) >= {
            "admission", "coalescer", "cache", "pools_started",
            "requests_served", "latency", "uptime_seconds", "rss_bytes",
            "version",
        }
        assert stats["admission"]["capacity"] == 12
        assert "candidate_hits" in stats["cache"]


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
