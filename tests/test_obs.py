"""The observability layer: metrics, tracing, logs, and its invariants.

The load-bearing guarantees pinned here:

* the registry's merge is commutative (worker deltas join in any
  order), histogram quantiles are deterministic, and the Prometheus
  exposition follows the text format 0.0.4 (cumulative ``_bucket``
  lines with ``+Inf`` last, ``_sum``/``_count``, escaped labels);
* tracing is a strict side channel -- sweep, design-search and
  experiment results are byte-identical with tracing on or off, at
  any worker count, streamed or not;
* worker subprocesses ship their metrics home: parent-side totals
  count every trial regardless of how the chunks were distributed.
"""

import io
import json

import pytest

from repro.core.session import Session
from repro.obs.logging import AccessLogger, new_request_id
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
    REGISTRY,
)
from repro.obs.process import process_info
from repro.obs.trace import (
    Tracer,
    add_complete_event,
    disable_tracing,
    enable_tracing,
    span,
    tracing_enabled,
)


@pytest.fixture(autouse=True)
def _clean_observability():
    """Each test starts with no tracer and an empty global registry."""
    disable_tracing()
    REGISTRY.reset()
    yield
    disable_tracing()
    REGISTRY.reset()


# ----------------------------------------------------------------------
# MetricsRegistry: instruments, snapshots, merge semantics.
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_accumulates_and_rejects_negative(self):
        r = MetricsRegistry()
        r.counter("jobs_total", "jobs").inc()
        r.counter("jobs_total").inc(2)
        assert r.counter("jobs_total").value == 3
        with pytest.raises(ValueError, match="only go up"):
            r.counter("jobs_total").inc(-1)

    def test_gauge_set_and_merge_max(self):
        r = MetricsRegistry()
        g = r.gauge("depth", "queue depth")
        g.set(4)
        g.merge_max(2)
        assert g.value == 4
        g.merge_max(9)
        assert g.value == 9

    def test_labels_distinguish_series(self):
        r = MetricsRegistry()
        r.counter("ops", "", {"outcome": "hit"}).inc(5)
        r.counter("ops", "", {"outcome": "miss"}).inc(1)
        series = r.series("ops")
        assert series[(("outcome", "hit"),)].value == 5
        assert series[(("outcome", "miss"),)].value == 1

    def test_kind_conflict_raises(self):
        r = MetricsRegistry()
        r.counter("x", "a counter").inc()
        with pytest.raises(ValueError, match="is a counter"):
            r.gauge("x")

    def test_merge_is_commutative(self):
        def build(n):
            r = MetricsRegistry()
            r.counter("c", "h").inc(n)
            r.gauge("g", "h").set(n)
            r.histogram("h", "h").observe(n / 4)  # exact binary floats
            return r.snapshot()

        snaps = [build(n) for n in (1, 2, 3)]
        forward, backward = MetricsRegistry(), MetricsRegistry()
        for snap in snaps:
            forward.merge(snap)
        for snap in reversed(snaps):
            backward.merge(snap)
        assert forward.snapshot() == backward.snapshot()
        assert forward.counter("c").value == 6
        assert forward.gauge("g").value == 3  # gauges merge by max
        assert forward.histogram("h").summary()["count"] == 3

    def test_drain_resets(self):
        r = MetricsRegistry()
        r.counter("c", "h").inc(7)
        snap = r.drain()
        assert snap["c"]["series"][0][1] == 7
        assert r.snapshot() == {}

    def test_snapshot_roundtrip_is_json_safe(self):
        r = MetricsRegistry()
        r.counter("c", "h", {"k": "v"}).inc(2)
        r.histogram("h", "h").observe(0.3)
        snap = json.loads(json.dumps(r.snapshot()))
        other = MetricsRegistry()
        other.merge(snap)
        assert other.snapshot() == r.snapshot()


class TestHistogram:
    def test_bucket_edges_are_inclusive(self):
        h = Histogram(buckets=(1.0, 2.0))
        h.observe(1.0)  # lands in the first bucket (le="1")
        counts, _, _ = h.state()
        assert counts == [1, 0, 0]

    def test_quantiles_are_order_independent(self):
        values = [0.004, 0.09, 0.004, 2.0, 0.03]
        a, b = Histogram(), Histogram()
        for v in values:
            a.observe(v)
        for v in reversed(values):
            b.observe(v)
        assert a.summary() == b.summary()
        assert a.summary()["count"] == 5

    def test_quantile_interpolates_within_bucket(self):
        h = Histogram(buckets=(1.0, 2.0))
        for _ in range(4):
            h.observe(1.5)  # all in (1.0, 2.0]
        # rank q*4 sits inside the second bucket; linear interpolation
        assert h.quantile(0.5) == pytest.approx(1.5)
        assert h.quantile(1.0) == pytest.approx(2.0)

    def test_inf_bucket_reports_last_finite_bound(self):
        h = Histogram(buckets=(1.0,))
        h.observe(50.0)
        assert h.quantile(0.99) == pytest.approx(1.0)

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError, match="ascending"):
            Histogram(buckets=(2.0, 1.0))

    def test_merge_rejects_mismatched_buckets(self):
        h = Histogram(buckets=(1.0, 2.0))
        with pytest.raises(ValueError, match="merge"):
            h.merge_counts([1, 0], 0.5, 1)


# ----------------------------------------------------------------------
# Prometheus text exposition: the golden schema.
# ----------------------------------------------------------------------
class TestPrometheusExposition:
    def test_counter_and_gauge_lines(self):
        r = MetricsRegistry()
        r.counter("jobs_total", "jobs run", {"kind": "fast"}).inc(3)
        r.gauge("depth", "queue depth").set(2.5)
        text = r.render_prometheus()
        assert "# HELP jobs_total jobs run\n" in text
        assert "# TYPE jobs_total counter\n" in text
        assert 'jobs_total{kind="fast"} 3\n' in text
        assert "# TYPE depth gauge\n" in text
        assert "depth 2.5\n" in text

    def test_histogram_expands_cumulative_with_inf_last(self):
        r = MetricsRegistry()
        h = r.histogram("lat", "latency", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)
        lines = r.render_prometheus().splitlines()
        buckets = [ln for ln in lines if ln.startswith("lat_bucket")]
        assert buckets == [
            'lat_bucket{le="0.1"} 1',
            'lat_bucket{le="1"} 2',
            'lat_bucket{le="+Inf"} 3',
        ]
        assert "lat_sum 5.55" in lines
        assert "lat_count 3" in lines

    def test_label_values_are_escaped(self):
        r = MetricsRegistry()
        r.counter("c", "h", {"spec": 'a"b\\c\nd'}).inc()
        text = r.render_prometheus()
        assert 'c{spec="a\\"b\\\\c\\nd"} 1' in text

    def test_every_sample_line_parses(self):
        r = MetricsRegistry()
        r.counter("a_total", "h", {"x": "1"}).inc(2)
        r.histogram("b_seconds", "h").observe(0.2)
        r.gauge("c", "h").set(7)
        for line in r.render_prometheus().splitlines():
            if line.startswith("#") or not line:
                continue
            name_part, value = line.rsplit(" ", 1)
            float(value)  # parses as a number
            assert name_part[0].isalpha()

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""


# ----------------------------------------------------------------------
# Tracing: spans, exports, the disabled fast path.
# ----------------------------------------------------------------------
class TestTracing:
    def test_disabled_span_is_shared_noop(self):
        assert not tracing_enabled()
        assert span("anything") is span("something-else")

    def test_span_records_complete_event(self):
        tracer = enable_tracing()
        with span("phase.one", detail="x"):
            pass
        add_complete_event("shipped", 100, 50, args={"n": 1}, pid=7, tid=0)
        events = disable_tracing().events()
        assert [e["name"] for e in events] == ["shipped", "phase.one"]
        shipped = events[0]
        assert (shipped["ts"], shipped["dur"]) == (100, 50)
        assert (shipped["pid"], shipped["tid"]) == (7, 0)
        assert all(e["ph"] == "X" for e in events)
        assert tracer is not None

    def test_chrome_export_schema(self, tmp_path):
        tracer = Tracer()
        tracer.add_complete("a", 10, 5, args={"k": "v"})
        path = tmp_path / "trace.json"
        tracer.export_chrome(str(path))
        payload = json.loads(path.read_text())
        assert payload["displayTimeUnit"] == "ms"
        (event,) = payload["traceEvents"]
        assert set(event) == {"name", "ph", "ts", "dur", "pid", "tid", "args"}

    def test_ndjson_export(self, tmp_path):
        tracer = Tracer()
        tracer.add_complete("b", 20, 1)
        tracer.add_complete("a", 10, 1)
        path = tmp_path / "trace.ndjson"
        tracer.export_ndjson(str(path))
        lines = [json.loads(ln) for ln in path.read_text().splitlines()]
        assert [e["name"] for e in lines] == ["a", "b"]  # start-time order

    def test_negative_duration_clamped(self):
        tracer = Tracer()
        tracer.add_complete("x", 10, -5)
        assert tracer.events()[0]["dur"] == 0


# ----------------------------------------------------------------------
# Access logs and process facts.
# ----------------------------------------------------------------------
class TestLoggingAndProcess:
    def test_request_ids_are_unique_hex(self):
        ids = {new_request_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(len(i) == 16 and int(i, 16) >= 0 for i in ids)

    def test_access_logger_emits_sorted_json_lines(self):
        sink = io.StringIO()
        logger = AccessLogger(sink)
        logger.log(status=200, method="GET", target="/healthz")
        line = sink.getvalue()
        assert line.endswith("\n")
        assert json.loads(line) == {
            "method": "GET", "status": 200, "target": "/healthz",
        }
        assert line.index('"method"') < line.index('"status"')

    def test_access_logger_appends_to_path(self, tmp_path):
        path = tmp_path / "access.log"
        logger = AccessLogger(str(path))
        logger.log(a=1)
        logger.close()
        logger = AccessLogger(str(path))
        logger.log(a=2)
        logger.close()
        lines = path.read_text().splitlines()
        assert [json.loads(ln)["a"] for ln in lines] == [1, 2]

    def test_process_info_keys(self):
        info = process_info()
        assert info["uptime_seconds"] >= 0
        assert info["rss_bytes"] >= 0
        assert isinstance(info["version"], str) and info["version"]


# ----------------------------------------------------------------------
# The hard constraint: instrumentation is a timing side channel only.
# ----------------------------------------------------------------------
class TestByteIdentity:
    @pytest.mark.parametrize("workers", [0, 1, 2, 4])
    def test_sweep_identical_with_tracing_on_and_off(self, workers):
        def run():
            with Session(workers=workers) as session:
                return session.resilience_sweep(
                    "sk(2,2,2)", trials=32, seed=3, backend="batched"
                ).to_json()

        plain = run()
        enable_tracing()
        try:
            traced = run()
        finally:
            tracer = disable_tracing()
        assert traced == plain
        assert len(tracer) > 0  # spans actually recorded

    def test_vectorized_sweep_identical_under_tracing(self):
        def run():
            with Session(workers=2) as session:
                return session.resilience_sweep(
                    "pops(4,2)",
                    trials=64,
                    seed=1,
                    metrics="connectivity",
                    backend="vectorized",
                ).to_json()

        plain = run()
        enable_tracing()
        try:
            traced = run()
        finally:
            disable_tracing()
        assert traced == plain

    def test_experiment_identical_across_workers_streams_and_tracing(self):
        from repro.core.experiment import Experiment, ExperimentResult

        exp = Experiment(specs=("pops(2,2)", "sk(2,2,2)"), trials=8)
        single = exp.run(workers=0).to_json()
        enable_tracing()
        try:
            with Session(workers=2) as session:
                pooled = session.run_experiment(exp).to_json()
                streamed = ExperimentResult(
                    exp, tuple(session.iter_experiment(exp))
                ).to_json()
        finally:
            disable_tracing()
        assert pooled == streamed == single

    def test_abandoned_pooled_stream_records_every_execute_span(self):
        from repro.core.experiment import Experiment

        exp = Experiment(
            specs=("pops(2,2)", "sk(2,2,2)"),
            models=("coupler:1", "coupler-renewal:1"),
            metrics=("connectivity",),
            trials=(8,),
        )
        tracer = enable_tracing()
        try:
            with Session(workers=2) as session:
                cells = session.iter_experiment(exp)
                next(cells)
                cells.close()
        finally:
            disable_tracing()
        names = [event["name"] for event in tracer.events()]
        assert names.count("sweep.execute") == 2
        assert names.count("temporal.execute") == 2

    def test_worker_metrics_account_for_every_trial(self):
        REGISTRY.reset()
        with Session(workers=2) as session:
            session.resilience_sweep(
                "sk(2,2,2)", trials=48, seed=0, backend="batched"
            )
        series = REGISTRY.series("repro_sweep_trials_total")
        total = sum(counter.value for counter in series.values())
        assert total == 48
        chunk_series = REGISTRY.series("repro_sweep_chunk_run_seconds")
        chunk_count = sum(
            histogram.summary()["count"]
            for histogram in chunk_series.values()
        )
        assert chunk_count >= 2  # really split across workers

    @pytest.mark.parametrize("workers", [0, 2])
    def test_kernel_phases_counted_once_per_batch(self, workers):
        from repro.resilience.sweep import _VECTOR_BATCH, _index_chunks

        trials = 10_000
        chunks = (
            _index_chunks(trials, workers) if workers else [(0, trials)]
        )
        batches = sum(-(-(hi - lo) // _VECTOR_BATCH) for lo, hi in chunks)
        assert batches > 1
        REGISTRY.reset()
        with Session(workers=workers) as session:
            session.resilience_sweep(
                "sk(2,2,2)", trials=trials, seed=0, metrics="connectivity"
            )
        series = REGISTRY.series("repro_phase_seconds")
        counts = {
            dict(labels)["phase"]: histogram.summary()["count"]
            for labels, histogram in series.items()
            if dict(labels)["backend"] == "vectorized"
        }
        assert counts == {"sample": batches, "score": batches}

    @pytest.mark.parametrize("workers", [0, 2])
    def test_full_phases_counted_once_per_sub_batch(self, workers, monkeypatch):
        from repro.core import build
        from repro.resilience import sweep
        from repro.resilience.degrade import _network_state

        trials, batch = 40, 3
        net = build("sk(6,3,2)")
        # the widest per-view axis: 6 targets on each of 48 couplers
        cells = max(net.num_groups**2, 60, _network_state(net)[-1].targets.size)
        monkeypatch.setattr(sweep, "_VECTOR_CELL_BUDGET", batch * cells)
        chunks = sweep._index_chunks(trials, workers) if workers else [(0, trials)]
        sub_batches = sum(-(-(hi - lo) // batch) for lo, hi in chunks)
        assert sub_batches > len(chunks)
        REGISTRY.reset()
        with Session(workers=workers) as session:
            session.resilience_sweep("sk(6,3,2)", faults=2, trials=trials, seed=0)
        series = REGISTRY.series("repro_phase_seconds")
        counts = {
            dict(labels)["phase"]: histogram.summary()["count"]
            for labels, histogram in series.items()
            if dict(labels)["backend"] == "batched"
        }
        assert counts == dict.fromkeys(
            ("sample", "route", "score", "simulate"), sub_batches
        )

    @pytest.mark.parametrize("workers", [0, 2])
    @pytest.mark.parametrize(
        ("metrics", "phases"),
        [("connectivity", ("sample", "score")), ("paths", ("sample", "route", "score"))],
    )
    def test_stacked_phases_counted_once_per_sub_batch(
        self, workers, metrics, phases, monkeypatch
    ):
        from repro.core import build
        from repro.resilience import sweep
        from repro.resilience.degrade import _network_state

        trials, batch = 40, 3
        net = build("sk(6,3,2)")
        cells = max(net.num_groups**2, _network_state(net)[-1].targets.size)
        monkeypatch.setattr(sweep, "_VECTOR_CELL_BUDGET", batch * cells)
        chunks = sweep._index_chunks(trials, workers) if workers else [(0, trials)]
        sub_batches = sum(-(-(hi - lo) // batch) for lo, hi in chunks)
        REGISTRY.reset()
        with Session(workers=workers) as session:
            session.resilience_sweep(
                "sk(6,3,2)", faults=2, trials=trials, seed=0, metrics=metrics,
                backend="batched",
            )
        series = REGISTRY.series("repro_phase_seconds")
        counts = {
            dict(labels)["phase"]: histogram.summary()["count"]
            for labels, histogram in series.items()
            if dict(labels)["backend"] == "batched"
        }
        assert counts == dict.fromkeys(phases, sub_batches)

    def test_route_counters_are_worker_independent(self):
        def counters(workers):
            REGISTRY.reset()
            with Session(workers=workers) as session:
                session.resilience_sweep(
                    "sk(1,2,4)", model="processor", faults=3, trials=30, seed=2,
                    metrics="paths",
                )
            return {
                name: {
                    dict(labels)["family"]: c.value
                    for labels, c in REGISTRY.series(name).items()
                }
                for name in ("repro_route_reroutes_total", "repro_route_fallbacks_total")
            }

        inline = counters(0)
        assert inline == counters(2)
        touched = inline["repro_route_reroutes_total"]["sk"]
        assert 0 < inline["repro_route_fallbacks_total"]["sk"] < touched

    def test_inline_sweep_records_parent_side(self):
        REGISTRY.reset()
        with Session(workers=0) as session:
            session.resilience_sweep("sk(2,2,2)", trials=16, seed=0)
        series = REGISTRY.series("repro_sweep_trials_total")
        assert sum(c.value for c in series.values()) == 16

    def test_cache_ops_counted(self):
        REGISTRY.reset()
        with Session(workers=0) as session:
            session.describe("pops(2,2)")
            session.describe("pops(2,2)")
        series = REGISTRY.series("repro_cache_ops_total")
        by_outcome = {
            dict(labels)["outcome"]: counter.value
            for labels, counter in series.items()
        }
        assert by_outcome["miss"] >= 1
        assert by_outcome["hit"] >= 1

    def test_default_buckets_cover_sweep_scales(self):
        assert DEFAULT_BUCKETS[0] <= 0.001
        assert DEFAULT_BUCKETS[-1] >= 100
