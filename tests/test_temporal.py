"""Temporal dynamics subsystem: processes, replay, traffic matrices.

The determinism bar is the same one every sweep in this repo carries:
the availability-over-time summary must be byte-identical at any
worker count and invariant to how the trial index range is chunked
(property-tested with hypothesis), and the exponential renewal law
must match its closed-form 2-state-Markov oracle -- stationary
availability ``mtbf / (mtbf + mttr)`` -- within a Wilson interval over
the observed renewal cycles.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core import build
from repro.resilience.adaptive import wilson_interval
from repro.temporal import (
    CascadeCouplerProcess,
    CouplerRenewalProcess,
    ProcessorRenewalProcess,
    TrafficMatrix,
    dimension,
    execute_temporal,
    fault_process_keys,
    make_fault_process,
    prepare_temporal_sweep,
    reroute_overloaded,
    served_fraction,
    stream_seed,
    summarize_temporal,
    utilization,
)
from repro.temporal.replay import _TemporalContext


class TestStreamSeed:
    def test_deterministic_and_distinct(self):
        assert stream_seed(7, "coupler", 3) == stream_seed(7, "coupler", 3)
        assert stream_seed(7, "coupler", 3) != stream_seed(7, "coupler", 4)
        assert stream_seed(7, "coupler", 3) != stream_seed(8, "coupler", 3)

    def test_registry_keys(self):
        assert fault_process_keys() == (
            "cascade",
            "coupler-renewal",
            "processor-renewal",
        )
        assert make_fault_process("cascade", 2, spread=0.3).spread == 0.3
        with pytest.raises(ValueError, match="unknown fault process"):
            make_fault_process("nope")


class TestTraceCompilation:
    def test_trace_is_pure_function_of_inputs(self):
        net = build("pops(2,2)")
        proc = CouplerRenewalProcess(faults=2, mtbf=40, mttr=10)
        a = proc.trace("pops(2,2)", net, seed=3, horizon=300)
        b = proc.trace("pops(2,2)", net, seed=3, horizon=300)
        assert a == b
        assert a != proc.trace("pops(2,2)", net, seed=4, horizon=300)

    def test_segments_partition_horizon_exactly(self):
        net = build("sk(2,2,2)")
        proc = CouplerRenewalProcess(faults=3, mtbf=30, mttr=15)
        trace = proc.trace("sk(2,2,2)", net, seed=1, horizon=400)
        segs = list(trace.segments())
        assert segs[0][0] == 0 and segs[-1][1] == 400
        for (_s0, stop, _c, _p), (start, _s1, _c2, _p2) in zip(
            segs, segs[1:]
        ):
            assert stop == start  # contiguous, no gaps or overlaps

    def test_events_sorted_and_paired(self):
        net = build("sk(2,2,2)")
        proc = CouplerRenewalProcess(faults=3, mtbf=30, mttr=15)
        trace = proc.trace("sk(2,2,2)", net, seed=2, horizon=400)
        keys = [(e.slot, e.component, e.index, e.kind) for e in trace.events]
        assert keys == sorted(keys)
        fails = sum(1 for e in trace.events if e.kind == "fail")
        repairs = sum(1 for e in trace.events if e.kind == "repair")
        # every repair matches an earlier fail; unrepaired faults ride
        # to the horizon
        assert repairs <= fails

    def test_downtime_matches_intervals(self):
        net = build("pops(2,2)")
        proc = CouplerRenewalProcess(faults=1, mtbf=40, mttr=10)
        (component, index), = proc.churning(net, seed=9)
        downs = proc.down_intervals(component, index, 9, 500)
        trace = proc.trace("pops(2,2)", net, seed=9, horizon=500)
        assert trace.component_downtime(component, index) == sum(
            b - a for a, b in downs
        )

    def test_deterministic_law_is_periodic(self):
        proc = CouplerRenewalProcess(faults=1, mtbf=30, mttr=10,
                                     law="deterministic")
        downs = proc.down_intervals("coupler", 0, seed=0, horizon=400)
        assert downs == [(30, 40), (70, 80), (110, 120), (150, 160),
                         (190, 200), (230, 240), (270, 280), (310, 320),
                         (350, 360), (390, 400)]

    def test_history_independent_of_co_churners(self):
        """A component's renewal history never depends on who else churns."""
        one = CouplerRenewalProcess(faults=1, mtbf=40, mttr=10)
        many = CouplerRenewalProcess(faults=5, mtbf=40, mttr=10)
        assert one.down_intervals("coupler", 2, 11, 300) == \
            many.down_intervals("coupler", 2, 11, 300)


class TestCascade:
    def test_full_spread_drags_in_siblings(self):
        net = build("sk(2,2,2)")
        calm = CascadeCouplerProcess(faults=2, mtbf=40, mttr=20, spread=0.0)
        storm = CascadeCouplerProcess(faults=2, mtbf=40, mttr=20, spread=1.0)
        touched_calm = {
            (e.component, e.index)
            for e in calm.trace("sk(2,2,2)", net, 4, 300).events
        }
        touched_storm = {
            (e.component, e.index)
            for e in storm.trace("sk(2,2,2)", net, 4, 300).events
        }
        # primaries share the seed stream; spread only ever adds
        assert touched_calm <= touched_storm
        assert touched_storm > touched_calm

    def test_spread_zero_adds_no_secondaries(self):
        net = build("sk(2,2,2)")
        casc = CascadeCouplerProcess(faults=2, mtbf=40, mttr=20, spread=0.0)
        members = set(casc.churning(net, seed=4))
        trace = casc.trace("sk(2,2,2)", net, 4, 300)
        assert {(e.component, e.index) for e in trace.events} <= members

    def test_spread_validated(self):
        with pytest.raises(ValueError, match="spread"):
            CascadeCouplerProcess(spread=1.5)


class TestMarkovOracle:
    """The exponential law against its closed-form stationary oracle."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_stationary_availability_within_wilson_ci(self, seed):
        mtbf, mttr, horizon = 120.0, 40.0, 60_000
        proc = CouplerRenewalProcess(faults=1, mtbf=mtbf, mttr=mttr)
        downs = proc.down_intervals("coupler", 0, seed, horizon)
        cycles = len(downs)
        assert cycles > 100, "horizon too short to exercise the oracle"
        estimate = 1.0 - sum(b - a for a, b in downs) / horizon
        lo, hi = wilson_interval(round(estimate * cycles), cycles)
        closed_form = mtbf / (mtbf + mttr)
        assert lo <= closed_form <= hi

    def test_deterministic_law_is_exact(self):
        proc = CouplerRenewalProcess(faults=1, mtbf=30, mttr=10,
                                     law="deterministic")
        downs = proc.down_intervals("coupler", 0, seed=3, horizon=400)
        assert 1.0 - sum(b - a for a, b in downs) / 400 == 0.75


class TestReplayDeterminism:
    @given(seed=st.integers(0, 2**20))
    @settings(max_examples=8, deadline=None)
    def test_chunk_boundary_invariance(self, seed):
        """Any stitching of the trial index range yields the same rows."""
        prepared = prepare_temporal_sweep(
            "pops(2,2)", faults=2, mtbf=40, mttr=10,
            horizon=120, trials=8, seed=seed,
        )
        ctx = _TemporalContext(prepared.plan, net=prepared.net)
        whole = ctx.run_range(0, 8)
        split = 1 + seed % 7
        assert ctx.run_range(0, split) + ctx.run_range(split, 8) == whole

    @given(seed=st.integers(0, 2**20))
    @settings(max_examples=3, deadline=None)
    def test_summary_byte_identical_across_1_2_4_workers(self, seed):
        prepared = prepare_temporal_sweep(
            "sk(2,2,2)", faults=2, mtbf=50, mttr=15,
            horizon=150, trials=8, seed=seed,
        )
        reference = summarize_temporal(
            prepared, execute_temporal(prepared, workers=1)
        ).to_json()
        for workers in (2, 4):
            assert summarize_temporal(
                prepared, execute_temporal(prepared, workers=workers)
            ).to_json() == reference

    def test_facade_workers_match_inline(self):
        one = repro.temporal_sweep(
            "sk(2,2,2)", faults=2, trials=6, horizon=120, seed=5, workers=1
        )
        two = repro.temporal_sweep(
            "sk(2,2,2)", faults=2, trials=6, horizon=120, seed=5, workers=2
        )
        assert one.to_json() == two.to_json()

    def test_full_metrics_deterministic_across_workers(self):
        kwargs = dict(
            faults=2, mtbf=30, mttr=10, trials=4, horizon=120,
            seed=2, metrics="full", messages=12,
        )
        assert repro.temporal_sweep("sk(2,2,2)", workers=1, **kwargs).to_json() \
            == repro.temporal_sweep("sk(2,2,2)", workers=2, **kwargs).to_json()


class TestReplaySemantics:
    def test_intact_machine_is_fully_available(self):
        # mtbf far beyond the horizon: no event ever fires
        s = repro.temporal_sweep(
            "sk(2,2,2)", mtbf=1e9, mttr=10, trials=3, horizon=100, seed=0
        )
        assert s.quantiles["availability"]["mean"] == 1.0
        assert s.quantiles["survivability"]["min"] == 1.0
        assert s.quantiles["time_to_disconnect"]["min"] == 100.0
        assert s.disconnected_fraction == 0.0
        assert all(v == 1.0 for v in s.availability_curve)

    def test_availability_bounds_and_ordering(self):
        s = repro.temporal_sweep(
            "sk(2,2,2)", faults=3, mtbf=40, mttr=20, trials=6,
            horizon=200, seed=1, metrics="paths",
        )
        q = s.quantiles
        assert 0.0 <= q["availability"]["min"] <= q["availability"]["max"] <= 1.0
        # full connectivity is stricter than pairwise availability
        assert q["survivability"]["mean"] <= q["availability"]["mean"]
        assert 0.0 <= q["within_bound_time"]["mean"] <= 1.0
        assert len(s.availability_curve) == 16

    def test_curve_mean_matches_availability_mean(self):
        s = repro.temporal_sweep(
            "sk(2,2,2)", faults=2, mtbf=40, mttr=20, trials=5,
            horizon=160, seed=3, curve_points=16,
        )
        curve_mean = sum(s.availability_curve) / len(s.availability_curve)
        assert curve_mean == pytest.approx(
            s.quantiles["availability"]["mean"], abs=1e-4
        )

    def test_processor_process_churns_processors(self):
        s = repro.temporal_sweep(
            "pops(2,3)", process="processor-renewal", faults=2,
            mtbf=30, mttr=15, trials=4, horizon=150, seed=2,
        )
        assert s.process == "processor-renewal"
        assert s.quantiles["events"]["mean"] > 0

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="metrics"):
            repro.temporal_sweep("sk(2,2,2)", metrics="nope")
        with pytest.raises(ValueError, match="trials"):
            repro.temporal_sweep("sk(2,2,2)", trials=0)
        with pytest.raises(ValueError, match="not both"):
            repro.temporal_sweep(
                "sk(2,2,2)",
                process=CouplerRenewalProcess(faults=1),
                faults=2,
            )
        with pytest.raises(ValueError, match="curve_points"):
            repro.temporal_sweep("sk(2,2,2)", curve_points=0)


class TestCapacityAccounting:
    def test_oversized_churn_is_skipped_not_immune(self):
        s = repro.temporal_sweep(
            "pops(2,2)", faults=99, mtbf=40, mttr=10, trials=5, horizon=100
        )
        assert s.skipped_underfaulted
        assert s.trials == 0
        assert s.quantiles == {}
        assert s.disconnected_fraction is None
        assert s.availability_curve == ()
        assert "skipped" in s.formatted()

    def test_max_faults_mirrors_frozen_models(self):
        net = build("pops(2,2)")
        assert CouplerRenewalProcess().max_faults(net) == net.num_couplers - 1
        assert ProcessorRenewalProcess().max_faults(net) == \
            net.num_processors - 2

    def test_skip_counter_increments(self):
        from repro.obs.metrics import REGISTRY

        repro.temporal_sweep(
            "pops(2,2)", faults=99, trials=2, horizon=50
        )
        assert "repro_temporal_skips_total" in REGISTRY.render_prometheus()


class TestTrafficMatrix:
    def test_workload_protocol_counts_and_determinism(self):
        net = build("pops(2,2)")
        m = TrafficMatrix.uniform(2, rate=4.0)
        triples = m(net, messages=9, seed=1)
        assert len(triples) == 9
        assert triples == m(net, messages=9, seed=1)
        assert all(slot == 0 for _s, _d, slot in triples)

    def test_apportioning_follows_rates(self):
        from repro.resilience.faults import group_of

        net = build("pops(2,3)")
        m = TrafficMatrix(demands=((0, 1, 3.0), (1, 2, 1.0)))
        triples = m(net, messages=8, seed=0)
        groups = [
            (group_of(net, s), group_of(net, d)) for s, d, _slot in triples
        ]
        assert groups.count((0, 1)) == 6 and groups.count((1, 2)) == 2

    def test_constructors_and_validation(self):
        u = TrafficMatrix.uniform(3)
        assert u.total_rate == pytest.approx(1.0)
        h = TrafficMatrix.hotspot(3, hot=1, fraction=0.5)
        toward_hot = sum(r for _s, d, r in h.demands if d == 1)
        assert toward_hot == pytest.approx(0.5)
        with pytest.raises(ValueError):
            TrafficMatrix(demands=())
        with pytest.raises(ValueError):
            TrafficMatrix(demands=((0, 1, 0.0),))
        with pytest.raises(ValueError):
            TrafficMatrix.hotspot(3, hot=5)

    def test_dict_round_trip(self):
        m = TrafficMatrix.hotspot(4, hot=2, fraction=0.7, rate=3.0)
        assert TrafficMatrix.from_dict(m.as_dict()) == m

    def test_utilization_conserves_offered_load(self):
        net = build("sk(2,2,2)")
        m = TrafficMatrix.uniform(net.num_groups, rate=2.0)
        report = utilization(net, m)
        assert report.unserved_rate == 0.0
        assert report.max_utilization >= report.mean_utilization >= 0.0
        # every served demand deposits its full rate on each hop
        assert sum(report.loads) > 0.0

    def test_dimension_hits_target(self):
        net = build("sk(2,2,2)")
        m = TrafficMatrix.uniform(net.num_groups, rate=2.0)
        plan = dimension(net, m, target_utilization=0.5)
        report = utilization(net, m)
        assert plan["max_capacity"] == pytest.approx(
            max(report.loads) / 0.5, abs=1e-6
        )

    def test_reroute_overloaded_report(self):
        net = build("sk(2,2,2)")
        m = TrafficMatrix.uniform(net.num_groups, rate=50.0)
        out = reroute_overloaded(net, m, capacity=1.0)
        assert set(out) == {
            "overloaded", "before", "after", "served_fraction", "total_rate"
        }
        assert out["overloaded"], "a 50x overload should trip couplers"
        assert 0.0 <= out["served_fraction"] <= 1.0

    def test_served_fraction_intact_is_one(self):
        from repro.resilience.degrade import DegradedNetwork
        from repro.resilience.faults import FaultScenario

        net = build("sk(2,2,2)")
        m = TrafficMatrix.uniform(net.num_groups)
        view = DegradedNetwork(
            net, FaultScenario(spec="intact", model="none", seed=0)
        )
        assert served_fraction(m, view) == 1.0

    def test_matrix_drives_temporal_sweep(self):
        m = TrafficMatrix.uniform(6, rate=2.0)
        s = repro.temporal_sweep(
            "sk(2,2,2)", faults=2, mtbf=40, mttr=20, trials=4,
            horizon=120, seed=1, traffic=m,
        )
        assert "demand_served" in s.quantiles
        assert 0.0 <= s.quantiles["demand_served"]["mean"] <= 1.0


class TestExperimentIntegration:
    def test_process_axis_cell_matches_direct_sweep(self):
        result = repro.experiment(
            ["sk(2,2,2)"], models=["coupler-renewal:2"], trials=[5], seed=3
        )
        assert len(result.cells) == 1
        cell = result.cells[0]
        assert cell.model == "coupler-renewal" and cell.faults == 2
        direct = repro.temporal_sweep(
            "sk(2,2,2)", faults=2, trials=5, seed=3,
        )
        assert cell.summary.to_json() == direct.to_json()

    def test_mixed_grid_keeps_cell_order(self):
        result = repro.experiment(
            ["pops(2,2)"],
            models=["coupler:1", "coupler-renewal:1", "processor"],
            trials=[4],
        )
        assert [c.model for c in result.cells] == [
            "coupler", "coupler-renewal", "processor"
        ]
        payload = json.loads(result.to_json())
        assert payload["models"] == [
            "coupler:1", "coupler-renewal:1", "processor:1"
        ]

    def test_plan_round_trips_process_models(self):
        from repro.core.experiment import Experiment

        plan = Experiment(
            specs=["pops(2,2)"], models=["cascade:2"], trials=[3]
        )
        rebuilt = Experiment.from_payload(plan.as_dict())
        assert rebuilt.as_dict() == plan.as_dict()

    def test_sharded_experiment_matches_in_process(self):
        from repro.core.experiment import Experiment
        from repro.core.session import Session
        from repro.serve.shard import run_sharded_experiment

        plan = Experiment(
            specs=["pops(2,2)", "sk(2,2,2)"],
            models=["coupler-renewal:1"],
            trials=[4],
            seed=2,
        )
        sharded = run_sharded_experiment(plan, shards=2)
        with Session() as session:
            direct = session.run_experiment(plan).as_dict()
        assert sharded == direct


class TestServeTemporal:
    def test_post_temporal_end_to_end(self):
        from repro.serve.client import run_in_thread

        with run_in_thread() as client:
            result, role = client.temporal(
                "sk 2 2 2", trials=3, horizon=100, faults=2,
                mtbf=40, mttr=10,
            )
            assert role == "leader"
            assert result["spec"] == "sk(2,2,2)"
            assert result["process"] == "coupler-renewal"
            assert result["trials"] == 3
            # loose vs canonical spelling coalesce to the same answer
            again, _role = client.temporal(
                "sk(2,2,2)", trials=3, horizon=100, faults=2,
                mtbf=40, mttr=10,
            )
            assert again == result

    def test_validation_rejected_at_the_door(self):
        from repro.serve.client import ServeHTTPError, run_in_thread

        with run_in_thread() as client:
            with pytest.raises(ServeHTTPError) as exc:
                client.temporal("sk(2,2,2)", metrics="nope")
            assert exc.value.status == 400
            with pytest.raises(ServeHTTPError) as exc:
                client.temporal("sk(2,2,2)", bogus_field=1)
            assert exc.value.status == 400
            with pytest.raises(ServeHTTPError) as exc:
                client.temporal("sk(2,2,2)", process="unknown-process")
            assert exc.value.status == 400
            # both used to pass the door and fail mid-execution as 500s
            for fields in (
                {"curve_points": 1000},
                {"metrics": "full", "workload": "no-such-workload"},
            ):
                with pytest.raises(ServeHTTPError) as exc:
                    client.temporal("sk(2,2,2)", **fields)
                assert (exc.value.status, exc.value.code) == (
                    400, "bad_request"
                )


class TestSessionExecutor:
    """Temporal replay runs on the session's one sweep executor."""

    def test_sweeps_and_process_cells_share_one_pool(self, monkeypatch):
        """4 replays + a 2x3 grid with 4 process cells build ONE pool."""
        import multiprocessing.pool

        from repro.core.session import Session

        built = []
        original = multiprocessing.pool.Pool.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(
            multiprocessing.pool.Pool, "__init__", counting_init
        )
        with Session(workers=2) as session:
            for seed in range(4):
                session.temporal_sweep(
                    "sk(2,2,2)", faults=2, trials=4, horizon=80, seed=seed
                )
            result = session.experiment(
                ["pops(2,2)", "sk(2,2,2)"],
                models=["coupler:1", "coupler-renewal:1", "cascade:1"],
                trials=4,
            )
        assert [c.model for c in result.cells] == [
            "coupler", "coupler-renewal", "cascade"
        ] * 2
        assert len(built) == 1

    def test_warm_replay_reuses_its_context(self, monkeypatch):
        from repro.core.session import Session
        from repro.temporal import replay

        built = []
        original = replay._TemporalContext.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(replay._TemporalContext, "__init__", counting_init)
        kw = dict(faults=2, trials=3, horizon=80, seed=1, metrics="full",
                  messages=6)
        with Session(workers=0) as session:
            first = session.temporal_sweep("sk(2,2,2)", **kw).to_json()
            second = session.temporal_sweep("sk(2,2,2)", **kw).to_json()
        assert first == second
        assert len(built) == 1

    def test_threads_share_cached_contexts(self):
        """8 threads of full replays on one inline session: serial bytes."""
        import sys
        import threading

        from repro.core.session import Session

        threads_n = 8

        def replay(session, seed):
            return session.temporal_sweep(
                "sk(2,2,2)", faults=2, mtbf=30, mttr=10, trials=2,
                horizon=100, seed=seed % 2, metrics="full", messages=8,
            ).to_json()

        with Session(workers=0) as session:
            expected = [replay(session, seed) for seed in range(threads_n)]
            session.invalidate()  # cold network, cold contexts
            results = [None] * threads_n
            barrier = threading.Barrier(threads_n)

            def run(seed):
                barrier.wait(timeout=10)
                results[seed] = replay(session, seed)

            threads = [
                threading.Thread(target=run, args=(seed,))
                for seed in range(threads_n)
            ]
            old = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
            finally:
                sys.setswitchinterval(old)
            assert not any(t.is_alive() for t in threads)
        assert results == expected

    @pytest.mark.parametrize("workers", [0, 2])
    def test_chunks_counted_under_a_temporal_label(self, workers):
        from repro.core.session import Session
        from repro.obs.metrics import REGISTRY
        from repro.resilience.sweep import _index_chunks

        def count(name, backend):
            series = REGISTRY.series(name).get((("backend", backend),))
            return 0 if series is None else series.value

        names = ("repro_sweep_chunks_total", "repro_sweep_trials_total")
        before = {(n, b): count(n, b) for n in names
                  for b in ("temporal", "batched")}
        with Session(workers=workers) as session:
            session.temporal_sweep("sk(2,2,2)", trials=6, horizon=60)
            # a skipped replay schedules no chunks
            session.temporal_sweep("pops(2,2)", faults=99, trials=6)
        chunks = len(_index_chunks(6, workers)) if workers else 1
        assert count(names[0], "temporal") - before[names[0], "temporal"] \
            == chunks
        assert count(names[1], "temporal") - before[names[1], "temporal"] == 6
        for name in names:  # no sweep backend's series moved
            assert count(name, "batched") == before[name, "batched"]
