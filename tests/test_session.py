"""Session/engine semantics: caches, persistent pools, experiments.

Pins the PR's three contracts:

* **byte-identity** -- session-routed verbs (warm or cold, any worker
  count, any backend) return byte-identical output to the stateless
  module-level path for the same seed;
* **cache semantics** -- spec-keyed LRU with hit/miss/eviction
  counters and explicit ``invalidate``;
* **pool reuse** -- one persistent pool serves many sweeps /
  experiments / design searches, re-initializing worker contexts only
  when the plan changes, without moving a single result.
"""

import json
import multiprocessing
import os

import pytest

import repro
from repro.core.cache import CacheEntry, SpecCache
from repro.core.experiment import Experiment
from repro.core.session import Session, default_session, reset_default_session
from repro.design_search.search import design_search as raw_design_search
from repro.obs.trace import disable_tracing, enable_tracing
from repro.resilience import FaultModel, PersistentSweepExecutor
from repro.resilience.sweep import (
    SweepRequest,
    pooled_survivability_sweeps,
    survivability_sweep,
)


class _ExplodingFaults(FaultModel):
    """Fails every draw; module-level so pool workers can unpickle it."""

    key = "exploding"

    def sample_faults(self, net, rng):
        raise RuntimeError(f"sampler exploded in pid {os.getpid()}")


def _traced(run):
    """``(result, events)`` of ``run()`` under a fresh tracer."""
    enable_tracing()
    try:
        result = run()
    finally:
        events = disable_tracing().events()
    return result, events


def _new_children(before) -> set:
    """Live child processes that did not exist in ``before``."""
    return set(multiprocessing.active_children()) - before


# ----------------------------------------------------------------------
# SpecCache
# ----------------------------------------------------------------------
class TestSpecCache:
    def test_hit_returns_the_same_network_object(self):
        cache = SpecCache(maxsize=4)
        assert cache.network("pops(2,2)") is cache.network("pops(2,2)")
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_canonicalization_shares_entries(self):
        cache = SpecCache(maxsize=4)
        a = cache.network("sk(2,2,2)")
        b = cache.network("sk 2 2 2")  # loose token form, same machine
        c = cache.network({"family": "sk", "s": 2, "d": 2, "k": 2})
        assert a is b is c
        assert len(cache) == 1

    def test_lru_eviction_order(self):
        cache = SpecCache(maxsize=2)
        cache.network("pops(2,2)")
        cache.network("sops(4)")
        cache.network("pops(2,2)")  # refresh: sops(4) is now LRU-oldest
        cache.network("sk(2,2,2)")  # evicts sops(4)
        assert "pops(2,2)" in cache and "sk(2,2,2)" in cache
        assert "sops(4)" not in cache
        assert cache.stats.evictions == 1

    def test_invalidate_one_and_all(self):
        cache = SpecCache(maxsize=4)
        cache.network("pops(2,2)")
        cache.network("sops(4)")
        assert cache.invalidate("pops(2,2)") == 1
        assert cache.invalidate("pops(2,2)") == 0  # already gone
        assert cache.invalidate() == 1  # drops the rest
        assert len(cache) == 0

    def test_rejects_degenerate_maxsize(self):
        with pytest.raises(ValueError, match="maxsize"):
            SpecCache(maxsize=0)

    def test_entry_lazy_views(self):
        cache = SpecCache(maxsize=4)
        entry = cache.entry("sk(2,2,2)")
        assert entry.design().verify()
        assert entry.design() is entry.design()  # built once
        arrays = entry.arrays()
        assert arrays is entry.arrays()
        assert arrays.num_processors == entry.network.num_processors
        table = entry.routing_table()
        assert table is entry.routing_table()
        assert table.verify()

    def test_routing_table_without_base_graph(self):
        # single-OPS machines have no base digraph; the group digraph
        # derived from coupler endpoints stands in
        table = SpecCache(maxsize=2).entry("sops(4)").routing_table()
        assert table.distance(0, 0) == 0

    def test_baseline_cached_per_workload_config(self):
        entry = SpecCache(maxsize=2).entry("pops(2,2)")
        a = entry.baseline(workload="uniform", messages=10, seed=0)
        b = entry.baseline(workload="uniform", messages=10, seed=0)
        c = entry.baseline(workload="uniform", messages=12, seed=0)
        assert a == b
        assert len(entry._baselines) == 2
        assert isinstance(c, float)


# ----------------------------------------------------------------------
# Session lifecycle + cached verbs
# ----------------------------------------------------------------------
class TestSessionLifecycle:
    def test_context_manager_closes(self):
        with Session() as s:
            s.build("pops(2,2)")
        assert s.closed
        with pytest.raises(RuntimeError, match="closed"):
            s.build("pops(2,2)")

    def test_close_is_idempotent(self):
        s = Session()
        s.close()
        s.close()
        assert s.closed

    def test_cache_stats_shape(self):
        with Session(cache_size=8) as s:
            s.build("pops(2,2)")
            s.build("pops(2,2)")
            stats = s.cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["size"] == 1 and stats["maxsize"] == 8

    def test_invalidate_forces_rebuild(self):
        with Session() as s:
            first = s.build("pops(2,2)")
            assert s.invalidate("pops(2,2)") == 1
            second = s.build("pops(2,2)")
            assert first is not second
            # identical structure either way
            assert first.num_processors == second.num_processors

    def test_verbs_match_stateless_results(self):
        with Session() as s:
            assert s.describe("sk(2,2,2)") == repro.describe("sk(2,2,2)")
            assert (
                s.route("sk(2,2,2)", 0, 5).num_hops
                == repro.route("sk(2,2,2)", 0, 5).num_hops
            )
            assert (
                s.simulate("pops(2,2)", messages=8).num_messages == 8
            )
            assert s.degrade("pops(2,2)", faults=1, seed=3).scenario == (
                repro.degrade("pops(2,2)", faults=1, seed=3).scenario
            )
            matrix = s.sweep(["pops(2,2)"], ["uniform"], messages=10)
            assert matrix.to_json() == repro.sweep(
                ["pops(2,2)"], ["uniform"], messages=10
            ).to_json()

    def test_route_validates_endpoints(self):
        with Session() as s:
            with pytest.raises(IndexError, match="out of range"):
                s.route("pops(2,2)", 0, 99)


# ----------------------------------------------------------------------
# Byte-identity: session-routed sweeps vs the stateless path
# ----------------------------------------------------------------------
class TestSweepByteIdentity:
    @pytest.mark.parametrize(
        "metrics,backend",
        [
            ("connectivity", "batched"),
            ("connectivity", "vectorized"),
            ("paths", "batched"),
            ("full", "batched"),
        ],
    )
    def test_warm_session_equals_cold_module_path(self, metrics, backend):
        kw = dict(
            model="coupler",
            faults=1,
            trials=6,
            seed=2,
            messages=8,
            metrics=metrics,
            backend=backend,
        )
        cold = survivability_sweep("sk(2,2,2)", **{
            k: v for k, v in kw.items() if k != "model"
        })
        with Session() as s:
            first = s.resilience_sweep("sk(2,2,2)", **kw)
            second = s.resilience_sweep("sk(2,2,2)", **kw)  # fully warm
        assert first.to_json() == cold.to_json()
        assert second.to_json() == cold.to_json()

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_pool_reuse_determinism_across_worker_counts(self, workers):
        """Warm persistent pools at 1/2/4 workers all match inline."""
        kw = dict(
            faults=1, trials=10, seed=5, metrics="connectivity",
            backend="batched",
        )
        inline = survivability_sweep("sk(2,2,2)", "coupler", **kw)
        with Session(workers=workers) as s:
            warm_up = s.resilience_sweep("pops(2,2)", **kw)  # other spec
            first = s.resilience_sweep("sk(2,2,2)", **kw)
            second = s.resilience_sweep("sk(2,2,2)", **kw)
            pools = s.pools_started
        assert warm_up.spec == "pops(2,2)"
        assert first.to_json() == inline.to_json()
        assert second.to_json() == inline.to_json()
        # one executor serves every call of this worker count
        assert pools == (1 if workers > 1 else 0)

    def test_full_metrics_baseline_reuse_is_exact(self):
        """The cached intact baseline reproduces per-call computation."""
        kw = dict(faults=1, trials=5, seed=1, messages=10, metrics="full")
        cold = survivability_sweep("pops(2,3)", "coupler", **kw)
        with Session() as s:
            a = s.resilience_sweep("pops(2,3)", **kw)
            b = s.resilience_sweep("pops(2,3)", **kw)
        assert a.to_json() == cold.to_json() == b.to_json()

    def test_downgraded_request_traces_and_prepares_what_runs(
        self, monkeypatch
    ):
        """A vectorized ``paths`` request on sk(2,2,2) runs on batched.

        The session's ``sweep.execute`` span must say so with the same
        args as the module path's, and neither the sweep nor an
        experiment cell may export topology arrays it never uses.
        """
        kw = dict(trials=4, seed=1, metrics="paths", backend="vectorized")

        def execute_args(events):
            (event,) = [e for e in events if e["name"] == "sweep.execute"]
            return event["args"]

        def no_arrays(entry):
            raise AssertionError(f"topology arrays built for {entry.canonical}")

        cold, cold_events = _traced(
            lambda: survivability_sweep("sk(2,2,2)", **kw)
        )
        monkeypatch.setattr(CacheEntry, "arrays", no_arrays)
        with Session() as s:
            warm, warm_events = _traced(
                lambda: s.resilience_sweep("sk(2,2,2)", **kw)
            )
            cell = s.experiment(
                "sk(2,2,2)", metrics=("paths",), backend="vectorized",
                trials=4, seed=1,
            ).cells[0]
        assert warm.backend == cell.backend == "batched"
        assert warm.to_json() == cold.to_json()
        args = execute_args(warm_events)
        assert (args["backend"], args["metrics"]) == ("batched", "paths")
        assert args == execute_args(cold_events)

    def test_facade_verb_routes_through_default_session(self):
        reset_default_session()
        try:
            assert repro.build("pops(2,2)") is repro.build("pops(2,2)")
            session = default_session()
            assert session.cache_stats()["hits"] >= 1
            summary = repro.resilience_sweep(
                "pops(2,2)", trials=4, metrics="connectivity"
            )
            direct = survivability_sweep(
                "pops(2,2)", "coupler", trials=4, metrics="connectivity"
            )
            assert summary.to_json() == direct.to_json()
        finally:
            reset_default_session()

    def test_reset_default_session_starts_cold(self):
        reset_default_session()
        first = default_session()
        first.build("pops(2,2)")
        reset_default_session()
        assert first.closed
        second = default_session()
        assert second is not first
        assert second.cache_stats()["size"] == 0


# ----------------------------------------------------------------------
# Persistent executor internals
# ----------------------------------------------------------------------
class TestPersistentExecutor:
    def test_pool_starts_lazily_and_survives_plan_changes(self):
        with PersistentSweepExecutor(workers=2) as ex:
            assert not ex.pool_started
            (a,) = pooled_survivability_sweeps([(
                "pops(2,2)", SweepRequest(
                    "coupler", trials=6, metrics="connectivity"),
            )], executor=ex)
            assert ex.pool_started
            pool = ex._pool
            (b,) = pooled_survivability_sweeps([(
                "sk(2,2,2)", SweepRequest(
                    "processor", trials=6, metrics="connectivity"),
            )], executor=ex)
            assert ex._pool is pool  # reused, not respawned
        assert a.spec == "pops(2,2)" and b.spec == "sk(2,2,2)"
        assert not ex.pool_started

    def test_closed_executor_refuses_work(self):
        ex = PersistentSweepExecutor(workers=2)
        ex.close()
        with pytest.raises(RuntimeError, match="closed"):
            pooled_survivability_sweeps([(
                "pops(2,2)", SweepRequest(trials=2, metrics="connectivity"),
            )], executor=ex)

    def test_pooled_sweeps_executor_matches_oneshot(self):
        requests = [
            ("pops(2,2)", SweepRequest(trials=5, metrics="connectivity",
                                       backend="batched")),
            ("sk(2,2,2)", SweepRequest(trials=7, metrics="connectivity",
                                       backend="vectorized")),
        ]
        oneshot = pooled_survivability_sweeps(requests, workers=2)
        with PersistentSweepExecutor(workers=2) as ex:
            persistent = pooled_survivability_sweeps(requests, executor=ex)
        with PersistentSweepExecutor() as inline:
            serial = pooled_survivability_sweeps(requests, executor=inline)
        for a, b, c in zip(oneshot, persistent, serial):
            assert a.to_json() == b.to_json() == c.to_json()

    def test_inline_context_cache_is_bounded(self, monkeypatch):
        import repro.resilience.sweep as sweep_mod

        monkeypatch.setattr(sweep_mod, "_PERSIST_CTX_CACHE", 2)
        with PersistentSweepExecutor() as ex:
            for spec in ("pops(2,2)", "sops(4)", "sk(2,2,2)"):
                pooled_survivability_sweeps([(
                    spec, SweepRequest(trials=2, metrics="connectivity"),
                )], executor=ex)
            assert len(ex._inline_ctxs) == 2


# ----------------------------------------------------------------------
# Executors scoped to one call: the pool never outlives the call
# ----------------------------------------------------------------------
class TestScopedExecutorTeardown:
    @pytest.mark.parametrize("backend", ["batched", "vectorized"])
    def test_sweep_reaps_its_workers(self, backend):
        before = set(multiprocessing.active_children())
        summary, events = _traced(lambda: survivability_sweep(
            "pops(2,3)", trials=8, workers=2, metrics="connectivity",
            backend=backend,
        ))
        worker_pids = {e["pid"] for e in events if e["name"] == "sweep.chunk"}
        assert summary.trials == 8
        assert worker_pids and os.getpid() not in worker_pids
        assert not _new_children(before)

    def test_pooled_sweeps_reap_their_workers(self):
        before = set(multiprocessing.active_children())
        summaries = pooled_survivability_sweeps(
            [
                ("pops(2,2)", SweepRequest(trials=6, metrics="connectivity",
                                           backend="batched")),
                ("sk(2,2,2)", SweepRequest(trials=6, metrics="connectivity",
                                           backend="vectorized")),
            ],
            workers=2,
        )
        assert [s.trials for s in summaries] == [6, 6]
        assert not _new_children(before)

    @pytest.mark.parametrize("backend", ["batched", "vectorized"])
    def test_worker_exception_reaches_caller(self, backend):
        before = set(multiprocessing.active_children())
        with pytest.raises(RuntimeError, match="sampler exploded") as err:
            survivability_sweep(
                "pops(2,3)", _ExplodingFaults(), trials=8, workers=2,
                metrics="connectivity", backend=backend,
            )
        # raised in a pool worker, re-raised here unchanged
        assert f"pid {os.getpid()}" not in str(err.value)
        assert not _new_children(before)

    def test_adaptive_sweep_reaps_its_workers(self):
        kw = dict(trials=200, seed=9, metrics="connectivity", ci_target=0.08)
        inline = survivability_sweep("pops(2,3)", **kw)
        before = set(multiprocessing.active_children())
        summary, events = _traced(
            lambda: survivability_sweep("pops(2,3)", workers=2, **kw)
        )
        worker_pids = {e["pid"] for e in events if e["name"] == "sweep.chunk"}
        assert summary.to_json() == inline.to_json()
        assert worker_pids and os.getpid() not in worker_pids
        assert not _new_children(before)

    def test_design_search_runs_every_candidate_on_one_pool(self):
        kw = dict(max_processors=10, families=("pops", "sops"), trials=6, seed=4)
        inline = raw_design_search(**kw)
        before = set(multiprocessing.active_children())
        result, events = _traced(lambda: raw_design_search(workers=2, **kw))
        worker_pids = {e["pid"] for e in events if e["name"] == "sweep.chunk"}
        assert result.to_json() == inline.to_json()
        assert len(result.candidates) >= 2
        # one 2-process pool for the whole window, not one per candidate
        assert 1 <= len(worker_pids) <= 2
        assert os.getpid() not in worker_pids
        assert not _new_children(before)


# ----------------------------------------------------------------------
# Design search through the session
# ----------------------------------------------------------------------
class TestSessionDesignSearch:
    KW = dict(
        max_processors=10,
        families=("pops", "sops"),
        trials=6,
        seed=4,
    )

    def test_session_matches_module_search(self):
        cold = raw_design_search(**self.KW)
        with Session() as s:
            warm = s.design_search(**self.KW)
            again = s.design_search(**self.KW)
        assert warm.to_json() == cold.to_json() == again.to_json()

    def test_parallel_session_search_is_worker_invariant(self):
        cold = raw_design_search(**self.KW)
        with Session(workers=2) as s:
            warm = s.design_search(**self.KW)
        assert warm.to_json() == cold.to_json()


# ----------------------------------------------------------------------
# Experiments
# ----------------------------------------------------------------------
class TestExperiment:
    def test_grid_compiles_spec_major(self):
        exp = Experiment(
            specs=("pops(2,2)", "sk(2,2,2)"),
            models=("coupler", "link:2"),
            metrics=("connectivity",),
            trials=(4, 8),
        )
        plan = exp.compile()
        assert len(plan) == 8
        assert [spec for spec, _ in plan[:4]] == ["pops(2,2)"] * 4
        assert [r.trials for _, r in plan[:4]] == [4, 8, 4, 8]
        assert plan[0][1].model.key == "coupler"
        assert plan[2][1].model.faults == 2

    def test_single_entries_normalize(self):
        exp = Experiment(specs="pops(2,2)", models="coupler:3", trials=5)
        assert len(exp.compile()) == 1
        assert exp.models[0].faults == 3

    def test_backend_downgrades_where_unscorable(self):
        exp = Experiment(
            specs="pops(2,2)",
            metrics=("connectivity", "full"),
            backend="vectorized",
            trials=2,
        )
        backends = [r.backend for _, r in exp.compile()]
        assert backends == ["vectorized", "auto"]
        result = exp.run(workers=0)
        assert [c.backend for c in result.cells] == ["vectorized", "batched"]

    @pytest.mark.parametrize(
        "bad,match",
        [
            (dict(specs=()), "at least one spec"),
            (dict(specs="pops(2,2)", metrics=("nope",)), "metrics mode"),
            (dict(specs="pops(2,2)", trials=0), "trial counts"),
            (dict(specs="pops(2,2)", backend="warp"), "backend"),
            # a process-only grid still checks the sweep-only fields
            (dict(specs="pops(2,2)", models=("coupler-renewal:1",),
                  backend="nope"), "backend"),
            (dict(specs="pops(2,2)", models=("cascade:1",), max_slots=0),
             "max_slots"),
            (dict(specs="pops(2,2)", models=("coupler:x",)), "malformed"),
            (dict(specs="pops(2,2)", models=(3.5,)), "cannot parse"),
        ],
    )
    def test_validation_names_the_culprit(self, bad, match):
        with pytest.raises(ValueError, match=match):
            Experiment(**bad)

    def test_cells_match_individual_sweeps_any_worker_count(self):
        exp = Experiment(
            specs=("pops(2,2)", "sk(2,2,2)"),
            models=("coupler", "processor:2"),
            metrics=("connectivity",),
            trials=6,
            seed=9,
        )
        with Session() as s:
            inline = s.run_experiment(exp)
        with Session() as s:
            pooled = s.run_experiment(exp, workers=2)
        assert inline.to_json() == pooled.to_json()
        for cell in inline:
            direct = survivability_sweep(
                cell.spec,
                cell.model,
                faults=cell.faults,
                trials=6,
                seed=9,
                metrics="connectivity",
            )
            assert cell.summary.to_json() == direct.to_json()

    def test_result_report_shapes(self):
        result = repro.experiment(
            "pops(2,2)", models=["coupler"], trials=3, seed=1
        )
        assert len(result) == 1
        (cell,) = list(result)
        assert cell.as_dict()["summary"]["trials"] == 3
        payload = json.loads(result.to_json())
        assert payload["specs"] == ["pops(2,2)"]
        assert payload["cells"][0]["spec"] == "pops(2,2)"
        assert "pops(2,2)" in result.formatted()
        with pytest.raises(KeyError):
            result.cell("pops(2,2)", model="link")

    def test_experiment_run_uses_given_session(self):
        exp = Experiment(specs="pops(2,2)", trials=2)
        with Session() as s:
            result = exp.run(session=s)
            assert s.cache_stats()["misses"] >= 1
        assert result.cells[0].summary.trials == 2

    def test_experiment_run_defers_to_session_worker_default(self):
        """Omitted workers means the session default, not inline."""
        exp = Experiment(specs="pops(2,2)", trials=4)
        with Session(workers=2) as s:
            via_run = exp.run(session=s)
            assert s.pools_started == 1  # the 2-worker pool, not inline
            via_session = s.run_experiment(exp)
        assert via_run.to_json() == via_session.to_json()

    def test_single_non_iterable_grid_entries(self):
        """A spec dict / NetworkSpec / FaultModel each count as ONE entry."""
        from repro.core.spec import NetworkSpec
        from repro.resilience.faults import UniformCouplerFaults

        exp = Experiment(
            specs={"family": "pops", "t": 2, "g": 2},
            models=UniformCouplerFaults(faults=1),
            trials=2,
        )
        assert [s.canonical() for s in exp.specs] == ["pops(2,2)"]
        assert exp.models[0].faults == 1
        parsed = Experiment(specs=NetworkSpec.parse("sops(4)"), trials=2)
        assert [s.canonical() for s in parsed.specs] == ["sops(4)"]
        assert repro.experiment(
            {"family": "pops", "t": 2, "g": 2}, trials=2
        ).cells[0].spec == "pops(2,2)"

    def test_invalid_request_never_computes_the_baseline(self):
        """Validation precedes the (cached) intact-baseline simulation."""
        with Session() as s:
            with pytest.raises(ValueError, match="vectorized"):
                s.resilience_sweep(
                    "pops(2,2)", metrics="full", backend="vectorized"
                )
            with pytest.raises(ValueError, match="trials"):
                s.resilience_sweep("pops(2,2)", trials=0, metrics="full")
            assert s.cache.entry("pops(2,2)")._baselines == {}

    def test_mixed_metrics_grid_runs_full_cells(self):
        result = repro.experiment(
            "pops(2,2)",
            models=["coupler"],
            metrics=["connectivity", "full"],
            trials=3,
            messages=8,
        )
        by_mode = {c.metrics: c for c in result}
        assert by_mode["connectivity"].summary.messages == 0
        assert by_mode["full"].summary.messages == 8

    @pytest.mark.parametrize("workers", [0, 2])
    def test_cells_count_and_trace_like_single_runs(self, workers):
        from repro.obs.metrics import REGISTRY

        def replay_trials():
            series = REGISTRY.series("repro_temporal_trials_total").get(
                (("metrics", "connectivity"),)
            )
            return 0 if series is None else series.value

        before = replay_trials()
        with Session(workers=workers) as s:
            result, events = _traced(lambda: s.experiment(
                "pops(2,2)", models=["coupler:1", "coupler-renewal:1"],
                trials=4,
            ))
        assert [c.summary.trials for c in result] == [4, 4]
        assert replay_trials() - before == 4
        names = [e["name"] for e in events]
        for kind in ("sweep", "temporal"):
            for stage in ("prepare", "execute", "summarize"):
                assert names.count(f"{kind}.{stage}") == 1, (kind, stage)


# ----------------------------------------------------------------------
# CLI batch mode
# ----------------------------------------------------------------------
class TestBatchCli:
    def test_batch_runs_commands_on_one_session(self, tmp_path, capsys):
        from repro.__main__ import main

        script = tmp_path / "commands.txt"
        script.write_text(
            "# warm the cache, then query twice\n"
            'describe "pops(2,2)" --json\n'
            'repro describe "pops(2,2)" --json\n'
        )
        assert main(["batch", str(script), "--reuse-session"]) == 0
        out = capsys.readouterr().out.strip()
        decoder = json.JSONDecoder()
        payloads, pos = [], 0
        while pos < len(out):
            payload, end = decoder.raw_decode(out, pos)
            payloads.append(payload)
            pos = end + 1  # skip the newline between payloads
        assert len(payloads) == 2
        assert all(p["spec"] == "pops(2,2)" for p in payloads)

    def test_batch_stops_on_failure(self, tmp_path, capsys):
        from repro.__main__ import main

        script = tmp_path / "commands.txt"
        script.write_text(
            'describe "nope(1)" --json\ndescribe "pops(2,2)" --json\n'
        )
        assert main(["batch", str(script)]) == 2
        assert "stopped" in capsys.readouterr().err

    def test_batch_refuses_nesting(self, tmp_path, capsys):
        from repro.__main__ import main

        script = tmp_path / "commands.txt"
        script.write_text("batch other.txt\n")
        assert main(["batch", str(script)]) == 2
        assert "nest" in capsys.readouterr().err

    def test_batch_missing_file(self, capsys):
        from repro.__main__ import main

        assert main(["batch", "/nonexistent/commands.txt"]) == 2

    def test_batch_contains_argparse_exits(self, tmp_path, capsys):
        """An unknown flag in a line returns a code, never SystemExit."""
        from repro.__main__ import main

        script = tmp_path / "commands.txt"
        script.write_text('describe "pops(2,2)" --bogus-flag\n')
        assert main(["batch", str(script)]) == 2
        assert "stopped" in capsys.readouterr().err
