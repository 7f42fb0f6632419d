"""Vectorized ``paths`` metric mode: kernel byte-identity + downgrades.

The PR 8 contract: ``backend="vectorized"`` with ``metrics="paths"``
(batched all-pairs distances from level-synchronous frontier
expansion) must reproduce the ``batched`` backend's paths-mode
aggregate JSON **byte for byte** for every family whose
``fault_route`` is the generic-BFS default, at any worker count and
chunking.  Families with structured routing hooks (stack-Kautz) are
*downgraded* to ``batched`` with a recorded reason -- never silently
different numbers.
"""

import json

import pytest

from repro.__main__ import main
from repro.core import design_search
from repro.core.experiment import Experiment
from repro.core.session import Session
from repro.design_search.search import RANKINGS
from repro.obs.metrics import REGISTRY
from repro.resilience import survivability_sweep
from repro.resilience.sweep import _VECTOR_BATCH

PATHS = dict(trials=18, seed=5, metrics="paths")

#: Families whose default generic-BFS ``fault_route`` the kernel covers.
KERNEL_SPECS = ["pops(2,3)", "sops(6)", "sii(2,2,6)"]


@pytest.fixture(autouse=True)
def _clean_registry():
    REGISTRY.reset()
    yield
    REGISTRY.reset()


# ----------------------------------------------------------------------
# Byte-identity on kernel-path families
# ----------------------------------------------------------------------
class TestPathsByteIdentity:
    @pytest.mark.parametrize("spec", KERNEL_SPECS)
    @pytest.mark.parametrize(
        "model,faults",
        [
            ("coupler", 1),
            ("processor", 2),
            ("link", 1),
            ("group", 1),
            ("adversarial", 1),
        ],
    )
    def test_kernel_families_byte_identical(self, spec, model, faults):
        batched = survivability_sweep(
            spec, model, faults=faults, backend="batched", **PATHS
        )
        vectorized = survivability_sweep(
            spec, model, faults=faults, backend="vectorized", **PATHS
        )
        assert vectorized.to_json() == batched.to_json()
        assert vectorized.backend == "vectorized"
        assert vectorized.downgrade_reason is None

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_worker_counts_byte_identical(self, workers):
        batched = survivability_sweep(
            "pops(2,3)", "coupler", faults=1, backend="batched", **PATHS
        )
        vectorized = survivability_sweep(
            "pops(2,3)",
            "coupler",
            faults=1,
            backend="vectorized",
            workers=workers,
            **PATHS,
        )
        assert vectorized.to_json() == batched.to_json()

    def test_chunk_boundaries_do_not_change_rows(self, monkeypatch):
        import repro.resilience.sweep as sweep_mod

        baseline = survivability_sweep(
            "pops(2,3)", "coupler", faults=1, backend="vectorized", **PATHS
        )
        assert _VECTOR_BATCH > 5
        monkeypatch.setattr(sweep_mod, "_VECTOR_BATCH", 5)
        tiny = survivability_sweep(
            "pops(2,3)", "coupler", faults=1, backend="vectorized", **PATHS
        )
        assert tiny.to_json() == baseline.to_json()

    def test_kernel_obs_counters_recorded_inline(self):
        survivability_sweep(
            "pops(2,3)", "coupler", faults=1, backend="vectorized", **PATHS
        )
        snap = REGISTRY.snapshot()
        assert "repro_sweep_paths_kernel_trials_total" in snap
        trials = snap["repro_sweep_paths_kernel_trials_total"]["series"]
        assert trials[0][1] == PATHS["trials"]
        assert "repro_sweep_paths_kernel_hops" in snap

    @pytest.mark.parametrize("workers", [0, 2])
    def test_kernel_counters_count_every_row(self, workers, monkeypatch):
        # scoring each distinct fault pattern once changes neither
        # series: the trial counter counts every row, and each batch
        # observes its deepest frontier over all of its rows
        import repro.resilience.sweep as sweep_mod
        from repro.obs.metrics import reset_worker_registry
        from repro.resilience.sweep import SweepRequest, _index_chunks, _prepare_sweep

        monkeypatch.setattr(sweep_mod, "_VECTOR_BATCH", 7)
        trials, seed = 40, 3
        request = SweepRequest(
            model="processor", faults=2, trials=trials, seed=seed,
            metrics="paths", backend="vectorized",
        )
        prepared = _prepare_sweep("pops(2,3)", request)
        ctx = prepared.plan.build_context(net=prepared.net)
        chunks = _index_chunks(trials, workers) if workers else [(0, trials)]
        hops, distinct = [], 0
        for lo, hi in chunks:
            for start in range(lo, hi, ctx.batch):
                dead, direct = ctx._sample_masks(start, min(start + ctx.batch, hi))
                hops.append(ctx._score_rows(dead, direct)[1])  # every row scored
                distinct += len({(d.tobytes(), c.tobytes()) for d, c in zip(dead, direct)})
        assert distinct < trials  # some rows really are shared
        reset_worker_registry()
        REGISTRY.reset()
        survivability_sweep(
            "pops(2,3)", "processor", faults=2, trials=trials, seed=seed,
            metrics="paths", backend="vectorized", workers=workers,
        )
        (counter,) = REGISTRY.series("repro_sweep_paths_kernel_trials_total").values()
        assert counter.value == trials
        (histogram,) = REGISTRY.series("repro_sweep_paths_kernel_hops").values()
        assert histogram.summary()["count"] == len(hops)
        assert histogram.summary()["sum"] == sum(hops)

    def test_cli_paths_backend_flag(self, capsys):
        argv = [
            "resilience",
            "pops(2,3)",
            "--trials",
            "6",
            "--metrics",
            "paths",
            "--json",
        ]
        assert main([*argv, "--backend", "vectorized"]) == 0
        fast = capsys.readouterr().out
        assert main([*argv, "--backend", "batched"]) == 0
        assert fast == capsys.readouterr().out
        assert "mean_stretch" in json.loads(fast)["quantiles"]


# ----------------------------------------------------------------------
# Structured-hook families: recorded downgrade, never silent drift
# ----------------------------------------------------------------------
class TestStructuredHookDowngrade:
    def test_stack_kautz_paths_downgrades_with_reason(self):
        vectorized = survivability_sweep(
            "sk(2,2,2)", "coupler", faults=1, backend="vectorized", **PATHS
        )
        assert vectorized.backend == "batched"
        assert "fault_route" in vectorized.downgrade_reason
        assert "backend='batched'" in vectorized.downgrade_reason
        batched = survivability_sweep(
            "sk(2,2,2)", "coupler", faults=1, backend="batched", **PATHS
        )
        assert vectorized.to_json() == batched.to_json()

    def test_downgrade_never_leaks_into_json(self):
        summary = survivability_sweep(
            "sk(2,2,2)", "coupler", faults=1, backend="vectorized", **PATHS
        )
        data = summary.as_dict()
        assert "backend" not in data
        assert "downgrade_reason" not in data
        assert "note:" in summary.formatted()

    def test_downgrade_counter_incremented(self):
        survivability_sweep(
            "sk(2,2,2)", "coupler", faults=1, backend="vectorized", **PATHS
        )
        snap = REGISTRY.snapshot()
        series = snap["repro_sweep_backend_downgrades_total"]["series"]
        labels = dict(series[0][0])
        assert labels == {"from": "vectorized", "to": "batched"}
        assert series[0][1] == 1

    def test_connectivity_mode_not_downgraded(self):
        summary = survivability_sweep(
            "sk(2,2,2)",
            "coupler",
            faults=1,
            trials=6,
            metrics="connectivity",
            backend="vectorized",
        )
        assert summary.backend == "vectorized"
        assert summary.downgrade_reason is None

    def test_experiment_cells_record_executed_backend(self):
        exp = Experiment(
            specs=("pops(2,3)", "sk(2,2,2)"),
            models="coupler",
            metrics=("paths",),
            backend="vectorized",
            trials=4,
        )
        with Session() as s:
            result = s.run_experiment(exp)
        by_spec = {cell.spec: cell for cell in result}
        assert by_spec["pops(2,3)"].backend == "vectorized"
        assert by_spec["sk(2,2,2)"].backend == "batched"


# ----------------------------------------------------------------------
# Cross-family invariant: paths vs connectivity reachability agree
# ----------------------------------------------------------------------
class TestCrossFamilyReachabilityInvariant:
    """``reachable_groups`` is the same fact in both metric modes.

    Paths mode counts routed ordered pairs, connectivity mode counts
    BFS-reachable ordered pairs; on every registered family the
    ``fault_route`` contract guarantees they coincide.
    """

    EXAMPLES = ["pops(4,2)", "sk(2,2,2)", "sii(2,3,10)", "sops(6)"]

    @pytest.mark.parametrize("spec", EXAMPLES)
    @pytest.mark.parametrize(
        "model", ["coupler", "processor", "link", "group", "adversarial"]
    )
    def test_reachable_groups_agrees(self, spec, model):
        kwargs = dict(faults=1, trials=10, seed=3, backend="batched")
        paths = survivability_sweep(spec, model, metrics="paths", **kwargs)
        conn = survivability_sweep(
            spec, model, metrics="connectivity", **kwargs
        )
        assert (
            paths.quantiles["reachable_groups"]
            == conn.quantiles["reachable_groups"]
        )


# ----------------------------------------------------------------------
# design_search ranking on path metrics
# ----------------------------------------------------------------------
class TestRankBy:
    KW = dict(max_processors=8, families=("pops",), trials=6, seed=2)

    def test_rankings_registry(self):
        assert RANKINGS == (
            "survivability-per-cost",
            "within-bound",
            "mean-stretch",
        )

    def test_default_ranking_unchanged(self):
        result = design_search(**self.KW)
        assert result.rank_by == "survivability-per-cost"
        assert result.as_dict()["rank_by"] == "survivability-per-cost"

    def test_path_rankings_need_path_metrics(self):
        with pytest.raises(ValueError, match="rank_by"):
            design_search(rank_by="within-bound", **self.KW)
        with pytest.raises(ValueError, match="unknown"):
            design_search(rank_by="alphabetical", **self.KW)

    @pytest.mark.parametrize("rank_by", ["within-bound", "mean-stretch"])
    def test_path_rankings_order_the_table(self, rank_by):
        result = design_search(
            metrics="paths",
            backend="vectorized",
            rank_by=rank_by,
            **self.KW,
        )
        assert result.rank_by == rank_by
        candidates = result.candidates
        assert len(candidates) > 1
        assert all(c.mean_stretch is not None for c in candidates)
        if rank_by == "within-bound":
            keys = [-(c.within_bound_fraction or 0.0) for c in candidates]
        else:
            keys = [c.mean_stretch for c in candidates]
        assert keys == sorted(keys)

    def test_connectivity_candidates_have_no_stretch(self):
        result = design_search(**self.KW)
        assert all(c.mean_stretch is None for c in result.candidates)
        assert '"mean_stretch": null' in result.to_json()

    def test_cli_rank_by_flag(self, capsys):
        argv = [
            "design-search",
            "--max-processors",
            "8",
            "--families",
            "pops",
            "--trials",
            "4",
            "--metrics",
            "paths",
            "--backend",
            "vectorized",
            "--rank-by",
            "mean-stretch",
            "--json",
        ]
        assert main(argv) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["rank_by"] == "mean-stretch"

    def test_serve_validator_normalizes_rank_by(self):
        from repro.serve.protocol import ServeError, validate_design_search

        normalized = validate_design_search(
            {
                "max_processors": 8,
                "metrics": "paths",
                "backend": "vectorized",
                "rank_by": "within-bound",
            }
        )
        assert normalized["rank_by"] == "within-bound"
        with pytest.raises(ServeError, match="path metrics"):
            validate_design_search(
                {"max_processors": 8, "rank_by": "mean-stretch"}
            )
        with pytest.raises(ServeError, match="unknown ranking"):
            validate_design_search(
                {"max_processors": 8, "rank_by": "best-first"}
            )
