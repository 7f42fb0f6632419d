"""Vectorized sweep backend + candidate-level parallelism tests.

The PR 4 contract: the ``vectorized`` backend (flat topology arrays,
batched numpy fault masks and reachability) must reproduce the
``batched`` backend's connectivity-mode aggregate JSON **byte for
byte** -- same SHA-256 trial-seed stream, same metrics -- for any
worker count, fault model and family; and the design search's
``parallelism="candidates"`` mode (one pool across all candidate
sweeps) must return a ranked table identical to per-sweep execution.
"""

import json

import pytest

from repro.__main__ import main
from repro.core import design_search
from repro.resilience import (
    SWEEP_BACKENDS,
    SweepRequest,
    pooled_survivability_sweeps,
    survivability_sweep,
)
from repro.resilience.sweep import _TopologyArrays, _VECTOR_BATCH

CONN = dict(trials=24, seed=7, metrics="connectivity")


# ----------------------------------------------------------------------
# Vectorized backend: byte-identity vs batched
# ----------------------------------------------------------------------
class TestVectorizedMatchesBatched:
    @pytest.mark.parametrize(
        "spec", ["sk(2,2,2)", "sk(3,2,2)", "pops(2,3)", "sops(6)", "sii(2,2,6)"]
    )
    @pytest.mark.parametrize(
        "model,faults",
        [
            ("coupler", 1),
            ("processor", 2),
            ("link", 1),
            ("adversarial", 1),
            ("group", 1),
        ],
    )
    def test_every_family_and_model_byte_identical(self, spec, model, faults):
        batched = survivability_sweep(
            spec, model, faults=faults, backend="batched", **CONN
        )
        vectorized = survivability_sweep(
            spec, model, faults=faults, backend="vectorized", **CONN
        )
        assert vectorized.to_json() == batched.to_json()

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_worker_counts_byte_identical_to_batched(self, workers):
        """The satellite contract: 1/2/4 workers all agree with batched."""
        batched = survivability_sweep("sk(2,2,2)", "coupler", faults=1, **CONN)
        vectorized = survivability_sweep(
            "sk(2,2,2)",
            "coupler",
            faults=1,
            backend="vectorized",
            workers=workers,
            **CONN,
        )
        assert vectorized.to_json() == batched.to_json()

    def test_chunk_boundaries_do_not_change_rows(self, monkeypatch):
        """Sub-batching is invisible: a tiny batch size gives the same JSON."""
        import repro.resilience.sweep as sweep_mod

        baseline = survivability_sweep(
            "pops(2,3)", "coupler", faults=1, backend="vectorized", **CONN
        )
        assert _VECTOR_BATCH > 5  # the monkeypatch below must shrink it
        monkeypatch.setattr(sweep_mod, "_VECTOR_BATCH", 5)
        tiny = survivability_sweep(
            "pops(2,3)", "coupler", faults=1, backend="vectorized", **CONN
        )
        assert tiny.to_json() == baseline.to_json()

    def test_vectorized_rejects_full_but_accepts_paths(self):
        with pytest.raises(ValueError, match="vectorized backend"):
            survivability_sweep(
                "pops(2,2)", trials=2, backend="vectorized", metrics="full"
            )
        summary = survivability_sweep(
            "pops(2,2)", trials=2, backend="vectorized", metrics="paths"
        )
        assert "mean_stretch" in summary.quantiles

    def test_backend_registry_names_both(self):
        assert SWEEP_BACKENDS == ("batched", "vectorized")

    def test_cli_backend_flag_reaches_the_vectorized_path(self, capsys):
        argv = [
            "resilience",
            "sk(2,2,2)",
            "--trials",
            "6",
            "--metrics",
            "connectivity",
            "--json",
        ]
        assert main([*argv, "--backend", "vectorized"]) == 0
        fast = capsys.readouterr().out
        assert main([*argv, "--backend", "batched"]) == 0
        assert fast == capsys.readouterr().out
        assert json.loads(fast)["trials"] == 6


class TestTopologyArrays:
    def test_export_matches_network_surface(self):
        import repro
        from repro.resilience.faults import coupler_endpoints

        net = repro.build("sk(2,2,2)")
        arrays = _TopologyArrays.from_network(net)
        assert arrays.num_processors == net.num_processors
        assert arrays.num_groups == net.num_groups
        assert arrays.num_couplers == net.num_couplers
        assert arrays.endpoints.tolist() == [
            list(pair) for pair in coupler_endpoints(net)
        ]
        assert arrays.proc_group.tolist() == [
            int(net.label_of(p)[0]) for p in range(net.num_processors)
        ]
        # CSR incidence covers every hyperarc endpoint exactly
        model = net.hypergraph_model()
        assert arrays.src_indptr[-1] == sum(
            len(ha.sources) for ha in model.hyperarcs
        )
        assert arrays.tgt_indptr[-1] == sum(
            len(ha.targets) for ha in model.hyperarcs
        )

    def test_proxy_draws_the_same_scenarios(self):
        """The worker-side proxy replays scenario() draws exactly."""
        import random

        import repro
        from repro.resilience.faults import make_fault_model, trial_seed
        from repro.resilience.sweep import _ArrayNetworkProxy

        net = repro.build("pops(2,3)")
        proxy = _ArrayNetworkProxy(_TopologyArrays.from_network(net))
        for key in ("coupler", "processor", "link", "adversarial", "group"):
            model = make_fault_model(key, 1)
            for index in range(5):
                seed = trial_seed(3, index)
                scenario = model.scenario("pops(2,3)", net, seed)
                couplers, processors = model.sample_faults(
                    proxy, random.Random(seed)
                )
                assert frozenset(couplers) == scenario.couplers, key
                assert frozenset(processors) == scenario.processors, key


# ----------------------------------------------------------------------
# Pooled sweeps + design-search candidate parallelism
# ----------------------------------------------------------------------
class TestPooledSweeps:
    REQUESTS = [
        ("sk(2,2,2)", SweepRequest(model="coupler", faults=1, **CONN)),
        (
            "pops(2,3)",
            SweepRequest(
                model="link",
                faults=1,
                backend="vectorized",
                **CONN,
            ),
        ),
        ("pops(2,2)", SweepRequest(model="coupler", faults=1, trials=8,
                                   seed=7, messages=8)),
    ]

    def _solo(self):
        return [
            survivability_sweep(spec, request)
            for spec, request in self.REQUESTS
        ]

    @pytest.mark.parametrize("workers", [None, 2, 4])
    def test_matches_per_sweep_execution(self, workers):
        pooled = pooled_survivability_sweeps(self.REQUESTS, workers=workers)
        for mine, solo in zip(pooled, self._solo()):
            assert mine.to_json() == solo.to_json()

    def test_order_is_request_order(self):
        pooled = pooled_survivability_sweeps(self.REQUESTS, workers=2)
        assert [s.spec for s in pooled] == ["sk(2,2,2)", "pops(2,3)", "pops(2,2)"]

    def test_legacy_backend_has_no_pooled_form(self):
        with pytest.raises(ValueError, match="unknown sweep backend 'legacy'"):
            pooled_survivability_sweeps(
                [("pops(2,2)", SweepRequest(trials=2, backend="legacy"))]
            )


SEARCH_KW = dict(
    max_processors=12, families=("pops", "sk", "sops"), trials=8, seed=11
)


class TestCandidateParallelism:
    def test_candidates_mode_identical_to_per_sweep_mode(self):
        """The satellite contract: the ranked table does not move."""
        per_sweep = design_search(**SEARCH_KW)
        pooled = design_search(
            parallelism="candidates", workers=2, **SEARCH_KW
        )
        assert pooled.to_json() == per_sweep.to_json()

    def test_candidates_mode_inline_identical_too(self):
        per_sweep = design_search(**SEARCH_KW)
        inline = design_search(parallelism="candidates", **SEARCH_KW)
        assert inline.to_json() == per_sweep.to_json()

    def test_vectorized_backend_identical_ranked_table(self):
        batched = design_search(**SEARCH_KW)
        vectorized = design_search(backend="vectorized", **SEARCH_KW)
        assert vectorized.to_json() == batched.to_json()

    def test_candidates_plus_vectorized_identical(self):
        baseline = design_search(**SEARCH_KW)
        combined = design_search(
            parallelism="candidates",
            backend="vectorized",
            workers=2,
            **SEARCH_KW,
        )
        assert combined.to_json() == baseline.to_json()

    def test_unknown_parallelism_and_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown parallelism"):
            design_search(max_processors=4, trials=2, parallelism="threads")
        with pytest.raises(ValueError, match="unknown sweep backend"):
            design_search(max_processors=4, trials=2, backend="quantum")

    def test_cli_parallelism_flag_is_result_invariant(self, capsys):
        argv = [
            "design-search",
            "--max-processors",
            "8",
            "--families",
            "pops",
            "--trials",
            "4",
            "--json",
        ]
        assert main(argv) == 0
        baseline = capsys.readouterr().out
        assert (
            main([*argv, "--parallelism", "candidates", "--workers", "2"]) == 0
        )
        assert capsys.readouterr().out == baseline
        assert main([*argv, "--backend", "vectorized"]) == 0
        assert capsys.readouterr().out == baseline
