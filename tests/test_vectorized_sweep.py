"""Vectorized sweep backend + pooled design-search candidate tests.

The PR 4 contract: the ``vectorized`` backend (flat topology arrays,
batched numpy fault masks and reachability) must reproduce the
``batched`` backend's connectivity-mode aggregate JSON **byte for
byte** -- same SHA-256 trial-seed stream, same metrics -- for any
worker count, fault model and family; and a design search on a pool
(one pool map across all candidate sweeps) must return a ranked table
identical to per-sweep execution.
"""

import copy
import json

import numpy as np
import pytest

from repro import temporal_sweep
from repro.__main__ import main
from repro.core import design_search
from repro.resilience import (
    SWEEP_BACKENDS,
    BernoulliCouplerFaults,
    SweepRequest,
    pooled_survivability_sweeps,
    survivability_sweep,
)
from repro.resilience.sweep import _TopologyArrays, _VECTOR_BATCH, _prepare_sweep

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
        batched = survivability_sweep(
            "sk(2,2,2)", "coupler", faults=1, backend="batched", **CONN
        )
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
        assert SWEEP_BACKENDS == ("auto", "batched", "vectorized")

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
# Shared rows: the kernel scores each distinct fault pattern once
# ----------------------------------------------------------------------
def kernel(spec, metrics, model="coupler", faults=1, seed=7):
    """The vectorized trial context of one sweep plan."""
    request = SweepRequest(
        model=model, faults=faults, trials=8, seed=seed, metrics=metrics,
        backend="vectorized",
    )
    prepared = _prepare_sweep(spec, request)
    return prepared.plan.build_context(net=prepared.net)


def mask_rows(dead, direct):
    """Each row's masks as one hashable key."""
    return [(d.tobytes(), c.tobytes()) for d, c in zip(dead, direct)]


def batches(ctx, rows):
    """``(name, dead, direct)`` batches of every sharing shape."""
    dead, direct = ctx._sample_masks(0, rows)  # a sampled batch: repeats
    n, m = dead.shape[1], direct.shape[1]
    # all distinct: row j kills the set bits of j, xor one random pattern
    count = min(rows, 2 ** (n + m))
    flip = np.random.default_rng(rows).random(n + m) < 0.5
    bits = ((np.arange(count)[:, None] >> np.arange(n + m)) & 1 == 1) ^ flip
    return [
        ("sampled", dead, direct),
        ("all-equal", np.repeat(dead[:1], rows, 0), np.repeat(direct[:1], rows, 0)),
        ("all-distinct", bits[:, :n], bits[:, n:]),
        ("single", dead[:1], direct[:1]),
        (
            "mixed",
            np.concatenate([dead, bits[:, :n], dead[::-1]]),
            np.concatenate([direct, bits[:, n:], direct[::-1]]),
        ),
    ]


class TestSharedRows:
    CASES = [
        ("sk(2,2,2)", "connectivity", "coupler", 1),
        ("sk(2,2,2)", "connectivity", "processor", 2),
        ("pops(2,3)", "paths", "coupler", 1),
        ("sii(2,2,6)", "paths", "link", 1),
        ("pops(1,1)", "connectivity", "coupler", 1),  # num_processors <= 1
        ("sops(1)", "paths", "processor", 1),
    ]

    @pytest.mark.parametrize("spec,metrics,model,faults", CASES)
    def test_scores_equal_row_by_row_scoring(self, spec, metrics, model, faults):
        ctx = kernel(spec, metrics, model, faults)
        for name, dead, direct in batches(ctx, 48):
            rows = ctx.score(dead, direct)
            # the oracle: every row scored, none shared
            assert rows == ctx._score_rows(dead, direct)[0], name
            assert rows == [
                ctx.score(dead[j : j + 1], direct[j : j + 1])[0]
                for j in range(len(dead))
            ], name
            # equal masks share one dict, distinct masks never do
            keys = mask_rows(dead, direct)
            if name == "all-distinct":
                assert len(set(keys)) == len(keys)
            by_key = {}
            for key, row in zip(keys, rows):
                assert by_key.setdefault(key, row) is row, name
            assert len({id(row) for row in rows}) == len(set(keys)), name

    def test_empty_batch_scores_nothing(self):
        ctx = kernel("sk(2,2,2)", "connectivity")
        dead, direct = ctx._sample_masks(0, 0)
        assert ctx.score(dead, direct) == []

    @pytest.mark.parametrize("workers", [0, 2])
    def test_kernel_rows_counted_in_and_scored(self, workers):
        from repro.core.session import Session
        from repro.obs.metrics import REGISTRY, reset_worker_registry
        from repro.obs.trace import disable_tracing, enable_tracing
        from repro.resilience.sweep import _index_chunks

        trials, seed = 10_000, 4
        ctx = kernel("sk(2,2,2)", "connectivity", seed=seed)
        chunks = _index_chunks(trials, workers) if workers else [(0, trials)]
        scored = 0
        for lo, hi in chunks:
            for start in range(lo, hi, ctx.batch):
                dead, direct = ctx._sample_masks(start, min(start + ctx.batch, hi))
                scored += len(set(mask_rows(dead, direct)))
        assert scored <= 18 * sum(-(-(hi - lo) // ctx.batch) for lo, hi in chunks)

        def run():
            # start from empty registries
            reset_worker_registry()
            REGISTRY.reset()
            with Session(workers=workers) as session:
                text = session.resilience_sweep(
                    "sk(2,2,2)", trials=trials, seed=seed, metrics="connectivity"
                ).to_json()
            counts = {
                dict(labels)["kind"]: counter.value
                for labels, counter in REGISTRY.series("repro_kernel_rows_total").items()
                if dict(labels)["backend"] == "vectorized"
            }
            return text, counts

        plain, counts = run()
        assert counts == {"in": trials, "scored": scored}
        enable_tracing()
        try:
            traced, traced_counts = run()
        finally:
            disable_tracing()
        assert traced == plain
        assert traced_counts == counts

    @pytest.mark.parametrize(
        "run",
        [
            lambda: survivability_sweep(
                "sk(2,2,2)", "coupler", faults=1, trials=5000, seed=2,
                metrics="connectivity", backend="vectorized",
            ),
            lambda: survivability_sweep(
                "pops(2,3)", "processor", faults=2, trials=600, seed=2,
                metrics="paths", backend="vectorized",
            ),
            lambda: survivability_sweep(
                "sk(2,2,2)", "coupler", faults=2, trials=20_000, seed=2,
                metrics="connectivity", backend="vectorized", ci_target=0.02,
            ),
            lambda: survivability_sweep(
                "sk(2,2,2)", BernoulliCouplerFaults(rate=0.0075), trials=20_000,
                seed=3, metrics="connectivity", backend="vectorized",
                ci_target=0.001, sampling="importance",
            ),
            lambda: temporal_sweep(
                "sk(2,2,2)", faults=2, trials=12, horizon=200, seed=1,
                metrics="connectivity",
            ),
            lambda: temporal_sweep(
                "pops(4,2)", faults=2, trials=12, horizon=200, seed=1,
                metrics="paths",
            ),
        ],
        ids=["sweep", "paths", "adaptive", "importance", "temporal", "temporal-paths"],
    )
    def test_consumers_leave_shared_rows_unchanged(self, monkeypatch, run):
        from repro.resilience.sweep import _VectorContext

        handed_out = []
        score = _VectorContext.score

        def recording(self, dead, direct):
            rows = score(self, dead, direct)
            handed_out.append((rows, copy.deepcopy(rows)))
            return rows

        monkeypatch.setattr(_VectorContext, "score", recording)
        run()
        shared = sum(len(rows) - len({id(r) for r in rows}) for rows, _ in handed_out)
        assert shared > 0  # the run really handed out shared rows
        for rows, before in handed_out:
            assert rows == before


# ----------------------------------------------------------------------
# Pooled sweeps + design-search candidates on one pool
# ----------------------------------------------------------------------
class TestPooledSweeps:
    REQUESTS = [
        (
            "sk(2,2,2)",
            SweepRequest(model="coupler", faults=1, backend="batched", **CONN),
        ),
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
    def test_two_worker_search_identical_to_inline(self):
        """The satellite contract: the ranked table does not move."""
        inline = design_search(backend="batched", **SEARCH_KW)
        pooled = design_search(backend="batched", workers=2, **SEARCH_KW)
        assert pooled.to_json() == inline.to_json()

    def test_pooled_candidates_match_their_standalone_sweeps(self):
        pooled = design_search(backend="batched", workers=2, **SEARCH_KW)
        assert len(pooled.candidates) >= 2
        for candidate in pooled.candidates:
            solo = survivability_sweep(
                candidate.spec, "coupler", trials=8, seed=11,
                metrics="connectivity", backend="batched",
            )
            assert candidate.survivability == solo.quantiles["connectivity"]["mean"]
            assert candidate.partitioned_fraction == solo.partitioned_fraction

    def test_vectorized_backend_identical_ranked_table(self):
        batched = design_search(backend="batched", **SEARCH_KW)
        vectorized = design_search(backend="vectorized", **SEARCH_KW)
        assert vectorized.to_json() == batched.to_json()

    def test_two_worker_vectorized_identical(self):
        baseline = design_search(backend="batched", **SEARCH_KW)
        combined = design_search(backend="vectorized", workers=2, **SEARCH_KW)
        assert combined.to_json() == baseline.to_json()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep backend"):
            design_search(max_processors=4, trials=2, backend="quantum")

    def test_cli_search_is_worker_invariant(self, capsys):
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
        assert main([*argv, "--backend", "batched"]) == 0
        baseline = capsys.readouterr().out
        assert main([*argv, "--workers", "2", "--backend", "batched"]) == 0
        assert capsys.readouterr().out == baseline
        assert main([*argv, "--backend", "vectorized"]) == 0
        assert capsys.readouterr().out == baseline
