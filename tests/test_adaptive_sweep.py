"""The adaptive Monte-Carlo engine's determinism and safety contracts.

Four families of checks:

* **byte identity** -- an adaptive sweep (sequential stopping,
  stratified or importance sampling) serializes byte-identically at
  any worker count and across the batched/vectorized backends, and a
  fixed-trial sweep still reproduces the pre-adaptive golden outputs
  under ``tests/golden/`` byte for byte;
* **stopping discipline** -- the stopper never exceeds the ``trials``
  cap, spends whole waves, and spends monotonically more as the
  half-width target tightens;
* **algebraic properties** (hypothesis) -- stratum allocations
  conserve the total, the importance proposal is a distribution, and
  likelihood-ratio weights are positive, capped and integrate to 1;
* **door validation** -- bad ``trials`` / ``ci_target`` / ``sampling``
  and unsupported model/backend combinations fail fast with
  ``ValueError`` instead of deep in a worker.
"""

import json
import math
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import build
from repro.resilience import (
    SAMPLING_MODES,
    BernoulliCouplerFaults,
    GroupBlockOutage,
    PersistentSweepExecutor,
    SweepRequest,
    UniformCouplerFaults,
    UniformProcessorFaults,
    pooled_survivability_sweeps,
    survivability_sweep,
)
from repro.resilience.adaptive import (
    CardinalityProfile,
    ImportanceSampler,
    StratifiedSampler,
    allocate_strata,
    build_strata,
    cardinality_profile,
    make_sampler,
    wave_schedule,
    wilson_interval,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"

ADAPTIVE_KEYS = {
    "sampling",
    "ci_target",
    "trials_requested",
    "trials_spent",
    "rounds",
    "survival",
    "ci_low",
    "ci_high",
    "ci_half_width",
}


class TestWorkerAndBackendByteIdentity:
    @pytest.mark.parametrize("sampling", SAMPLING_MODES)
    def test_adaptive_json_identical_at_any_worker_count(self, sampling):
        model = BernoulliCouplerFaults(rate=0.2)
        texts = {}
        for workers in (None, 2, 4):
            summary = survivability_sweep(
                "sk(2,2,2)",
                model,
                trials=300,
                seed=11,
                metrics="connectivity",
                ci_target=0.05,
                sampling=sampling,
                backend="batched",
                workers=workers,
            )
            texts[workers] = summary.to_json()
        assert texts[None] == texts[2] == texts[4]
        assert json.loads(texts[None])["adaptive"]["sampling"] == sampling

    @pytest.mark.parametrize("sampling", SAMPLING_MODES)
    def test_vectorized_matches_batched(self, sampling):
        model = BernoulliCouplerFaults(rate=0.2)
        outs = [
            survivability_sweep(
                "sk(2,2,1)",
                model,
                trials=256,
                seed=5,
                metrics="connectivity",
                ci_target=0.06,
                sampling=sampling,
                backend=backend,
            ).as_dict()
            for backend in ("batched", "vectorized")
        ]
        # backend is recorded (and vectorized may legally downgrade),
        # everything else -- rows, quantiles, adaptive block -- is equal
        for out in outs:
            out.pop("backend", None)
        assert outs[0] == outs[1]

    def test_warm_executor_matches_cold_run(self):
        model = BernoulliCouplerFaults(rate=0.25)
        kwargs = dict(
            trials=200,
            seed=9,
            metrics="connectivity",
            ci_target=0.08,
            sampling="stratified",
            backend="batched",
        )
        cold = survivability_sweep("pops(2,3)", model, **kwargs)
        with PersistentSweepExecutor(2) as executor:
            (warm,) = pooled_survivability_sweeps(
                [("pops(2,3)", SweepRequest(model, **kwargs))],
                executor=executor,
            )
        assert warm.to_json() == cold.to_json()


class TestFixedTrialGoldens:
    """Fixed-trial sweeps still produce the pre-adaptive bytes."""

    CASES = {
        "fixed_pops23_connectivity.json": dict(
            spec="pops(2,3)",
            model="coupler",
            faults=1,
            trials=7,
            seed=3,
            metrics="connectivity",
            backend="batched",
        ),
        "fixed_sk222_full.json": dict(
            spec="sk(2,2,2)",
            model="coupler",
            faults=2,
            trials=5,
            seed=1,
            messages=10,
            metrics="full",
        ),
        "fixed_sk221_paths_vectorized.json": dict(
            spec="sk(2,2,1)",
            model="processor",
            faults=1,
            trials=6,
            seed=2,
            metrics="paths",
            backend="vectorized",
        ),
        # full mode beyond stack-Kautz coupler faults: every family,
        # each fault model that changes what the slotted engine drops
        "fixed_pops34_full.json": dict(
            spec="pops(3,4)",
            model="coupler",
            faults=2,
            trials=12,
            seed=11,
            messages=20,
            metrics="full",
        ),
        "fixed_sii3210_full.json": dict(
            spec="sii(3,2,10)",
            model="link",
            faults=1,
            trials=12,
            seed=11,
            messages=20,
            metrics="full",
        ),
        "fixed_sops6_full.json": dict(
            spec="sops(6)",
            model="processor",
            faults=1,
            trials=12,
            seed=11,
            messages=20,
            metrics="full",
        ),
        "fixed_sk323_full.json": dict(
            spec="sk(3,2,3)",
            model="group",
            faults=1,
            trials=12,
            seed=11,
            messages=20,
            metrics="full",
        ),
        # stack-Kautz routing past its compiled candidates: these views
        # fall back to the word-level search and to the generic BFS
        "fixed_sk222_paths_fallback.json": dict(
            spec="sk(2,2,2)",
            model="coupler",
            faults=3,
            trials=12,
            seed=11,
            metrics="paths",
            backend="batched",
        ),
        # dead groups drop out of the live pairs and the simulation
        "fixed_sk223_full_group.json": dict(
            spec="sk(2,2,3)",
            model="group",
            faults=2,
            trials=12,
            seed=11,
            messages=20,
            metrics="full",
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_bytes_match_golden(self, name):
        params = dict(self.CASES[name])
        spec = params.pop("spec")
        summary = survivability_sweep(spec, **params)
        assert summary.to_json() == (GOLDEN / name).read_text()
        assert summary.adaptive is None

    @pytest.mark.parametrize("workers", [2, 4])
    def test_golden_bytes_at_higher_worker_counts(self, workers):
        params = dict(self.CASES["fixed_pops23_connectivity.json"])
        spec = params.pop("spec")
        summary = survivability_sweep(spec, workers=workers, **params)
        golden = (GOLDEN / "fixed_pops23_connectivity.json").read_text()
        assert summary.to_json() == golden


class TestStoppingDiscipline:
    def _spent(self, ci_target, trials=2048, seed=21):
        summary = survivability_sweep(
            "sk(2,2,1)",
            BernoulliCouplerFaults(rate=0.2),
            trials=trials,
            seed=seed,
            metrics="connectivity",
            ci_target=ci_target,
        )
        return summary.adaptive

    def test_never_exceeds_cap_and_spends_whole_waves(self):
        block = self._spent(ci_target=0.0005, trials=300)
        waves = wave_schedule(300, ci_target=0.0005)
        assert block["trials_spent"] == 300  # unreachable target: spend cap
        assert block["rounds"] == len(waves)
        loose = self._spent(ci_target=0.5, trials=300)
        assert loose["trials_spent"] == waves[0]
        assert loose["rounds"] == 1

    def test_spent_monotone_in_ci_target(self):
        targets = [0.02, 0.04, 0.08, 0.2]
        spents = [self._spent(t)["trials_spent"] for t in targets]
        assert spents == sorted(spents, reverse=True)
        assert all(s <= 2048 for s in spents)

    def test_summary_trials_equals_trials_spent(self):
        summary = survivability_sweep(
            "sk(2,2,1)",
            BernoulliCouplerFaults(rate=0.2),
            trials=2048,
            seed=3,
            metrics="connectivity",
            ci_target=0.1,
        )
        assert summary.trials == summary.adaptive["trials_spent"]
        assert summary.adaptive["trials_requested"] == 2048
        assert summary.trials < 2048  # coarse target actually saves work


class TestAdaptiveBlockShape:
    def test_fixed_uniform_sweep_has_no_block(self):
        summary = survivability_sweep(
            "pops(2,2)", "coupler", trials=8, seed=1, metrics="connectivity"
        )
        assert summary.adaptive is None
        assert "adaptive" not in summary.as_dict()

    @pytest.mark.parametrize("sampling", ["stratified", "importance"])
    def test_fixed_trial_nonuniform_sampling_reports_block(self, sampling):
        summary = survivability_sweep(
            "pops(2,2)",
            BernoulliCouplerFaults(rate=0.3),
            trials=64,
            seed=4,
            metrics="connectivity",
            sampling=sampling,
        )
        block = summary.adaptive
        assert set(block) == ADAPTIVE_KEYS
        assert block["ci_target"] is None
        assert block["trials_spent"] == block["trials_requested"] == 64
        assert block["sampling"] == sampling
        assert 0.0 <= block["ci_low"] <= block["ci_high"] <= 1.0


class TestAllocationProperties:
    @given(
        total=st.integers(min_value=0, max_value=500),
        weights=st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=12
        ).filter(lambda ws: sum(ws) > 0),
    )
    @settings(max_examples=200, deadline=None)
    def test_allocations_conserve_total(self, total, weights):
        counts = allocate_strata(total, weights)
        assert sum(counts) == total
        assert all(c >= 0 for c in counts)
        positives = sum(1 for w in weights if w > 0)
        if total >= positives:
            assert all(c >= 1 for c, w in zip(counts, weights) if w > 0)

    @given(
        trials=st.integers(min_value=1, max_value=5000),
        strata=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=200, deadline=None)
    def test_wave_schedule_sums_to_trials(self, trials, strata):
        waves = wave_schedule(trials, strata=strata, ci_target=0.01)
        assert sum(waves) == trials
        assert all(w > 0 for w in waves)
        assert waves[0] == min(trials, max(64, 4 * strata))
        assert wave_schedule(trials, strata=strata) == (trials,)

    @given(
        m=st.integers(min_value=1, max_value=24),
        p=st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=200, deadline=None)
    def test_importance_weights_positive_capped_and_normalized(self, m, p):
        profile = cardinality_profile(
            BernoulliCouplerFaults(rate=p), build("pops(2,2)")
        )
        # rebuild at the requested size: binomial over m couplers
        profile = CardinalityProfile(
            axis="coupler",
            size=m,
            pmf=tuple(
                math.comb(m, k) * p**k * (1 - p) ** (m - k)
                for k in range(m + 1)
            ),
        )
        sampler = ImportanceSampler.plan(
            BernoulliCouplerFaults(rate=p), profile
        )
        assert sum(sampler.proposal) == pytest.approx(1.0)
        support = profile.support()
        weights = [sampler.weight(k) for k in support]
        assert all(w > 0 for w in weights)
        assert max(weights) <= 1.0 / sampler.alpha + 1e-9
        # unbiasedness identity: E_Q[w] = sum Q(k) w(k) = sum pmf = 1
        total = sum(sampler.proposal[k] * sampler.weight(k) for k in support)
        assert total == pytest.approx(1.0)

    def test_stratified_plan_covers_every_index_once(self):
        net = build("sk(2,2,1)")
        model = BernoulliCouplerFaults(rate=0.2)
        sampler = make_sampler(
            model, net, sampling="stratified", trials=200, ci_target=0.02
        )
        assert isinstance(sampler, StratifiedSampler)
        counts = [0] * len(sampler.strata)
        for index in range(200):
            counts[sampler.stratum_of(index)] += 1
        per_wave = [
            tuple(alloc) for _, alloc in sampler.schedule
        ]
        expected = [sum(col) for col in zip(*per_wave)]
        assert counts == expected
        assert sum(counts) == 200

    def test_wilson_interval_brackets_the_proportion(self):
        for successes, n in [(0, 10), (10, 10), (7, 13), (499, 500)]:
            lo, hi = wilson_interval(successes, n)
            # at p-hat = 1 the upper bound is exactly 1 mathematically;
            # allow float rounding on the bracket
            assert 0.0 <= lo <= successes / n <= hi + 1e-12
            assert hi <= 1.0


class TestDoorValidation:
    def _sweep(self, **overrides):
        kwargs = dict(
            trials=32, seed=1, metrics="connectivity", faults=1
        )
        kwargs.update(overrides)
        return survivability_sweep("sk(2,2,1)", "coupler", **kwargs)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_nonpositive_trials_rejected(self, trials):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            self._sweep(trials=trials)

    @pytest.mark.parametrize("ci_target", [0, -0.5, 0.0])
    def test_nonpositive_ci_target_rejected(self, ci_target):
        with pytest.raises(ValueError, match="ci_target must be"):
            self._sweep(ci_target=ci_target)

    @pytest.mark.parametrize("ci_target", [True, "0.05", [0.05]])
    def test_nonnumeric_ci_target_rejected(self, ci_target):
        with pytest.raises(ValueError, match="ci_target must be a number"):
            self._sweep(ci_target=ci_target)

    def test_unknown_sampling_rejected(self):
        with pytest.raises(ValueError, match="unknown sampling mode"):
            self._sweep(sampling="sobol")

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(ci_target=0.05, metrics="full"),
            dict(sampling="stratified", metrics="full"),
        ],
    )
    def test_legacy_backend_cannot_run_adaptive(self, overrides):
        # the rebuild-per-trial backend is gone: the door names it an
        # unknown backend before any adaptive wave is planned
        with pytest.raises(ValueError, match="unknown sweep backend 'legacy'"):
            self._sweep(backend="legacy", **overrides)

    def test_stratified_needs_one_trial_per_stratum(self):
        with pytest.raises(ValueError, match="at least"):
            survivability_sweep(
                "sk(2,2,1)",
                BernoulliCouplerFaults(rate=0.2),
                trials=2,
                seed=1,
                metrics="connectivity",
                sampling="stratified",
            )

    @pytest.mark.parametrize("sampling", ["stratified", "importance"])
    def test_models_without_cardinality_profile_rejected(self, sampling):
        with pytest.raises(ValueError, match="cardinality distribution"):
            survivability_sweep(
                "sk(2,2,1)",
                GroupBlockOutage(faults=1),
                trials=64,
                seed=1,
                metrics="connectivity",
                sampling=sampling,
            )

    def test_cardinality_profile_supports_exactly_three_models(self):
        net = build("sk(2,2,1)")
        for model in (
            BernoulliCouplerFaults(rate=0.1),
            UniformCouplerFaults(faults=2),
            UniformProcessorFaults(faults=1),
        ):
            profile = cardinality_profile(model, net)
            assert sum(profile.pmf) == pytest.approx(1.0)
        with pytest.raises(ValueError, match="cardinality distribution"):
            cardinality_profile(GroupBlockOutage(faults=1), net)

    def test_strata_partition_the_support(self):
        profile = cardinality_profile(
            BernoulliCouplerFaults(rate=0.2), build("sk(2,2,2)")
        )
        strata = build_strata(profile)
        covered = [
            k for lo, hi in strata for k in range(lo, hi + 1)
        ]
        assert covered == sorted(set(covered))
        assert set(profile.support()) <= set(covered)
