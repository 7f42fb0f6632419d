"""Design-search subsystem + batched sweep backend tests.

Covers the survivability-per-cost search end to end (enumeration,
costing, ranking, Pareto front, facade/CLI determinism) and the
batched sweep executor's regression contract: same seed => byte
identical ``SweepSummary.to_json()`` for 1/2/4 workers and against a
rebuild-per-trial reference sweep (:func:`_rebuild_per_trial`).
"""

import json

import pytest

import repro
from repro.__main__ import main
from repro.core import design_search
from repro.core.session import Session
from repro.design_search import (
    DEFAULT_COST_MODEL,
    CostModel,
    enumerate_candidates,
    price_spec,
)
from repro.design_search.search import _dominates
from repro.resilience import METRICS_MODES, survivability_sweep
from repro.serve.protocol import ServeError, validate_design_search


def _rebuild_per_trial(spec, model, *, faults, trials, seed, messages):
    """Reference ``full``-mode sweep that shares no per-trial state.

    Every trial re-parses the spec, rebuilds the network and scores a
    fresh :class:`~repro.resilience.degrade.DegradedNetwork` inline --
    the original one-task-per-trial engine.  Validation, the intact
    baseline and the quantile summary come from the engine itself.
    """
    from repro.core.spec import NetworkSpec
    from repro.resilience.degrade import DegradedNetwork
    from repro.resilience.faults import trial_seed
    from repro.resilience.metrics import measure
    from repro.resilience.sweep import SweepRequest, _prepare_sweep, _summarize

    prepared = _prepare_sweep(
        spec,
        SweepRequest(
            model, faults=faults, trials=trials, seed=seed, messages=messages
        ),
    )
    plan = prepared.plan
    rows = []
    for index in range(trials):
        net = NetworkSpec.parse(plan.canonical).build()
        scenario = plan.model.scenario(
            plan.canonical, net, trial_seed(plan.seed, index)
        )
        rows.append(
            measure(
                DegradedNetwork(net, scenario),
                workload=plan.workload,
                messages=plan.messages,
                seed=plan.seed,
                bound=plan.bound,
                max_slots=plan.max_slots,
                baseline_mean_latency=plan.baseline_mean_latency,
            ).as_dict()
        )
    return _summarize(prepared, rows)


# ----------------------------------------------------------------------
# Batched backend: determinism regression (satellite)
# ----------------------------------------------------------------------
class TestBatchedSweepDeterminism:
    KW = dict(faults=1, trials=12, seed=7, messages=10)

    def test_batched_matches_legacy_byte_identical(self):
        legacy = _rebuild_per_trial("sk(2,2,2)", "coupler", **self.KW)
        batched = survivability_sweep("sk(2,2,2)", "coupler", backend="batched", **self.KW)
        assert batched.to_json() == legacy.to_json()

    @pytest.mark.parametrize("spec", ["sk(2,2,2)", "pops(2,3)"])
    def test_one_two_four_workers_byte_identical(self, spec):
        inline = survivability_sweep(spec, "coupler", workers=1, **self.KW)
        two = survivability_sweep(spec, "coupler", workers=2, **self.KW)
        four = survivability_sweep(spec, "coupler", workers=4, **self.KW)
        assert inline.to_json() == two.to_json() == four.to_json()

    def test_connectivity_mode_worker_count_independent(self):
        kw = dict(
            faults=2, trials=16, seed=3, metrics="connectivity",
            backend="batched",
        )
        inline = survivability_sweep("sk(2,2,2)", "coupler", **kw)
        four = survivability_sweep("sk(2,2,2)", "coupler", workers=4, **kw)
        assert inline.to_json() == four.to_json()

    def test_legacy_workers_still_match_batched(self):
        legacy = _rebuild_per_trial("pops(2,3)", "coupler", **self.KW)
        batched = survivability_sweep(
            "pops(2,3)", "coupler", backend="batched", workers=3, **self.KW
        )
        assert legacy.to_json() == batched.to_json()


class TestMetricsModes:
    def test_connectivity_quantiles_match_full_mode(self):
        kw = dict(faults=1, trials=10, seed=5)
        full = survivability_sweep("sk(2,2,2)", "coupler", messages=10, **kw)
        conn = survivability_sweep(
            "sk(2,2,2)", "coupler", metrics="connectivity", **kw
        )
        for key in METRICS_MODES["connectivity"]:
            assert conn.quantiles[key] == full.quantiles[key], key
        assert conn.partitioned_fraction == full.partitioned_fraction

    def test_paths_mode_matches_full_on_path_metrics(self):
        kw = dict(faults=1, trials=10, seed=5)
        full = survivability_sweep("sk(2,2,2)", "coupler", messages=10, **kw)
        paths = survivability_sweep("sk(2,2,2)", "coupler", metrics="paths", **kw)
        for key in METRICS_MODES["paths"]:
            assert paths.quantiles[key] == full.quantiles[key], key
        assert paths.within_bound_fraction == full.within_bound_fraction

    def test_connectivity_mode_drops_simulation_fields(self):
        s = survivability_sweep(
            "pops(2,2)", "coupler", trials=4, seed=1, metrics="connectivity"
        )
        assert set(s.quantiles) == set(METRICS_MODES["connectivity"])
        assert s.within_bound_fraction is None
        assert s.messages == 0
        assert "path metrics not computed" in s.formatted()
        assert json.loads(s.to_json())["within_bound_fraction"] is None

    def test_invalid_mode_and_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown metrics mode"):
            survivability_sweep("pops(2,2)", trials=2, metrics="everything")
        with pytest.raises(ValueError, match="unknown sweep backend"):
            survivability_sweep("pops(2,2)", trials=2, backend="turbo")
        with pytest.raises(ValueError, match="unknown sweep backend 'legacy'"):
            survivability_sweep("pops(2,2)", trials=2, backend="legacy")


# ----------------------------------------------------------------------
# Costing
# ----------------------------------------------------------------------
class TestCosting:
    def test_price_is_positive_and_monotone_in_size(self):
        assert price_spec("sops(2)") > 0
        assert price_spec("sops(16)") > price_spec("sops(4)")
        assert price_spec("sk(2,2,3)") > price_spec("sk(2,2,2)")

    def test_custom_cost_model_reprices(self):
        free_lenses = CostModel(lens=0.0, otis_stage=0.0)
        assert price_spec("sk(2,2,2)", free_lenses) < price_spec("sk(2,2,2)")

    def test_defaults_follow_published_prices(self):
        from repro.design_search import prices

        defaults = DEFAULT_COST_MODEL.as_dict()
        assert defaults["transmitter"] == prices.TRANSMITTER_USD
        assert defaults["receiver"] == prices.RECEIVER_USD
        assert defaults["lens"] == prices.LENS_USD
        # the published ordering the paper argues qualitatively:
        # transceivers dominate, lenses and fiber jumpers are cheap
        assert (
            defaults["transmitter"]
            > defaults["receiver"]
            > defaults["multiplexer"]
            > defaults["beam_splitter"]
            > defaults["coupler"]
            > defaults["lens"]
            > defaults["loop_fiber"]
        )

    def test_price_matches_bom_arithmetic(self):
        bom = repro.design("pops(2,2)").bill_of_materials()
        m = DEFAULT_COST_MODEL
        expected = round(
            m.lens * bom.total_lenses
            + m.otis_stage * bom.total_otis_stages
            + m.multiplexer * bom.multiplexers
            + m.beam_splitter * bom.beam_splitters
            + m.loop_fiber * bom.loop_fibers
            + m.transmitter * bom.transmitters
            + m.receiver * bom.receivers
            + m.coupler * bom.couplers,
            2,
        )
        assert price_spec("pops(2,2)") == expected


# ----------------------------------------------------------------------
# The search
# ----------------------------------------------------------------------
SEARCH_KW = dict(
    max_processors=12, families=("pops", "sk", "sops"), trials=8, seed=11
)


class TestDesignSearch:
    def test_same_seed_byte_identical_json(self):
        a = design_search(**SEARCH_KW)
        b = design_search(**SEARCH_KW)
        assert a.to_json() == b.to_json()

    def test_worker_count_does_not_change_json(self):
        a = design_search(backend="batched", **SEARCH_KW)
        b = design_search(backend="batched", workers=2, **SEARCH_KW)
        assert a.to_json() == b.to_json()

    def test_ranking_is_by_survivability_per_kilocost(self):
        result = design_search(**SEARCH_KW)
        scores = [c.survivability_per_kilocost for c in result]
        assert scores == sorted(scores, reverse=True)
        assert result.best().spec == result.candidates[0].spec

    def test_pareto_front_is_exactly_the_nondominated_set(self):
        result = design_search(**SEARCH_KW)
        cands = result.candidates
        for c in cands:
            dominated = any(_dominates(o, c) for o in cands)
            assert c.pareto == (not dominated), c.spec
        assert set(result.pareto) == {c.spec for c in cands if c.pareto}

    def test_shape_windows_filter_candidates(self):
        result = design_search(
            max_processors=12,
            families=("pops",),
            trials=4,
            max_coupler_degree=2,
            max_groups=3,
        )
        for c in result:
            assert c.coupler_degree <= 2 and c.groups <= 3

    def test_min_groups_excludes_single_star_machines(self):
        result = design_search(
            max_processors=8,
            families=("pops", "sops"),
            trials=4,
            min_groups=2,
        )
        assert result.candidates
        for c in result:
            assert c.groups >= 2
            assert c.family != "sops"

    def test_min_margin_filter_drops_infeasible_designs(self):
        wide_open = design_search(
            max_processors=10, families=("pops",), trials=4
        )
        feasible = design_search(
            max_processors=10, families=("pops",), trials=4, min_margin_db=0.0
        )
        assert len(feasible) <= len(wide_open)
        for c in feasible:
            assert c.link_margin_db >= 0.0

    def test_top_truncates_after_ranking(self):
        full = design_search(**SEARCH_KW)
        trimmed = design_search(top=3, **SEARCH_KW)
        assert [c.spec for c in trimmed] == [c.spec for c in full][:3]
        # the front is computed before truncation: flags agree
        for c in trimmed:
            assert c.pareto == full.candidate(c.spec).pareto

    def test_top_does_not_shrink_the_reported_front(self):
        full = design_search(**SEARCH_KW)
        trimmed = design_search(top=1, **SEARCH_KW)
        assert trimmed.pareto == full.pareto
        assert len(full.pareto) > 1  # the regression is only visible then

    def test_underfaulted_candidates_are_skipped_not_crowned(self):
        # sops(n) has one coupler: a single coupler fault can never be
        # fully injected, so no sops spec may appear among candidates
        result = design_search(
            max_processors=24, families=("pops", "sops"), trials=4, faults=2
        )
        specs = {c.spec for c in result}
        assert not any(s.startswith("sops") for s in specs)
        assert any(s.startswith("sops") for s in result.skipped_underfaulted)
        # single-group pops machines (1 coupler) are skipped too
        assert "pops(4,1)" in result.skipped_underfaulted
        # and nothing skipped was handed a seat on the front
        assert not set(result.pareto) & set(result.skipped_underfaulted)

    def test_fault_model_capacity_hooks(self):
        from repro.resilience.faults import FaultModel, make_fault_model

        net = repro.build("sk(2,2,2)")
        assert make_fault_model("coupler").max_faults(net) == net.num_couplers - 1
        assert (
            make_fault_model("processor").max_faults(net)
            == net.num_processors - 2
        )
        assert make_fault_model("group").max_faults(net) == net.num_groups - 1
        # adversarial: bounded by the weakest victim's non-loop out-couplers
        assert make_fault_model("adversarial").max_faults(net) == net.degree
        assert make_fault_model("link").max_faults(net) >= 1
        assert FaultModel().max_faults(net) is None  # unknown by default

    def test_full_metrics_mode_populates_within_bound(self):
        result = design_search(
            max_processors=6,
            families=("pops",),
            trials=4,
            metrics="full",
            messages=8,
        )
        assert result.candidates
        for c in result:
            assert c.within_bound_fraction is not None

    def test_survivability_reflects_fault_pressure(self):
        calm = design_search(
            max_processors=8, families=("pops",), trials=10, faults=0, seed=2
        )
        stressed = design_search(
            max_processors=8,
            families=("pops",),
            trials=10,
            faults=3,
            seed=2,
            model="processor",
        )
        assert all(c.survivability == 1.0 for c in calm)
        assert any(c.survivability < 1.0 for c in stressed)

    def test_unknown_metrics_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown metrics mode"):
            design_search(max_processors=4, trials=2, metrics="psychic")

    def test_fault_model_instance_accepted_like_sibling_verbs(self):
        from repro.resilience.faults import UniformCouplerFaults

        by_key = design_search(
            max_processors=8, families=("pops",), trials=4, faults=1
        )
        by_instance = design_search(
            max_processors=8,
            families=("pops",),
            trials=4,
            model=UniformCouplerFaults(1),
        )
        assert by_key.to_json() == by_instance.to_json()
        with pytest.raises(ValueError, match="already carries"):
            design_search(
                max_processors=8,
                families=("pops",),
                trials=2,
                model=UniformCouplerFaults(1),
                faults=2,
            )

    def test_free_designs_are_rejected_not_buried(self):
        free = CostModel(
            lens=0.0,
            otis_stage=0.0,
            multiplexer=0.0,
            beam_splitter=0.0,
            loop_fiber=0.0,
            transmitter=0.0,
            receiver=0.0,
            coupler=0.0,
        )
        with pytest.raises(ValueError, match="priced > 0"):
            design_search(
                max_processors=6, families=("pops",), trials=2, cost_model=free
            )

    def test_bad_processor_windows_rejected_by_name(self):
        with pytest.raises(ValueError, match="min_processors"):
            design_search(max_processors=6, min_processors=0, trials=2)
        with pytest.raises(ValueError, match="max_processors"):
            design_search(max_processors=0, trials=2)

    def test_empty_window_raises_on_best(self):
        result = design_search(max_processors=2, families=("sk",), trials=2)
        assert len(result) == 0
        with pytest.raises(ValueError, match="no candidates"):
            result.best()

    def test_enumerate_candidates_rejects_bad_window(self):
        with pytest.raises(ValueError, match="max_processors"):
            enumerate_candidates(max_processors=0)


class TestFacadeAndCli:
    def test_callable_package_serves_both_verb_and_namespace(self):
        import repro.design_search as ds

        # every import form reaches both the verb and the namespace
        assert callable(repro.design_search)
        assert callable(ds)
        assert ds.CostModel is repro.CostModel
        from repro.design_search import design_search as fn

        assert callable(fn)
        assert isinstance(repro.DEFAULT_COST_MODEL, repro.CostModel)
        r = repro.design_search(
            max_processors=6, families=("pops",), trials=2
        )
        assert r.to_json() == fn(
            max_processors=6, families=("pops",), trials=2
        ).to_json()

    def test_cli_text_and_json_agree_on_ranking(self, capsys):
        argv = [
            "design-search",
            "--max-processors",
            "8",
            "--families",
            "pops",
            "--trials",
            "4",
        ]
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert main([*argv, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        # the first row after the table header is the top-ranked spec
        header_at = next(
            i for i, line in enumerate(text.splitlines()) if line.startswith("* spec")
        )
        first_spec = data["candidates"][0]["spec"]
        assert first_spec in text.splitlines()[header_at + 1]

    def test_cli_empty_window_exits_nonzero(self, capsys):
        rc = main(
            [
                "design-search",
                "--max-processors",
                "2",
                "--families",
                "sk",
                "--trials",
                "2",
                "--json",
            ]
        )
        assert rc == 1
        assert json.loads(capsys.readouterr().out)["candidates"] == []

    def test_cli_rejects_unknown_family(self, capsys):
        rc = main(
            [
                "design-search",
                "--max-processors",
                "4",
                "--families",
                "toroid",
                "--trials",
                "2",
            ]
        )
        assert rc == 2
        assert "unknown network family" in capsys.readouterr().err


#: Option values ``/v1/design-search`` has always rejected, which the
#: facade, ``Session`` and the CLI used to run: to an empty table, a
#: search with the window ignored, or a ``TypeError`` mid-search.
REJECTED_OPTIONS = [
    ("top", -1),
    ("max_diameter", -1),
    ("min_groups", 0),
    ("max_groups", 0),
    ("max_coupler_degree", 0),
    ("max_coupler_degree", True),
    ("min_margin_db", "x"),
    ("min_margin_db", True),
    ("max_processors", True),
]


class TestEveryDoorRejectsTheSameOptions:
    @pytest.mark.parametrize("option,value", REJECTED_OPTIONS)
    def test_rejected_everywhere(self, option, value, capsys):
        kw = {"max_processors": 8, "families": ("pops",), "trials": 2}
        kw[option] = value
        with pytest.raises(ValueError, match=option):
            repro.design_search(**kw)
        with Session() as session:
            with pytest.raises(ValueError, match=option):
                session.design_search(**kw)
        argv = ["design-search", "--max-processors", "8", "--families",
                "pops", "--trials", "2",
                f"--{option.replace('_', '-')}", str(value)]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects ill-typed flags itself
            code = exc.code
        assert code == 2
        capsys.readouterr()
        with pytest.raises(ServeError) as err:
            validate_design_search({"max_processors": 8, option: value})
        assert (err.value.status, err.value.code) == (400, "bad_request")

    def test_rejected_before_any_candidate_is_built(self, monkeypatch):
        from repro.core.spec import NetworkSpec

        def build(spec):
            raise AssertionError(f"built {spec}")

        monkeypatch.setattr(NetworkSpec, "build", build)
        with pytest.raises(ValueError, match="top"):
            repro.design_search(max_processors=8, top=-1)

    def test_valid_payload_normalizes_as_before(self):
        # the coalescing key of a valid request, spelled out
        sweep = {
            "model": "coupler",
            "faults": 1,
            "trials": 100,
            "seed": 0,
            "workload": "uniform",
            "messages": 60,
            "metrics": "connectivity",
            "backend": "auto",
            "ci_target": None,
            "sampling": "uniform",
        }
        defaults = {
            "max_processors": 8,
            "min_processors": 2,
            "families": None,
            "max_coupler_degree": None,
            "min_groups": None,
            "max_groups": None,
            "max_diameter": None,
            "min_margin_db": None,
            "top": None,
            "parallelism": "sweeps",
            "rank_by": "survivability-per-cost",
        }
        assert validate_design_search({"max_processors": 8}) == {
            **sweep, **defaults
        }
        given = {
            "max_processors": 12,
            "min_processors": 3,
            "families": ["sk", "pops"],
            "max_coupler_degree": 4,
            "min_groups": 2,
            "max_groups": 9,
            "max_diameter": 0,
            "min_margin_db": -3,
            "top": 0,
            "parallelism": "candidates",
            "rank_by": "within-bound",
            "metrics": "paths",
        }
        assert validate_design_search(given) == {
            **sweep, **given, "min_margin_db": -3.0
        }


# ----------------------------------------------------------------------
# Scale: the 10^4-trial contract runs nightly only
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestTenThousandTrials:
    def test_batched_connectivity_at_1e4_trials_worker_invariant(self):
        kw = dict(faults=1, trials=10_000, seed=0, metrics="connectivity")
        inline = survivability_sweep("sk(2,2,2)", "coupler", **kw)
        four = survivability_sweep("sk(2,2,2)", "coupler", workers=4, **kw)
        assert inline.trials == 10_000
        assert inline.to_json() == four.to_json()
