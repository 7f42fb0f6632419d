"""The vectorized kernel by default: ``backend="auto"``, temporal replay, float32.

Three contracts pin this module:

* ``backend="auto"`` is a *selection rule*: it runs ``vectorized``
  for a built-in fault model scored on ``connectivity`` (or ``paths``
  on a family with the generic ``fault_route``) and ``batched``
  everywhere else, records which ran on ``summary.backend``, never
  reports a downgrade, and returns JSON byte-identical to an explicit
  ``batched`` run;
* temporal replays score every trace segment on the same kernel
  (:meth:`~repro.resilience.sweep._VectorContext.score`), and their
  rows equal the per-segment replay -- one ``DegradedNetwork`` view and
  one ``connectivity_metrics``/``path_survival`` call per segment --
  kept here as the reference;
* the kernel's boolean matmuls run in float32, exact for any group
  count below 2**24, so machines with hundreds of groups score the
  same bytes on both backends.
"""

import math
from dataclasses import dataclass
from typing import ClassVar

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.__main__ import build_parser
from repro.core import Experiment
from repro.obs.metrics import REGISTRY
from repro.resilience import SWEEP_BACKENDS, SweepRequest, survivability_sweep
from repro.resilience.degrade import DegradedNetwork
from repro.resilience.faults import FAULT_MODELS, FaultModel, UniformCouplerFaults
from repro.resilience.metrics import connectivity_metrics, path_survival
from repro.temporal.replay import (
    _bin_curve,
    _slotted_metrics,
    _TemporalContext,
    prepare_temporal_sweep,
)

SPECS = ("sk(2,2,2)", "pops(2,3)", "sii(2,2,6)", "sops(4)")


@dataclass(frozen=True)
class EvenCouplerFaults(FaultModel):
    """A custom model: the first ``faults`` even-numbered couplers."""

    key: ClassVar[str] = "even-coupler"

    def sample_faults(self, net, rng):
        return set(range(0, net.num_couplers, 2)[: self.faults]), set()


@dataclass(frozen=True)
class SubclassedCouplerFaults(UniformCouplerFaults):
    """A built-in model's subclass: custom code, so ``auto`` runs batched."""


#: model case -> the sweep fields it adds
MODEL_CASES = {
    **{key: {"model": key, "faults": 1} for key in sorted(FAULT_MODELS)},
    "stratified": {"model": "coupler", "faults": 2, "sampling": "stratified"},
    "custom": {"model": EvenCouplerFaults(faults=1)},
    "subclass": {"model": SubclassedCouplerFaults(faults=1)},
}


def _auto_pick(spec: str, metrics: str, case: str) -> str:
    """The backend the selection rule names, spelled out."""
    builtin = case not in ("custom", "subclass")
    generic_routing = not spec.startswith("sk")  # stack-Kautz overrides it
    kernel = builtin and (
        metrics == "connectivity" or metrics == "paths" and generic_routing
    )
    return "vectorized" if kernel else "batched"


def _downgrades() -> float:
    return sum(
        s.value
        for s in REGISTRY.series("repro_sweep_backend_downgrades_total").values()
    )


class TestAutoSelection:
    @pytest.mark.parametrize("case", sorted(MODEL_CASES))
    @pytest.mark.parametrize("metrics", ("connectivity", "paths", "full"))
    @pytest.mark.parametrize("spec", SPECS)
    def test_selection_table(self, spec, metrics, case):
        fields = dict(trials=8, seed=3, metrics=metrics, messages=6)
        fields.update(MODEL_CASES[case])
        before = _downgrades()
        auto = survivability_sweep(spec, **fields)
        batched = survivability_sweep(spec, backend="batched", **fields)
        assert SweepRequest(**fields).backend == "auto"
        assert auto.backend == _auto_pick(spec, metrics, case)
        assert auto.downgrade_reason is None
        assert _downgrades() == before
        assert auto.to_json() == batched.to_json()
        assert auto.formatted() == batched.formatted()

    def test_explicit_backends_keep_their_meaning(self):
        kw = dict(trials=6, seed=1, metrics="paths")
        batched = survivability_sweep("pops(2,3)", backend="batched", **kw)
        assert batched.backend == "batched"
        before = _downgrades()
        forced = survivability_sweep("sk(2,2,2)", backend="vectorized", **kw)
        # only an explicit vectorized request is ever downgraded
        assert forced.backend == "batched"
        assert forced.downgrade_reason is not None
        assert _downgrades() == before + 1
        with pytest.raises(ValueError, match="backend='batched'"):
            SweepRequest(metrics="full", backend="vectorized")

    def test_default_sweep_counts_vectorized_chunks(self):
        def chunks(backend):
            series = REGISTRY.series("repro_sweep_chunks_total")
            found = series.get((("backend", backend),))
            return 0 if found is None else found.value

        before = chunks("vectorized")
        repro.resilience_sweep("sk(2,2,2)", trials=16, metrics="connectivity")
        assert chunks("vectorized") == before + 1

    @pytest.mark.parametrize(
        "command",
        [
            ["resilience", "pops(2,2)"],
            ["experiment", "pops(2,2)"],
            ["design-search", "--max-processors", "8"],
        ],
    )
    def test_cli_backend_flag_is_the_request_field(self, command):
        parser = build_parser()
        assert parser.parse_args(command).backend == SweepRequest().backend
        for backend in SWEEP_BACKENDS:
            args = parser.parse_args([*command, "--backend", backend])
            assert args.backend == backend


class TestExperimentCellBackends:
    def test_process_cells_report_the_temporal_engine(self):
        result = Experiment(
            specs=("pops(2,2)",),
            models=("coupler:1", "coupler-renewal:1"),
            backend="vectorized",
            trials=(4,),
        ).run(workers=0)
        assert [c.backend for c in result.cells] == ["vectorized", "temporal"]

    def test_default_plan_is_auto(self):
        plan = Experiment(specs=("sk(2,2,2)",), metrics=("connectivity", "full"))
        assert plan.as_dict()["backend"] == "auto"
        assert [r.backend for _, r in plan.compile()] == ["auto", "auto"]


# ----------------------------------------------------------------------
# Temporal replay on the kernel vs the per-segment reference
# ----------------------------------------------------------------------
def _per_segment_row(ctx, trace) -> dict:
    """One trial scored segment by segment: the reference replay.

    Builds a ``DegradedNetwork`` view per segment and scores it with
    ``connectivity_metrics`` (and ``path_survival`` for the route
    quality columns), exactly as the replay did before its segments
    moved onto the vectorized kernel.
    """
    plan = ctx.plan
    horizon = plan.horizon
    segments = list(trace.segments())
    views = [
        DegradedNetwork(ctx.net, trace.scenario_for(c, p), family=ctx.family)
        for _start, _stop, c, p in segments
    ]
    alive_segs = []
    survival_weight = 0.0
    time_to_disconnect = float(horizon)
    disconnected = False
    for (start, stop, _c, _p), view in zip(segments, views):
        alive = connectivity_metrics(view, with_reachable=False)[
            "alive_connectivity"
        ]
        alive_segs.append((start, stop, float(alive)))
        if alive >= 1.0:
            survival_weight += stop - start
        elif not disconnected:
            disconnected = True
            time_to_disconnect = float(start)
    row = {
        "availability": math.fsum(
            (stop - start) * v for start, stop, v in alive_segs
        )
        / horizon,
        "survivability": survival_weight / horizon,
        "time_to_disconnect": time_to_disconnect,
        "events": float(len(trace.events)),
        "_curve": _bin_curve(alive_segs, horizon, plan.curve_points),
    }
    if plan.metrics in ("paths", "full"):
        within_acc = 0.0
        stretch_acc = 0.0
        for (start, stop, _c, _p), view in zip(segments, views):
            _reach, _max_len, stretch, within = path_survival(view, plan.bound)
            within_acc += (stop - start) * within
            stretch_acc += (stop - start) * stretch
        row["within_bound_time"] = within_acc / horizon
        row["mean_stretch_time"] = stretch_acc / horizon
    if plan.metrics == "full":
        starts = [start for start, _stop, _c, _p in segments]
        row.update(_slotted_metrics(ctx, starts, views))
    return row


@st.composite
def replays(draw):
    """``(spec, TemporalRequest fields)`` over specs, processes and modes."""
    spec = draw(st.sampled_from(
        ("sk(2,2,2)", "sk(3,2,2)", "pops(2,3)", "pops(3,2)", "sii(2,2,6)",
         "sops(4)")
    ))
    fields = {
        "process": draw(st.sampled_from(
            ("coupler-renewal", "processor-renewal", "cascade")
        )),
        # heavy churn too: isolated groups and lost loops exercise the
        # kernel's closed-walk and dead-group cases
        "faults": draw(st.integers(0, 12)),
        "mtbf": draw(st.sampled_from((15, 40, 120))),
        "mttr": draw(st.sampled_from((5, 20, 60))),
        "law": draw(st.sampled_from(("exponential", "deterministic"))),
        "horizon": draw(st.integers(1, 160)),
        "trials": draw(st.integers(1, 4)),
        "seed": draw(st.integers(0, 2**32)),
        "metrics": draw(st.sampled_from(("connectivity", "paths", "full"))),
        "messages": 6,
        "curve_points": draw(st.integers(1, 8)),
    }
    return spec, fields


class TestTemporalKernel:
    @given(replays())
    @settings(max_examples=30, deadline=None)
    def test_kernel_rows_equal_per_segment_rows(self, drawn):
        spec, fields = drawn
        prepared = prepare_temporal_sweep(spec, **fields)
        ctx = _TemporalContext(prepared.plan, net=prepared.net)
        trials = prepared.request.trials
        assert ctx.run_range(0, trials) == [
            _per_segment_row(ctx, ctx.trace(i)) for i in range(trials)
        ]

    @pytest.mark.parametrize("batch", [1, 3, 7])
    @pytest.mark.parametrize(
        "spec,metrics", [("sk(2,2,2)", "connectivity"), ("pops(2,3)", "paths")]
    )
    def test_kernel_batch_never_moves_a_row(self, spec, metrics, batch):
        # traces are grouped by batch-sized runs of segments, and a
        # trace longer than a batch spans several score calls
        prepared = prepare_temporal_sweep(
            spec, faults=3, mtbf=30, mttr=10, horizon=200, trials=5, seed=4,
            metrics=metrics,
        )
        ctx = _TemporalContext(prepared.plan, net=prepared.net)
        whole = ctx.run_range(0, 5)
        ctx.kernel.batch = batch
        assert ctx.run_range(0, 5) == whole

    @pytest.mark.parametrize(
        "spec,metrics,views",
        [
            ("sk(2,2,2)", "connectivity", False),
            ("pops(2,3)", "paths", False),
            ("sii(2,2,6)", "paths", False),
            ("sk(2,2,2)", "paths", True),  # structured routing
            ("pops(2,3)", "full", True),  # the slotted run
        ],
    )
    def test_views_only_where_needed(self, spec, metrics, views, monkeypatch):
        built = []
        original = DegradedNetwork.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(DegradedNetwork, "__init__", counting_init)
        repro.temporal_sweep(
            spec, faults=2, mtbf=30, mttr=10, trials=3, horizon=100,
            metrics=metrics, messages=6,
        )
        assert bool(built) == views

    def test_session_feeds_its_cached_arrays(self, monkeypatch):
        from repro.core.session import Session
        from repro.resilience.sweep import _TopologyArrays

        exports = []
        original = _TopologyArrays.from_network.__func__

        def counting(cls, net):
            exports.append(1)
            return original(cls, net)

        monkeypatch.setattr(_TopologyArrays, "from_network", classmethod(counting))
        with Session(workers=0) as session:
            session.resilience_sweep("sk(2,2,2)", trials=4, metrics="connectivity")
            for seed in range(3):
                session.temporal_sweep("sk(2,2,2)", trials=2, horizon=60, seed=seed)
        assert len(exports) == 1


# ----------------------------------------------------------------------
# The float32 closure at large group counts
# ----------------------------------------------------------------------
class TestLargeGroupCounts:
    def test_connectivity_on_320_groups(self):
        net = repro.build("sk(2,4,4)")
        assert net.num_groups == 320
        kw = dict(trials=3, seed=2, metrics="connectivity")
        auto = survivability_sweep("sk(2,4,4)", **kw)
        batched = survivability_sweep("sk(2,4,4)", backend="batched", **kw)
        assert auto.backend == "vectorized"
        assert auto.to_json() == batched.to_json()

    def test_generic_routing_paths_on_300_groups(self):
        # 250 dark groups keep the batched per-pair BFS scan fast, while
        # the kernel still expands frontiers over all 300 groups
        kw = dict(model="group", faults=250, trials=2, seed=5, metrics="paths")
        auto = survivability_sweep("sii(1,8,300)", **kw)
        batched = survivability_sweep("sii(1,8,300)", backend="batched", **kw)
        assert auto.backend == "vectorized"
        assert auto.quantiles["max_path_length"]["max"] > 5
        assert auto.to_json() == batched.to_json()
