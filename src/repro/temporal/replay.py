"""Replay engine: step a fault trace against the kernels and simulator.

A :class:`~repro.temporal.processes.FaultTrace` is piecewise constant:
between events the dead sets do not change, so the replay walks the
trace's *segments*, weighting each one's score by its length.  The
segments of a chunk's trials are scored together on the vectorized
sweep kernel (:meth:`~repro.resilience.sweep._VectorContext.score`),
which gives the connectivity columns for every family and the ``paths``
columns wherever the sweep's ``backend="auto"`` would pick that kernel.
:class:`~repro.resilience.degrade.DegradedNetwork` views are built only
where something still needs one: ``paths`` on a family with structured
routing (stack-Kautz, scored by
:func:`~repro.resilience.metrics.path_survival`), a ``traffic=``
matrix, and the ``full``-mode slotted simulation, which runs across
the whole horizon through views that swap at segment boundaries
(messages in flight experience the churn).

Per-trial metrics:

* ``availability`` -- time-weighted mean alive-pair connectivity;
* ``survivability`` -- repair-aware survivability: the fraction of the
  horizon the surviving machine stays *fully* connected;
* ``time_to_disconnect`` -- first slot at which some surviving pair is
  severed (the horizon when none ever is);
* ``events`` -- trace length (fail + repair transitions);
* ``paths`` mode adds ``within_bound_time`` / ``mean_stretch_time``
  (time-weighted bounded-path fraction and stretch);
* ``full`` mode adds ``delivery_ratio`` / ``dropped`` /
  ``mean_latency`` / ``slots`` from the churned slotted run.

A :class:`TemporalRequest` is the one place the temporal parameters
are declared, defaulted and checked.  Replays run on the sweep
executor (:class:`~repro.resilience.sweep.PersistentSweepExecutor`):
a temporal plan builds its own trial context, which the executor
caches per plan exactly as it caches a sweep's.

Determinism contract: trial ``i`` compiles its trace from
``trial_seed(seed, i)`` and trials never share state, so the summary
is byte-identical for any worker count and any chunking of the trial
index range (property-tested in ``tests/test_temporal.py``).
"""

from __future__ import annotations

import json
import math
from dataclasses import InitVar, dataclass, fields
from typing import ClassVar

from ..resilience.degrade import DegradedNetwork
from ..resilience.faults import trial_seed
from ..resilience.metrics import path_survival
from ..resilience.sweep import (
    PersistentSweepExecutor,
    SweepRequestError,
    _check_fields,
    _check_int,
    _check_positive,
    _fault_masks,
    _paths_kernel_refusal,
    _quantile_cells,
    _TopologyArrays,
    _unknown,
    _VectorContext,
)
from ..simulation.engine import SlottedSimulator
from .processes import FaultProcess, FaultTrace, make_fault_process
from .traffic import TrafficMatrix, served_fraction

__all__ = [
    "DEFAULT_HORIZON",
    "TEMPORAL_FIELDS",
    "TEMPORAL_METRICS_MODES",
    "TemporalRequest",
    "TemporalSummary",
    "replay_trace",
    "prepare_temporal_sweep",
    "execute_temporal",
    "summarize_temporal",
]

#: Default replay horizon in slots.
DEFAULT_HORIZON = 1000

#: Per-trial metric keys by metrics mode (quantile-summarized).
TEMPORAL_METRICS_MODES: dict[str, tuple[str, ...]] = {
    "connectivity": (
        "availability",
        "survivability",
        "time_to_disconnect",
        "events",
    ),
    "paths": (
        "availability",
        "survivability",
        "time_to_disconnect",
        "events",
        "within_bound_time",
        "mean_stretch_time",
    ),
    "full": (
        "availability",
        "survivability",
        "time_to_disconnect",
        "events",
        "within_bound_time",
        "mean_stretch_time",
        "delivery_ratio",
        "dropped",
        "mean_latency",
        "slots",
    ),
}


# ----------------------------------------------------------------------
# Request, plan and prepared sweep
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TemporalRequest:
    """Every parameter of one temporal sweep but ``spec`` and ``workers``.

    The one place temporal parameters are declared, defaulted and
    checked: :func:`repro.temporal_sweep`,
    :class:`~repro.core.session.Session`, :func:`prepare_temporal_sweep`,
    the CLI, the serving tier and
    :class:`~repro.core.experiment.Experiment` process cells all build
    one, so every door accepts the same values.  A bad value raises
    ``ValueError`` (a :class:`~repro.resilience.sweep.SweepRequestError`)
    at construction, before any replay work.

    Parameters
    ----------
    process : str or FaultProcess, optional
        A fault-process key (``"coupler-renewal"``, the default,
        ``"processor-renewal"``, ``"cascade"``), which takes ``faults``,
        ``mtbf``, ``mttr`` and ``law``, or (from Python) a
        :class:`~repro.temporal.processes.FaultProcess` instance, which
        carries its own (passing both is an error).  Stored resolved,
        as an instance those four fold into.
    faults : int, optional
        Churning components, ``>= 0`` (default 1).  A machine whose
        ``max_faults`` capacity is below this is skipped (listed in
        ``skipped_underfaulted``), never scored immune.
    mtbf : float, optional
        Mean slots between failures per component, ``> 0`` (default
        400).
    mttr : float, optional
        Mean slots to repair per failure, ``> 0`` (default 100).
    law : {"exponential", "deterministic"}, optional
        Inter-event law (default ``"exponential"``, the Markov process).
    horizon : int, optional
        Replay length in slots, ``>= 1`` (default 1000).
    trials : int, optional
        Independent trace replays, ``>= 1`` (default 20).
    seed : int, optional
        Sweep seed (default 0); per-trial traces derive from it via
        SHA-256, so the summary is byte-identical at any worker count.
    workload : str or callable, optional
        Traffic injected in ``full`` mode (default ``"uniform"``): a
        workload name, registered when ``metrics="full"``, or (from
        Python) a callable such as a
        :class:`~repro.temporal.traffic.TrafficMatrix`.
    messages : int, optional
        Messages per trial in ``full`` mode, ``>= 1`` (default 60).
    bound : int, optional
        Path-length bound for ``paths``/``full``, ``>= 0``; default
        ``diameter + 2``.
    metrics : {"connectivity", "paths", "full"}, optional
        Scoring depth per trace segment: reachability only (default),
        plus bounded-path quality, or also the churned slotted run.
    curve_points : int, optional
        Bins of the availability curve, in ``[1, 512]`` (default 16).
    traffic : TrafficMatrix, optional
        Demand matrix scored alongside, adding a ``demand_served``
        quantile.  Python-only: the serving tier does not take it.

    >>> r = TemporalRequest(faults=2, mtbf=60, mttr=20, metrics="paths")
    >>> r.process
    CouplerRenewalProcess(faults=2, mtbf=60.0, mttr=20.0, law='exponential')
    >>> TemporalRequest.from_payload(r.to_payload()) == r
    True
    """

    process: FaultProcess | str = "coupler-renewal"
    faults: InitVar[int | None] = None
    mtbf: InitVar[float | None] = None
    mttr: InitVar[float | None] = None
    law: InitVar[str | None] = None
    horizon: int = DEFAULT_HORIZON
    trials: int = 20
    seed: int = 0
    workload: object = "uniform"
    messages: int = 60
    bound: int | None = None
    metrics: str = "connectivity"
    curve_points: int = 16
    traffic: TrafficMatrix | None = None

    def __post_init__(self, faults, mtbf, mttr, law) -> None:
        given = dict(faults=faults, mtbf=mtbf, mttr=mttr, law=law)
        options = {k: v for k, v in given.items() if v is not None}
        if isinstance(self.process, FaultProcess):
            if options:
                raise SweepRequestError(
                    "process",
                    "pass either a FaultProcess instance or keyword process "
                    "parameters (faults/mtbf/mttr/law), not both",
                )
        elif isinstance(self.process, str):
            if faults is not None:
                _check_int("faults", faults, 0)
            for name in ("mtbf", "mttr"):
                if name in options:
                    _check_positive(name, options[name])
                    options[name] = float(options[name])
            try:
                process = make_fault_process(self.process, **options)
            except ValueError as exc:  # an unknown process key or law
                raise SweepRequestError(
                    "process", str(exc), code="invalid_process"
                ) from None
            object.__setattr__(self, "process", process)
        else:
            raise SweepRequestError(
                "process",
                f"process must be a FaultProcess or a registry key, "
                f"got {type(self.process).__name__}",
            )
        _check_int("horizon", self.horizon, 1)
        _check_int("trials", self.trials, 1)
        _check_int("seed", self.seed)
        _check_int("messages", self.messages, 1)
        if self.bound is not None:
            _check_int("bound", self.bound, 0)
        _check_int("curve_points", self.curve_points)
        if not 1 <= self.curve_points <= 512:
            raise SweepRequestError(
                "curve_points",
                f"curve_points must be in [1, 512], got {self.curve_points}",
            )
        modes = sorted(TEMPORAL_METRICS_MODES)  # a list: no hashing needed
        if self.metrics not in modes:
            raise _unknown("metrics", "metrics mode", self.metrics, modes)
        if isinstance(self.workload, str):
            if self.metrics == "full":  # only full mode runs the workload
                from ..core.workloads import get_workload

                get_workload(self.workload)
        elif not callable(self.workload):
            message = f"workload must be a name or callable: {self.workload!r}"
            raise SweepRequestError("workload", message)
        if not isinstance(self.traffic, (TrafficMatrix, type(None))):
            message = f"traffic must be a TrafficMatrix: {self.traffic!r}"
            raise SweepRequestError("traffic", message)

    def to_payload(self) -> dict[str, object]:
        """The field dict, the process as its registered key + parameters.

        JSON-safe when the workload is a name and ``traffic`` is unset.
        """
        process = self.process
        return {
            **{f.name: getattr(self, f.name) for f in fields(self)},
            "process": process.key,
            "faults": process.faults,
            "mtbf": float(process.mtbf),
            "mttr": float(process.mttr),
            "law": process.law,
        }

    @classmethod
    def from_payload(cls, payload) -> "TemporalRequest":
        """The request a field mapping names; unknown keys raise.

        Inverse of :meth:`to_payload` for registry-keyed processes.
        """
        _check_fields(payload, TEMPORAL_FIELDS, "temporal")
        return cls(**payload)


#: The payload field names of :class:`TemporalRequest`, in order.
TEMPORAL_FIELDS: tuple[str, ...] = tuple(TemporalRequest.__dataclass_fields__)


@dataclass(frozen=True)
class _TemporalPlan:
    """Everything a trial needs, frozen once and shipped to workers."""

    canonical: str
    process: FaultProcess
    seed: int
    horizon: int
    workload: object  # name, callable or TrafficMatrix (picklable)
    workload_name: str
    messages: int
    bound: int
    metrics: str
    curve_points: int
    traffic: TrafficMatrix | None
    #: the executor's chunk-counter label, apart from the sweep backends
    backend: ClassVar[str] = "temporal"

    def build_context(self, net=None, arrays=None) -> "_TemporalContext":
        """The trial-runner context of this plan (builds what it lacks)."""
        return _TemporalContext(self, net=net, arrays=arrays)


@dataclass(frozen=True)
class _PreparedTemporal:
    """A validated temporal sweep: plan + request + parent-only network."""

    plan: _TemporalPlan
    request: TemporalRequest
    skipped: bool  # capacity accounting said the machine is too small
    net: object = None  # parent-process convenience; never pickled
    #: the spec's topology arrays, for an inline run only
    arrays: object = None

    @property
    def trials(self) -> int:
        """Trials to schedule: none for a skipped sweep."""
        return 0 if self.skipped else self.request.trials


def prepare_temporal_sweep(
    spec, process="coupler-renewal", *, _net=None, **params
) -> _PreparedTemporal:
    """Freeze the plan of one ``(spec, TemporalRequest)`` temporal sweep.

    ``process`` and ``**params`` are the :class:`TemporalRequest`
    fields; ``process`` may instead be a ready request, the
    ``(spec, request)`` form of callers that validated once.  Raises
    ``ValueError`` on a bad request *before* any replay work; applies
    the process's ``max_faults`` capacity accounting (a machine too
    small for the requested churn population is *skipped*, never
    scored immune).  ``_net`` is the already-built network of
    ``spec`` (sessions) and MUST match it.
    """
    from ..core.spec import NetworkSpec

    request = (
        process
        if isinstance(process, TemporalRequest) and not params
        else TemporalRequest(process, **params)
    )
    parsed = NetworkSpec.parse(spec)
    net = _net if _net is not None else parsed.build()
    cap = request.process.max_faults(net)
    workload = request.workload
    workload_name = (
        workload
        if isinstance(workload, str)
        else getattr(workload, "name", getattr(workload, "__name__", "custom"))
    )
    plan = _TemporalPlan(
        canonical=parsed.canonical(),
        process=request.process,
        seed=request.seed,
        horizon=request.horizon,
        workload=workload,
        workload_name=str(workload_name),
        messages=request.messages,
        bound=net.diameter + 2 if request.bound is None else request.bound,
        metrics=request.metrics,
        curve_points=request.curve_points,
        traffic=request.traffic,
    )
    return _PreparedTemporal(
        plan=plan,
        request=request,
        skipped=cap is not None and request.process.faults > cap,
        net=net,
    )


# ----------------------------------------------------------------------
# Per-trial replay
# ----------------------------------------------------------------------
def _bin_curve(segvals, horizon: int, points: int) -> list[float]:
    """Time-weighted mean of a piecewise-constant signal per bin.

    ``segvals`` holds ``(start, stop, value)`` segments in time order
    that tile ``[0, horizon)``.  Bins and segments are walked together,
    and each bin sums only the segments that overlap it: the terms of
    the sum over every segment minus its exact zeros, so the same
    floats.
    """
    curve, first = [], 0
    for b in range(points):
        lo = horizon * b / points
        hi = horizon * (b + 1) / points
        terms = []
        while first < len(segvals):
            start, stop, value = segvals[first]
            if start >= hi:
                break
            width = min(stop, hi) - max(start, lo)
            if width > 0:
                terms.append(width * value)
            if stop > hi:  # runs on into the next bin
                break
            first += 1
        curve.append(math.fsum(terms) / (hi - lo))
    return curve


def _slotted_metrics(ctx, starts, views) -> dict[str, float]:
    """One churned slotted run: the delivery story under repair."""
    plan = ctx.plan
    cursor = {"segment": 0}

    def _advance(now: int) -> None:
        while (
            cursor["segment"] + 1 < len(starts)
            and now >= starts[cursor["segment"] + 1]
        ):
            cursor["segment"] += 1

    def _next_coupler(holder: int, msg) -> int:
        view = views[cursor["segment"]]
        if holder in view.dead_processors:
            return -1  # the holder itself died: the message is lost
        return view.next_coupler(holder, msg)

    def _relay(coupler: int, msg) -> int:
        return views[cursor["segment"]].relay(coupler, msg)

    sim = SlottedSimulator(
        ctx.model,
        _next_coupler,
        relay_of=_relay,
        disabled_couplers=frozenset(),
    )
    sim.inject(ctx.triples)
    while not sim.all_settled() and sim.now < plan.horizon:
        _advance(sim.now)
        sim.step()
    total = len(sim.messages)
    delivered = [m for m in sim.messages if m.delivered]
    mean_latency = (
        math.fsum(m.latency for m in delivered) / len(delivered)
        if delivered
        else 0.0
    )
    return {
        "delivery_ratio": len(delivered) / total if total else 1.0,
        "dropped": float(total - len(delivered)),
        "mean_latency": mean_latency,
        "slots": float(sim.now),
    }


def replay_trace(ctx, trace: FaultTrace) -> dict[str, object]:
    """Score one compiled trace; the per-trial metrics row.

    ``ctx`` is a :class:`_TemporalContext` (network + family + plan
    shared across the trials of one process)."""
    return _replay_traces(ctx, [trace])[0]


def _replay_traces(ctx, traces) -> list[dict[str, object]]:
    """The metrics row of each compiled trace, in order.

    Traces are taken in groups whose segments fill one kernel batch,
    and each group is scored in one
    :meth:`~repro.resilience.sweep._VectorContext.score` call (more
    only for a trace longer than a batch), so a chunk of any size keeps
    at most about one batch of segments alive.
    """
    rows: list[dict[str, object]] = []
    group: list[tuple[FaultTrace, list]] = []
    pending = 0
    for trace in traces:
        segments = list(trace.segments())
        group.append((trace, segments))
        pending += len(segments)
        if pending >= ctx.kernel.batch:
            rows.extend(_score_group(ctx, group))
            group, pending = [], 0
    if group:
        rows.extend(_score_group(ctx, group))
    return rows


def _score_group(ctx, group) -> list[dict[str, object]]:
    """The rows of ``(trace, segments)`` pairs, segments scored together."""
    kernel = ctx.kernel
    draws = [(c, p) for _trace, segs in group for _start, _stop, c, p in segs]
    scored: list[dict[str, object]] = []
    for lo in range(0, len(draws), kernel.batch):
        batch = draws[lo : lo + kernel.batch]
        scored.extend(kernel.score(*_fault_masks(batch, len(batch), kernel.arrays)))
    rows, lo = [], 0
    for trace, segs in group:
        rows.append(_trace_row(ctx, trace, segs, scored[lo : lo + len(segs)]))
        lo += len(segs)
    return rows


def _trace_row(ctx, trace, segments, scored) -> dict[str, object]:
    """One trial's row from its segments and their kernel rows."""
    plan = ctx.plan
    horizon = plan.horizon
    views = None
    if ctx.needs_views:
        views = [
            DegradedNetwork(
                ctx.net,
                trace.scenario_for(dead_c, dead_p),
                family=ctx.family,
            )
            for _start, _stop, dead_c, dead_p in segments
        ]

    alive_segs = []
    survival_weight = 0.0
    time_to_disconnect = float(horizon)
    disconnected = False
    for (start, stop, _c, _p), seg in zip(segments, scored):
        alive = seg["alive_connectivity"]
        weight = stop - start
        alive_segs.append((start, stop, alive))
        if alive >= 1.0:
            survival_weight += weight
        elif not disconnected:
            disconnected = True
            time_to_disconnect = float(start)
    row: dict[str, object] = {
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
        if ctx.kernel.paths:
            quality = [(s["mean_stretch"], s["within_bound"]) for s in scored]
        else:
            quality = [path_survival(v, plan.bound)[2:] for v in views]
        within_acc = 0.0
        stretch_acc = 0.0
        for (start, stop, _c, _p), (stretch, within) in zip(segments, quality):
            within_acc += (stop - start) * within
            stretch_acc += (stop - start) * stretch
        row["within_bound_time"] = within_acc / horizon
        row["mean_stretch_time"] = stretch_acc / horizon
    if plan.traffic is not None:
        row["demand_served"] = (
            math.fsum(
                (stop - start) * served_fraction(plan.traffic, view)
                for (start, stop, _c, _p), view in zip(segments, views)
            )
            / horizon
        )
    if plan.metrics == "full":
        starts = [start for start, _stop, _c, _p in segments]
        row.update(_slotted_metrics(ctx, starts, views))
    return row


class _TemporalContext:
    """Per-process trial runner over one shared built network.

    Trace segments score on a vectorized sweep kernel over the
    network's topology arrays (``arrays``, or exported here): alive
    connectivity always, and the ``paths`` columns wherever the kernel
    scores them exactly (:func:`~repro.resilience.sweep._paths_kernel_refusal`).
    ``needs_views`` says whether a trial also builds per-segment
    ``DegradedNetwork`` views: for ``paths`` the kernel refuses, for
    ``traffic=`` and for the ``full``-mode slotted run.

    Read-only once built, so concurrent sweeps share it the way they
    share a sweep's trial context.
    """

    def __init__(
        self, plan: _TemporalPlan, net=None, family=None, arrays=None
    ) -> None:
        from ..core.registry import get_family
        from ..core.spec import NetworkSpec
        from ..core.workloads import resolve_workload

        self.plan = plan
        parsed = NetworkSpec.parse(plan.canonical)
        self.net = net if net is not None else parsed.build()
        self.family = family if family is not None else get_family(parsed.family)
        route_quality = plan.metrics != "connectivity"
        kernel_paths = (
            route_quality
            and _paths_kernel_refusal(parsed.family, self.net) is None
        )
        if arrays is None:
            arrays = _TopologyArrays.from_network(self.net)
        self.kernel = _VectorContext(plan, arrays, paths=kernel_paths)
        self.needs_views = (
            (route_quality and not kernel_paths)
            or plan.traffic is not None
            or plan.metrics == "full"
        )
        self.model = self.net.hypergraph_model()
        self.triples = (
            resolve_workload(
                plan.workload,
                self.net,
                messages=plan.messages,
                seed=plan.seed,
            )
            if plan.metrics == "full"
            else None
        )

    def trace(self, index: int) -> FaultTrace:
        """The compiled fault trace of trial ``index``."""
        plan = self.plan
        return plan.process.trace(
            plan.canonical, self.net, trial_seed(plan.seed, index), plan.horizon
        )

    def run_range(self, start: int, stop: int) -> list[dict[str, object]]:
        """Rows of trials ``start .. stop - 1``, in index order."""
        return _replay_traces(self, map(self.trace, range(start, stop)))


def execute_temporal(
    prepared: _PreparedTemporal, workers: int = 1
) -> list[dict[str, object]]:
    """All trial rows, in trial-index order (none for a skipped sweep).

    The trials run on a sweep executor
    (:class:`~repro.resilience.sweep.PersistentSweepExecutor`) with
    ``workers`` processes (``None``/``0``/``1`` runs inline), opened
    for the call.  Trials are pure functions of their index, so
    sharding the index range returns byte-identical rows for every
    worker count.
    """
    with PersistentSweepExecutor(workers) as executor:
        return executor.run(prepared)


# ----------------------------------------------------------------------
# Summary
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TemporalSummary:
    """Deterministic aggregate of one temporal sweep.

    ``quantiles`` maps each scored metric to the same
    ``mean/p05/p50/p95/min/max`` cell shape as
    :class:`~repro.resilience.sweep.SweepSummary`;
    ``availability_curve`` is the across-trials mean availability per
    horizon bin -- the availability-over-time curve.  A sweep skipped
    by capacity accounting reports ``skipped_underfaulted=True`` with
    zero trials instead of perfect scores.
    """

    spec: str
    process: str
    faults: int
    mtbf: float
    mttr: float
    law: str
    horizon: int
    trials: int
    seed: int
    workload: str
    messages: int
    bound: int
    quantiles: dict[str, dict[str, float]]
    availability_curve: tuple[float, ...]
    disconnected_fraction: float | None
    skipped_underfaulted: bool

    def as_dict(self) -> dict[str, object]:
        """JSON-ready view (key set pinned by the CLI golden schema)."""
        return {
            "spec": self.spec,
            "process": self.process,
            "faults": self.faults,
            "mtbf": self.mtbf,
            "mttr": self.mttr,
            "law": self.law,
            "horizon": self.horizon,
            "trials": self.trials,
            "seed": self.seed,
            "workload": self.workload,
            "messages": self.messages,
            "bound": self.bound,
            "quantiles": self.quantiles,
            "availability_curve": list(self.availability_curve),
            "disconnected_fraction": self.disconnected_fraction,
            "skipped_underfaulted": self.skipped_underfaulted,
        }

    def to_json(self) -> str:
        """Stable JSON (sorted keys, indent 2)."""
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def formatted(self) -> str:
        """Human-readable report."""
        head = (
            f"temporal sweep: {self.spec}  process={self.process} "
            f"faults={self.faults}  mtbf={self.mtbf} mttr={self.mttr} "
            f"law={self.law}"
        )
        if self.skipped_underfaulted:
            return (
                f"{head}\n  skipped: machine too small for "
                f"{self.faults} churning components"
            )
        lines = [
            head,
            f"  horizon={self.horizon} slots, {self.trials} trials, "
            f"seed={self.seed}",
            f"  disconnected in {self.disconnected_fraction:.1%} of trials",
            "",
            f"  {'metric':<20} {'mean':>10} {'p05':>10} {'p50':>10} "
            f"{'p95':>10}",
        ]
        for key, cell in self.quantiles.items():
            lines.append(
                f"  {key:<20} {cell['mean']:>10.4f} {cell['p05']:>10.4f} "
                f"{cell['p50']:>10.4f} {cell['p95']:>10.4f}"
            )
        curve = " ".join(f"{v:.3f}" for v in self.availability_curve)
        lines += ["", f"  availability curve: {curve}"]
        return "\n".join(lines)


def summarize_temporal(
    prepared: _PreparedTemporal, rows: list[dict]
) -> TemporalSummary:
    """Aggregate per-trial rows into the deterministic summary."""
    plan = prepared.plan
    process = plan.process
    base = {
        "spec": plan.canonical,
        "process": process.key,
        "faults": process.faults,
        "mtbf": float(process.mtbf),
        "mttr": float(process.mttr),
        "law": process.law,
        "horizon": plan.horizon,
        "seed": plan.seed,
        "workload": plan.workload_name,
        "messages": plan.messages if plan.metrics == "full" else 0,
        "bound": plan.bound,
    }
    if prepared.skipped or not rows:
        return TemporalSummary(
            trials=0,
            quantiles={},
            availability_curve=(),
            disconnected_fraction=None,
            skipped_underfaulted=True,
            **base,
        )
    trials = len(rows)
    summarized = list(TEMPORAL_METRICS_MODES[plan.metrics])
    if plan.traffic is not None:
        summarized.append("demand_served")
    quantiles = _quantile_cells(rows, summarized)
    curve = tuple(
        round(
            math.fsum(r["_curve"][b] for r in rows) / trials,
            6,
        )
        for b in range(plan.curve_points)
    )
    disconnected = sum(
        1 for r in rows if float(r["time_to_disconnect"]) < plan.horizon
    )
    return TemporalSummary(
        trials=trials,
        quantiles=quantiles,
        availability_curve=curve,
        disconnected_fraction=round(disconnected / trials, 6),
        skipped_underfaulted=False,
        **base,
    )
