"""Parallel Monte-Carlo survivability sweeps.

Fan ``trials`` independent fault scenarios over ``multiprocessing``
workers and aggregate the per-trial
:class:`~repro.resilience.metrics.ResilienceMetrics` rows into quantile
summaries.  Determinism is a hard requirement here: per-trial seeds
come from :func:`~repro.resilience.faults.trial_seed` (a function of
the sweep seed and the trial index only), rows are re-ordered by trial
index, and quantiles use exact nearest-rank selection -- so the same
seed produces **byte-identical** JSON for any worker count.

Two backends share that contract, and the default ``backend="auto"``
picks between them per sweep (see :func:`_prepare_sweep`):

* the **batched** backend builds one network + family
  context per process -- so workers never rebuild the topology per
  trial -- shares the intact baseline across all trials, and ships
  workers compact trial-index ranges instead of per-trial argument
  tuples.  Its ``metrics`` modes short-circuit scoring:
  ``"connectivity"`` skips both the per-pair ``fault_route`` scan and
  the slotted simulation (the design-search fast path), ``"paths"``
  keeps route quality but skips simulation, ``"full"`` computes
  everything;
* the **vectorized** backend (``metrics="connectivity"`` and
  ``"paths"``) never instantiates a
  :class:`~repro.resilience.degrade.DegradedNetwork` at
  all: the built network's topology is exported once per context into
  flat numpy arrays (CSR coupler->processor incidence, coupler
  endpoint pairs, processor->group map), fault masks for whole trial
  *batches* are drawn as boolean arrays -- seeded by the same SHA-256
  per-trial scheme, so every draw matches the batched backend bit for
  bit; the five sample-based built-in models replay CPython's
  ``random.Random(seed)`` streams for the whole batch at once -- and
  connectivity metrics come from a batched reachability
  closure over the masked group adjacency instead of per-trial Python
  BFS.
  ``"paths"`` mode swaps the closure for a level-synchronous
  boolean-matmul BFS whose frontier expansions yield per-pair
  *distances*, scoring route quality (``max_path_length`` /
  ``mean_stretch`` / ``within_bound``) for whole batches; it is
  byte-identical to the batched ``fault_route`` scan for every family
  whose hook is the generic BFS fallback, and families with structured
  hooks are downgraded to ``batched`` with a recorded reason (see
  :func:`_prepare_sweep`) rather than ever silently diverging.  This
  is the 10^5-10^6-trial path.  Temporal replays score their trace
  segments on the same kernel (:meth:`_VectorContext.score`).

Every door -- :func:`survivability_sweep`,
:func:`pooled_survivability_sweeps`, the
:class:`~repro.core.session.Session` verbs, experiments and the design
search -- runs its ``(spec, request)`` pairs through one function,
:func:`_run_requests`: prepare, execute, summarize.  Temporal replays
(:mod:`repro.temporal.replay`) take the same path with their own
plans, which build their own trial contexts.  That function also picks
the schedule: one pair at a time inline or for adaptive runs, else
every pair's trial batches on one shared pool map, with summaries
byte-identical to per-sweep execution either way.

Every run executes on a :class:`PersistentSweepExecutor`, which owns
one lazily-started pool and ships each task its frozen plan; workers
build a trial context the first time they see a plan and reuse it for
every later chunk.  A session keeps one long-lived executor per worker
count; a module-level sweep function opens one scoped to the call.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import threading
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import InitVar, dataclass, field, fields, replace
from functools import partial
from itertools import islice

import numpy as np

from ..obs.metrics import REGISTRY, reset_worker_registry, worker_registry
from ..obs.trace import add_complete_event, now_us, span
from .adaptive import (
    SAMPLING_MODES,
    adaptive_summary_block,
    check_cardinality_model,
    make_sampler,
    run_adaptive,
)
from ..simulation.engine import SlotCapError
from .degrade import DegradedNetwork, _network_state, group_distances
from .faults import FAULT_MODELS, FaultModel, resolve_fault_model
from .faults import trial_seed, trial_seeds
from .metrics import _QUALITY_KEYS, _connectivity_columns, route_quality, stack_rows

# bound here for perfbench's layer clock, which times the per-view
# scorers by patching this module's names
from .metrics import connectivity_metrics as connectivity_metrics
from .metrics import path_survival as path_survival

__all__ = [
    "SweepRequest",
    "SweepRequestError",
    "SweepSummary",
    "PersistentSweepExecutor",
    "survivability_sweep",
    "pooled_survivability_sweeps",
    "METRICS_MODES",
    "SAMPLING_MODES",
    "SWEEP_BACKENDS",
    "SWEEP_FIELDS",
]

#: Per-trial metric keys that get quantile summaries (``full`` mode).
_SUMMARIZED = (
    "connectivity",
    "alive_connectivity",
    "reachable_groups",
    "max_path_length",
    "mean_stretch",
    "within_bound",
    "delivery_ratio",
    "latency_inflation",
    "mean_latency",
    "dropped",
    "slots",
)

#: Scoring depth -> the per-trial metric keys it produces.
METRICS_MODES: dict[str, tuple[str, ...]] = {
    "connectivity": (
        "connectivity",
        "alive_connectivity",
        "reachable_groups",
    ),
    "paths": (
        "connectivity",
        "alive_connectivity",
        "reachable_groups",
        "max_path_length",
        "mean_stretch",
        "within_bound",
    ),
    "full": _SUMMARIZED,
}

#: Accepted ``backend`` values: the two trial executors (see the module
#: docstring) and ``auto``, which picks one of them per sweep.
SWEEP_BACKENDS = ("auto", "batched", "vectorized")

#: Most trials the vectorized backend scores per numpy batch; the
#: effective batch also shrinks with the group count (see
#: :data:`_VECTOR_CELL_BUDGET`) so the (batch, groups, groups) working
#: set stays bounded.  Batch size never changes results.
_VECTOR_BATCH = 4096

#: Cap on cells per vectorized batch (~32 MB of int64), applied to the
#: widest per-trial axis -- ``groups^2`` (reachability tensors),
#: ``num_processors`` (fault masks) and the coupler incidence nnz (the
#: source/target gathers) -- so machines that are large in *any*
#: dimension get smaller batches instead of multi-GB temporaries.
_VECTOR_CELL_BUDGET = 4_000_000


def _batch_rows(*cells_per_row: int) -> int:
    """Rows per batch: :data:`_VECTOR_CELL_BUDGET` over the widest per-row axis."""
    return max(1, min(_VECTOR_BATCH, _VECTOR_CELL_BUDGET // max(*cells_per_row, 1)))


class SweepRequestError(ValueError):
    """A sweep parameter value that :class:`SweepRequest` rejects.

    ``field`` names the parameter; ``code`` and ``details`` (the
    ``known`` values of a choice field) are the structured error the
    serving tier answers with.
    """

    def __init__(
        self,
        field: str,
        message: str,
        *,
        code: str = "bad_request",
        details: dict | None = None,
    ) -> None:
        super().__init__(message)
        self.field = field
        self.code = code
        self.details = details

    def __reduce__(self):
        # a pool worker's error crosses to the parent by pickle
        return type(self), (self.field, str(self)), self.__dict__


def _check_int(name: str, value, minimum: int | None = None) -> None:
    """Reject a non-``int`` (``bool`` included) or a value below ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, int):
        message = f"{name} must be an integer, got {value!r}"
        raise SweepRequestError(name, message)
    if minimum is not None and value < minimum:
        message = f"{name} must be >= {minimum}, got {value}"
        raise SweepRequestError(name, message)


def _check_positive(name: str, value) -> None:
    """Reject a non-number (``bool`` included) or a value not ``> 0``."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and value > 0):
        message = f"{name} must be a number > 0, got {value!r}"
        raise SweepRequestError(name, message)


def _check_fields(payload, known, noun: str) -> None:
    """Reject a payload key that is not one of the ``known`` field names."""
    unknown = sorted(set(payload) - set(known))
    if unknown:
        raise SweepRequestError(
            unknown[0],
            f"unknown {noun} field(s): {', '.join(unknown)}; "
            f"known: {', '.join(known)}",
        )


def _unknown(name: str, noun: str, value, known) -> SweepRequestError:
    """The error for a choice field outside its ``known`` values."""
    return SweepRequestError(
        name,
        f"unknown {noun} {value!r}; known: {', '.join(known)}",
        details={"known": list(known)},
    )


@dataclass(frozen=True)
class SweepRequest:
    """Every parameter of one survivability sweep but ``spec`` and ``workers``.

    The one place sweep parameters are declared, defaulted and checked:
    :func:`repro.resilience_sweep`, :class:`~repro.core.session.Session`,
    the CLI, the serving tier, :class:`~repro.core.experiment.Experiment`
    and :func:`repro.design_search` all build one, so every door accepts
    the same values.  Construction runs every check that does not depend
    on the machine and raises ``ValueError`` (a
    :class:`SweepRequestError`) on a bad value; the spec-dependent rest
    -- the ``paths`` downgrade, the stratified trial floor, the intact
    baseline -- happens when a sweep prepares ``(spec, request)``.

    Parameters
    ----------
    model : str or FaultModel, optional
        A registered fault-model key (``"coupler"``, ``"processor"``,
        ``"link"``, ``"adversarial"``, ``"group"``, ``"bernoulli"``),
        which takes its intensity from ``faults``, or (from Python) a
        :class:`~repro.resilience.faults.FaultModel` instance, which
        carries its own.  Stored resolved, as an instance.
    faults : int, optional
        Faults per trial a model key draws, ``>= 0`` (default 1).  An
        instance carries its own, so passing both is an error; the
        count is folded into ``model`` rather than stored (read
        ``model.faults``).
    trials : int, optional
        Monte-Carlo trials, ``>= 1`` (default 100); the cap when
        ``ci_target`` is set.
    seed : int, optional
        Sweep seed (default 0).  Per-trial seeds derive from it via
        SHA-256, so the result is byte-identical for any worker count.
    workload : str, optional
        Workload run on each degraded machine in ``full`` mode, which
        must name a registered workload (default ``"uniform"``).
    messages : int, optional
        Messages per trial in ``full`` mode, ``>= 1`` (default 60).
    bound : int, optional
        Path-length bound, ``>= 0``; default ``diameter + 2`` (the
        paper's ``k + 2`` generalized).
    max_slots : int, optional
        Hard stop for each trial's simulation, ``>= 1`` (default
        100000).
    metrics : {"full", "paths", "connectivity"}, optional
        Scoring depth: ``"full"`` (everything, including the degraded
        slotted simulation), ``"paths"`` (connectivity plus route
        quality) or ``"connectivity"`` (reachability only -- the fast
        path).  The default is ``"full"``; the design search and
        experiments default to ``"connectivity"``.
    backend : {"auto", "batched", "vectorized"}, optional
        Trial executor: ``"batched"`` (one built network per process,
        every metrics mode) or ``"vectorized"`` (flat topology arrays
        and numpy trial batches; ``connectivity`` and ``paths`` only,
        byte-identical to ``batched``).  ``"auto"`` (default) runs
        ``vectorized`` wherever it can score the sweep -- a built-in
        fault model, ``connectivity`` metrics, or ``paths`` on a family
        with the generic ``fault_route`` -- and ``batched`` elsewhere;
        the summary's ``backend`` records which ran.  An explicit
        vectorized ``paths`` request for a family with structured
        routing (stack-Kautz) runs on ``batched``, recorded on the
        summary's ``backend``/``downgrade_reason``.  An experiment runs
        the ``full`` cells of a ``"vectorized"`` plan as ``"auto"``.
    ci_target : float, optional
        Sequential stopping: run deterministic trial waves until the 95%
        confidence interval on the survival probability has half-width
        at most ``ci_target`` (``> 0``) or ``trials`` is spent.  The
        summary's ``adaptive`` block reports ``trials_spent`` vs
        ``trials_requested`` and the final interval.  Default ``None``
        runs every trial.  A design search also discards a candidate
        early once its interval cannot reach the leader's.
    sampling : {"uniform", "stratified", "importance"}, optional
        Trial allocation: ``"stratified"`` splits trials across
        fault-cardinality strata with a mass-reweighted estimator;
        ``"importance"`` biases draws toward the rare high-fault tail,
        reweighted by exact likelihood ratio.  Both need a model with a
        known cardinality distribution (``coupler``, ``processor`` or
        ``bernoulli``) and keep results byte-identical at any worker
        count.

    Examples
    --------
    >>> r = SweepRequest(model="link", faults=2, trials=8, metrics="paths")
    >>> r.model
    UniformLinkFaults(faults=2)
    >>> SweepRequest.from_payload(r.to_payload()) == r
    True
    """

    model: FaultModel | str = "coupler"
    faults: InitVar[int | None] = None
    trials: int = 100
    seed: int = 0
    workload: str = "uniform"
    messages: int = 60
    bound: int | None = None
    max_slots: int = 100_000
    metrics: str = "full"
    backend: str = "auto"
    ci_target: float | None = None
    sampling: str = "uniform"

    def __post_init__(self, faults: int | None) -> None:
        if faults is not None:
            _check_int("faults", faults, 0)
        try:
            model = resolve_fault_model(self.model, faults)
        except ValueError as exc:
            raise SweepRequestError(
                "model", str(exc), code="invalid_model"
            ) from None
        object.__setattr__(self, "model", model)
        _check_int("trials", self.trials, 1)
        _check_int("seed", self.seed)
        _check_int("messages", self.messages, 1)
        if self.bound is not None:
            _check_int("bound", self.bound, 0)
        _check_int("max_slots", self.max_slots, 1)
        for name in ("workload", "metrics", "backend", "sampling"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise SweepRequestError(
                    name, f"{name} must be a string, got {value!r}"
                )
        if self.metrics not in METRICS_MODES:
            raise _unknown(
                "metrics", "metrics mode", self.metrics, sorted(METRICS_MODES)
            )
        if self.backend not in SWEEP_BACKENDS:
            raise _unknown(
                "backend", "sweep backend", self.backend, SWEEP_BACKENDS
            )
        if self.sampling not in SAMPLING_MODES:
            raise _unknown(
                "sampling", "sampling mode", self.sampling, SAMPLING_MODES
            )
        if self.ci_target is not None:
            _check_positive("ci_target", self.ci_target)
            object.__setattr__(self, "ci_target", float(self.ci_target))
        if self.backend == "vectorized" and self.metrics == "full":
            raise SweepRequestError(
                "backend",
                "the vectorized backend scores metrics='connectivity' and "
                "'paths'; 'full' (slotted simulation) needs "
                "backend='batched'",
            )
        if self.sampling != "uniform":
            check_cardinality_model(self.model)
        if self.metrics == "full":  # only full mode runs the workload
            from ..core.workloads import get_workload

            get_workload(self.workload)

    def to_payload(self) -> dict[str, object]:
        """JSON-safe field dict, the model as its registered key + faults."""
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload.update(model=self.model.key, faults=self.model.faults)
        return payload

    @classmethod
    def from_payload(cls, payload) -> "SweepRequest":
        """The request a field mapping names; unknown keys raise.

        Inverse of :meth:`to_payload` for registry-keyed models.
        """
        _check_fields(payload, SWEEP_FIELDS, "sweep")
        return cls(**payload)


#: The payload field names of :class:`SweepRequest`, in declaration order.
SWEEP_FIELDS: tuple[str, ...] = tuple(SweepRequest.__dataclass_fields__)


@dataclass(frozen=True)
class SweepSummary:
    """Aggregated result of one survivability sweep."""

    spec: str
    model: str
    faults: int
    trials: int
    seed: int
    workload: str
    messages: int
    bound: int
    #: metric -> {"mean": .., "p05": .., "p50": .., "p95": .., "min": .., "max": ..}
    quantiles: dict[str, dict[str, float]] = field(default_factory=dict)
    #: fraction of trials in which every routed pair met the bound
    #: (``None`` when path metrics were not computed)
    within_bound_fraction: float | None = 1.0
    #: fraction of trials in which some surviving pair was severed
    partitioned_fraction: float = 0.0
    #: the backend that actually executed the trials.  Deliberately NOT
    #: part of :meth:`as_dict`/:meth:`to_json`: the byte-identity
    #: contract says equal requests produce equal JSON across backends.
    backend: str = "batched"
    #: why the executed backend differs from the requested one
    #: (``None`` when it does not) -- the visible record of a
    #: vectorized->batched ``paths`` downgrade for structured-routing
    #: families.  Also excluded from the JSON.
    downgrade_reason: str | None = None
    #: the adaptive/estimator record (sampling mode, trials spent vs
    #: requested, survival estimate with its confidence interval) --
    #: present exactly when the request opted in via ``ci_target=`` or
    #: a non-uniform ``sampling=``, and absent from the JSON otherwise
    #: so plain fixed-trial sweeps keep their pre-adaptive bytes.
    adaptive: dict | None = None

    def as_dict(self) -> dict[str, object]:
        """JSON-ready view (stable key order via ``to_json``)."""
        payload: dict[str, object] = {
            "spec": self.spec,
            "model": self.model,
            "faults": self.faults,
            "trials": self.trials,
            "seed": self.seed,
            "workload": self.workload,
            "messages": self.messages,
            "bound": self.bound,
            "quantiles": self.quantiles,
            "within_bound_fraction": self.within_bound_fraction,
            "partitioned_fraction": self.partitioned_fraction,
        }
        if self.adaptive is not None:
            payload["adaptive"] = self.adaptive
        return payload

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, 2-space indent, rounded floats.

        The byte-identity contract of the sweep: same spec/model/seed
        gives the same string regardless of worker count or backend.
        """
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def formatted(self) -> str:
        """Human-readable quantile table."""
        within = (
            "path metrics not computed"
            if self.within_bound_fraction is None
            else f"{100 * self.within_bound_fraction:.1f}% of trials within"
        )
        lines = [
            f"{self.spec} under {self.faults} {self.model} fault(s): "
            f"{self.trials} trials, seed {self.seed}, "
            f"workload {self.workload} x{self.messages}",
            f"  path-length bound diameter+2 = {self.bound}: "
            f"{within}; "
            f"{100 * self.partitioned_fraction:.1f}% partitioned",
            f"  {'metric':<18} {'mean':>9} {'p05':>9} {'p50':>9} {'p95':>9}",
        ]
        for key in _SUMMARIZED:
            q = self.quantiles.get(key)
            if q is None:
                continue
            lines.append(
                f"  {key:<18} {q['mean']:>9.4f} {q['p05']:>9.4f} "
                f"{q['p50']:>9.4f} {q['p95']:>9.4f}"
            )
        if self.adaptive is not None:
            a = self.adaptive
            target = (
                "no CI target"
                if a["ci_target"] is None
                else f"CI target +/-{a['ci_target']}"
            )
            lines.append(
                f"  {a['sampling']} sampling, {target}: survival "
                f"{a['survival']:.6f} in [{a['ci_low']:.6f}, "
                f"{a['ci_high']:.6f}], {a['trials_spent']}/"
                f"{a['trials_requested']} trials over {a['rounds']} round(s)"
            )
        if self.downgrade_reason is not None:
            lines.append(f"  note: {self.downgrade_reason}")
        return "\n".join(lines)


def _nearest_rank(sorted_values: list[float], q: float) -> float:
    """Exact nearest-rank quantile (no interpolation, no float fuzz).

    ``q`` is interpreted in exact hundredths so the rank computation
    is pure integer arithmetic: ``rank = ceil(pct * n / 100)``.
    """
    if not sorted_values:
        return 0.0
    pct = round(q * 100)
    rank = max(1, -(-pct * len(sorted_values) // 100))
    return sorted_values[min(rank, len(sorted_values)) - 1]


# ----------------------------------------------------------------------
# Batched backend: one context per process, trial-index ranges only.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _SweepPlan:
    """Everything a trial needs, frozen once and shipped to workers."""

    canonical: str
    model: FaultModel
    seed: int
    workload: str
    messages: int
    bound: int
    max_slots: int
    baseline_mean_latency: float | None
    metrics: str
    backend: str = "batched"

    def build_context(self, net=None, arrays=None):
        """The trial-runner context of this plan (builds what it lacks)."""
        if self.backend == "vectorized":
            if arrays is None:
                if net is None:
                    from ..core.spec import NetworkSpec

                    net = NetworkSpec.parse(self.canonical).build()
                arrays = _TopologyArrays.from_network(net)
            return _VectorContext(self, arrays)
        return _TrialContext(self, net=net)


class _TrialContext:
    """Per-process trial runner over one shared built network.

    Each process constructs this once per plan (see
    :func:`_cached_context`), so the spec is parsed and the topology
    built per *process*, not per trial -- the frozen network, its
    family descriptor, the plan and (``full`` mode) the plan's traffic
    are shared by every trial of that plan the process executes.
    Everything is built here, never on a first trial: concurrent
    sweeps share a context read-only.

    Trials are scored in sub-batches of :attr:`batch` views, each one
    :func:`~repro.resilience.metrics.stack_rows` stack.
    """

    def __init__(self, plan: _SweepPlan, net=None, family=None) -> None:
        from ..core.registry import get_family
        from ..core.spec import NetworkSpec
        from ..core.workloads import resolve_workload

        self.plan = plan
        parsed = NetworkSpec.parse(plan.canonical)
        self.net = net if net is not None else parsed.build()
        self.family = family if family is not None else get_family(parsed.family)
        # the widest per-view axis: group cells, coupler target slots
        # or (full mode) messages
        cells = [self.net.num_groups**2, _network_state(self.net)[-1].targets.size]
        self.traffic = None
        if plan.metrics == "full":
            # the traffic depends on (workload, messages, seed) alone
            self.traffic = resolve_workload(
                plan.workload, self.net, messages=plan.messages, seed=plan.seed
            )
            cells.append(len(self.traffic))
        self.batch = _batch_rows(*cells)

    def view(self, index: int) -> DegradedNetwork:
        """Trial ``index``'s degraded view of the network."""
        plan = self.plan
        # index-aware samplers (stratified/importance wrappers) need the
        # trial *index*, not just its seed: the index picks the stratum
        # or replays the proposal draw.  Duck-typed so custom models can
        # opt in without importing the adaptive machinery.
        scenario_at = getattr(plan.model, "scenario_at", None)
        if scenario_at is not None:
            scenario = scenario_at(plan.canonical, self.net, plan.seed, index)
        else:
            scenario = plan.model.scenario(
                plan.canonical, self.net, trial_seed(plan.seed, index)
            )
        return DegradedNetwork(self.net, scenario, family=self.family)

    def run_range(self, start: int, stop: int) -> list[dict[str, object]]:
        """Rows of trials ``start .. stop - 1``, in index order.

        Each sub-batch's phase times (``sample``: scenarios and views;
        ``route``: the family's batched ``route_lengths``, in ``paths``
        and ``full`` mode; ``score``: the rest of the scoring;
        ``simulate``: the ``full`` slot pass) land in
        ``repro_phase_seconds``, shipped home with the chunk's metrics.
        A slot cap the traffic outruns is the request's ``max_slots``
        error.
        """
        plan = self.plan
        phases = _phase_histograms(plan.backend, _STACK_PHASES[plan.metrics])

        def observe(phase: str, seconds: float) -> None:
            phases[phase].observe(seconds)

        rows: list[dict[str, object]] = []
        for lo in range(start, stop, self.batch):
            t0 = now_us()
            views = [self.view(i) for i in range(lo, min(lo + self.batch, stop))]
            phases["sample"].observe((now_us() - t0) / 1e6)
            try:
                rows.extend(stack_rows(
                    views, plan.metrics, bound=plan.bound, traffic=self.traffic,
                    max_slots=plan.max_slots,
                    baseline_mean_latency=plan.baseline_mean_latency, observe=observe,
                ))
            except SlotCapError as exc:
                raise _slot_cap_error(exc, "a degraded trial") from None
        return rows


#: The phases each metrics mode's sub-batches record.
_STACK_PHASES = {
    "connectivity": ("sample", "score"),
    "paths": ("sample", "route", "score"),
    "full": ("sample", "route", "score", "simulate"),
}


def _phase_histograms(backend: str, names) -> dict:
    """``repro_phase_seconds`` of each phase in ``names``, worker-side."""
    return {
        phase: worker_registry().histogram(
            "repro_phase_seconds", _PHASE_HELP, {"phase": phase, "backend": backend}
        )
        for phase in names
    }


def _slot_cap_error(exc: SlotCapError, where: str) -> SweepRequestError:
    """The request error of a simulation that outran its ``max_slots``."""
    return SweepRequestError(
        "max_slots",
        f"max_slots {exc.cap} is too few for the traffic: {len(exc.stuck)} "
        f"message(s) of {where} still unsettled at slot {exc.cap}",
    )


# ----------------------------------------------------------------------
# Vectorized backend: flat topology arrays, batched masks.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _TopologyArrays:
    """One built network, flattened into numpy arrays.

    This is everything the vectorized backend needs per trial --
    coupler endpoint group pairs, the processor->group map and the
    CSR coupler->source/target-processor incidence -- exported once
    per trial context (sessions also cache it per spec).
    """

    num_processors: int
    num_groups: int
    num_couplers: int
    endpoints: np.ndarray  # (m, 2) int64: coupler -> (src_group, dst_group)
    proc_group: np.ndarray  # (n,) int64: processor -> group
    src_indptr: np.ndarray  # (m + 1,) int64 CSR over source processors
    src_indices: np.ndarray
    tgt_indptr: np.ndarray  # (m + 1,) int64 CSR over target processors
    tgt_indices: np.ndarray

    @classmethod
    def from_network(cls, net) -> "_TopologyArrays":
        """Export any registry-built network's topology."""
        from .faults import coupler_endpoints

        model = net.hypergraph_model()
        n, m = net.num_processors, model.num_hyperarcs

        def csr(members):  # (indptr, indices) over per-coupler tuples
            indptr = np.zeros(m + 1, dtype=np.int64)
            np.cumsum([len(chunk) for chunk in members], out=indptr[1:])
            flat = [p for chunk in members for p in chunk]
            return indptr, np.asarray(flat, dtype=np.int64)

        src_indptr, src_indices = csr([ha.sources for ha in model.hyperarcs])
        tgt_indptr, tgt_indices = csr([ha.targets for ha in model.hyperarcs])
        return cls(
            num_processors=n,
            num_groups=net.num_groups,
            num_couplers=m,
            endpoints=np.asarray(coupler_endpoints(net), dtype=np.int64).reshape(m, 2),
            proc_group=np.asarray(
                [int(net.label_of(p)[0]) for p in range(n)], dtype=np.int64
            ),
            src_indptr=src_indptr,
            src_indices=src_indices,
            tgt_indptr=tgt_indptr,
            tgt_indices=tgt_indices,
        )


class _ArrayNetworkProxy:
    """Duck-typed stand-in for a built network, backed by arrays.

    Implements exactly the surface the registered
    :meth:`FaultModel.sample_faults` implementations touch
    (``num_couplers`` / ``num_processors`` / ``num_groups``,
    ``label_of`` for the group of a processor, and ``base_graph()``
    with ``arc_array()`` for
    :func:`~repro.resilience.faults.coupler_endpoints`) so the
    vectorized scorer draws byte-identical fault sets from the arrays
    alone.
    """

    __slots__ = ("_arrays", "num_processors", "num_groups", "num_couplers")

    def __init__(self, arrays: _TopologyArrays) -> None:
        self._arrays = arrays
        self.num_processors = arrays.num_processors
        self.num_groups = arrays.num_groups
        self.num_couplers = arrays.num_couplers

    def label_of(self, processor: int) -> tuple[int]:
        return (int(self._arrays.proc_group[processor]),)

    def base_graph(self) -> "_ArrayNetworkProxy":
        # coupler_endpoints() only calls .arc_array() on the result
        return self

    def arc_array(self) -> np.ndarray:
        return self._arrays.endpoints


def _proxy_surface_error(exc: Exception, proxy: _ArrayNetworkProxy) -> bool:
    """Whether ``exc`` stems from the array proxy's *missing* surface.

    Custom ``sample_faults`` implementations may touch network surface
    :class:`_ArrayNetworkProxy` does not carry -- those failures are a
    backend limitation worth naming.  But an ``AttributeError`` /
    ``IndexError`` / ``TypeError`` raised by the fault model's own code
    is a genuine bug that must propagate untranslated.  An
    ``AttributeError`` qualifies only when it was raised *on the proxy
    itself* (``exc.obj``); other lookup errors only when the innermost
    traceback frame is one of the proxy's own methods.
    """
    if isinstance(exc, AttributeError):
        return getattr(exc, "obj", None) is proxy
    proxy_codes = {
        _ArrayNetworkProxy.label_of.__code__,
        _ArrayNetworkProxy.base_graph.__code__,
        _ArrayNetworkProxy.arc_array.__code__,
    }
    tb = exc.__traceback__
    innermost = None
    while tb is not None:
        innermost = tb
        tb = tb.tb_next
    return (
        innermost is not None
        and innermost.tb_frame.f_code in proxy_codes
    )


def _fault_masks(
    draws, rows: int, arrays: _TopologyArrays
) -> tuple[np.ndarray, np.ndarray]:
    """``(dead_processors, direct_couplers)`` boolean masks of ``rows`` rows.

    ``draws`` yields one ``(dead couplers, dead processors)`` pair of
    index collections per row -- a sampled trial or a trace segment --
    and may be a lazy iterator, so no draw outlives its row.  Rows it
    does not fill stay fault-free.  Out-of-range indices are ignored,
    as :class:`~repro.resilience.degrade.DegradedNetwork` ignores them.
    """
    n, m = arrays.num_processors, arrays.num_couplers
    # (row, index) cells are gathered in Python and set in one scatter
    # per mask: a numpy assignment per row costs more than the draw
    c_rows: list[int] = []
    c_cols: list[int] = []
    p_rows: list[int] = []
    p_cols: list[int] = []
    for j, (couplers, processors) in enumerate(draws):
        for c in couplers:
            if 0 <= c < m:
                c_rows.append(j)
                c_cols.append(c)
        for p in processors:
            if 0 <= p < n:
                p_rows.append(j)
                p_cols.append(p)
    dead = np.zeros((rows, n), dtype=bool)
    direct = np.zeros((rows, m), dtype=bool)
    dead[p_rows, p_cols] = True
    direct[c_rows, c_cols] = True
    return dead, direct


class _VectorContext:
    """Per-process vectorized trial scorer over flat topology arrays.

    Scores ``connectivity``- and ``paths``-mode metrics for whole
    trial batches.  The fault draws replay the batched backend's
    SHA-256 seed stream and sampler bit for bit: the five
    sample-based built-in models draw a whole batch at once
    (:class:`~repro.resilience.faults._PickMap`), everything else
    draws per trial.  Everything downstream -- the dead-coupler
    closure, the surviving group adjacency, reachability (and, in
    ``paths`` mode, all-pairs distances from level-synchronous
    frontier expansion), and the metric ratios -- is batched numpy
    over all trials of a chunk at once, with no per-trial
    ``DegradedNetwork`` or Python BFS.

    Sampling (:meth:`_sample_masks`) and scoring (:meth:`score`) are
    separate steps, so a temporal replay scores its trace segments'
    fault masks on the same kernel.  ``paths`` (default: the plan's
    metrics mode is ``"paths"``) adds the route-quality columns; the
    plan supplies ``bound`` and the ``backend`` label of the kernel
    counters, and a sweep plan the model and seed it samples from.
    """

    def __init__(
        self, plan, arrays: _TopologyArrays, *, paths: bool | None = None
    ) -> None:
        self.plan = plan
        self.arrays = arrays
        self.paths = plan.metrics == "paths" if paths is None else paths
        self._proxy = _ArrayNetworkProxy(arrays)
        g = arrays.num_groups
        #: rows (trials or segments) per numpy batch
        self.batch = _batch_rows(
            g**2,
            arrays.num_processors,
            int(arrays.src_indptr[-1]),
            int(arrays.tgt_indptr[-1]),
        )
        self._src_sizes = np.diff(arrays.src_indptr)
        self._tgt_sizes = np.diff(arrays.tgt_indptr)
        #: coupler -> flattened (src_group, dst_group) cell index
        self._pair_id = arrays.endpoints[:, 0] * g + arrays.endpoints[:, 1]
        #: (g,) processors per group, the intact alive counts
        self._group_sizes = np.bincount(arrays.proc_group, minlength=g)
        #: (g, g) intact group distances, the stretch denominators
        #: (``paths`` mode only; computed once per context)
        self._intact_dist = self._intact_group_distances() if self.paths else None
        #: the batch draw of a sample-based built-in model, else None:
        #: by exact type, the rule ``auto`` uses (a subclass may sample
        #: differently), and never for a sampler that :meth:`_draw`
        #: hands the trial index (``sample_faults_at``)
        self._picks = None
        model = getattr(plan, "model", None)
        batch = hasattr(model, "_pick_map") and not hasattr(model, "sample_faults_at")
        if type(model) in FAULT_MODELS.values() and batch:
            self._picks = model._pick_map(self._proxy)

    def _intact_group_distances(self) -> np.ndarray:
        """``(g, g)`` BFS distances over the intact loopless group digraph.

        The ``mean_stretch`` denominators of
        :func:`~repro.resilience.metrics.path_survival`: ``endpoints``
        is exactly ``base_graph().arc_array()`` for every family the
        kernel accepts (``_prepare_sweep`` downgrades the rest), so
        this equals ``base_graph().without_loops().bfs_distances(u)[v]``
        for every pair.  ``-1`` marks pairs unreachable intact.
        """
        g = self.arrays.num_groups
        endpoints = self.arrays.endpoints
        adj = np.zeros((g, g), dtype=bool)
        adj[endpoints[:, 0], endpoints[:, 1]] = True
        return group_distances(adj)

    def run_range(self, start: int, stop: int) -> list[dict[str, object]]:
        """Rows of trials ``start .. stop - 1``, in index order.

        Each batch's sampling and scoring times land in
        ``repro_phase_seconds``, shipped home with the chunk's metrics.
        """
        phases = _phase_histograms(self.plan.backend, ("sample", "score"))
        rows: list[dict[str, object]] = []
        for lo in range(start, stop, self.batch):
            t0 = now_us()
            masks = self._sample_masks(lo, min(lo + self.batch, stop))
            t1 = now_us()
            rows.extend(self.score(*masks))
            phases["sample"].observe((t1 - t0) / 1e6)
            phases["score"].observe((now_us() - t1) / 1e6)
        return rows

    def _sample_masks(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """``(dead_processors, directly_hit_couplers)`` boolean masks.

        One row per trial; each row equals the draw the batched
        backend's ``model.scenario(...)`` makes for that trial index
        (same sampler, same ``trial_seed`` stream).  A sample-based
        built-in model draws the whole batch at once, and the rows
        that batch draw hands back (a draw that outran its words, an
        adversarial victim with no out-coupler) go through
        :meth:`_draw` like every other model's trials.
        """
        rows = hi - lo
        if self.arrays.num_processors <= 1:  # score() answers without a draw
            return _fault_masks((), rows, self.arrays)
        if self._picks is None:
            return _fault_masks(map(self._draw, range(lo, hi)), rows, self.arrays)
        dead, direct, back = self._picks.draw(trial_seeds(self.plan.seed, lo, hi))
        if back.size:
            draws = map(self._draw, (back + lo).tolist())
            dead[back], direct[back] = _fault_masks(draws, back.size, self.arrays)
        return dead, direct

    def _draw(self, index: int):
        """``(dead couplers, dead processors)`` sampled for trial ``index``."""
        plan = self.plan
        rng = random.Random(trial_seed(plan.seed, index))
        sample_at = getattr(plan.model, "sample_faults_at", None)
        try:
            if sample_at is not None:
                return sample_at(self._proxy, rng, index)
            return plan.model.sample_faults(self._proxy, rng)
        except (AttributeError, IndexError, TypeError) as exc:
            # custom models may sample from network surface the
            # array proxy does not carry -- name the restriction
            # instead of leaking a deep (possibly pickled) error.
            # Only errors that actually originate from the proxy's
            # missing surface are translated: a bug inside the
            # model's own sample_faults propagates untouched.
            if not _proxy_surface_error(exc, self._proxy):
                raise
            raise ValueError(
                f"fault model {type(plan.model).__name__} needs "
                f"network surface the vectorized backend's array "
                f"proxy does not provide ({exc}); run it with "
                f"backend='batched'"
            ) from exc

    def score(
        self, dead_processors: np.ndarray, direct_couplers: np.ndarray
    ) -> list[dict[str, object]]:
        """The metrics row of each fault-mask row, in row order.

        ``dead_processors`` is ``(rows, num_processors)`` and
        ``direct_couplers`` ``(rows, num_couplers)``, both boolean (see
        :func:`_fault_masks`); row ``j`` scores exactly as
        :func:`~repro.resilience.metrics.connectivity_metrics` (and, with
        ``paths``, :func:`~repro.resilience.metrics.path_survival`)
        score a ``DegradedNetwork`` of those dead sets.  At most
        :attr:`batch` rows per call keep the working set bounded.
        """
        arrays = self.arrays
        n, g, m = arrays.num_processors, arrays.num_groups, arrays.num_couplers
        batch = len(dead_processors)
        dead_i = dead_processors.astype(np.int64)
        # effective dead couplers (the DegradedNetwork closure): hit
        # directly, or every source processor died, or every target died
        if m:
            src_dead = np.add.reduceat(
                dead_i[:, arrays.src_indices], arrays.src_indptr[:-1], axis=1
            )
            tgt_dead = np.add.reduceat(
                dead_i[:, arrays.tgt_indices], arrays.tgt_indptr[:-1], axis=1
            )
            dead_coupler = (
                direct_couplers
                | (src_dead == self._src_sizes)
                | (tgt_dead == self._tgt_sizes)
            )
        else:
            dead_coupler = direct_couplers
        # surviving group adjacency, one scatter for the whole batch
        ti, ci = np.nonzero(~dead_coupler)
        counts = np.bincount(
            ti * (g * g) + self._pair_id[ci], minlength=batch * g * g
        )
        adj = counts.reshape(batch, g, g) > 0
        diag = np.arange(g)
        if self.paths:
            # dist[b, u, v] equals bfs_distances(u)[v] on the surviving
            # base, i.e. exactly the length the generic fault_route hook
            # reports; `reach` is the same closure the squaring loop
            # below produces, and the deepest frontier is the hop count
            dist = group_distances(adj)
            reach = dist >= 0
            hops = int(dist.max(initial=0))
        else:
            # reachability closure by repeated squaring: R holds
            # "reaches in <= 2^k hops" (identity included, loops kept --
            # the same booleans as bfs_distances(u)[v] >= 0 on the
            # surviving base), in float32 matmuls as group_distances
            # runs them
            reach = adj.copy()
            reach[:, diag, diag] = True
            while True:
                reach_f = reach.astype(np.float32)
                grown = np.matmul(reach_f, reach_f) > 0
                if np.array_equal(grown, reach):
                    break
                reach = grown
        ti, pi = np.nonzero(dead_processors)
        dead_per_group = np.bincount(
            ti * g + arrays.proc_group[pi], minlength=batch * g
        ).reshape(batch, g)
        alive_per_group = self._group_sizes[None, :] - dead_per_group
        columns = _connectivity_columns(
            adj, reach, alive_per_group, n, with_reachable=not self.paths
        )
        if not self.paths:
            return [
                {"connectivity": c, "alive_connectivity": a, "reachable_groups": r}
                for c, a, r in zip(*columns.values())
            ]
        registry = worker_registry()
        labels = {"backend": self.plan.backend}
        registry.counter(
            "repro_sweep_paths_kernel_trials_total", _PATHS_TRIALS_HELP, labels
        ).inc(batch)
        registry.histogram(
            "repro_sweep_paths_kernel_hops", _PATHS_HOPS_HELP, labels
        ).observe(hops)
        # dist is the generic fault_route's route lengths: the scoring
        # is path_survival's own
        quality = route_quality(
            dist, alive_per_group > 0, self._intact_dist, self.plan.bound
        )
        return [
            {
                "connectivity": c,
                "alive_connectivity": a,
                **dict(zip(_QUALITY_KEYS, q)),
            }
            for c, a, q in zip(*columns.values(), quality)
        ]


# ----------------------------------------------------------------------
# Worker plumbing: chunk observation (fork-aware metrics + timings).
# ----------------------------------------------------------------------
#: Help strings of the sweep metric families, parent- and worker-side.
_CHUNKS_HELP = "Sweep trial chunks executed"
_TRIALS_HELP = "Monte-Carlo trials executed"
_RUN_HELP = "Wall time of one sweep trial chunk"
_WAIT_HELP = "Queue wait between chunk dispatch and worker pickup"
_PATHS_TRIALS_HELP = (
    "Trials (temporal: trace segments) scored by the vectorized paths kernel"
)
_PATHS_HOPS_HELP = "BFS frontier expansions per vectorized paths batch"
_PHASE_HELP = "Wall time of one trial batch's phase"
_DOWNGRADE_HELP = "Sweeps downgraded from their requested backend"


def _observed_range(ctx, start: int, stop: int):
    """``(rows, meta)`` of a trial range, with the worker's obs delta.

    Workers always measure (two clock reads per multi-trial chunk --
    noise) and record into the per-process worker registry; ``meta``
    ships the drained registry delta plus the chunk's wall window home
    with the rows.  The parent merges the delta into the global
    registry and decides whether a tracer turns the timings into
    events -- the tracing flag never propagates to workers, and the
    rows themselves are untouched either way.
    """
    labels = {"backend": ctx.plan.backend}
    registry = worker_registry()
    start_us = now_us()
    rows = ctx.run_range(start, stop)
    duration_us = now_us() - start_us
    registry.counter("repro_sweep_chunks_total", _CHUNKS_HELP, labels).inc()
    registry.counter("repro_sweep_trials_total", _TRIALS_HELP, labels).inc(
        stop - start
    )
    registry.histogram(
        "repro_sweep_chunk_run_seconds", _RUN_HELP, labels
    ).observe(duration_us / 1e6)
    meta = {
        "metrics": registry.drain(),
        "start_us": start_us,
        "dur_us": duration_us,
        "pid": os.getpid(),
        "trials": stop - start,
        "backend": ctx.plan.backend,
    }
    return rows, meta


def _absorb_chunk_meta(meta, dispatched_us: int) -> None:
    """Merge one shipped worker delta into the parent's global registry.

    Every merge operation is commutative, so the totals are identical
    for any worker count and chunk completion order.  The parent also
    derives the chunk's queue wait (dispatch -> worker pickup); with a
    tracer active the chunk becomes a ``sweep.chunk`` event on the
    worker's own pid row of the timeline.
    """
    REGISTRY.merge(meta["metrics"])
    wait = max(meta["start_us"] - dispatched_us, 0) / 1e6
    REGISTRY.histogram(
        "repro_sweep_queue_wait_seconds",
        _WAIT_HELP,
        {"backend": meta["backend"]},
    ).observe(wait)
    add_complete_event(
        "sweep.chunk",
        meta["start_us"],
        meta["dur_us"],
        args={"trials": meta["trials"], "backend": meta["backend"]},
        pid=meta["pid"],
        tid=0,
    )


def _index_chunks(trials: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous ``(start, stop)`` trial ranges of near-equal size.

    Each worker gets an even share of at most 4 chunks, and no chunk is
    cut below :data:`_VECTOR_BATCH` trials unless an even share is
    smaller: a context scores a chunk in sub-batches of up to that
    many trials, and fewer, wider sub-batches cost less per trial.
    Sizes differ by at most one; with ``trials >= workers`` there is a
    multiple of ``workers`` chunks (else one chunk per trial).
    """
    per_worker = min(4, max(1, trials // (workers * _VECTOR_BATCH)))
    count = min(trials, workers * per_worker)
    size, extra = divmod(trials, max(count, 1))
    bounds = [lo * size + min(lo, extra) for lo in range(count + 1)]
    return list(zip(bounds, bounds[1:]))


# ----------------------------------------------------------------------
# The executor: one lazily-started pool, contexts keyed by plan.
# ----------------------------------------------------------------------
#: Most plan contexts a worker (or the inline executor) keeps alive at
#: once; least recently used evicted first.  Batched contexts hold a
#: whole built network and a design-search window can span hundreds of
#: candidates, so this keeps each process at O(1) networks.
_PERSIST_CTX_CACHE = 8

_PERSIST_CTXS: OrderedDict = OrderedDict()


def _init_persistent_worker() -> None:
    """Pool initializer: an empty per-process plan-keyed context cache."""
    global _PERSIST_CTXS
    reset_worker_registry()  # drop fork-inherited parent state
    _PERSIST_CTXS = OrderedDict()


def _cached_context(cache: OrderedDict, plan, **kw):
    """The trial context for ``plan``, LRU-cached when the plan hashes.

    ``plan`` is a sweep's :class:`_SweepPlan` or a temporal replay's
    plan; each builds its own context (``plan.build_context(**kw)``).
    Plans are frozen dataclasses, hashable whenever their fault model
    or process (and workload) is -- every built-in one; an unhashable
    custom one just skips caching and rebuilds per chunk -- correct,
    only slower.
    """
    try:
        ctx = cache.get(plan)
    except TypeError:
        return plan.build_context(**kw)
    if ctx is not None:
        cache.move_to_end(plan)
        return ctx
    ctx = plan.build_context(**kw)
    while len(cache) >= _PERSIST_CTX_CACHE:
        cache.popitem(last=False)
    cache[plan] = ctx
    return ctx


def _run_persistent_chunk(task: tuple[object, int, int]):
    """Run one trial range of any plan on the worker's context cache.

    The plan travels with the task, so one pool serves any sequence of
    sweeps and temporal replays: a worker builds the context the first
    time it sees a plan (from the canonical spec) and reuses it for
    every later chunk of that plan.
    """
    plan, start, stop = task
    return _observed_range(_cached_context(_PERSIST_CTXS, plan), start, stop)


class PersistentSweepExecutor:
    """A reusable sweep executor that owns one lazily-started pool.

    The pool stays alive across calls and each task carries its frozen
    plan, so workers build a trial context only when they meet a new
    plan.  ``workers`` of ``None``/``0``/``1`` runs inline with a
    parent-side context cache (warm repeated sweeps skip context
    rebuilds there too).

    A *prepared* run is a sweep's :class:`_PreparedSweep` or a prepared
    temporal replay: its ``plan`` builds the trial context, ``net`` is
    the parent's built network and ``arrays`` its topology arrays (each
    ``None`` when the context builds its own), and ``trials`` the trial
    count to schedule.

    Rows are **byte-identical** for the same plan at any worker count
    -- trial chunking never changes per-trial seeds or row order.
    :class:`repro.core.session.Session` keeps one long-lived executor
    per worker count; the module-level sweep functions open one scoped
    to the call.
    """

    def __init__(self, workers: int | None = None) -> None:
        self.workers = workers if workers is not None and workers > 1 else 0
        self._pool = None
        self._pool_lock = threading.Lock()
        self._inline_ctxs: OrderedDict = OrderedDict()
        self._inline_lock = threading.Lock()
        self._closed = False
        self._interrupted = False

    @property
    def parallel(self) -> bool:
        """Whether this executor fans trials over a worker pool."""
        return self.workers > 1

    @property
    def pool_started(self) -> bool:
        """Whether the lazily-created pool currently exists."""
        return self._pool is not None

    def _ensure_pool(self):
        if self._closed:
            raise RuntimeError("executor is closed")
        # locked: concurrent server threads must share ONE pool, never
        # race two into existence (Pool itself is thread-safe once built)
        with self._pool_lock:
            if self._pool is None:
                self._pool = multiprocessing.Pool(
                    processes=self.workers,
                    initializer=_init_persistent_worker,
                )
            return self._pool

    def _map_chunks(self, tasks):
        """Yield ``(rows, meta)`` per chunk task, in task order.

        ``Pool.imap`` releases each chunk as soon as it and every
        earlier one are in; its worker observation delta is merged into
        the parent registry on the way.  A
        ``KeyboardInterrupt``/``SystemExit`` mid-map can leave tasks the
        pool will never drain; marking the executor interrupted makes
        the eventual :meth:`close` terminate the workers instead of
        hanging on (or warning out of) a doomed drain.
        """
        dispatched_us = now_us()
        pool = self._ensure_pool()
        try:
            for rows, meta in pool.imap(_run_persistent_chunk, tasks):
                _absorb_chunk_meta(meta, dispatched_us)
                yield rows, meta
        except (KeyboardInterrupt, SystemExit):
            self._interrupted = True
            raise

    def run(self, prepared, *, extra_stop=None) -> list[dict]:
        """All trial rows of one prepared run, in trial-index order.

        A sweep with ``ci_target`` set runs the sequential-stopping wave
        loop (:func:`~repro.resilience.adaptive.run_adaptive`) instead
        of one fixed batch; ``extra_stop`` is its optional second
        stopping rule (the design search's early discard).
        """
        request = prepared.request
        if isinstance(request, SweepRequest) and request.ci_target is not None:
            return run_adaptive(prepared, self, extra_stop=extra_stop)
        return self.run_range(prepared, 0, prepared.trials)

    def run_range(self, prepared, start: int, stop: int) -> list[dict]:
        """Rows of trials ``start .. stop - 1`` of one prepared run.

        The adaptive engine's wave primitive: each wave is one
        contiguous index range, so per-trial seeds -- and therefore
        the rows -- are exactly what a fixed run of ``stop`` trials
        would produce for that slice, at any worker count.  Inline, a
        new plan's context reuses the run's ``net`` and ``arrays``.
        """
        if self._closed:
            raise RuntimeError("executor is closed")
        plan = prepared.plan
        if start >= stop:
            return []
        if not self.parallel:
            # lock covers only the cache lookup/insert; trial compute
            # runs unlocked (contexts are read-only once built)
            with self._inline_lock:
                ctx = _cached_context(
                    self._inline_ctxs,
                    plan,
                    net=prepared.net,
                    arrays=prepared.arrays,
                )
            # the chunk counters and the kernel-level series contexts
            # record land in the worker registry wherever they run;
            # inline runs merge that delta straight into the registry
            rows, meta = _observed_range(ctx, start, stop)
            REGISTRY.merge(meta["metrics"])
            return rows
        chunks = self._map_chunks([
            (plan, start + lo, start + hi)
            for lo, hi in _index_chunks(stop - start, self.workers)
        ])
        return [row for rows, _ in chunks for row in rows]

    def run_many(self, prepared_list):
        """Yield the row list of each prepared run, in input order.

        Sweeps and temporal replays mix freely, and every run's chunks
        share ONE pool map; each row list is identical to what
        :meth:`run` would produce for that run alone, and is yielded as
        soon as its last chunk is in.  A run of 0 trials schedules no
        chunks and yields empty rows in its place.
        """
        if self._closed:
            raise RuntimeError("executor is closed")
        if not self.parallel:
            for prepared in prepared_list:
                yield self.run(prepared)
            return
        ranges = [_index_chunks(p.trials, self.workers) for p in prepared_list]
        chunks = self._map_chunks([
            (p.plan, lo, hi)
            for p, run_ranges in zip(prepared_list, ranges)
            for lo, hi in run_ranges
        ])
        # imap keeps task order, and each run's chunks are queued in
        # trial-index order: run i's rows are the next len(ranges[i])
        for run_ranges in ranges:
            yield [
                row
                for rows, _ in islice(chunks, len(run_ranges))
                for row in rows
            ]

    def close(self, *, terminate: bool = False) -> None:
        """Shut the pool down and drop cached contexts (idempotent).

        ``terminate=False`` (the default) drains the pool: workers
        finish in-flight chunks and exit.  ``terminate=True`` kills
        them immediately -- the path signal handlers take, where an
        interrupted ``map`` may never return its tasks and a drain
        would hang.  Either way teardown is quiet: a pool whose drain
        fails (workers already dead after a ``KeyboardInterrupt``,
        interpreter shutdown races) falls back to terminate instead of
        leaking ``BrokenProcessPool``/resource-tracker warnings out of
        ``atexit``.
        """
        self._closed = True
        self._inline_ctxs.clear()
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is None:
            return
        terminate = terminate or self._interrupted
        try:
            if terminate:
                pool.terminate()
            else:
                pool.close()
            pool.join()
        except BaseException:
            # last resort: never let teardown noise escape -- kill the
            # workers and swallow whatever state the pool was left in
            try:
                pool.terminate()
                pool.join()
            except BaseException:  # pragma: no cover - interpreter exit
                pass
            if not terminate:
                raise

    def __enter__(self) -> "PersistentSweepExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass


# ----------------------------------------------------------------------
# Preparation and aggregation shared by every executor.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _PreparedSweep:
    """One validated sweep: the worker plan plus parent-only state."""

    plan: _SweepPlan
    request: SweepRequest
    net: object  # the built network (parent-side only; never pickled)
    #: why ``plan.backend`` differs from the requested backend
    #: (``None`` when it does not); surfaced on the summary
    downgrade: str | None = None
    #: the spec's topology arrays, for an inline kernel run only
    arrays: object = None

    @property
    def trials(self) -> int:
        """Trials to schedule (an adaptive sweep's cap)."""
        return self.request.trials


def _intact_baseline(
    net,
    family_key: str,
    *,
    workload: str,
    messages: int,
    seed: int,
    max_slots: int,
) -> float:
    """Mean latency of the intact network under one workload config.

    The normalizer for ``metrics="full"`` latency inflation; it
    depends only on ``(workload, messages, seed, max_slots)``, so
    sessions cache it per spec instead of recomputing per sweep.
    """
    from ..core.registry import get_family
    from ..core.workloads import resolve_workload
    from ..simulation.network_sim import run_traffic

    traffic = resolve_workload(workload, net, messages=messages, seed=seed)
    report = run_traffic(
        get_family(family_key).simulator(net), traffic, max_slots=max_slots
    )
    return report.mean_latency


def _paths_kernel_refusal(family_key: str, net) -> str | None:
    """Why the vectorized ``paths`` kernel cannot score ``net`` exactly.

    ``None`` when it can.  The kernel's distances are the generic BFS
    ``fault_route``'s route lengths, and its stretch denominators come
    from the base graph.  The sweep's ``auto`` rule, its vectorized
    ``paths`` downgrade and the temporal replay's kernel scoring all
    decide with this one test.
    """
    from ..core.registry import NetworkFamily, get_family

    if type(get_family(family_key)).fault_route is not NetworkFamily.fault_route:
        # a structured hook (stack-Kautz word-level routing) can return
        # longer routes than the BFS, so those specs need the batched
        # fault_route scan
        return (
            f"family {family_key!r} overrides fault_route with "
            "structured routing the vectorized paths kernel cannot "
            "reproduce byte-for-byte; executed on backend='batched'"
        )
    if net.num_groups > 1 and not hasattr(net, "base_graph"):
        # defensive: no registered multi-group family lacks one today
        return (
            f"family {family_key!r} exposes no base_graph() for "
            "intact distances; executed on backend='batched'"
        )
    return None


def _prepare_sweep(
    spec, request: SweepRequest, *, net=None, baseline=None
) -> _PreparedSweep:
    """Freeze the :class:`_SweepPlan` of one ``(spec, request)`` sweep.

    The request checked everything that does not depend on the
    machine; what is left happens here: the index-aware sampler (whose
    stratified trial floor raises :class:`SweepRequestError`), the
    executed backend and the intact baseline.  ``auto`` resolves to
    ``vectorized`` for a built-in fault model (an instance of one of
    the ``FAULT_MODELS`` types) scored on ``connectivity``, or on
    ``paths`` where :func:`_paths_kernel_refusal` has no objection, and
    to ``batched`` otherwise; an explicit vectorized ``paths`` request
    the kernel refuses is downgraded, with the reason recorded on the
    summary and counted.
    ``net`` and ``baseline`` come from the run's
    :class:`~repro.core.cache.CacheEntry` (:func:`_run_requests`);
    ``baseline`` is a callable taking
    ``workload``/``messages``/``seed``/``max_slots`` keywords like
    :meth:`repro.core.cache.CacheEntry.baseline`, and both MUST match
    what ``spec`` would produce.  Without them they are built here.
    """
    from ..core.spec import NetworkSpec

    parsed = NetworkSpec.parse(spec)
    net = parsed.build() if net is None else net
    # the index-aware sampler wrapper rides in the plan's model slot:
    # same key/faults surface, but trial contexts detect
    # scenario_at/sample_faults_at and pass the trial index through
    try:
        model = make_sampler(
            request.model,
            net,
            sampling=request.sampling,
            trials=request.trials,
            ci_target=request.ci_target,
        ) or request.model
    except ValueError as exc:  # the stratified floor: trials per stratum
        raise SweepRequestError("trials", str(exc)) from None
    backend, metrics = request.backend, request.metrics
    refusal = None
    if backend != "batched" and metrics == "paths":
        refusal = _paths_kernel_refusal(parsed.family, net)
    downgrade = None
    if backend == "auto":
        # a selection rule, not a downgrade: the kernel scores neither
        # the slotted simulation nor a custom model, whose sampler may
        # need network surface the array proxy does not carry
        kernel = (
            type(request.model) in FAULT_MODELS.values()
            and metrics != "full"
            and refusal is None
        )
        backend = "vectorized" if kernel else "batched"
    elif refusal is not None:  # an explicit vectorized paths request
        downgrade, backend = refusal, "batched"
        REGISTRY.counter(
            "repro_sweep_backend_downgrades_total",
            _DOWNGRADE_HELP,
            {"from": "vectorized", "to": backend},
        ).inc()
    baseline_mean_latency = None
    if metrics == "full":
        # the intact baseline depends only on (workload, messages,
        # seed, max_slots): run it once here instead of once per trial
        if baseline is None:
            baseline = partial(_intact_baseline, net, parsed.family)
        try:
            baseline_mean_latency = baseline(
                workload=request.workload,
                messages=request.messages,
                seed=request.seed,
                max_slots=request.max_slots,
            )
        except ValueError as exc:  # traffic this machine cannot carry
            message = f"workload {request.workload!r} on {parsed.canonical()}: {exc}"
            raise SweepRequestError("workload", message) from None
        except SlotCapError as exc:
            raise _slot_cap_error(exc, "the intact baseline") from None
    plan = _SweepPlan(
        canonical=parsed.canonical(),
        model=model,
        seed=request.seed,
        workload=request.workload,
        messages=request.messages,
        bound=net.diameter + 2 if request.bound is None else request.bound,
        max_slots=request.max_slots,
        baseline_mean_latency=baseline_mean_latency,
        metrics=metrics,
        backend=backend,
    )
    return _PreparedSweep(
        plan=plan, request=request, net=net, downgrade=downgrade
    )


def _quantile_cells(rows, keys) -> dict[str, dict[str, float]]:
    """The ``mean/p05/p50/p95/min/max`` cell of each metric in ``keys``.

    Exact nearest-rank quantiles and a sequential-sum mean, rounded to
    6 places: the summary cell shape of every sweep and temporal replay.
    """
    quantiles: dict[str, dict[str, float]] = {}
    for key in keys:
        values = sorted(float(r[key]) for r in rows)
        quantiles[key] = {
            "mean": round(sum(values) / len(values), 6),
            "p05": round(_nearest_rank(values, 0.05), 6),
            "p50": round(_nearest_rank(values, 0.50), 6),
            "p95": round(_nearest_rank(values, 0.95), 6),
            "min": round(values[0], 6),
            "max": round(values[-1], 6),
        }
    return quantiles


def _summarize(prepared: _PreparedSweep, rows: list[dict]) -> SweepSummary:
    """Aggregate per-trial rows into the deterministic quantile summary.

    Denominators come from ``len(rows)``, not the requested trial
    count: an adaptive sweep may stop before spending its cap, and the
    summary's ``trials`` then reports what actually ran (the cap
    survives in the ``adaptive`` block's ``trials_requested``).
    """
    plan, trials = prepared.plan, len(rows)
    summarized = METRICS_MODES[plan.metrics]
    quantiles = _quantile_cells(rows, summarized)
    if "within_bound" in summarized:
        within_full = sum(1 for r in rows if float(r["within_bound"]) >= 1.0)
        within_bound_fraction = round(within_full / trials, 6)
    else:
        within_bound_fraction = None
    # partitioned == some *surviving* pair severed: dead endpoints are a
    # casualty count, not a partition (alive_connectivity excludes them)
    partitioned = sum(
        1 for r in rows if float(r["alive_connectivity"]) < 1.0
    )
    return SweepSummary(
        spec=plan.canonical,
        model=plan.model.key,
        faults=plan.model.faults,
        trials=trials,
        seed=plan.seed,
        workload=plan.workload,
        messages=plan.messages if plan.metrics == "full" else 0,
        bound=plan.bound,
        quantiles=quantiles,
        within_bound_fraction=within_bound_fraction,
        partitioned_fraction=round(partitioned / trials, 6),
        backend=plan.backend,
        downgrade_reason=prepared.downgrade,
        adaptive=adaptive_summary_block(prepared, rows),
    )


def _scoped_executor(executor: PersistentSweepExecutor | None, workers):
    """``executor`` itself (its owner closes it), or one scoped to the call.

    Use as ``with _scoped_executor(executor, workers) as ex:`` -- an
    executor the call opens is closed, pool and all, when it returns
    or raises.
    """
    if executor is not None:
        return nullcontext(executor)
    return PersistentSweepExecutor(workers)


def _run_requests(pairs, executor, *, entry=None, extra_stop=None):
    """Yield the summary of each ``(spec, request)`` pair: the one run path.

    Every sweep and temporal replay runs here, whichever door it came
    through.  ``pairs`` mixes :class:`SweepRequest` and
    :class:`~repro.temporal.replay.TemporalRequest` pairs freely; each
    is prepared, executed on ``executor`` and summarized, under one
    ``sweep.*``/``temporal.*`` ``prepare``/``execute``/``summarize``
    span each.  The parent-side network, intact baseline and topology
    arrays come from ``entry(spec)``, a
    :class:`~repro.core.cache.CacheEntry` (a session passes its cache
    lookup; by default each pair gets a fresh entry).  ``extra_stop``
    is the adaptive runs' second stopping rule (the design search's
    early discard).

    The schedule follows from what is visible here.  An inline
    executor, or any adaptive (``ci_target``) run, takes one pair at a
    time from prepare to summary, so at most one built network is held
    at once and each adaptive run makes its own per-wave stop
    decisions.  Otherwise every pair is prepared before any chunk runs
    (so a request the built machine rejects fails first), every pair's
    trial chunks share one pool map, and the prepared runs drop their
    built networks: workers build each context from the plan's
    canonical spec.  Either way each summary is yielded as soon as its
    run is complete, and is byte-identical to per-sweep execution.
    """
    from ..core.cache import CacheEntry
    from ..core.spec import NetworkSpec
    from ..temporal.replay import (
        TemporalRequest,
        prepare_temporal_sweep,
        summarize_temporal,
    )

    if entry is None:
        def entry(spec):
            return CacheEntry(NetworkSpec.parse(spec))

    def prepare(spec, request):
        cached = entry(spec)
        args = dict(spec=cached.canonical, trials=request.trials)
        if isinstance(request, TemporalRequest):
            with span("temporal.prepare", horizon=request.horizon, **args):
                prepared = prepare_temporal_sweep(
                    cached.spec, request, _net=cached.network
                )
        else:
            with span("sweep.prepare", backend=request.backend, **args):
                prepared = _prepare_sweep(
                    cached.spec, request, net=cached.network,
                    baseline=cached.baseline,
                )
        if executor.parallel:
            return replace(prepared, net=None)
        # a batched sweep scores without the kernel; a replay's segments
        # and a vectorized sweep's trials score on it
        if prepared.plan.backend != "batched":
            return replace(prepared, arrays=cached.arrays())
        return prepared

    def execute_span(prepared):
        plan = prepared.plan
        args = dict(spec=plan.canonical, trials=prepared.request.trials)
        if isinstance(prepared, _PreparedSweep):
            return span("sweep.execute", backend=plan.backend,
                        metrics=plan.metrics, **args)
        return span("temporal.execute", workers=executor.workers, **args)

    def summarize(prepared, rows):
        plan, request = prepared.plan, prepared.request
        args = dict(spec=plan.canonical, trials=request.trials)
        if isinstance(prepared, _PreparedSweep):
            with span("sweep.summarize", **args):
                return _summarize(prepared, rows)
        REGISTRY.counter(
            "repro_temporal_trials_total",
            "Temporal replay trials executed.",
            {"metrics": request.metrics},
        ).inc(len(rows))
        if prepared.skipped:
            REGISTRY.counter(
                "repro_temporal_skips_total",
                "Temporal sweeps skipped by max_faults capacity accounting.",
                {"process": request.process.key},
            ).inc()
        with span("temporal.summarize", **args):
            return summarize_temporal(prepared, rows)

    pairs = list(pairs)
    if not executor.parallel or any(
        getattr(request, "ci_target", None) is not None for _, request in pairs
    ):
        for spec, request in pairs:
            prepared = prepare(spec, request)
            with execute_span(prepared):
                rows = executor.run(prepared, extra_stop=extra_stop)
            yield summarize(prepared, rows)
        return
    prepared_list = [prepare(spec, request) for spec, request in pairs]
    # every run's span opens at the one shared dispatch and closes when
    # its rows are complete; a failed or abandoned stream closes the rest
    spans = [execute_span(prepared) for prepared in prepared_list]
    for open_span in spans:
        open_span.__enter__()
    try:
        rows_lists = executor.run_many(prepared_list)
        for prepared, rows in zip(prepared_list, rows_lists):
            spans.pop(0).__exit__(None, None, None)
            yield summarize(prepared, rows)
    finally:
        for open_span in spans:
            open_span.__exit__(None, None, None)


def survivability_sweep(
    spec,
    model: FaultModel | str | SweepRequest = "coupler",
    *,
    workers: int | None = None,
    **params,
) -> SweepSummary:
    """Monte-Carlo survivability of ``spec`` under one :class:`SweepRequest`.

    ``model`` and ``**params`` are the request's fields (see
    :class:`SweepRequest` for every parameter, its default and its
    checks); ``model`` may instead be a ready :class:`SweepRequest`,
    the ``(spec, request)`` form of callers that validated once.
    ``workers`` counts ``multiprocessing`` processes
    (``None``/``0``/``1`` runs inline); the aggregate is identical for
    every worker count, and both backends produce byte-identical JSON
    for the same seed wherever their metrics modes overlap.

    >>> s = survivability_sweep("pops(2,2)", "coupler", trials=4, seed=1,
    ...                         messages=8)
    >>> s.trials
    4
    >>> c = survivability_sweep("pops(2,2)", "coupler", trials=4, seed=1,
    ...                         metrics="connectivity")
    >>> sorted(c.quantiles)
    ['alive_connectivity', 'connectivity', 'reachable_groups']
    >>> v = survivability_sweep("pops(2,2)", SweepRequest(
    ...     trials=4, seed=1, metrics="connectivity", backend="vectorized"))
    >>> v.to_json() == c.to_json()
    True
    """
    request = (
        model
        if isinstance(model, SweepRequest) and not params
        else SweepRequest(model, **params)
    )
    return pooled_survivability_sweeps([(spec, request)], workers=workers)[0]


def pooled_survivability_sweeps(
    requests,
    *,
    workers: int | None = None,
    executor: PersistentSweepExecutor | None = None,
) -> list[SweepSummary]:
    """Run many survivability sweeps on ONE shared worker pool.

    ``requests`` is an iterable of ``(spec, SweepRequest)`` pairs.
    Instead of running the sweeps one after another, every sweep's
    trial-index chunks are scheduled onto a single pool, so many small
    sweeps keep all workers busy at once.  Workers build each sweep's
    context lazily and cache it per process.

    Returns the summaries in request order; each is **byte-identical**
    to what :func:`survivability_sweep` returns for the same pair,
    whatever ``workers`` is (``None``/``0``/``1`` runs inline).
    ``executor`` schedules the same chunks on a caller-owned
    :class:`PersistentSweepExecutor` instead of one scoped to the
    call; ``workers`` is ignored in that case.

    >>> fast = SweepRequest(trials=3, metrics="connectivity")
    >>> a, b = pooled_survivability_sweeps(
    ...     [("pops(2,2)", fast), ("sk(2,2,2)", fast)])
    >>> (a.spec, b.spec)
    ('pops(2,2)', 'sk(2,2,2)')
    """
    with _scoped_executor(executor, workers) as scoped:
        return list(_run_requests(requests, scoped))
