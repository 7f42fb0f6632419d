"""The package facade: spec in, result out.

Ten verbs cover the paper's whole pipeline for every registered
family, with a :class:`~repro.core.spec.NetworkSpec` (or anything
parseable into one) naming the machine:

* :func:`build` -- the network object;
* :func:`route` -- a hop-by-hop route in optical-design coordinates;
* :func:`simulate` -- run a named workload, get a
  :class:`~repro.simulation.metrics.SimulationReport`;
* :func:`design` -- the verifiable OTIS optical design with its BOM;
* :func:`describe` -- a JSON-ready shape summary;
* :func:`sweep` -- a specs x workloads result matrix in one call;
* :func:`degrade` -- the network with an injected fault scenario, as a
  :class:`~repro.resilience.degrade.DegradedNetwork`;
* :func:`resilience_sweep` -- Monte-Carlo survivability quantiles
  under seeded fault models, parallel and worker-count deterministic;
* :func:`temporal_sweep` -- replay seeded failure/repair *processes*
  over slot time: availability-over-time, repair-aware survivability,
  mean-time-to-disconnect, delivery under churn;
* :func:`design_search` -- enumerate, price and sweep candidate
  designs across families; ranked survivability-per-cost report with
  a Pareto front;
* :func:`experiment` -- declare a specs x fault-models x metrics x
  trials grid, execute it as one pooled schedule, get a structured
  :class:`~repro.core.experiment.ExperimentResult`.

Every verb is a thin wrapper over the shared *default session*
(:func:`repro.core.session.default_session`): repeated calls against
the same spec reuse the session's build cache and persistent worker
pools, while staying byte-identical to a cold run.  Hold your own
:class:`~repro.core.session.Session` for explicit cache/pool control.

>>> import repro
>>> repro.build("sk(6,3,2)").num_processors
72
>>> repro.route("pops(4,2)", 0, 7).num_hops
1
>>> repro.design("sk(6,3,2)").verify()
True
>>> repro.simulate("sk(2,2,2)", messages=40).num_messages
40
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

from .session import default_session
from .spec import NetworkSpec

__all__ = [
    "build",
    "route",
    "simulate",
    "design",
    "describe",
    "sweep",
    "degrade",
    "resilience_sweep",
    "temporal_sweep",
    "design_search",
    "experiment",
    "SweepCell",
    "SweepResult",
]


def build(spec) -> object:
    """Build the network instance named by ``spec``.

    Parameters
    ----------
    spec : NetworkSpec, str, dict, or sequence
        Anything :meth:`~repro.core.spec.NetworkSpec.parse` accepts: a
        spec object, a canonical string (``"sk(6,3,2)"``), a loose
        token string (``"sk 6 3 2"``), a dict of named parameters, or
        an argv-style token list.

    Returns
    -------
    Network
        The built network of the spec's registered family.  It
        implements the :class:`~repro.core.protocols.Network`
        protocol: ``num_processors``, ``num_groups``,
        ``num_couplers``, ``coupler_degree``, ``processor_degree``,
        ``diameter``, ``label_of``, ``hop_distance`` and
        ``hypergraph_model``.

    Examples
    --------
    >>> build("sk(6,3,2)").num_processors
    72
    >>> build({"family": "pops", "t": 4, "g": 2}).num_groups
    2
    """
    return default_session().build(spec)


def design(spec) -> object:
    """Build the full optical design named by ``spec``.

    Parameters
    ----------
    spec : NetworkSpec, str, dict, or sequence
        The machine to design; see :func:`build` for accepted forms.

    Returns
    -------
    design
        The family's optical design object.  Every design exposes
        ``verify()`` (checks each light path realizes exactly one
        stack-graph hyperarc), ``bill_of_materials()`` and
        ``worst_case_power_budget()``.

    Examples
    --------
    >>> design("sk(6,3,2)").verify()
    True
    >>> design("pops(4,2)").bill_of_materials().couplers
    4
    """
    return default_session().design(spec)


def route(spec, src: int, dst: int):
    """Route processor ``src -> dst`` on the network named by ``spec``.

    Parameters
    ----------
    spec : NetworkSpec, str, dict, or sequence
        The machine to route on; see :func:`build` for accepted forms.
    src, dst : int
        Flat processor ids in ``[0, num_processors)``.

    Returns
    -------
    StackRoute
        A :class:`~repro.routing.stack_routing.StackRoute` whose hops
        carry ``(group, mux)`` coupler ids and transmitter ports in
        the optical design's coordinates, for every family.

    Raises
    ------
    IndexError
        If ``src`` or ``dst`` is outside ``[0, num_processors)``.

    Examples
    --------
    >>> route("sk(6,3,2)", 0, 71).num_hops
    1
    >>> route("pops(4,2)", 0, 0).num_hops
    0
    """
    return default_session().route(spec, src, dst)


def simulate(
    spec,
    workload="uniform",
    *,
    messages: int = 200,
    seed: int = 0,
    policy=None,
    max_slots: int = 100_000,
    **workload_options,
):
    """Run ``workload`` on the network named by ``spec``.

    Parameters
    ----------
    spec : NetworkSpec, str, dict, or sequence
        The machine to simulate; see :func:`build` for accepted forms.
    workload : str, callable, or list, optional
        A registered workload name (see
        :func:`repro.core.workloads.workload_names`), a callable
        generator, or an explicit list of ``(src, dst, slot)``
        triples.  Default ``"uniform"``.
    messages : int, optional
        Number of messages to generate (default 200).
    seed : int, optional
        Traffic-generator seed (default 0).
    policy : optional
        Arbitration policy passed to the family's simulator.
    max_slots : int, optional
        Hard stop for the slotted engine (default 100000).
    **workload_options
        Extra keyword arguments forwarded to the workload generator.

    Returns
    -------
    SimulationReport
        The :class:`~repro.simulation.metrics.SimulationReport` with
        latency/throughput/utilization statistics.

    Examples
    --------
    >>> simulate("sk(2,2,2)", messages=40).num_messages
    40
    >>> simulate("pops(2,2)", "permutation", messages=8).delivery_ratio
    1.0
    """
    return default_session().simulate(
        spec,
        workload,
        messages=messages,
        seed=seed,
        policy=policy,
        max_slots=max_slots,
        **workload_options,
    )


def describe(spec) -> dict[str, object]:
    """Summarize the shape of the network named by ``spec``.

    Parameters
    ----------
    spec : NetworkSpec, str, dict, or sequence
        The machine to describe; see :func:`build` for accepted forms.

    Returns
    -------
    dict
        JSON-ready mapping with keys ``spec``, ``family``, ``params``,
        ``processors``, ``groups``, ``couplers``, ``coupler_degree``,
        ``processor_degree`` and ``diameter`` (the key set the CLI's
        ``describe --json`` pins).

    Examples
    --------
    >>> describe("pops(4,2)")["processors"]
    8
    >>> describe("sk(6,3,2)")["diameter"]
    2
    """
    return default_session().describe(spec)


def degrade(
    spec, *, model="coupler", faults: int | None = None, seed: int = 0, scenario=None
):
    """Apply a fault scenario to the network named by ``spec``.

    Parameters
    ----------
    spec : NetworkSpec, str, dict, or sequence
        The machine to break; see :func:`build` for accepted forms.
    model : str or FaultModel, optional
        A registered fault-model key (``"coupler"``, ``"processor"``,
        ``"link"``, ``"adversarial"``, ``"group"``) -- which takes
        intensity ``faults`` (default 1) -- or a
        :class:`~repro.resilience.faults.FaultModel` instance, which
        already carries its intensity (combining it with ``faults``
        is an error).
    faults : int, optional
        Fault intensity for string model keys.
    seed : int, optional
        Scenario seed; the same ``(model, spec, seed)`` reproduces
        the same faults.
    scenario : FaultScenario, optional
        An explicit scenario to replay instead of drawing one.

    Returns
    -------
    DegradedNetwork
        The :class:`~repro.resilience.degrade.DegradedNetwork` view:
        surviving digraph/hypergraph, degraded-mode routing and a
        fault-aware simulator.

    Examples
    --------
    >>> deg = degrade("sk(2,2,2)", model="coupler", faults=1, seed=3)
    >>> len(deg.dead_couplers)
    1
    >>> degrade("pops(2,2)", faults=0).simulate(messages=6).delivery_ratio
    1.0
    """
    return default_session().degrade(
        spec, model=model, faults=faults, seed=seed, scenario=scenario
    )


def resilience_sweep(spec, *, workers: int | None = None, **params):
    """Monte-Carlo survivability sweep of ``spec`` under one fault model.

    Fans the trials of one
    :class:`~repro.resilience.sweep.SweepRequest` (optionally across
    ``workers`` processes -- the aggregate is worker-count independent)
    and aggregates per-trial survivability rows into quantile
    summaries.

    Parameters
    ----------
    spec : NetworkSpec, str, dict, or sequence
        The machine to sweep; see :func:`build` for accepted forms.
    workers : int, optional
        ``multiprocessing`` processes; ``None``/``0``/``1`` runs
        inline.
    **params
        The :class:`~repro.resilience.sweep.SweepRequest` fields --
        ``model``, ``faults``, ``trials``, ``seed``, ``workload``,
        ``messages``, ``bound``, ``max_slots``, ``metrics`` (default
        ``"full"``), ``backend``, ``ci_target`` and ``sampling`` --
        with the defaults and checks documented there.  An unknown
        keyword raises ``TypeError``, a bad value ``ValueError``.

    Returns
    -------
    SweepSummary
        The quantile :class:`~repro.resilience.sweep.SweepSummary`;
        its ``to_json()`` is byte-identical for the same seed across
        worker counts and overlapping backends.

    Examples
    --------
    >>> s = resilience_sweep("pops(2,2)", faults=1, trials=3, messages=6)
    >>> 0.0 <= s.quantiles["delivery_ratio"]["p50"] <= 1.0
    True
    >>> fast = resilience_sweep("sk(2,2,2)", trials=4,
    ...                         metrics="connectivity", backend="vectorized")
    >>> sorted(fast.quantiles)
    ['alive_connectivity', 'connectivity', 'reachable_groups']
    """
    return default_session().resilience_sweep(spec, workers=workers, **params)


def temporal_sweep(spec, *, workers: int | None = None, **params):
    """Replay a failure/repair *process* over slot time on ``spec``.

    Where :func:`resilience_sweep` scores frozen one-shot fault
    scenarios, this verb compiles per-component MTBF/MTTR renewal
    processes into deterministic per-slot event traces (one per
    trial, seeded through the same SHA-256 stream discipline) and
    replays each trace against the connectivity/paths kernels between
    events -- and, in ``full`` mode, against the slotted simulator
    with the degraded view swapping at event boundaries.

    Parameters
    ----------
    spec : NetworkSpec, str, dict, or sequence
        The machine to churn; see :func:`build` for accepted forms.
    workers : int, optional
        ``multiprocessing`` processes; ``None``/``0``/``1`` runs
        inline.
    **params
        The :class:`~repro.temporal.replay.TemporalRequest` fields --
        ``process``, ``faults``, ``mtbf``, ``mttr``, ``law``,
        ``horizon``, ``trials``, ``seed``, ``workload``, ``messages``,
        ``bound``, ``metrics`` (default ``"connectivity"``),
        ``curve_points`` and ``traffic`` -- with the defaults and
        checks documented there.  An unknown keyword raises
        ``TypeError``, a bad value ``ValueError``.

    Returns
    -------
    TemporalSummary
        The :class:`~repro.temporal.replay.TemporalSummary`:
        availability / survivability / time-to-disconnect quantiles,
        the mean availability-over-time curve, and
        ``disconnected_fraction``.  Its ``to_json()`` is
        byte-identical for the same seed at any worker count.

    Examples
    --------
    >>> s = temporal_sweep("sk(2,2,2)", faults=2, mtbf=60, mttr=20,
    ...                    trials=4, horizon=200, seed=1)
    >>> s.trials
    4
    >>> 0.0 <= s.quantiles["availability"]["mean"] <= 1.0
    True
    """
    return default_session().temporal_sweep(spec, workers=workers, **params)


def design_search(*, workers: int | None = None, **options):
    """Resilience-aware design search over every registered family.

    Enumerates candidate specs in the processor window, prices each
    design's bill of materials, runs one seeded survivability sweep
    per candidate, and ranks by survivability per 1000 cost units
    with the (cost, survivability, diameter) Pareto front marked.
    Candidates too small to absorb ``faults`` are skipped (and listed
    in ``skipped_underfaulted``) rather than scored as immune.

    Parameters
    ----------
    max_processors, min_processors : int
        Candidate window: every buildable spec with
        ``min_processors <= N <= max_processors`` is considered
        (``max_processors`` is required; ``min_processors`` defaults
        to 2).
    families : iterable of str, optional
        Family keys to search (default: all registered).
    workers : int, optional
        ``multiprocessing`` processes for the sweeps.
    cost_model : CostModel, optional
        Unit prices for the bill of materials (default
        :data:`~repro.design_search.costing.DEFAULT_COST_MODEL`).
    max_coupler_degree, min_groups, max_groups, max_diameter : int, optional
        Shape windows; ``min_groups=2`` excludes the degenerate
        single-star machines.
    min_margin_db : float, optional
        Drop designs whose optical link margin is below this.
    top : int, optional
        Truncate the report to the best ``top`` candidates after
        ranking (the Pareto front is computed over the full set
        first).
    parallelism : {"sweeps", "candidates"}, optional
        ``"sweeps"`` (default) runs the candidates' sweeps one after
        another on one pool; ``"candidates"`` schedules every
        candidate's trial batches onto that pool at once.  The ranked
        table is identical.
    rank_by : {"survivability-per-cost", "within-bound", "mean-stretch"}, optional
        Ranking criterion for the candidate table.  The path-metric
        rankings need ``metrics="paths"`` or ``"full"``.
    **sweep
        The per-candidate sweep's
        :class:`~repro.resilience.sweep.SweepRequest` fields, except
        ``bound`` and ``max_slots``: ``model``, ``faults``,
        ``trials``, ``seed``, ``workload``, ``messages``, ``metrics``
        (default ``"connectivity"``, the fast path), ``backend``,
        ``ci_target`` and ``sampling``.  Under the default ranking
        ``ci_target`` also arms early discard -- a candidate's sweep
        ends as soon as its confidence interval can no longer overlap
        the current leader's -- and needs ``parallelism="sweeps"``.

    Returns
    -------
    DesignSearchResult
        The ranked
        :class:`~repro.design_search.search.DesignSearchResult`.
        Deterministic: same parameters and seed give byte-identical
        ``to_json()`` output for any ``workers``, ``parallelism`` and
        overlapping ``backend``.

    Examples
    --------
    >>> r = design_search(max_processors=8, families=("pops",), trials=4)
    >>> len(r) >= 1
    True
    >>> r.best().spec == r.candidates[0].spec
    True
    """
    return default_session().design_search(workers=workers, **options)


def experiment(specs, *, workers: int | None = None, **plan):
    """Run a declarative specs x models x metrics x trials experiment.

    Builds an :class:`~repro.core.experiment.Experiment` plan over the
    grid, compiles it to ONE pooled sweep schedule (every cell's trial
    chunks share the session's persistent worker pool) and returns the
    structured :class:`~repro.core.experiment.ExperimentResult`.

    Parameters
    ----------
    specs : spec or iterable of specs
        The machines of the grid; each entry is anything
        :meth:`~repro.core.spec.NetworkSpec.parse` accepts.
    workers : int, optional
        Worker-pool size (``None``/``0``/``1`` runs inline); the
        report is worker-count independent.
    models : iterable, optional
        Fault-model grid entries: a key (``"coupler"``), a
        ``"key:faults"`` string (``"link:2"``), a ``(key, faults)``
        pair or a :class:`~repro.resilience.faults.FaultModel`
        instance.  Default ``("coupler",)``.  Fault-process keys
        (``"coupler-renewal:2"``) are temporal-replay cells, scheduled
        on the same pool.
    metrics, trials, samplings : str/int or iterable, optional
        Grid axes over the :class:`~repro.resilience.sweep.SweepRequest`
        fields of the same (singular) name; defaults
        ``("connectivity",)``, ``100`` and ``("uniform",)``.
    seed, backend, workload, messages, bound, max_slots, ci_target : optional
        One value for every cell, meaning what the
        :class:`~repro.resilience.sweep.SweepRequest` field of that
        name means.  Cells whose metrics mode ``backend`` cannot score
        fall back to ``"batched"``.

    Returns
    -------
    ExperimentResult
        Grid-ordered cells with ``as_dicts()`` / ``to_json()`` /
        ``formatted()``; ``to_json()`` is deterministic for the same
        plan and seed.

    Examples
    --------
    >>> r = experiment(["pops(2,2)", "sk(2,2,2)"], models=["coupler:1"],
    ...                trials=4)
    >>> len(r)
    2
    >>> r.cell("pops(2,2)").summary.trials
    4
    """
    return default_session().experiment(specs, workers=workers, **plan)


# ----------------------------------------------------------------------
# Sweep: the scenario matrix
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepCell:
    """One (spec, workload) cell of a sweep, flattened for tabulation."""

    spec: str
    workload: str
    processors: int
    messages: int
    slots: int
    mean_latency: float
    p95_latency: float
    max_latency: int
    mean_hops: float
    throughput: float
    coupler_utilization: float

    def as_dict(self) -> dict[str, object]:
        """Field name -> value mapping (JSON-ready)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def formatted(self) -> str:
        """Fixed-width table row."""
        return (
            f"{self.spec:<14} {self.workload:<12} N={self.processors:<6} "
            f"msgs={self.messages:<6} slots={self.slots:<6} "
            f"lat={self.mean_latency:6.2f} p95={self.p95_latency:6.2f} "
            f"hops={self.mean_hops:5.2f} thr={self.throughput:6.3f} "
            f"util={self.coupler_utilization:5.3f}"
        )

    @staticmethod
    def header() -> str:
        """Column legend, aligned with :meth:`formatted` field widths."""
        return (
            f"{'spec':<14} {'workload':<12} {'N':<8} {'msgs':<11} "
            f"{'slots':<12} {'lat':<10} {'p95':<10} {'hops':<10} "
            f"{'thr':<10} util"
        )


@dataclass(frozen=True)
class SweepResult:
    """The structured result table of one :func:`sweep` call."""

    cells: tuple[SweepCell, ...]

    def __iter__(self):
        return iter(self.cells)

    def __len__(self) -> int:
        return len(self.cells)

    def cell(self, spec, workload: str) -> SweepCell:
        """The cell for ``(spec, workload)``; raises ``KeyError`` if absent."""
        key = str(NetworkSpec.parse(spec))
        for c in self.cells:
            if c.spec == key and c.workload == workload:
                return c
        raise KeyError(f"no sweep cell for ({key}, {workload})")

    def as_dicts(self) -> list[dict[str, object]]:
        """All cells as plain dicts (JSON-ready)."""
        return [c.as_dict() for c in self.cells]

    def to_json(self) -> str:
        """The cell list as canonical JSON (2-space indent).

        Exactly the payload ``python -m repro sweep ... --json``
        prints, so library and CLI consumers share one schema (pinned
        by the golden CLI tests).
        """
        return json.dumps(self.as_dicts(), indent=2)

    def formatted(self) -> str:
        """The whole matrix as a fixed-width table."""
        return "\n".join(
            [SweepCell.header()] + [c.formatted() for c in self.cells]
        )


def sweep(
    specs,
    workloads=("uniform", "permutation"),
    *,
    messages: int = 200,
    seed: int = 0,
    policy=None,
    max_slots: int = 100_000,
    **workload_options,
) -> SweepResult:
    """Run every workload on every spec; one structured table back.

    Parameters
    ----------
    specs : iterable
        Anything :meth:`~repro.core.spec.NetworkSpec.parse` accepts,
        one entry per machine.
    workloads : iterable of str or callable, optional
        Workload names (or callables, named by their ``__name__``)
        forming the matrix columns.  Default
        ``("uniform", "permutation")``.
    messages, seed, policy, max_slots, **workload_options
        Forwarded to :func:`simulate` for every cell.

    Returns
    -------
    SweepResult
        The :class:`SweepResult` matrix; cells appear in spec-major
        order.

    Examples
    --------
    >>> result = sweep(["pops(4,2)", "sk(2,2,2)"], ["uniform"], messages=40)
    >>> len(result)
    2
    >>> result.cell("pops(4,2)", "uniform").messages
    40
    """
    return default_session().sweep(
        specs,
        workloads,
        messages=messages,
        seed=seed,
        policy=policy,
        max_slots=max_slots,
        **workload_options,
    )
