"""Resilience-aware design search: rank specs by survivability per cost.

The loop the ROADMAP asks for: enumerate candidate
:class:`~repro.core.spec.NetworkSpec`s across every registered family
(via the :meth:`~repro.core.registry.NetworkFamily.candidate_specs`
hook), price each through its optical design's bill of materials
(:mod:`~repro.design_search.costing`), score survivability with the
Monte-Carlo sweep
(:func:`~repro.resilience.sweep.survivability_sweep`), and return the
candidates ranked by survivability per cost together with the Pareto
front over (cost, survivability, diameter).

Determinism: candidates are enumerated and evaluated in sorted spec
order, every sweep is seeded, and ties rank by (cost, spec) -- the
same seed always produces byte-identical
:meth:`DesignSearchResult.to_json` output.

>>> r = design_search(max_processors=12, families=("pops",), trials=8)
>>> r.best().spec == r.candidates[0].spec and len(r.pareto) >= 1
True
>>> all(s.endswith(",1)") for s in r.skipped_underfaulted)  # single-group
True
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace

from ..core.registry import family_keys, get_family
from ..core.spec import NetworkSpec
from ..obs.metrics import REGISTRY
from ..obs.trace import span
from ..resilience.sweep import (
    SweepRequest,
    SweepRequestError,
    _check_int,
    _run_requests,
    _scoped_executor,
    _unknown,
)
from .costing import DEFAULT_COST_MODEL, CostModel

#: Candidate orderings.  ``within-bound`` and ``mean-stretch`` rank on
#: path quality under faults (the paper's ``k + 2`` bound and route
#: stretch) and need ``metrics="paths"``/``"full"`` sweeps -- with the
#: vectorized ``paths`` kernel those are affordable at 10^5-trial
#: precision.
RANKINGS = ("survivability-per-cost", "within-bound", "mean-stretch")

#: The options of :func:`design_search` itself: every keyword but the
#: sweep fields, ``workers``, ``cost_model`` and the session plumbing.
SEARCH_OPTIONS = (
    "max_processors",
    "min_processors",
    "families",
    "max_coupler_degree",
    "min_groups",
    "max_groups",
    "max_diameter",
    "min_margin_db",
    "top",
    "rank_by",
)

#: The least value of each integer option.  ``None`` leaves a shape
#: window or ``top`` unset; the processor window is always set.
_LEAST = {
    "max_processors": 1,
    "min_processors": 1,
    "max_coupler_degree": 1,
    "min_groups": 1,
    "max_groups": 1,
    "max_diameter": 0,
    "top": 0,
}

__all__ = [
    "DesignCandidate",
    "DesignSearchResult",
    "RANKINGS",
    "SEARCH_OPTIONS",
    "check_search_options",
    "enumerate_candidates",
    "design_search",
]


def enumerate_candidates(
    *,
    max_processors: int,
    min_processors: int = 2,
    families=None,
) -> list[NetworkSpec]:
    """Every candidate spec in the window, deduplicated and sorted.

    ``families`` is an iterable of family keys (default: all
    registered).  Order is deterministic: sorted by family key, then
    parameter tuple.

    >>> [str(s) for s in enumerate_candidates(max_processors=4,
    ...                                       families=("sops",))]
    ['sops(2)', 'sops(3)', 'sops(4)']
    """
    if max_processors < 1:
        raise ValueError(f"max_processors must be >= 1, got {max_processors}")
    if min_processors < 1:
        raise ValueError(f"min_processors must be >= 1, got {min_processors}")
    keys = tuple(family_keys()) if families is None else tuple(families)
    seen: set[NetworkSpec] = set()
    for key in keys:
        family = get_family(key)
        for spec in family.candidate_specs(
            max_processors=max_processors, min_processors=min_processors
        ):
            seen.add(spec)
    return sorted(seen, key=lambda s: (s.family, s.params))


@dataclass(frozen=True)
class DesignCandidate:
    """One evaluated design: shape, price tag, survivability, rank score."""

    spec: str
    family: str
    processors: int
    groups: int
    coupler_degree: int
    diameter: int
    cost: float
    link_margin_db: float
    #: mean all-pairs connectivity under the fault model (the
    #: ``connectivity`` quantile mean of the sweep)
    survivability: float
    partitioned_fraction: float
    #: ``None`` when the sweep ran in ``connectivity`` mode
    within_bound_fraction: float | None
    #: mean degraded-route stretch over intact distances (the sweep's
    #: ``mean_stretch`` quantile mean); ``None`` in ``connectivity`` mode
    mean_stretch: float | None
    #: the ranking score: survivability per 1000 cost units
    survivability_per_kilocost: float
    #: on the (cost, survivability, diameter) Pareto front?
    pareto: bool = False
    #: trials actually run for this candidate (equals the requested
    #: count unless sequential stopping / early discard ended early)
    trials_spent: int = 0
    #: stopped early because its CI could no longer overlap the
    #: leader's score (only under ci_target with the default ranking)
    early_discarded: bool = False

    def as_dict(self) -> dict[str, object]:
        """Field name -> value mapping (JSON-ready)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def formatted(self) -> str:
        """Fixed-width ranked-table row."""
        flag = "*" if self.pareto else " "
        within = (
            "   -  "
            if self.within_bound_fraction is None
            else f"{100 * self.within_bound_fraction:5.1f}%"
        )
        stretch = (
            "  -  "
            if self.mean_stretch is None
            else f"{self.mean_stretch:5.3f}"
        )
        return (
            f"{flag} {self.spec:<14} N={self.processors:<5} "
            f"diam={self.diameter:<2} deg={self.coupler_degree:<4} "
            f"cost={self.cost:>10.2f} surv={self.survivability:6.4f} "
            f"part={100 * self.partitioned_fraction:5.1f}% "
            f"within={within} stretch={stretch} "
            f"surv/k$={self.survivability_per_kilocost:8.5f}"
        )

    @staticmethod
    def header() -> str:
        """Column legend (``*`` marks Pareto-front designs)."""
        return (
            "* spec           N       diam deg      cost       surv      "
            "part   within  stretch      surv-per-kilocost"
        )


@dataclass(frozen=True)
class DesignSearchResult:
    """Ranked candidates + Pareto front of one :func:`design_search`."""

    max_processors: int
    min_processors: int
    families: tuple[str, ...]
    model: str
    faults: int
    trials: int
    seed: int
    metrics: str
    rank_by: str
    candidates: tuple[DesignCandidate, ...]
    #: canonical specs on the (cost, survivability, diameter) front,
    #: in ranked order over the FULL evaluated set (``top`` truncates
    #: ``candidates`` only, never this)
    pareto: tuple[str, ...] = ()
    #: specs skipped because the machine is too small to absorb the
    #: requested fault intensity (sweeping them would crown designs
    #: that were never actually faulted)
    skipped_underfaulted: tuple[str, ...] = ()
    cost_model: dict[str, float] = field(default_factory=dict)
    #: sequential-stopping half-width target of the candidate sweeps
    ci_target: float | None = None
    #: trial-allocation strategy of the candidate sweeps
    sampling: str = "uniform"

    def __iter__(self):
        return iter(self.candidates)

    def __len__(self) -> int:
        return len(self.candidates)

    def best(self) -> DesignCandidate:
        """The top-ranked candidate; raises when the search came up empty."""
        if not self.candidates:
            raise ValueError("design search produced no candidates")
        return self.candidates[0]

    def candidate(self, spec) -> DesignCandidate:
        """The evaluated candidate for ``spec``; ``KeyError`` if absent."""
        key = str(NetworkSpec.parse(spec))
        for c in self.candidates:
            if c.spec == key:
                return c
        raise KeyError(f"no design-search candidate for {key}")

    def as_dict(self) -> dict[str, object]:
        """JSON-ready view of the whole search."""
        return {
            "max_processors": self.max_processors,
            "min_processors": self.min_processors,
            "families": list(self.families),
            "model": self.model,
            "faults": self.faults,
            "trials": self.trials,
            "seed": self.seed,
            "metrics": self.metrics,
            "rank_by": self.rank_by,
            "ci_target": self.ci_target,
            "sampling": self.sampling,
            "cost_model": self.cost_model,
            "pareto": list(self.pareto),
            "skipped_underfaulted": list(self.skipped_underfaulted),
            "candidates": [c.as_dict() for c in self.candidates],
        }

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, 2-space indent.

        Deterministic: the same search parameters and seed produce the
        same string, regardless of worker count.
        """
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def formatted(self) -> str:
        """Ranked table, Pareto-front designs starred."""
        lines = [
            f"design search: N in [{self.min_processors}, "
            f"{self.max_processors}], families {'/'.join(self.families)}, "
            f"{self.faults} {self.model} fault(s), {self.trials} trials, "
            f"seed {self.seed}, metrics {self.metrics}, "
            f"ranked by {self.rank_by}",
            f"pareto front (cost x survivability x diameter): "
            f"{', '.join(self.pareto) if self.pareto else '(empty)'}",
        ]
        if self.skipped_underfaulted:
            lines.append(
                f"skipped (cannot absorb {self.faults} {self.model} "
                f"fault(s)): {len(self.skipped_underfaulted)} candidate(s)"
            )
        lines.append(DesignCandidate.header())
        lines += [c.formatted() for c in self.candidates]
        return "\n".join(lines)


def _dominates(a: DesignCandidate, b: DesignCandidate) -> bool:
    """``a`` Pareto-dominates ``b``: no worse everywhere, better somewhere.

    Objectives: minimize cost, maximize survivability, minimize
    diameter.
    """
    no_worse = (
        a.cost <= b.cost
        and a.survivability >= b.survivability
        and a.diameter <= b.diameter
    )
    better = (
        a.cost < b.cost
        or a.survivability > b.survivability
        or a.diameter < b.diameter
    )
    return no_worse and better


def _pareto_front(candidates: list[DesignCandidate]) -> set[str]:
    """Specs of the non-dominated candidates."""
    return {
        c.spec
        for c in candidates
        if not any(_dominates(other, c) for other in candidates)
    }


def _rank_key(rank_by: str):
    """The deterministic sort key realizing one of :data:`RANKINGS`.

    Path-quality rankings break ties on survivability per cost, then
    cheaper first, then spec order -- so the table stays byte-identical
    across backends and worker counts like everything else here.
    """
    if rank_by == "within-bound":
        return lambda c: (
            -(c.within_bound_fraction or 0.0),
            -c.survivability_per_kilocost,
            c.cost,
            c.spec,
        )
    if rank_by == "mean-stretch":
        return lambda c: (
            c.mean_stretch if c.mean_stretch is not None else float("inf"),
            -c.survivability_per_kilocost,
            c.cost,
            c.spec,
        )
    return lambda c: (-c.survivability_per_kilocost, c.cost, c.spec)


def check_search_options(request: SweepRequest, **options) -> None:
    """Reject a design-search option before any candidate is built.

    ``options`` are the :data:`SEARCH_OPTIONS` values (``families``
    aside, which resolves through the registry), ``request`` the
    per-candidate sweep request.  :func:`design_search` and the serving
    tier's ``design-search`` validator both run these checks, so every
    door rejects the same values, each with a
    :class:`~repro.resilience.sweep.SweepRequestError` naming the
    option.
    """
    for name, least in _LEAST.items():
        if options[name] is not None or name.endswith("_processors"):
            _check_int(name, options[name], least)
    margin = options["min_margin_db"]
    if margin is not None and (
        isinstance(margin, bool) or not isinstance(margin, (int, float))
    ):
        raise SweepRequestError(
            "min_margin_db", f"min_margin_db must be a number, got {margin!r}"
        )
    rank_by = options["rank_by"]
    if rank_by not in RANKINGS:
        raise _unknown("rank_by", "ranking", rank_by, RANKINGS)
    if rank_by != "survivability-per-cost" and request.metrics == "connectivity":
        raise SweepRequestError(
            "rank_by",
            f"rank_by={rank_by!r} ranks on path metrics; run with "
            "metrics='paths' (vectorized-backend fast) or 'full'",
        )


def design_search(
    *,
    max_processors: int,
    min_processors: int = 2,
    families=None,
    workers: int | None = None,
    cost_model: CostModel | None = None,
    max_coupler_degree: int | None = None,
    min_groups: int | None = None,
    max_groups: int | None = None,
    max_diameter: int | None = None,
    min_margin_db: float | None = None,
    top: int | None = None,
    rank_by: str = "survivability-per-cost",
    _executor=None,
    _enumerator=None,
    **sweep,
) -> DesignSearchResult:
    """Search the candidate window for survivability-per-cost winners.

    Enumerates every buildable spec with ``min_processors <= N <=
    max_processors`` across ``families`` (default: all registered),
    drops candidates outside the shape windows (``max_coupler_degree``,
    ``min_groups``/``max_groups`` -- ``min_groups=2`` excludes the
    degenerate single-star machines -- and ``max_diameter``) or below
    ``min_margin_db`` of
    optical link margin, skips machines too small to absorb the
    requested fault intensity (the fault models cap their draws, so
    sweeping those would crown never-faulted designs -- they are
    reported in ``skipped_underfaulted`` instead), prices the rest via
    their bill of materials,
    and runs one seeded survivability sweep per candidate.  ``**sweep``
    are the fields of that one
    :class:`~repro.resilience.sweep.SweepRequest`, except ``bound`` and
    ``max_slots``: every candidate is held to its own ``diameter + 2``
    bound.  The request and every other option are checked once, before
    enumeration (:func:`check_search_options`).  ``metrics`` defaults to
    ``"connectivity"`` -- the fast path; pass ``"paths"`` or ``"full"``
    for deeper scoring.  Candidates come
    back ranked by survivability per 1000 cost units (ties: cheaper
    first, then spec order), with the (cost, survivability, diameter)
    Pareto front marked.  ``top`` truncates the report to the best
    ``top`` candidates after ranking (the Pareto front is computed
    over the full set first).

    Every candidate's trial chunks share one ``workers``-process
    pool, so small per-candidate sweeps do not leave workers idle.
    ``rank_by`` picks the candidate ordering:
    ``"survivability-per-cost"`` (default), or the path-quality
    orderings ``"within-bound"`` (highest fraction of trials meeting
    the ``k + 2`` bound first) and ``"mean-stretch"`` (lowest degraded
    route stretch first), both requiring ``metrics="paths"``/``"full"``
    -- on the vectorized kernel (the default ``backend="auto"`` picks
    it for ``paths`` on generic-routing families) those rank at
    10^5-trial precision in seconds.
    The ranked table is byte-identical across backends and worker
    counts.  ``ci_target`` arms sequential stopping per candidate
    sweep and -- under the default ranking -- early discard: a
    candidate whose score confidence interval
    ``(1000 / cost) * survival CI`` can no longer overlap the current
    leader's lower bound stops sweeping immediately (it stays in the
    table, marked ``early_discarded``, with whatever trials it spent).
    Such a search runs its candidates one after another, in order, so
    the leader bound exists; it is deterministic because candidate
    order, wave schedules and estimates all are.
    ``_executor`` (internal, session
    plumbing) reuses an injected
    :class:`~repro.resilience.sweep.PersistentSweepExecutor` for every
    candidate sweep instead of opening one scoped to the call;
    ``_enumerator``
    (same plumbing) swaps :func:`enumerate_candidates` for a memoized
    equivalent -- :meth:`repro.core.cache.SpecCache.candidate_specs` --
    which MUST return the same specs in the same order.

    >>> r = design_search(max_processors=8, families=("pops", "sops"),
    ...                   trials=6, seed=3)
    >>> r.best().survivability_per_kilocost >= r.candidates[-1].survivability_per_kilocost
    True
    """
    fixed = sorted({"bound", "max_slots"} & set(sweep))
    if fixed:
        raise TypeError(
            f"design_search() got an unexpected keyword argument {fixed[0]!r}"
        )
    request = SweepRequest(**{"metrics": "connectivity", **sweep})
    check_search_options(
        request,
        max_processors=max_processors,
        min_processors=min_processors,
        max_coupler_degree=max_coupler_degree,
        min_groups=min_groups,
        max_groups=max_groups,
        max_diameter=max_diameter,
        min_margin_db=min_margin_db,
        top=top,
        rank_by=rank_by,
    )
    pricing = cost_model if cost_model is not None else DEFAULT_COST_MODEL
    keys = tuple(family_keys()) if families is None else tuple(
        get_family(k).key for k in families
    )
    #: (spec, (N, groups, degree, diameter), cost, margin) per eligible
    #: candidate -- shape scalars, not the built networks, which only
    #: the executor's bounded context cache keeps
    records: list[tuple[NetworkSpec, tuple[int, int, int, int], float, float]] = []
    discarded_specs: set[str] = set()
    skipped_underfaulted: list[str] = []
    def _count(outcome: str) -> None:
        REGISTRY.counter(
            "repro_design_candidates_total",
            "Design-search candidates by outcome",
            {"outcome": outcome},
        ).inc()

    enumerator = enumerate_candidates if _enumerator is None else _enumerator
    with span("design_search.enumerate", max_processors=max_processors,
              families=",".join(keys)):
        window = enumerator(
            max_processors=max_processors,
            min_processors=min_processors,
            families=keys,
        )
    with _scoped_executor(_executor, workers) as executor:
        for spec in window:
            with span("design_search.candidate", spec=spec.canonical()):
                net = spec.build()
                if (
                    max_coupler_degree is not None
                    and net.coupler_degree > max_coupler_degree
                    or min_groups is not None and net.num_groups < min_groups
                    or max_groups is not None and net.num_groups > max_groups
                    or max_diameter is not None and net.diameter > max_diameter
                ):
                    _count("filtered")
                    continue
                # a machine too small to absorb the requested intensity
                # would be swept with silently capped (even zero) faults
                # and score as immune -- skip it instead of letting it
                # dominate the front
                capacity = request.model.max_faults(net)
                if capacity is not None and capacity < request.model.faults:
                    skipped_underfaulted.append(spec.canonical())
                    _count("underfaulted")
                    continue
                dsg = spec.design()
                margin = round(dsg.worst_case_power_budget().margin_db(), 4)
                if min_margin_db is not None and margin < min_margin_db:
                    _count("filtered")
                    continue
                cost = pricing.price(dsg.bill_of_materials())
                if cost <= 0:
                    raise ValueError(
                        f"cost model prices {spec} at {cost}; survivability-"
                        f"per-cost ranking needs every candidate priced > 0"
                    )
                shape = (
                    net.num_processors,
                    net.num_groups,
                    net.coupler_degree,
                    net.diameter,
                )
                records.append((spec, shape, cost, margin))
                _count("evaluated")

        if request.ci_target is None or rank_by != "survivability-per-cost":
            summaries = list(_run_requests(
                [(spec, request) for spec, *_ in records], executor
            ))
        else:
            # early discard: candidates run in deterministic order, so
            # the leader bound -- (1000 / cost) * survival CI low of the
            # best candidate so far -- and therefore every discard
            # replays identically at any worker count
            summaries = []
            leader_low = float("-inf")
            for spec, _shape, cost, _margin in records:
                def extra_stop(estimate, _cost=cost, _spec=spec.canonical()):
                    if 1000.0 * estimate["ci_high"] / _cost < leader_low:
                        discarded_specs.add(_spec)
                        _count("early_discarded")
                        return True
                    return False

                (summary,) = _run_requests(
                    [(spec, request)], executor, extra_stop=extra_stop
                )
                leader_low = max(
                    leader_low, 1000.0 * summary.adaptive["ci_low"] / cost
                )
                summaries.append(summary)

    evaluated: list[DesignCandidate] = []
    for (spec, shape, cost, margin), summary in zip(records, summaries):
        processors, groups, coupler_degree, diameter = shape
        survivability = summary.quantiles["connectivity"]["mean"]
        evaluated.append(
            DesignCandidate(
                spec=spec.canonical(),
                family=spec.family,
                processors=processors,
                groups=groups,
                coupler_degree=coupler_degree,
                diameter=diameter,
                cost=cost,
                link_margin_db=margin,
                survivability=survivability,
                partitioned_fraction=summary.partitioned_fraction,
                within_bound_fraction=summary.within_bound_fraction,
                mean_stretch=(
                    summary.quantiles["mean_stretch"]["mean"]
                    if "mean_stretch" in summary.quantiles
                    else None
                ),
                survivability_per_kilocost=round(
                    1000.0 * survivability / cost, 6
                ),
                trials_spent=summary.trials,
                early_discarded=spec.canonical() in discarded_specs,
            )
        )
    with span("design_search.rank", candidates=len(evaluated)):
        front = _pareto_front(evaluated)
        ranked = sorted(
            (replace(c, pareto=c.spec in front) for c in evaluated),
            key=_rank_key(rank_by),
        )
    # the front is reported over the FULL evaluated set; `top` only
    # trims the candidate table
    pareto = tuple(c.spec for c in ranked if c.pareto)
    if top is not None:
        ranked = ranked[: max(top, 0)]
    return DesignSearchResult(
        max_processors=max_processors,
        min_processors=min_processors,
        families=keys,
        model=request.model.key,
        faults=request.model.faults,
        trials=request.trials,
        seed=request.seed,
        metrics=request.metrics,
        rank_by=rank_by,
        candidates=tuple(ranked),
        pareto=pareto,
        skipped_underfaulted=tuple(skipped_underfaulted),
        cost_model=pricing.as_dict(),
        ci_target=request.ci_target,
        sampling=request.sampling,
    )
