"""Survivability metrics over a degraded network.

Three views of "what still works":

* **connectivity** -- which ordered processor pairs can still talk at
  all (dead endpoints cannot);
* **path quality** -- degraded group-route lengths from the family's
  ``fault_route`` hook, their stretch over the intact distances, and
  the fraction within the paper's ``k + 2`` bound (``diameter + 2``
  generalized to every family).  One batched ``route_lengths`` call of
  the family per stack of views (a lone view is a stack of one) feeds
  :func:`route_quality`, the scorer the vectorized sweep kernel runs
  on its batches too;
* **delivery under load** -- run the same workload on the broken and
  the intact machine, compare delivery ratio and latency.  A chunk of
  views runs as one stack (:func:`stack_rows`, which scores the
  lighter modes' stacks too), its traffic in one array slot pass.

Everything funnels into one flat, JSON-ready
:class:`ResilienceMetrics` row -- the unit the Monte-Carlo sweep
aggregates.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from ..simulation.stacked import StackedSimulator
from .degrade import DegradedNetwork, next_hop_table, stack_views

__all__ = [
    "ResilienceMetrics",
    "connectivity_ratio",
    "alive_connectivity_ratio",
    "connectivity_metrics",
    "path_survival",
    "route_quality",
    "stack_rows",
    "measure",
]


@dataclass(frozen=True)
class ResilienceMetrics:
    """One trial's flat survivability row (JSON-ready)."""

    spec: str
    model: str
    seed: int
    faults: int
    connectivity: float  # ordered processor pairs still connected
    alive_connectivity: float  # same, over surviving endpoints only
    reachable_groups: float  # ordered live-group pairs still connected
    max_path_length: int  # longest degraded group route (-1: none)
    mean_stretch: float  # degraded length / intact distance, mean
    within_bound: float  # routed pairs within diameter+2 (1.0 if all)
    bound: int
    delivery_ratio: float
    dropped: int
    mean_latency: float
    latency_inflation: float  # degraded / intact mean latency
    slots: int

    def as_dict(self) -> dict[str, object]:
        """Field name -> value mapping."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


_ROW_KEYS = tuple(f.name for f in fields(ResilienceMetrics))


def _connectivity_columns(
    adj, reach, alive_per_group, num_processors: int, *, with_reachable: bool = True
) -> dict[str, list[float]]:
    """The connectivity metrics of each row of a ``(batch, g, g)`` stack.

    ``adj`` is the surviving group adjacency (loops included),
    ``reach[b, u, v]`` whether ``v`` is reachable from ``u`` (the
    diagonal true) and ``alive_per_group`` the ``(batch, g)`` surviving
    processor counts.  Returns ``connectivity`` and
    ``alive_connectivity`` (and ``reachable_groups`` with
    ``with_reachable``) as one float list each, in row order: the one
    formula behind :func:`connectivity_metrics`, the ``full`` chunk
    scorer and the vectorized kernel.  Machines with at most one
    processor score 1.0 throughout.
    """
    keys = ("connectivity", "alive_connectivity", "reachable_groups")
    batch, g = alive_per_group.shape
    if num_processors <= 1:
        return {key: [1.0] * batch for key in keys[: 2 + with_reachable]}
    diag = np.arange(g)
    # a same-group pair needs a surviving closed walk at its group:
    # some surviving out-arc (u, v) that is a loop or can get back
    sibling_ok = (adj & np.swapaxes(reach, 1, 2)).any(axis=2)
    cross = reach.astype(np.int64)
    cross[:, diag, diag] = 0
    same = alive_per_group * (alive_per_group - 1) * sibling_ok
    connected = (
        np.einsum("bu,buv,bv->b", alive_per_group, cross, alive_per_group)
        + same.sum(axis=1)
    )
    alive = alive_per_group.sum(axis=1)
    alive_pairs = alive * (alive - 1)
    out = {
        "connectivity": (connected / (num_processors * (num_processors - 1))).tolist(),
        "alive_connectivity": np.where(
            alive_pairs > 0, connected / np.maximum(alive_pairs, 1), 1.0
        ).tolist(),
    }
    if with_reachable:
        live = (alive_per_group > 0).astype(np.int64)
        count = live.sum(axis=1)
        routed = np.einsum("bu,buv,bv->b", live, cross, live)
        out["reachable_groups"] = np.where(
            count >= 2, routed / np.maximum(count * (count - 1), 1), 1.0
        ).tolist()
    return out


def connectivity_ratio(degraded: DegradedNetwork) -> float:
    """Fraction of ordered distinct processor pairs still connected.

    Pairs with a dead endpoint count as disconnected, so processor
    faults lower the ratio even when the fabric itself survives.
    Single-processor machines report 1.0.

    >>> from repro.core import build
    >>> from repro.resilience.faults import UniformCouplerFaults
    >>> net = build("pops(2,2)")
    >>> scen = UniformCouplerFaults(0).scenario("pops(2,2)", net, 0)
    >>> connectivity_ratio(DegradedNetwork(net, scen))
    1.0
    """
    return connectivity_metrics(degraded, with_reachable=False)["connectivity"]


def alive_connectivity_ratio(degraded: DegradedNetwork) -> float:
    """Connected fraction of ordered pairs of *surviving* processors.

    1.0 means the fabric is not partitioned for anyone still alive --
    dead endpoints are out of the denominator, unlike
    :func:`connectivity_ratio`.  1.0 when fewer than two processors
    survive.
    """
    return connectivity_metrics(degraded, with_reachable=False)["alive_connectivity"]


def connectivity_metrics(
    degraded: DegradedNetwork, *, with_reachable: bool = True
) -> dict[str, float]:
    """The connectivity-only survivability row, from one distance matrix.

    The batched sweep backend's fast path: when no simulation metrics
    are requested, a trial is scored from the view's group distances
    alone -- ``connectivity`` (all ordered processor pairs),
    ``alive_connectivity`` (surviving endpoints only) and
    ``reachable_groups`` (ordered live-group pairs with a surviving
    path, the same fraction :func:`path_survival` routes -- both the
    structured ``fault_route`` hooks and their BFS fallback succeed
    exactly on BFS-reachable pairs).  No per-pair routing and no
    slotted simulation, which is what makes design-search sweeps over
    hundreds of candidates tractable.  ``with_reachable=False`` skips
    the reachability count for callers that recompute the routed
    fraction themselves (the sweep's ``paths`` mode).

    >>> from repro.core import degrade
    >>> row = connectivity_metrics(degrade("pops(2,3)", faults=0))
    >>> row == {"connectivity": 1.0, "alive_connectivity": 1.0,
    ...         "reachable_groups": 1.0}
    True
    """
    columns = _connectivity_columns(  # a batch of one
        degraded.group_arcs()[None] >= 0, degraded.distances()[None] >= 0,
        degraded.alive_per_group()[None], degraded.net.num_processors,
        with_reachable=with_reachable,
    )
    return {key: values[0] for key, values in columns.items()}


@lru_cache(maxsize=64)
def _intact_rows(net) -> np.ndarray:
    """``(g, g)`` intact loopless BFS distances, once per network.

    Read-only, shared by every trial on an equal network; all ones for
    single-star machines (no base graph), whose pairs are all one hop
    apart.
    """
    if hasattr(net, "base_graph"):
        intact = net.base_graph().without_loops()
        rows = [intact.bfs_distances(g) for g in range(net.num_groups)]
        out = np.asarray(rows, dtype=np.int64)
    else:
        out = np.ones((net.num_groups, net.num_groups), dtype=np.int64)
    out.flags.writeable = False
    return out


def route_quality(
    lengths: np.ndarray, live: np.ndarray, intact: np.ndarray, bound: int
) -> list[tuple[float, int, float, float]]:
    """:func:`path_survival`'s tuple for each route-length matrix.

    ``lengths`` is ``(batch, g, g)`` route lengths (``-1``: no route),
    ``live`` the ``(batch, g)`` live-group masks, ``intact`` the
    ``(g, g)`` intact distances (the stretch denominators) and
    ``bound`` the hop bound.  Only ordered pairs of distinct live
    groups count.  A routed pair whose intact distance is undefined
    (``-1``) counts in the routed and within-bound fractions but stays
    out of the stretch mean.  The ratios are summed with
    :func:`math.fsum`, which is exact and order-independent, so the
    batched sweep and the vectorized kernel score identical floats.
    """
    diag = np.arange(live.shape[1])
    pairs = live[:, :, None] & live[:, None, :]
    pairs[:, diag, diag] = False
    routed = pairs & (lengths >= 0)
    routed_counts = routed.sum(axis=(1, 2))
    within_counts = (routed & (lengths <= bound)).sum(axis=(1, 2))
    max_len = np.where(routed, lengths, -1).max(axis=(1, 2), initial=-1)
    stretch_mask = routed & (intact > 0)
    ratios = lengths / np.maximum(intact, 1)
    num_live = live.sum(axis=1)
    out = []
    for j, count in enumerate(num_live.tolist()):
        if count < 2:
            out.append((1.0, 0, 1.0, 1.0))
        elif routed_counts[j] == 0:
            # nothing routed: the bound is *not* vacuously confirmed
            out.append((0.0, -1, 0.0, 0.0))
        else:
            terms = ratios[j][stretch_mask[j]].tolist()
            routed_j = int(routed_counts[j])
            out.append((
                routed_j / (count * (count - 1)),
                int(max_len[j]),
                math.fsum(terms) / len(terms) if terms else 1.0,
                int(within_counts[j]) / routed_j,
            ))
    return out


def path_survival(
    degraded: DegradedNetwork, bound: int | None = None
) -> tuple[float, int, float, float]:
    """``(reachable_groups, max_len, mean_stretch, within_bound)``.

    Scores the family's ``fault_route`` over every ordered pair of
    distinct live groups, from the one route-length matrix
    :meth:`~repro.resilience.degrade.DegradedNetwork.route_lengths`
    returns (:func:`route_quality`, which the vectorized kernel shares).
    ``reachable_groups`` is the routed fraction; ``max_len`` the
    longest degraded route (-1 when no pair routes); ``mean_stretch``
    the mean ratio of degraded length to intact distance;
    ``within_bound`` the fraction of routed pairs with length <=
    ``bound`` (default ``diameter + 2``, the paper's ``k + 2`` on
    stack-Kautz).  Machines with fewer than two live groups report
    ``(1.0, 0, 1.0, 1.0)``.

    Routed pairs whose *intact* distance is undefined (BFS ``-1``,
    possible for degenerate/partial specs) have no meaningful stretch:
    they stay in ``reachable_groups``/``within_bound`` but are left
    out of the ``mean_stretch`` average instead of counting as 1.0.
    """
    net = degraded.net
    if bound is None:
        bound = net.diameter + 2
    live = np.ones(net.num_groups, dtype=bool)
    live[list(degraded.dead_groups)] = False
    lengths = degraded.route_lengths()
    return route_quality(lengths[None], live[None], _intact_rows(net), bound)[0]


#: The route-quality row keys, in :func:`path_survival`'s tuple order.
_QUALITY_KEYS = ("reachable_groups", "max_path_length", "mean_stretch", "within_bound")


def stack_rows(
    views, metrics: str, *, bound: int, traffic=(), max_slots: int = 100_000,
    baseline_mean_latency: float = 0.0, observe=None,
) -> list[dict[str, object]]:
    """The ``metrics``-mode row of each view, as dicts: one stack.

    ``views`` are degraded views of one network, scored as one
    :func:`~repro.resilience.degrade.stack_views` stack: connectivity
    from its distance stack (:func:`connectivity_metrics`' formula);
    for ``"paths"`` and ``"full"``, route quality from one call of the
    family's batched ``route_lengths`` hook (:func:`path_survival`'s
    scoring); and for ``"full"`` delivery from one
    :class:`~repro.simulation.stacked.StackedSimulator` pass of
    ``traffic``, the ``(src, dst, slot)`` triples every view carries,
    whose engine checks raise as
    :func:`~repro.simulation.network_sim.run_traffic` raises them.
    ``latency_inflation`` divides by ``baseline_mean_latency``, the
    intact machine's mean latency on the same traffic.
    ``observe(phase, seconds)``, when given, receives the wall times of
    ``"route"`` (the hook), ``"score"`` (the rest of the scoring) and
    ``"simulate"`` (the slot pass), as far as the mode runs them.
    """
    start, route = time.perf_counter(), 0.0
    stack = stack_views(views)
    conn = _connectivity_columns(
        stack.arcs >= 0, stack.dist >= 0, stack.alive, len(stack.tables.groups),
        with_reachable=metrics == "connectivity",
    )
    if metrics == "connectivity":
        rows = [dict(zip(conn, values)) for values in zip(*conn.values())]
    else:
        view, hooked = stack.views[0], time.perf_counter()
        lengths = view.family.route_lengths(view.net, stack)
        route = time.perf_counter() - hooked
        quality = route_quality(lengths, stack.alive > 0, _intact_rows(view.net), bound)
        rows = [
            {"connectivity": c, "alive_connectivity": a, **dict(zip(_QUALITY_KEYS, q))}
            for c, a, q in zip(*conn.values(), quality)
        ]
    scored = time.perf_counter()
    if metrics == "full":
        hops = next_hop_table(stack.arcs, stack.dist)
        dead = stack.dead_processors, stack.dead_couplers
        sim = StackedSimulator(stack.tables, hops, *dead, traffic)
        sim.run(max_slots)
        if not sim.verify_conservation():
            raise RuntimeError("conservation check failed: message lost or corrupted")
        scores, rows = rows, []
        for view, score, outcome in zip(views, scores, sim.outcomes()):
            ratio, dropped, latency, slots = outcome
            inflation = (
                0.0 if ratio == 0.0 else
                1.0 if baseline_mean_latency == 0.0 else latency / baseline_mean_latency
            )
            s = view.scenario
            values = (s.spec, s.model, s.seed, s.size, *score.values(), bound,
                      ratio, dropped, latency, inflation, slots)
            rows.append(dict(zip(_ROW_KEYS, values)))
    if observe is not None:
        if metrics != "connectivity":
            observe("route", route)
        observe("score", scored - start - route)
        if metrics == "full":
            observe("simulate", time.perf_counter() - scored)
    return rows


def measure(
    degraded: DegradedNetwork,
    *,
    workload="uniform",
    messages: int = 60,
    seed: int = 0,
    bound: int | None = None,
    max_slots: int = 100_000,
    baseline_mean_latency: float | None = None,
    **workload_options,
) -> ResilienceMetrics:
    """All survivability metrics of one degraded network, one row.

    The delivery comparison runs identical traffic (generated on the
    intact machine with ``seed``) through the degraded and the intact
    simulator; ``latency_inflation`` is the mean-latency ratio (0.0
    when the broken machine delivers nothing, 1.0 when the intact mean
    is zero).  ``baseline_mean_latency`` short-circuits the intact run
    -- the sweep computes it once and shares it across trials, since
    the baseline depends only on ``(workload, messages, seed)``.  The
    row is :func:`stack_rows`' ``full`` row for a stack of one view.
    """
    from ..core.workloads import resolve_workload
    from ..simulation.network_sim import run_traffic

    net = degraded.net
    traffic = resolve_workload(
        workload, net, messages=messages, seed=seed, **workload_options
    )
    if baseline_mean_latency is None:
        intact = run_traffic(degraded.family.simulator(net), traffic, max_slots)
        baseline_mean_latency = intact.mean_latency
    bound = net.diameter + 2 if bound is None else bound
    (row,) = stack_rows([degraded], "full", bound=bound, traffic=traffic,
                        max_slots=max_slots, baseline_mean_latency=baseline_mean_latency)
    return ResilienceMetrics(**row)
