"""Survivability metrics over a degraded network.

Three views of "what still works":

* **connectivity** -- which ordered processor pairs can still talk at
  all (dead endpoints cannot);
* **path quality** -- degraded group-route lengths from the family's
  ``fault_route`` hook, their stretch over the intact distances, and
  the fraction within the paper's ``k + 2`` bound (``diameter + 2``
  generalized to every family).  One route-length matrix per view
  (the family's ``route_lengths``) feeds :func:`route_quality`, the
  scorer the vectorized sweep kernel runs on its batches too;
* **delivery under load** -- run the same workload on the broken and
  the intact machine, compare delivery ratio and latency.

Everything funnels into one flat, JSON-ready
:class:`ResilienceMetrics` row -- the unit the Monte-Carlo sweep
aggregates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .degrade import DegradedNetwork

__all__ = [
    "ResilienceMetrics",
    "connectivity_ratio",
    "alive_connectivity_ratio",
    "connectivity_metrics",
    "path_survival",
    "route_quality",
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


def _connectivity_counts(
    degraded: DegradedNetwork,
) -> tuple[int, int, int, np.ndarray, np.ndarray]:
    """One distance matrix feeding every connectivity-flavoured metric.

    Returns ``(connected, alive_pairs, all_pairs, reach, alive_per_group)``
    over ordered distinct pairs; ``reach[u, v]`` says whether group
    ``v != u`` is reachable from group ``u`` over surviving couplers.
    """
    n = degraded.net.num_processors
    dist = degraded.distances()
    reach = dist > 0
    # a surviving closed walk at u exists iff some surviving out-arc
    # (u, v) is a loop or can get back (dist[v, u] >= 0)
    sibling_ok = ((degraded.group_arcs() >= 0) & (dist.T >= 0)).any(axis=1)
    alive_per_group = degraded.alive_per_group()
    # same-group ordered pairs need that closed walk
    same = alive_per_group * (alive_per_group - 1)
    connected = int(alive_per_group @ reach @ alive_per_group) + int(
        same[sibling_ok].sum()
    )
    alive = int(alive_per_group.sum())
    return connected, alive * (alive - 1), n * (n - 1), reach, alive_per_group


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
    if degraded.net.num_processors <= 1:
        return 1.0
    connected, _, all_pairs, _, _ = _connectivity_counts(degraded)
    return connected / all_pairs


def alive_connectivity_ratio(degraded: DegradedNetwork) -> float:
    """Connected fraction of ordered pairs of *surviving* processors.

    1.0 means the fabric is not partitioned for anyone still alive --
    dead endpoints are out of the denominator, unlike
    :func:`connectivity_ratio`.  1.0 when fewer than two processors
    survive.
    """
    connected, alive_pairs, _, _, _ = _connectivity_counts(degraded)
    return connected / alive_pairs if alive_pairs else 1.0


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
    net = degraded.net
    if net.num_processors <= 1:
        row = {"connectivity": 1.0, "alive_connectivity": 1.0}
        if with_reachable:
            row["reachable_groups"] = 1.0
        return row
    connected, alive_pairs, all_pairs, reach, alive_per_group = (
        _connectivity_counts(degraded)
    )
    out = {
        "connectivity": connected / all_pairs,
        "alive_connectivity": connected / alive_pairs if alive_pairs else 1.0,
    }
    if not with_reachable:
        return out
    live = alive_per_group > 0
    count = int(live.sum())
    if count < 2:
        reachable = 1.0
    else:
        reachable = int(reach[np.ix_(live, live)].sum()) / (count * (count - 1))
    out["reachable_groups"] = reachable
    return out


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
    the baseline depends only on ``(workload, messages, seed)``.
    """
    from ..core.workloads import resolve_workload
    from ..simulation.network_sim import run_traffic

    net = degraded.net
    if bound is None:
        bound = net.diameter + 2
    # one distance matrix feeds both ratios (identical values, half the work);
    # the routed reachable_groups fraction comes from path_survival below
    conn_row = connectivity_metrics(degraded, with_reachable=False)
    connectivity = conn_row["connectivity"]
    alive_connectivity = conn_row["alive_connectivity"]
    reachable, max_len, stretch, within = path_survival(degraded, bound)
    traffic = resolve_workload(
        workload, net, messages=messages, seed=seed, **workload_options
    )
    report = run_traffic(
        degraded.simulator(), traffic, max_slots=max_slots
    )
    if baseline_mean_latency is None:
        baseline = run_traffic(
            degraded.family.simulator(net), list(traffic), max_slots=max_slots
        )
        baseline_mean_latency = baseline.mean_latency
    if report.delivery_ratio == 0.0:
        inflation = 0.0
    elif baseline_mean_latency == 0.0:
        inflation = 1.0
    else:
        inflation = report.mean_latency / baseline_mean_latency
    return ResilienceMetrics(
        spec=degraded.scenario.spec,
        model=degraded.scenario.model,
        seed=degraded.scenario.seed,
        faults=degraded.scenario.size,
        connectivity=connectivity,
        alive_connectivity=alive_connectivity,
        reachable_groups=reachable,
        max_path_length=max_len,
        mean_stretch=stretch,
        within_bound=within,
        bound=bound,
        delivery_ratio=report.delivery_ratio,
        dropped=report.num_dropped,
        mean_latency=report.mean_latency,
        latency_inflation=inflation,
        slots=report.slots,
    )
