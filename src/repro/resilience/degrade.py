"""Apply a `FaultScenario` to any registry-built network.

:class:`DegradedNetwork` is the degraded-mode view the rest of the
subsystem works on: the surviving base digraph and hypergraph, the
all-pairs group distances over surviving couplers, a fault-aware
``next_coupler``/``relay`` pair so the *unmodified*
:class:`~repro.simulation.engine.SlottedSimulator` runs on the broken
machine (dead couplers drop messages instead of wedging the run), and
the per-family ``fault_route`` hook for structured rerouting.

Effective faults close over the scenario: a coupler is dead when it was
hit directly, when every source processor died, or when every target
processor died; a group is dead when all of its processors died.

Routing is compiled, not searched.  :meth:`DegradedNetwork.distances`
is one frontier expansion (:func:`group_distances`, shared with the
vectorized sweep kernel), and the first ``next_coupler`` call turns it
into one ``[holder group][destination group] -> coupler`` table
(:func:`next_hop_table`), so a routing decision is two list lookups.
Both work on stacks: :func:`stack_masks` builds the arcs, distances and
alive counts of a chunk of fault masks at once -- a sweep's sub-batch,
which builds no view per trial -- and :func:`stack_views` the same for
a chunk of views (a lone view is a stack of one); a ``full`` sweep
compiles the chunk's tables in one call.
What depends on the network alone -- its hypergraph model, coupler
endpoints, processor->group map and coupler incidence arrays -- is
built once per network and shared by every view of it.

>>> from repro.core import build
>>> from repro.resilience.faults import UniformCouplerFaults
>>> net = build("pops(2,2)")
>>> scen = UniformCouplerFaults(1).scenario("pops(2,2)", net, seed=0)
>>> deg = DegradedNetwork(net, scen)
>>> len(deg.surviving_couplers)
3
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from functools import lru_cache
from itertools import chain
from typing import NamedTuple

import numpy as np

from ..graphs.digraph import DiGraph
from ..hypergraphs.hypergraph import DirectedHypergraph
from ..simulation.engine import Message, SlottedSimulator
from ..simulation.stacked import CouplerTables
from .faults import FaultScenario, coupler_endpoints, group_of

__all__ = ["DegradedNetwork", "degrade_network", "group_distances", "stack_masks"]


def group_distances(adj: np.ndarray) -> np.ndarray:
    """Hop distances over boolean adjacency ``adj``; ``-1`` unreachable.

    ``adj`` is one ``(g, g)`` matrix or a ``(batch, g, g)`` stack, and
    ``dist[..., u, v]`` equals ``bfs_distances(u)[v]`` on the digraph
    (loops never shorten a route).  Level-synchronous frontier
    expansion, one matmul per hop; the matmuls run in float32, which
    has a BLAS path (integer matmul has none), and every entry is 0/1
    and every sum at most g < 2**24, so each product is exact in any
    order.
    """
    reach = np.broadcast_to(np.eye(adj.shape[-1], dtype=bool), adj.shape).copy()
    dist = np.where(reach, 0, -1).astype(np.int64)
    adj_f = adj.astype(np.float32)
    hops = 0
    while True:
        grown = (np.matmul(reach.astype(np.float32), adj_f) > 0) | reach
        frontier = grown & ~reach
        if not frontier.any():
            return dist
        hops += 1
        dist[frontier] = hops
        reach = grown


@lru_cache(maxsize=64)
def _network_state(net) -> tuple:
    """``(hypergraph model, (m, 2) coupler endpoints, processor -> group,
    coupler tables)``.

    The tables are the model's
    :class:`~repro.simulation.stacked.CouplerTables`.  Built once per
    network and shared read-only by every view of it.
    """
    endpoints = np.asarray(coupler_endpoints(net), dtype=np.int64).reshape(-1, 2)
    endpoints.flags.writeable = False
    groups = tuple(group_of(net, p) for p in range(net.num_processors))
    model = net.hypergraph_model()
    return model, endpoints, groups, CouplerTables.from_hypergraph(model, groups)


@lru_cache(maxsize=64)
def _arc_index(net) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(order, starts, cells)``: the couplers of each group arc.

    ``order`` lists every coupler grouped by its flat ``(src, dst)``
    group cell, ascending within a cell; ``starts`` is where each
    cell's run begins in ``order`` and ``cells`` the cell of each run.
    """
    endpoints, g = _network_state(net)[1], net.num_groups
    cell = endpoints[:, 0] * g + endpoints[:, 1]
    order = np.argsort(cell, kind="stable")
    cells, starts = np.unique(cell[order], return_index=True)
    return order, starts, cells


def dead_coupler_closure(
    dead_processors: np.ndarray, direct_couplers: np.ndarray, sources, targets
) -> np.ndarray:
    """``(rows, m)`` effective dead couplers of fault-mask rows.

    A coupler is dead when it was hit directly, or when every source
    or every target processor of it died.  ``sources`` and ``targets``
    are ``(indptr, processors)`` CSR incidence of each coupler; the
    counts are one :func:`numpy.add.reduceat` each, over the rows that
    lost a processor only.
    """
    dead = direct_couplers.copy()
    rows = np.flatnonzero(dead_processors.any(axis=1))
    if rows.size and dead.shape[1]:
        lost = dead_processors[rows].astype(np.int64)
        for indptr, members in (sources, targets):
            count = np.add.reduceat(lost[:, members], indptr[:-1], axis=1)
            dead[rows] |= count == np.diff(indptr)
    return dead


def next_hop_table(arcs: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """``(B, g, g)`` ``[holder group][destination group] -> coupler`` tables.

    ``arcs`` is a ``(B, g, g)`` stack of lowest surviving couplers per
    group cell (``-1``: none) and ``dist`` its :func:`group_distances`.
    A distinct destination group is reached through the smallest
    surviving successor one hop closer to it (the rule of
    :func:`~repro.routing.tables.build_routing_table` on the loopless
    surviving base).  The own group is reached through its loop coupler
    or, with the loop dead, through the first hop of the shortest
    surviving closed walk, ties going to the smallest group.  ``-1``
    means drop.  Each view walks one ``(g, width)`` table of the
    successors any view of the stack has, ascending, and skips those
    it lost.
    """
    views, g, _ = arcs.shape
    rows = np.arange(g)
    stack = np.arange(views)[:, None]
    out = arcs >= 0
    out[:, rows, rows] = False
    union = out.any(axis=0)
    degree = union.sum(axis=1)
    width = max(1, int(degree.max(initial=0)))
    # succ[u, j]: the j-th smallest successor group of u in the stack,
    # for j < degree[u] (group 0 pads, never valid)
    listed = np.arange(width) < degree[:, None]
    succ = np.zeros((g, width), dtype=np.int64)
    succ[listed] = np.nonzero(union)[1]
    valid = out[:, rows[:, None], succ] & listed
    # the first successor, in ascending order, one hop closer to v
    # takes (u, v); one (B, g, g) pass per successor rank
    table = np.full((views, g, g), -1, dtype=np.int64)
    for j in range(width):
        w = succ[:, j]
        closer = valid[:, :, j, None] & (dist[:, w] == dist - 1) & (table < 0)
        table = np.where(closer, arcs[:, rows, w][..., None], table)
    # closed walks at u: out through successor w, back in dist[w, u]
    back = dist[:, succ, rows[:, None]]
    back = np.where(valid & (back >= 0), back, g)  # g: no way back
    best = back.argmin(axis=2)  # first minimum: the smallest group
    via = succ[rows, best]
    found = np.take_along_axis(back, best[..., None], axis=2)[..., 0] < g
    sibling = np.where(found, arcs[stack, rows, via], -1)
    loops = arcs[:, rows, rows]
    table[:, rows, rows] = np.where(loops >= 0, loops, sibling)
    return table


class ViewStack(NamedTuple):
    """A chunk of degraded views of one network as ``(B, ...)`` arrays.

    Row ``b`` of ``arcs``, ``dist`` and ``alive`` is what ``views[b]``'s
    :meth:`~DegradedNetwork.group_arcs`, :meth:`~DegradedNetwork.distances`
    and :meth:`~DegradedNetwork.alive_per_group` return (read-only);
    ``dead_processors`` and ``dead_couplers`` are its effective dead
    sets as boolean masks, ``tables`` the network's coupler tables,
    ``net`` the network and ``family`` the family whose hooks score the
    stack.  ``views`` is a sequence of the rows' :class:`DegradedNetwork`
    views: the ones a :func:`stack_views` stack was built from, or, on
    a :func:`stack_masks` stack, each built from its row's masks the
    first time it is asked for.
    """

    tables: CouplerTables
    arcs: np.ndarray
    dist: np.ndarray
    alive: np.ndarray
    dead_processors: np.ndarray
    dead_couplers: np.ndarray
    views: Sequence
    net: object
    family: object


class _MaskViews(Sequence):
    """A :func:`stack_masks` stack's rows as views, built on first use."""

    def __init__(self, stack: ViewStack) -> None:
        self._stack = stack
        self._built: dict[int, DegradedNetwork] = {}

    def __len__(self) -> int:
        return len(self._stack.dead_processors)

    def __getitem__(self, index):
        b = range(len(self))[operator.index(index)]
        view = self._built.get(b)
        if view is None:
            stack = self._stack
            scenario = FaultScenario(
                spec="", model="masks", seed=b,
                couplers=frozenset(np.flatnonzero(stack.dead_couplers[b]).tolist()),
                processors=frozenset(np.flatnonzero(stack.dead_processors[b]).tolist()),
            )
            view = DegradedNetwork(stack.net, scenario, family=stack.family)
            view._arcs, view._dist, view._alive = stack.arcs[b], stack.dist[b], stack.alive[b]
            view = self._built.setdefault(b, view)
        return view


def stack_masks(
    net, dead_processors: np.ndarray, direct_couplers: np.ndarray, *, family=None
) -> ViewStack:
    """The :class:`ViewStack` of ``(B, n)`` dead-processor and ``(B, m)``
    directly-hit coupler masks on ``net``.

    Every stack is built here: the dead-coupler closure
    (:func:`dead_coupler_closure`), the lowest surviving coupler of
    each group arc (one :func:`numpy.minimum.reduceat` over the
    network's couplers grouped by arc), one :func:`group_distances`
    call for the whole stack and the alive counts as one
    :func:`numpy.bincount`.  ``family`` (default: the network's) is the
    one whose hooks score the stack; its views are built lazily.
    """
    from ..core.registry import family_for_network

    tables = _network_state(net)[3]
    views, g = len(dead_processors), net.num_groups
    dead_c = dead_coupler_closure(
        dead_processors, direct_couplers, tables.source_csr, tables.target_csr
    )
    m = dead_c.shape[1]
    arcs = np.full((views, g * g), -1, dtype=np.int64)
    if m:
        order, starts, cells = _arc_index(net)
        lowest = np.minimum.reduceat(np.where(dead_c[:, order], m, order), starts, axis=1)
        arcs[:, cells] = np.where(lowest < m, lowest, -1)
    arcs = arcs.reshape(views, g, g)
    dist = group_distances(arcs >= 0)
    row, processor = np.nonzero(dead_processors)
    dead = np.bincount(row * g + tables.groups[processor], minlength=views * g)
    alive = np.bincount(tables.groups, minlength=g) - dead.reshape(-1, g)
    arcs.flags.writeable = dist.flags.writeable = alive.flags.writeable = False
    family = family_for_network(net) if family is None else family
    stack = ViewStack(tables, arcs, dist, alive, dead_processors, dead_c, (), net, family)
    return stack._replace(views=_MaskViews(stack))


def _scatter(sets, width: int) -> np.ndarray:
    """``(len(sets), width)`` boolean mask with row ``b`` true at ``sets[b]``."""
    counts = [len(s) for s in sets]
    mask = np.zeros((len(sets), width), dtype=bool)
    cols = np.fromiter(chain.from_iterable(sets), dtype=np.int64, count=sum(counts))
    mask[np.repeat(np.arange(len(sets)), counts), cols] = True
    return mask


def stack_views(views) -> ViewStack:
    """The :class:`ViewStack` of ``views``, all of one network.

    The views' dead sets scattered into masks, one :func:`stack_masks`
    call, and each view that has not computed its arcs, distances and
    alive counts yet takes its rows of the stack (a lone view computes
    its own as a stack of one).
    """
    views = tuple(views)
    net = views[0].net
    _, endpoints, groups, _ = _network_state(net)
    stack = stack_masks(
        net,
        _scatter([view.dead_processors for view in views], len(groups)),
        _scatter([view.dead_couplers for view in views], len(endpoints)),
        family=views[0].family,
    )._replace(views=views)
    for b, view in enumerate(views):
        if view._dist is None:
            view._arcs, view._dist, view._alive = stack.arcs[b], stack.dist[b], stack.alive[b]
    return stack


class DegradedNetwork:
    """A registry-built network with a fault scenario applied.

    Parameters
    ----------
    net:
        Any network owned by a registered family (``repro.build(...)``).
    scenario:
        The :class:`~repro.resilience.faults.FaultScenario` to apply.
    family:
        Optional family descriptor; resolved from ``net`` by default.
    """

    def __init__(self, net, scenario: FaultScenario, family=None) -> None:
        from ..core.registry import family_for_network

        self.net = net
        self.scenario = scenario
        self.family = family if family is not None else family_for_network(net)
        self._model, self._endpoints, self._group, tables = _network_state(net)
        n = net.num_processors
        m = self._model.num_hyperarcs
        self.dead_processors = frozenset(
            p for p in scenario.processors if 0 <= p < n
        )
        dead = {c for c in scenario.couplers if 0 <= c < m}
        if self.dead_processors:
            lost = np.zeros((1, n), dtype=bool)
            lost[0, list(self.dead_processors)] = True
            closed = dead_coupler_closure(
                lost, np.zeros((1, m), dtype=bool), tables.source_csr, tables.target_csr
            )
            dead.update(np.flatnonzero(closed[0]).tolist())
        self.dead_couplers = frozenset(dead)
        # caches, built on demand
        self._base: DiGraph | None = None
        self._arcs: np.ndarray | None = None
        self._dist: np.ndarray | None = None
        self._next_hops: list[list[int]] | None = None
        self._targets: list[tuple[int, ...]] | None = None
        self._alive: np.ndarray | None = None
        self._dead_groups: frozenset[int] | None = None
        self._word_faults = None
        self._word_masks: tuple[int, int] | None = None

    # ------------------------------------------------------------------
    # Survivor views
    # ------------------------------------------------------------------
    @property
    def alive_processors(self) -> tuple[int, ...]:
        """Surviving processor ids, ascending."""
        return tuple(
            p
            for p in range(self.net.num_processors)
            if p not in self.dead_processors
        )

    @property
    def surviving_couplers(self) -> frozenset[int]:
        """Hyperarc indices of couplers still alive."""
        return frozenset(
            c
            for c in range(self._model.num_hyperarcs)
            if c not in self.dead_couplers
        )

    @property
    def dead_groups(self) -> frozenset[int]:
        """Groups whose processors all died (whole block dark)."""
        if self._dead_groups is None:
            dark = np.flatnonzero(self.alive_per_group() == 0)
            self._dead_groups = frozenset(dark.tolist())
        return self._dead_groups

    def alive_per_group(self) -> np.ndarray:
        """``(g,)`` surviving processors per group.  Cached; read-only."""
        if self._alive is None:
            stack_views([self])
        return self._alive

    def word_fault_set(self):
        """The scenario as a word-level :class:`~repro.routing.FaultSet`.

        Only meaningful for networks with Kautz-word group labels
        (stack-Kautz); cached, since it depends on the scenario alone.
        The stack-Kautz ``fault_route`` reads :meth:`word_fault_masks`
        instead and consults this set only when every compiled
        candidate of a pair is blocked.
        """
        if self._word_faults is None:
            from ..routing.fault_tolerant import FaultSet

            self._word_faults = FaultSet.from_indices(
                self.net, groups=self.dead_groups, couplers=self.dead_couplers
            )
        return self._word_faults

    def word_fault_masks(self) -> tuple[int, int]:
        """:meth:`word_fault_set` as ``(dead groups, dead links)`` bitmasks.

        In the numbering of the stack-Kautz
        :class:`~repro.core.families.CandidateTable`
        (:meth:`~repro.core.families.CandidateTable.fault_masks`).  Only
        meaningful for stack-Kautz; cached, since ``fault_route``
        consults it once per ordered group pair.
        """
        if self._word_masks is None:
            from ..core.families import candidate_table

            table = candidate_table(self.net.degree, self.net.diameter)
            self._word_masks = table.fault_masks(
                self.dead_groups, self.dead_couplers
            )
        return self._word_masks

    def surviving_base(self) -> DiGraph:
        """The group-level digraph spanned by surviving couplers."""
        if self._base is None:
            self._base = DiGraph(
                self.net.num_groups,
                np.delete(self._endpoints, list(self.dead_couplers), axis=0),
                name=f"degraded({self.scenario.spec})",
            )
        return self._base

    def surviving_hypergraph(self) -> DirectedHypergraph:
        """The hypergraph restricted to surviving couplers.

        Node ids are unchanged (dead processors stay as isolated
        nodes), so processor indices remain comparable with the intact
        machine.
        """
        return DirectedHypergraph(
            self.net.num_processors,
            [
                ha
                for idx, ha in enumerate(self._model.hyperarcs)
                if idx not in self.dead_couplers
            ],
            name=f"degraded({self.scenario.spec})",
        )

    def group_arcs(self) -> np.ndarray:
        """``(g, g)``: the lowest surviving coupler of each group arc.

        ``-1`` where no coupler joins the two groups any more; among
        parallel couplers the lowest index carries the hop.  Cached;
        read-only.
        """
        if self._arcs is None:
            stack_views([self])
        return self._arcs

    def distances(self) -> np.ndarray:
        """``(g, g)`` group hop distances over surviving couplers.

        Row ``u`` equals ``surviving_base().bfs_distances(u)``; ``-1``
        marks an unreachable group.  Cached; read-only.
        """
        if self._dist is None:
            stack_views([self])
        return self._dist

    # ------------------------------------------------------------------
    # Degraded-mode routing
    # ------------------------------------------------------------------
    def next_coupler(self, holder: int, msg: Message) -> int:
        """Fault-aware routing callback for the slotted engine.

        Returns ``-1`` ("drop") when the destination is unreachable on
        the surviving network or either endpoint is dead.  The
        next-hop table is compiled on the first call; processor ids are
        range-checked by the engine's ``inject``.  The table is this
        view's row of :func:`next_hop_table`.
        """
        if msg.src in self.dead_processors or msg.dst in self.dead_processors:
            return -1
        if self._next_hops is None:
            table = next_hop_table(self.group_arcs()[None], self.distances()[None])
            self._next_hops = table[0].tolist()
        return self._next_hops[self._group[holder]][self._group[msg.dst]]

    def relay(self, coupler: int, msg: Message) -> int:
        """Relay selection that never hands a message to a corpse.

        Each coupler's surviving targets come from a table compiled on
        the first call: the model's own target tuples when no processor
        died.
        """
        if self._targets is None:
            dead = self.dead_processors
            self._targets = [
                tuple(t for t in ha.targets if t not in dead) if dead else ha.targets
                for ha in self._model.hyperarcs
            ]
        targets = self._targets[coupler]
        if msg.dst in targets:
            return msg.dst
        if not targets:  # unreachable: dead couplers are never requested
            raise RuntimeError(f"coupler {coupler} has no surviving targets")
        return targets[msg.dst % len(targets)]

    def fault_route(self, src_group: int, dst_group: int) -> list[int] | None:
        """Group-level degraded route, via the family's hook.

        ``None`` when either endpoint group is dead: a dead group has no
        route, not even to itself, so the hook only sees live endpoints.
        """
        n = self.net.num_groups
        for name, g in (("src_group", src_group), ("dst_group", dst_group)):
            if not 0 <= g < n:
                raise IndexError(f"{name} {g} out of range [0, {n})")
        dead = self.dead_groups
        if src_group in dead or dst_group in dead:
            return None
        return self.family.fault_route(self.net, src_group, dst_group, self)

    def route_lengths(self) -> np.ndarray:
        """``(g, g)`` lengths of :meth:`fault_route`, via the family's hook.

        The hook on a stack of one (:func:`stack_views`).  Entry
        ``[u, v]`` of live distinct groups is
        ``len(fault_route(u, v)) - 1``, or ``-1`` when there is no
        route; the array may be shared, so do not mutate it.
        """
        return self.family.route_lengths(self.net, stack_views([self]))[0]

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def simulator(self, policy=None) -> SlottedSimulator:
        """An unmodified slotted simulator wired for the broken machine."""
        return SlottedSimulator(
            self._model,
            self.next_coupler,
            relay_of=self.relay,
            policy=policy,
            disabled_couplers=self.dead_couplers,
        )

    def simulate(
        self,
        workload="uniform",
        *,
        messages: int = 200,
        seed: int = 0,
        policy=None,
        max_slots: int = 100_000,
        **workload_options,
    ):
        """Run a named workload on the degraded machine.

        Traffic is generated against the *intact* network (same triples
        as the healthy baseline for the same seed), so delivery ratio
        and latency inflation are apples-to-apples.
        """
        from ..core.workloads import resolve_workload
        from ..simulation.network_sim import run_traffic

        traffic = resolve_workload(
            workload, self.net, messages=messages, seed=seed, **workload_options
        )
        return run_traffic(self.simulator(policy), traffic, max_slots=max_slots)

    def __repr__(self) -> str:
        return (
            f"<DegradedNetwork {self.scenario.spec} "
            f"model={self.scenario.model} seed={self.scenario.seed} "
            f"dead_couplers={len(self.dead_couplers)} "
            f"dead_processors={len(self.dead_processors)}>"
        )


def degrade_network(net, scenario: FaultScenario) -> DegradedNetwork:
    """Functional alias for :class:`DegradedNetwork`."""
    return DegradedNetwork(net, scenario)
