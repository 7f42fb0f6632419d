"""Apply a `FaultScenario` to any registry-built network.

:class:`DegradedNetwork` is the degraded-mode view the rest of the
subsystem works on: the surviving base digraph and hypergraph, a
fault-aware ``next_coupler``/``relay`` pair so the *unmodified*
:class:`~repro.simulation.engine.SlottedSimulator` runs on the broken
machine (dead couplers drop messages instead of wedging the run), and
the per-family ``fault_route`` hook for structured rerouting.

Effective faults close over the scenario: a coupler is dead when it was
hit directly, when every source processor died, or when every target
processor died; a group is dead when all of its processors died.

>>> from repro.core import build
>>> from repro.resilience.faults import UniformCouplerFaults
>>> net = build("pops(2,2)")
>>> scen = UniformCouplerFaults(1).scenario("pops(2,2)", net, seed=0)
>>> deg = DegradedNetwork(net, scen)
>>> len(deg.surviving_couplers)
3
"""

from __future__ import annotations

from ..graphs.digraph import DiGraph
from ..hypergraphs.hypergraph import DirectedHypergraph
from ..routing.tables import RoutingTable, build_routing_table
from ..simulation.engine import Message, SlottedSimulator
from .faults import FaultScenario, coupler_endpoints

__all__ = ["DegradedNetwork", "degrade_network"]


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
        self._model = net.hypergraph_model()
        n = net.num_processors
        m = self._model.num_hyperarcs
        self.dead_processors = frozenset(
            p for p in scenario.processors if 0 <= p < n
        )
        dead = {c for c in scenario.couplers if 0 <= c < m}
        for idx, ha in enumerate(self._model.hyperarcs):
            if idx in dead:
                continue
            if all(s in self.dead_processors for s in ha.sources) or all(
                t in self.dead_processors for t in ha.targets
            ):
                dead.add(idx)
        self.dead_couplers = frozenset(dead)
        self._endpoints = coupler_endpoints(net)
        # caches, built on demand
        self._base: DiGraph | None = None
        self._table: RoutingTable | None = None
        self._arc_coupler: dict[tuple[int, int], int] | None = None
        self._sibling_hop: dict[int, int] = {}
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
            from .faults import group_of

            alive = {group_of(self.net, p) for p in self.alive_processors}
            self._dead_groups = frozenset(
                g for g in range(self.net.num_groups) if g not in alive
            )
        return self._dead_groups

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
            arcs = [
                self._endpoints[c]
                for c in range(len(self._endpoints))
                if c not in self.dead_couplers
            ]
            self._base = DiGraph(
                self.net.num_groups,
                arcs,
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

    # ------------------------------------------------------------------
    # Degraded-mode routing
    # ------------------------------------------------------------------
    def _routing(self) -> tuple[RoutingTable, dict[tuple[int, int], int]]:
        if self._table is None or self._arc_coupler is None:
            base = self.surviving_base()
            self._table = build_routing_table(base.without_loops())
            arc_coupler: dict[tuple[int, int], int] = {}
            for c, (u, v) in enumerate(self._endpoints):
                if c in self.dead_couplers:
                    continue
                arc_coupler.setdefault((u, v), c)
            self._arc_coupler = arc_coupler
        return self._table, self._arc_coupler

    def _group_of(self, processor: int) -> int:
        return int(self.net.label_of(processor)[0])

    def _sibling_first_hop(self, group: int) -> int:
        """First group of the shortest surviving closed walk at ``group``.

        Sibling delivery uses the loop coupler when it survives
        (returns ``group``); otherwise the message must leave the
        group and come back.  ``-1`` when no closed walk survives.
        """
        if group in self._sibling_hop:
            return self._sibling_hop[group]
        table, arc_coupler = self._routing()
        if (group, group) in arc_coupler:
            return group
        best, best_len = -1, -1
        for u, v in sorted(arc_coupler):
            if u != group or v == group:
                continue
            back = table.distance(v, group)
            if back < 0:
                continue
            if best_len < 0 or 1 + back < best_len:
                best, best_len = v, 1 + back
        self._sibling_hop[group] = best
        return best

    def next_coupler(self, holder: int, msg: Message) -> int:
        """Fault-aware routing callback for the slotted engine.

        Returns ``-1`` ("drop") when the destination is unreachable on
        the surviving network or either endpoint is dead.
        """
        if msg.src in self.dead_processors or msg.dst in self.dead_processors:
            return -1
        table, arc_coupler = self._routing()
        gu = self._group_of(holder)
        gv = self._group_of(msg.dst)
        if gu == gv:
            nxt = self._sibling_first_hop(gu)
        else:
            nxt = table.next_hop(gu, gv)
        if nxt < 0:
            return -1
        return arc_coupler.get((gu, nxt), -1)

    def relay(self, coupler: int, msg: Message) -> int:
        """Relay selection that never hands a message to a corpse."""
        targets = [
            t
            for t in self._model.hyperarc(coupler).targets
            if t not in self.dead_processors
        ]
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
