"""Adapters wiring the paper's networks into the slotted simulator.

Each adapter builds the hypergraph, precomputes the next-coupler
function from the network's own routing algorithm, and hands back a
ready :class:`~repro.simulation.engine.SlottedSimulator`.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

from ..networks.pops import POPSNetwork
from ..networks.stack_imase_itoh import StackImaseItohNetwork
from ..networks.stack_kautz import StackKautzNetwork
from ..routing.tables import build_routing_table
from .engine import Message, SlottedSimulator
from .metrics import SimulationReport, summarize
from .protocol import ArbitrationPolicy

__all__ = [
    "pops_simulator",
    "stack_kautz_simulator",
    "stack_imase_itoh_simulator",
    "simulator_for",
    "run_traffic",
]


def simulator_for(net, policy: ArbitrationPolicy | None = None) -> SlottedSimulator:
    """A ready simulator for *any* registered network, by instance.

    Dispatches through the family registry
    (:func:`repro.core.registry.family_for_network`), so a newly
    registered family is simulatable here with no edits to this module.

    >>> from repro.networks import POPSNetwork
    >>> simulator_for(POPSNetwork(4, 2)).network.num_hyperarcs
    4
    """
    from ..core.registry import family_for_network

    return family_for_network(net).simulator(net, policy)


def pops_simulator(
    net: POPSNetwork, policy: ArbitrationPolicy | None = None
) -> SlottedSimulator:
    """Simulator over ``POPS(t, g)``: every route is the single coupler
    ``(group(src), group(dst))``.

    Hyperarc order in the stack-graph model is the CSR arc order of
    ``K+_g``, i.e. coupler ``(i, j)`` is hyperarc ``g*i + j``.
    """
    model = net.stack_graph_model()
    g = net.num_groups

    def next_coupler(holder: int, msg: Message) -> int:
        i = net.group_of(holder)
        j = net.group_of(msg.dst)
        return g * i + j

    return SlottedSimulator(model, next_coupler, policy=policy)


def stack_kautz_simulator(
    net: StackKautzNetwork, policy: ArbitrationPolicy | None = None
) -> SlottedSimulator:
    """Simulator over ``SK(s, d, k)`` with label-induced group routing.

    The next-hop group is resolved by an exact routing table over the
    loopless base graph (identical to label routing -- the equivalence
    is itself a test), then mapped to the hyperarc of that base arc;
    same-group delivery uses the loop coupler.
    """
    return _base_table_simulator(net, policy)


def stack_imase_itoh_simulator(
    net: StackImaseItohNetwork, policy: ArbitrationPolicy | None = None
) -> SlottedSimulator:
    """Simulator over ``SII(s, d, n)`` using table routing on the base."""
    return _base_table_simulator(net, policy)


def _base_table_simulator(net, policy) -> SlottedSimulator:
    """A stack-graph's simulator routing by table over its loopless base.

    Each base arc ``(u, v)`` is its first hyperarc; delivery to a
    sibling uses the group's loop coupler.
    """
    table, arc_index, model = _base_routing(net)
    s = net.stacking_factor

    def next_coupler(holder: int, msg: Message) -> int:
        u = holder // s
        v_final = msg.dst // s
        if u == v_final:
            return arc_index[(u, u)]  # loop coupler: sibling delivery
        return arc_index[(u, table.next_hop(u, v_final))]

    return SlottedSimulator(model, next_coupler, policy=policy)


@lru_cache(maxsize=64)
def _base_routing(net) -> tuple:
    """``(routing table, base arc -> hyperarc map, stack-graph model)``.

    The routing skeleton of :func:`_base_table_simulator`, built once
    per network and shared read-only by every simulator over it (the
    intact baseline of each new sweep seed builds one).
    """
    base = net.base_graph()
    table = build_routing_table(base.without_loops())
    return table, _arc_index_map(base), net.stack_graph_model()


def _arc_index_map(base) -> dict[tuple[int, int], int]:
    """Map base arc (u, v) -> hyperarc index (first of parallels)."""
    index: dict[tuple[int, int], int] = {}
    for idx, (u, v) in enumerate(base.arc_array().tolist()):
        index.setdefault((u, v), idx)
    return index


def run_traffic(
    sim: SlottedSimulator,
    traffic: Sequence[tuple[int, int, int]],
    max_slots: int = 100_000,
) -> SimulationReport:
    """Inject, run to completion, verify conservation, summarize."""
    sim.inject(traffic)
    sim.run(max_slots=max_slots)
    if not sim.verify_conservation():
        raise RuntimeError("conservation check failed: message lost or corrupted")
    return summarize(sim)
