"""The compiled degraded-mode routing table against its search oracle.

``DegradedNetwork.next_coupler`` reads one ``[holder group][destination
group] -> coupler`` table compiled from the view's distance matrix.  The
oracle computes each pick by search: a ``build_routing_table`` over the
loopless surviving base for distinct groups, and the shortest surviving
closed walk for a sibling whose loop coupler died.
"""

from itertools import combinations

import numpy as np
import pytest

from repro.core import build
from repro.resilience import (
    DegradedNetwork,
    FaultScenario,
    coupler_endpoints,
    make_fault_model,
)
from repro.resilience.faults import group_of
from repro.routing import build_routing_table
from repro.simulation import Message


def reference_next_coupler(view):
    """``(holder, msg) -> coupler`` by the routing-table-and-search rule."""
    net = view.net
    table = build_routing_table(view.surviving_base().without_loops())
    arc_coupler: dict[tuple[int, int], int] = {}
    for c, (u, v) in enumerate(coupler_endpoints(net)):
        if c not in view.dead_couplers:
            arc_coupler.setdefault((u, v), c)

    def sibling_first_hop(group):
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
        return best

    def next_coupler(holder, msg):
        if msg.src in view.dead_processors or msg.dst in view.dead_processors:
            return -1
        gu, gv = group_of(net, holder), group_of(net, msg.dst)
        nxt = sibling_first_hop(gu) if gu == gv else table.next_hop(gu, gv)
        if nxt < 0:
            return -1
        return arc_coupler.get((gu, nxt), -1)

    return next_coupler


def assert_matches_oracle(view):
    base = view.surviving_base()
    dist = view.distances()
    for u in range(view.net.num_groups):
        assert np.array_equal(dist[u], base.bfs_distances(u)), u
    reference = reference_next_coupler(view)
    n = view.net.num_processors
    for src in range(n):
        for dst in range(n):
            if src == dst:
                continue
            msg = Message(0, src, dst, 0)
            assert view.next_coupler(src, msg) == reference(src, msg), (
                view.scenario,
                src,
                dst,
            )


def small_coupler_faults(spec, most):
    net = build(spec)
    for size in range(most + 1):
        for couplers in combinations(range(net.num_couplers), size):
            yield net, FaultScenario(spec, "manual", 0, couplers=frozenset(couplers))


@pytest.mark.parametrize(("spec", "count"), [("sk(2,2,2)", 172), ("pops(3,4)", 137)])
def test_every_small_coupler_fault_set(spec, count):
    # pops: with its loop dead, a group has a closed walk through every
    # other group, all of length 2 -- the smallest group must win
    cases = list(small_coupler_faults(spec, 2))
    assert len(cases) == count
    loops = {c for c, (u, v) in enumerate(coupler_endpoints(cases[0][0])) if u == v}
    assert any(scenario.couplers & loops for _net, scenario in cases)
    for net, scenario in cases:
        assert_matches_oracle(DegradedNetwork(net, scenario))


@pytest.mark.parametrize("spec", ["pops(3,4)", "sii(3,2,10)", "sops(6)", "sk(3,2,3)"])
@pytest.mark.parametrize(
    ("model", "faults"),
    [("processor", 2), ("link", 1), ("group", 1), ("adversarial", 2)],
)
def test_seeded_scenarios(spec, model, faults):
    net = build(spec)
    fault_model = make_fault_model(model, faults)
    for seed in range(20):
        scenario = fault_model.scenario(spec, net, seed)
        assert_matches_oracle(DegradedNetwork(net, scenario))


def test_table_is_compiled_on_first_route_only():
    net = build("sk(2,2,2)")
    view = DegradedNetwork(net, FaultScenario("sk(2,2,2)", "none", 0))
    view.distances()
    assert view._next_hops is None  # scoring a view does not compile routing
    view.next_coupler(0, Message(0, 0, 5, 0))
    assert view._next_hops is not None
