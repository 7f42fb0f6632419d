"""``route_lengths`` against the per-pair ``fault_route`` oracle.

:func:`~repro.resilience.metrics.path_survival` scores one route-length
matrix per view (``DegradedNetwork.route_lengths``, a family hook).
Stack-Kautz fills it from its first candidates and re-routes only the
pairs a fault touches; every other family returns the view's BFS
distances.  :func:`_reference_path_survival` keeps the old scorer --
one ``fault_route`` call per ordered pair of live groups -- as the
oracle for both.
"""

from __future__ import annotations

import itertools
import math
import sys
import threading

import numpy as np
import pytest

import repro
from repro.core import NetworkFamily, register_family
from repro.core.families import CandidateTable
from repro.core.registry import family_keys
from repro.resilience import DegradedNetwork, FaultScenario
from repro.resilience.metrics import path_survival


def _reference_path_survival(degraded, bound=None):
    """The per-pair ``path_survival`` loop, one ``fault_route`` per pair."""
    net = degraded.net
    if bound is None:
        bound = net.diameter + 2
    dead = degraded.dead_groups
    live = [g for g in range(net.num_groups) if g not in dead]
    if len(live) < 2:
        return 1.0, 0, 1.0, 1.0
    intact = None
    if hasattr(net, "base_graph"):
        intact = net.base_graph().without_loops()
    routed = within = pairs = 0
    max_len = -1
    terms = []
    for gu in live:
        rows = intact.bfs_distances(gu) if intact is not None else None
        for gv in live:
            if gv == gu:
                continue
            pairs += 1
            path = degraded.fault_route(gu, gv)
            if path is None:
                continue
            length = len(path) - 1
            routed += 1
            max_len = max(max_len, length)
            within += length <= bound
            d0 = int(rows[gv]) if rows is not None else 1
            if d0 > 0:
                terms.append(length / d0)
    if routed == 0:
        return 0.0, max_len, 0.0, 0.0
    stretch = math.fsum(terms) / len(terms) if terms else 1.0
    return routed / pairs, max_len, stretch, within / routed


def _check(view):
    lengths = view.route_lengths()
    live = [g for g in range(view.net.num_groups) if g not in view.dead_groups]
    for u, v in itertools.permutations(live, 2):
        path = view.fault_route(u, v)
        expected = -1 if path is None else len(path) - 1
        assert lengths[u, v] == expected, (view, u, v)
    assert path_survival(view) == _reference_path_survival(view)


def test_every_coupler_set_of_at_most_two_on_sk222():
    net = repro.build("sk(2,2,2)")
    couplers = range(net.hypergraph_model().num_hyperarcs)
    sets = [
        frozenset(c)
        for size in range(3)
        for c in itertools.combinations(couplers, size)
    ]
    assert len(sets) == 172
    for dead in sets:
        scenario = FaultScenario("sk(2,2,2)", "coupler", seed=0, couplers=dead)
        _check(DegradedNetwork(net, scenario))


@pytest.mark.parametrize("spec", ["sk(3,2,3)", "sk(2,3,2)", "sk(1,2,5)"])
@pytest.mark.parametrize(
    "model, faults",
    [("processor", 4), ("link", 2), ("group", 2), ("adversarial", 3)],
)
def test_seeded_stack_kautz_scenarios(spec, model, faults):
    for seed in range(20):
        _check(repro.degrade(spec, model=model, faults=faults, seed=seed))


@pytest.mark.parametrize("spec", ["pops(3,4)", "sii(3,2,10)", "sops(6)"])
@pytest.mark.parametrize(
    "model, faults",
    [("coupler", 2), ("processor", 3), ("link", 1), ("group", 1)],
)
def test_default_hook_matches_bfs_routes(spec, model, faults):
    for seed in range(10):
        _check(repro.degrade(spec, model=model, faults=faults, seed=seed))


def test_shared_arrays_stay_unwritten():
    view = repro.degrade("sk(2,2,2)", model="coupler", faults=2, seed=4)
    first = view.route_lengths()
    first[0, 1] = 99  # the hook hands out a fresh array
    assert view.route_lengths()[0, 1] != 99
    default = repro.degrade("pops(3,4)", model="coupler", faults=2, seed=4)
    assert not default.route_lengths().flags.writeable


def test_register_rejects_fault_route_without_route_lengths():
    class _OnlyRoutes(NetworkFamily):
        key = "only-routes"

        def fault_route(self, net, src_group, dst_group, degraded):
            return None

    with pytest.raises(ValueError, match="fault_route.*route_lengths"):
        register_family(_OnlyRoutes)
    assert "only-routes" not in family_keys()


def test_first_route_index_is_published_whole_under_threads():
    # serve threads share one CandidateTable per (d, k); a thread must
    # see either no index or a complete one, never a partial build
    table = CandidateTable(2, 3)
    seen = []

    def build():
        lengths, by_group, by_link = table.first_routes()
        seen.append(tuple(a.tobytes() for a in (lengths, *by_group, *by_link)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(seen) == 6 and all(entry == seen[0] for entry in seen)
    lengths, _, _ = table.first_routes()
    assert (lengths[~np.eye(12, dtype=bool)] > 0).all()
