"""Stack-Kautz routing by compiled candidate table, and dead endpoints.

``StackKautzFamily.fault_route`` compiles each ordered group pair's
Sec. 2.5 candidates once per ``(d, k)`` per process and routes a trial
by bitmask lookup.  :func:`reference_fault_route` below is the hook as
it was before that: rebuild the candidate family with
``fault_tolerant_route`` on every call.  The table must return exactly
its path for every pair, under the paper's ``d - 1`` faults and well
beyond them, where every candidate can be blocked and the BFS
fallbacks run.

Also here: a dead group has no route, not even to itself, for every
family (``DegradedNetwork.fault_route`` answers ``None``).
"""

import itertools
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import build, families
from repro.core.registry import NetworkFamily, get_family
from repro.core.session import Session
from repro.resilience.degrade import DegradedNetwork
from repro.resilience.faults import (
    FAULT_MODELS,
    FaultScenario,
    GroupBlockOutage,
    coupler_endpoints,
)
from repro.resilience.sweep import survivability_sweep, trial_seed
from repro.routing import fault_tolerant
from repro.routing.fault_tolerant import candidate_paths, fault_tolerant_route
from repro.routing.kautz_routing import kautz_route
from repro.temporal import TrafficMatrix, served_fraction, utilization

SK = get_family("sk")


def reference_fault_route(net, src_group, dst_group, degraded):
    """The stack-Kautz hook before compilation: the oracle.

    Word-level ``fault_tolerant_route`` over the scenario's faults,
    rebuilding the candidate family on every call, then the registry
    default BFS when that conservative view severs the pair.
    """
    if src_group == dst_group:
        return [src_group]
    faults = degraded.word_fault_set()
    x, y = net.group_word(src_group), net.group_word(dst_group)
    if x not in faults.nodes and y not in faults.nodes:
        path = fault_tolerant_route(x, y, net.degree, faults)
        if path is not None:
            return [net.group_of_word(w) for w in path]
    return NetworkFamily.fault_route(SK, net, src_group, dst_group, degraded)


def assert_matches_reference(degraded) -> int:
    """Every ordered group pair routes exactly as the reference does.

    Except a dead group to itself, which the reference routed as
    ``[g]`` (see :class:`TestDeadGroupHasNoRoute`).  Returns how many
    pairs of live groups had every candidate blocked, i.e. took the
    BFS fallback.
    """
    net = degraded.net
    dead = degraded.dead_groups
    faults = degraded.word_fault_set()
    blocked = 0
    for u, v in itertools.product(range(net.num_groups), repeat=2):
        if u == v and u in dead:
            continue
        got = degraded.fault_route(u, v)
        want = reference_fault_route(net, u, v, degraded)
        assert got == want, (degraded, u, v, got, want)
        if u != v and u not in dead and v not in dead:
            x, y = net.group_word(u), net.group_word(v)
            blocked += all(
                faults.blocks(p) for p in candidate_paths(x, y, net.degree)
            )
    return blocked


def single_faults(spec):
    """Every single-coupler fault and every single-group outage."""
    net = build(spec)
    ends = coupler_endpoints(net)
    for c in range(net.num_couplers):
        yield FaultScenario(spec, "manual", c, couplers=frozenset({c}))
    for g in range(net.num_groups):
        yield FaultScenario(
            spec,
            "manual",
            g,
            couplers=frozenset(c for c, ab in enumerate(ends) if g in ab),
            processors=frozenset(net.group_members(g).tolist()),
        )


@pytest.fixture
def compiled_pairs(monkeypatch):
    """Word pairs whose candidate family is built, from a cold table cache."""
    calls = []
    original = fault_tolerant.candidate_paths

    def counting(x, y, d):
        calls.append((x, y))
        return original(x, y, d)

    families.candidate_table.cache_clear()
    monkeypatch.setattr(fault_tolerant, "candidate_paths", counting)
    yield calls
    families.candidate_table.cache_clear()


# ----------------------------------------------------------------------
# The oracle: table route == reference route
# ----------------------------------------------------------------------
class TestTableMatchesReference:
    @pytest.mark.parametrize(
        "spec", ["sk(2,2,1)", "sk(2,2,2)", "sk(2,2,3)", "sk(3,2,2)"]
    )
    def test_every_single_fault(self, spec):
        """d - 1 = 1: every coupler fault and group outage, every pair."""
        net = build(spec)
        for scenario in single_faults(spec):
            assert_matches_reference(DegradedNetwork(net, scenario))

    def test_beyond_d_minus_1_with_fallbacks(self):
        """Up to 2d faults of four models; the all-blocked path runs too."""
        fallbacks = []

        @settings(
            max_examples=30, deadline=None, derandomize=True, database=None
        )
        @given(
            spec=st.sampled_from(["sk(2,2,2)", "sk(6,3,2)", "sk(1,3,3)"]),
            model=st.sampled_from(["coupler", "link", "group", "processor"]),
            data=st.data(),
        )
        def check(spec, model, data):
            net = build(spec)
            faults = data.draw(st.integers(0, 2 * net.degree), label="faults")
            seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
            scenario = FAULT_MODELS[model](faults).scenario(spec, net, seed)
            degraded = DegradedNetwork(net, scenario)
            fallbacks.append(assert_matches_reference(degraded))

        check()
        assert sum(fallbacks) > 0

    def test_sweep_trials_past_d_minus_1_fall_back(self):
        """200 sweep trials, 3 coupler faults on sk(2,2,2): 708 of 6,000."""
        net = build("sk(2,2,2)")
        model = FAULT_MODELS["coupler"](3)
        blocked = 0
        for i in range(200):
            scenario = model.scenario("sk(2,2,2)", net, trial_seed(0, i))
            blocked += assert_matches_reference(DegradedNetwork(net, scenario))
        assert blocked == 708

    def test_masks_mean_what_the_word_fault_set_means(self):
        """A candidate is blocked by the masks iff FaultSet.blocks says so."""
        net = build("sk(2,2,3)")
        model = FAULT_MODELS["link"](3)
        table = families.candidate_table(net.degree, net.diameter)
        for seed in range(10):
            deg = DegradedNetwork(net, model.scenario("sk(2,2,3)", net, seed))
            faults = deg.word_fault_set()
            dead_groups, dead_links = deg.word_fault_masks()
            for u, v in itertools.permutations(range(net.num_groups), 2):
                for internal, crossed, path in table.candidates(u, v):
                    words = [net.group_word(g) for g in path]
                    assert bool(
                        internal & dead_groups or crossed & dead_links
                    ) == faults.blocks(words)

    def test_link_ids_are_dense_and_orientation_blind(self):
        table = families.candidate_table(3, 2)
        ids = set(table.links.values())
        assert ids == set(range(len(ids)))
        assert len(ids) <= 12 * 3  # groups * d
        for (u, v), link in table.links.items():
            assert table.links[v, u] == link

    def test_entries_are_immutable_and_routes_are_fresh_lists(self):
        net = build("sk(2,2,2)")
        deg = DegradedNetwork(net, FaultScenario("sk(2,2,2)", "none", 0))
        entry = families.candidate_table(2, 2).candidates(0, 5)
        assert isinstance(entry, tuple)
        assert all(isinstance(c, tuple) and isinstance(c[2], tuple) for c in entry)
        first = deg.fault_route(0, 5)
        first.append(99)
        assert deg.fault_route(0, 5) == list(entry[0][2])


# ----------------------------------------------------------------------
# Compiled once per (d, k), one pair at a time, safe across threads
# ----------------------------------------------------------------------
class TestCompiledOnce:
    def test_full_sweep_compiles_each_pair_at_most_once(self, compiled_pairs):
        """Each pair at most once, and exactly the live pairs whose
        label-induced first route some trial's faults touch."""
        first = survivability_sweep(
            "sk(6,3,2)", "coupler", faults=2, trials=20, seed=0, metrics="full"
        )
        net, model = build("sk(6,3,2)"), FAULT_MODELS["coupler"](2)
        touched = set()
        for i in range(20):
            view = DegradedNetwork(
                net, model.scenario("sk(6,3,2)", net, trial_seed(0, i))
            )
            faults = view.word_fault_set()
            live = set(range(net.num_groups)) - view.dead_groups
            for u, v in itertools.permutations(live, 2):
                x, y = net.group_word(u), net.group_word(v)
                if faults.blocks(kautz_route(x, y, net.degree)):
                    touched.add((x, y))
        assert 0 < len(touched) < 12 * 11
        assert len(compiled_pairs) == len(set(compiled_pairs)) == len(touched)
        assert set(compiled_pairs) == touched
        compiled_pairs.clear()
        second = survivability_sweep(
            "sk(6,3,2)", "coupler", faults=2, trials=20, seed=0, metrics="full"
        )
        assert compiled_pairs == []
        assert first.to_json() == second.to_json()

    def test_one_cold_route_compiles_one_pair(self, compiled_pairs):
        """sk(1,4,3) has 80 groups: one route compiles 1 of 6,320 pairs."""
        net = build("sk(1,4,3)")
        for _ in range(2):
            deg = DegradedNetwork(net, FaultScenario("sk(1,4,3)", "none", 0))
            assert deg.fault_route(0, 79) is not None
            assert deg.fault_route(0, 79) is not None
        assert compiled_pairs == [(net.group_word(0), net.group_word(79))]

    def test_threads_share_one_table(self):
        """8 threads racing a cold table give the serial bytes."""
        threads_n = 8

        def sweep(session, seed):
            return session.resilience_sweep(
                "sk(6,3,2)", faults=2, trials=3, seed=seed, metrics="full"
            ).to_json()

        with Session(workers=0) as session:
            expected = [sweep(session, seed) for seed in range(threads_n)]
            families.candidate_table.cache_clear()
            results = [None] * threads_n
            barrier = threading.Barrier(threads_n)

            def run(seed):
                barrier.wait(timeout=10)
                results[seed] = sweep(session, seed)

            threads = [
                threading.Thread(target=run, args=(seed,))
                for seed in range(threads_n)
            ]
            old = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
            finally:
                sys.setswitchinterval(old)
            assert not any(t.is_alive() for t in threads)
        assert results == expected


# ----------------------------------------------------------------------
# A dead group has no route, not even to itself
# ----------------------------------------------------------------------
class TestDeadGroupHasNoRoute:
    @pytest.mark.parametrize("spec, dead", [("sk(2,2,2)", 1), ("pops(2,3)", 0)])
    def test_dead_group_self_demand_is_unserved(self, spec, dead):
        net = build(spec)
        view = DegradedNetwork(net, GroupBlockOutage(1).scenario(spec, net, 3))
        assert view.dead_groups == {dead}
        assert view.fault_route(dead, dead) is None
        matrix = TrafficMatrix(((dead, dead, 1.0),))
        assert served_fraction(matrix, view) == 0.0
        assert utilization(net, matrix, degraded=view).unserved_rate == 1.0
        for live in range(net.num_groups):
            if live != dead:
                assert view.fault_route(live, live) == [live]
                assert view.fault_route(live, dead) is None
                assert view.fault_route(dead, live) is None
