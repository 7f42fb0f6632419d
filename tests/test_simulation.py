"""Unit tests for the slotted simulator, policies, traffic and metrics."""

import dataclasses
import hashlib
import json
import re

import pytest

import repro
from repro.core import build
from repro.hypergraphs import DirectedHypergraph, Hyperarc
from repro.networks import POPSNetwork, StackImaseItohNetwork, StackKautzNetwork
from repro.resilience import DegradedNetwork, FaultScenario
from repro.simulation import (
    FurthestFirst,
    Message,
    OldestFirst,
    RandomChoice,
    RoundRobin,
    SlottedSimulator,
    bernoulli_stream,
    broadcast_traffic,
    group_local_traffic,
    hotspot_traffic,
    permutation_traffic,
    pops_simulator,
    run_traffic,
    stack_imase_itoh_simulator,
    stack_kautz_deflection_simulator,
    stack_kautz_simulator,
    summarize,
    uniform_traffic,
)


def tiny_network():
    """Two couplers: 0,1 -> 2,3 and 2,3 -> 0,1."""
    return DirectedHypergraph(
        4,
        [Hyperarc((0, 1), (2, 3)), Hyperarc((2, 3), (0, 1))],
    )


def tiny_router(holder, msg):
    return 0 if holder in (0, 1) else 1


class TestEngine:
    def test_single_message_delivery(self):
        sim = SlottedSimulator(tiny_network(), tiny_router)
        sim.inject([(0, 2, 0)])
        sim.run()
        m = sim.messages[0]
        assert m.delivered and m.latency == 0 and m.hops == 1

    def test_self_message_zero_slots(self):
        sim = SlottedSimulator(tiny_network(), tiny_router)
        sim.inject([(0, 0, 0)])
        sim.run()
        assert sim.messages[0].hops == 0
        assert sim.messages[0].latency == 0

    def test_contention_serializes(self):
        sim = SlottedSimulator(tiny_network(), tiny_router)
        sim.inject([(0, 2, 0), (1, 3, 0)])
        sim.run()
        lats = sorted(m.latency for m in sim.messages)
        assert lats == [0, 1]  # one waits a slot

    def test_oldest_first_priority(self):
        sim = SlottedSimulator(tiny_network(), tiny_router, policy=OldestFirst())
        sim.inject([(0, 2, 1), (1, 3, 0)])
        sim.run()
        early = next(m for m in sim.messages if m.inject_slot == 0)
        assert early.latency == 0

    def test_two_hop_route(self):
        sim = SlottedSimulator(tiny_network(), tiny_router)
        sim.inject([(0, 1, 0)])  # 0 -> (2|3) -> 1
        sim.run()
        m = sim.messages[0]
        assert m.hops == 2
        assert m.trace == [0, 1]

    def test_future_injection(self):
        sim = SlottedSimulator(tiny_network(), tiny_router)
        sim.inject([(0, 2, 5)])
        sim.run()
        m = sim.messages[0]
        assert m.deliver_slot == 5 and m.latency == 0

    def test_inject_into_past_rejected(self):
        sim = SlottedSimulator(tiny_network(), tiny_router)
        sim.inject([(0, 2, 0)])
        sim.run()
        with pytest.raises(ValueError):
            sim.inject([(0, 2, 0)])

    def test_bad_router_detected(self):
        sim = SlottedSimulator(tiny_network(), lambda h, m: 1)  # wrong side
        sim.inject([(0, 2, 0)])
        with pytest.raises(RuntimeError):
            sim.run()

    def test_slot_cap_raises(self):
        net = DirectedHypergraph(3, [Hyperarc((0,), (1,)), Hyperarc((1,), (0,))])

        def ping_pong(holder, msg):
            return 0 if holder == 0 else 1

        sim = SlottedSimulator(net, ping_pong)
        sim.inject([(0, 2, 0)])  # 2 is unreachable
        with pytest.raises(RuntimeError):
            sim.run(max_slots=20)

    def test_conservation(self):
        sim = SlottedSimulator(tiny_network(), tiny_router)
        sim.inject([(0, 2, 0), (1, 0, 0), (2, 1, 0)])
        sim.run()
        assert sim.verify_conservation()

    def test_slot_log(self):
        sim = SlottedSimulator(tiny_network(), tiny_router)
        sim.inject([(0, 2, 0), (1, 3, 0)])
        sim.run()
        assert sim.slot_log[0].contended_couplers == 1
        assert sim.slot_log[0].delivered == 1



class TestInjectRange:
    """Out-of-range processor ids fail at ``inject``, naming the triple."""

    @pytest.mark.parametrize("triple", [(0, -1, 0), (0, 12, 0), (-1, 3, 0)])
    @pytest.mark.parametrize(
        "make", [stack_kautz_simulator, stack_kautz_deflection_simulator]
    )
    def test_both_engines_reject(self, make, triple):
        sim = make(StackKautzNetwork(2, 2, 2))
        with pytest.raises(ValueError, match=re.escape(str(triple))):
            sim.inject([(0, 1, 0), triple])
        assert sim.messages == []  # nothing of the batch was injected

    @pytest.mark.parametrize(
        ("spec", "kwargs"),
        [
            ("sk(2,2,2)", dict(workload=[(0, -1, 0)])),
            ("sk(2,2,2)", dict(workload=[(0, 12, 0)])),
            ("sk(2,2,2)", dict(workload=[(-1, 3, 0)])),
            ("pops(2,2)", dict(workload=[(0, -1, 0)])),
            ("sk(2,2,2)", dict(workload="hotspot", hotspot=1000)),
        ],
    )
    def test_facade_rejects(self, spec, kwargs):
        with pytest.raises(ValueError, match=r"out of range \[0, "):
            repro.simulate(spec, **kwargs)

    def test_degraded_view_rejects(self):
        net = build("sk(2,2,2)")
        deg = DegradedNetwork(net, FaultScenario("sk(2,2,2)", "none", 0))
        with pytest.raises(ValueError, match="out of range"):
            deg.simulate(workload=[(0, 12, 0)])


def _replay(sim, first, second):
    """Run ``first``, then inject ``second`` (slots relative to now) and
    run again; return what the slots left behind."""
    sim.inject(first)
    sim.run()
    now = sim.now
    sim.inject([(s, d, now + off) for s, d, off in second])
    sim.run()
    return (
        [
            (s.slot, s.transmissions, s.contended_couplers, s.delivered, s.dropped)
            for s in sim.slot_log
        ],
        list(sim.coupler_busy),
        [(m.deliver_slot, m.drop_slot, m.hops, tuple(m.trace)) for m in sim.messages],
    )


class TestLiveMessages:
    """Staggered, zero-hop, re-injected and dropped messages on
    ``sk(2,2,2)``, against pinned slot logs, coupler use and
    per-message outcomes."""

    def test_intact_replay(self):
        first = [
            (0, 11, 0), (1, 6, 0), (0, 10, 0), (2, 9, 1), (7, 0, 1),
            (4, 5, 2), (6, 8, 2), (3, 3, 4), (10, 1, 5),
        ]
        second = [(5, 2, 0), (9, 9, 1), (11, 0, 0), (8, 3, 2)]
        sim = stack_kautz_simulator(StackKautzNetwork(2, 2, 2))
        log, busy, outcomes = _replay(sim, first, second)
        assert log == [
            (0, 2, 1, 1, 0), (1, 4, 0, 2, 0), (2, 3, 1, 3, 0), (3, 1, 0, 1, 0),
            (4, 0, 0, 0, 0), (5, 1, 0, 1, 0), (6, 2, 0, 2, 0), (7, 0, 0, 0, 0),
            (8, 1, 0, 0, 0), (9, 1, 0, 1, 0),
        ]
        assert busy == [0, 1, 2, 0, 0, 1, 0, 2, 1, 0, 2, 1, 1, 1, 0, 3, 0, 0]
        assert outcomes == [
            (0, -1, 1, (2,)), (1, -1, 2, (1, 13)), (1, -1, 1, (2,)),
            (2, -1, 2, (5, 10)), (2, -1, 2, (11, 15)), (2, -1, 1, (8,)),
            (3, -1, 1, (10,)), (4, -1, 0, ()), (5, -1, 1, (15,)),
            (6, -1, 1, (7,)), (7, -1, 0, ()), (6, -1, 1, (15,)),
            (9, -1, 2, (12, 7)),
        ]
        assert sim.verify_conservation()

    def test_degraded_replay(self):
        # processor 4 dead; loop coupler 0 of group 0 and coupler 7
        # (group 2 -> 1) cut, so the group-0 siblings take a closed walk
        scenario = FaultScenario(
            "sk(2,2,2)",
            "manual",
            0,
            couplers=frozenset({0, 7}),
            processors=frozenset({4}),
        )
        deg = DegradedNetwork(build("sk(2,2,2)"), scenario)
        first = [
            (0, 1, 0), (1, 4, 0), (4, 9, 1), (2, 11, 1), (5, 0, 2),
            (6, 6, 3), (9, 3, 3),
        ]
        second = [(3, 4, 0), (1, 0, 1), (10, 5, 1)]
        sim = deg.simulator()
        log, busy, outcomes = _replay(sim, first, second)
        assert log == [
            (0, 1, 0, 0, 1), (1, 2, 0, 1, 1), (2, 2, 0, 2, 0), (3, 1, 0, 0, 0),
            (4, 1, 0, 0, 0), (5, 1, 0, 1, 0), (6, 0, 0, 0, 1), (7, 2, 0, 0, 0),
            (8, 2, 0, 2, 0),
        ]
        assert busy == [0, 0, 2, 0, 1, 1, 1, 0, 0, 0, 0, 2, 0, 1, 0, 2, 2, 0]
        assert outcomes == [
            (1, -1, 2, (2, 15)), (-1, 0, 0, ()), (-1, 1, 0, ()),
            (2, -1, 2, (5, 11)), (2, -1, 1, (6,)), (3, -1, 0, ()),
            (5, -1, 3, (13, 11, 16)), (-1, 6, 0, ()), (8, -1, 2, (2, 15)),
            (8, -1, 2, (16, 4)),
        ]
        assert sim.verify_conservation()

class TestPolicies:
    def _msgs(self):
        return [
            Message(0, 0, 2, inject_slot=3),
            Message(1, 1, 2, inject_slot=1),
            Message(2, 1, 3, inject_slot=1),
        ]

    def test_oldest_first(self):
        assert OldestFirst().pick(self._msgs(), 5).ident == 1

    def test_furthest_first_prefers_hops(self):
        msgs = self._msgs()
        msgs[2].hops = 2
        assert FurthestFirst().pick(msgs, 5).ident == 2

    def test_random_choice_reproducible(self):
        a = RandomChoice(seed=7).pick(self._msgs(), 0).ident
        b = RandomChoice(seed=7).pick(self._msgs(), 0).ident
        assert a == b


class TestPolicyRuns:
    """Whole runs under every arbitration policy, pinned by digest.

    Each digest covers the :class:`SimulationReport`, the ``slot_log``,
    ``coupler_busy`` and every message's outcome (delivery and drop
    slots, hops, coupler trace) of 40 uniform messages at seed 5.
    """

    DIGESTS = {
        ("sk222-intact", "OldestFirst"): "715e78b17307ff39",
        ("sk222-intact", "RoundRobin"): "b1a75b28ec7f8163",
        ("sk222-intact", "RandomChoice"): "53f80fc9438f5030",
        ("sk222-intact", "FurthestFirst"): "e73e1b1851700192",
        ("sk222-coupler2", "OldestFirst"): "2468b42c859497f9",
        ("sk222-coupler2", "RoundRobin"): "fc717683b291a5b9",
        ("sk222-coupler2", "RandomChoice"): "fa994fdfa9a49e91",
        ("sk222-coupler2", "FurthestFirst"): "11ec6cc2cfd70f11",
        ("pops34-processor2", "OldestFirst"): "05468a05f60a0725",
        ("pops34-processor2", "RoundRobin"): "a2a4f0aa8005aabb",
        ("pops34-processor2", "RandomChoice"): "b06f97d5eee443da",
        ("pops34-processor2", "FurthestFirst"): "05468a05f60a0725",
    }
    POLICIES = {
        cls.__name__: cls
        for cls in (OldestFirst, RoundRobin, RandomChoice, FurthestFirst)
    }

    @staticmethod
    def _simulator(case, policy):
        if case == "sk222-intact":
            net = build("sk(2,2,2)")
            return net, stack_kautz_simulator(net, policy)
        if case == "sk222-coupler2":
            view = repro.degrade("sk(2,2,2)", model="coupler", faults=2, seed=5)
        else:
            view = repro.degrade("pops(3,4)", model="processor", faults=2, seed=5)
        return view.net, view.simulator(policy)

    @pytest.mark.parametrize("case, policy", sorted(DIGESTS))
    def test_run_matches_pin(self, case, policy):
        net, sim = self._simulator(case, self.POLICIES[policy]())
        report = run_traffic(sim, uniform_traffic(net.num_processors, 40, seed=5))
        blob = json.dumps(
            [
                dataclasses.asdict(report),
                [dataclasses.astuple(s) for s in sim.slot_log],
                sim.coupler_busy,
                [(m.deliver_slot, m.drop_slot, m.hops, m.trace) for m in sim.messages],
            ],
            sort_keys=True,
        )
        digest = hashlib.sha256(blob.encode()).hexdigest()[:16]
        assert digest == self.DIGESTS[case, policy]


class TestAdapters:
    def test_pops_always_one_hop(self):
        rep = run_traffic(pops_simulator(POPSNetwork(3, 3)), uniform_traffic(9, 60, seed=0))
        assert rep.max_hops == 1
        assert rep.num_messages == 60

    def test_stack_kautz_hops_bounded_by_diameter(self):
        net = StackKautzNetwork(3, 2, 3)
        rep = run_traffic(stack_kautz_simulator(net), uniform_traffic(net.num_processors, 120, seed=1))
        assert rep.max_hops <= net.diameter

    def test_stack_kautz_latency_at_least_hops(self):
        net = StackKautzNetwork(2, 2, 2)
        sim = stack_kautz_simulator(net)
        run_traffic(sim, uniform_traffic(net.num_processors, 40, seed=2))
        for m in sim.messages:
            assert m.latency >= m.hops - 1

    def test_stack_imase_itoh_runs(self):
        net = StackImaseItohNetwork(3, 2, 7)
        rep = run_traffic(stack_imase_itoh_simulator(net), uniform_traffic(net.num_processors, 50, seed=3))
        assert rep.num_messages == 50

    def test_run_traffic_summary_consistency(self):
        net = POPSNetwork(4, 2)
        rep = run_traffic(pops_simulator(net), permutation_traffic(8, seed=4))
        assert rep.num_messages == 8
        assert rep.throughput == pytest.approx(8 / rep.slots)

    @pytest.mark.parametrize(
        "net", [StackKautzNetwork(6, 3, 2), StackImaseItohNetwork(3, 2, 7)]
    )
    def test_routing_skeleton_built_once_per_network(self, net, monkeypatch):
        from repro.simulation import network_sim

        traffic = uniform_traffic(net.num_processors, 80, seed=5)
        first, second = (network_sim.simulator_for(net) for _ in range(2))
        assert first is not second  # a fresh engine per call
        assert first.network is second.network
        table = network_sim._base_routing(net)[0]
        assert network_sim._base_routing(net)[0] is table
        reports = [run_traffic(sim, traffic) for sim in (first, second)]
        assert reports[0] == reports[1]
        # the shared skeleton routes as a freshly built one does
        monkeypatch.setattr(
            network_sim, "_base_routing", network_sim._base_routing.__wrapped__
        )
        fresh = network_sim.simulator_for(net)
        assert fresh.network is not first.network
        assert run_traffic(fresh, traffic) == reports[0]


class TestTraffic:
    def test_uniform_no_self_messages(self):
        for src, dst, _ in uniform_traffic(10, 200, seed=0):
            assert src != dst
            assert 0 <= src < 10 and 0 <= dst < 10

    def test_uniform_needs_two(self):
        with pytest.raises(ValueError):
            uniform_traffic(1, 5)

    def test_permutation_covers_all_sources(self):
        t = permutation_traffic(16, seed=1)
        assert sorted(s for s, _, _ in t) == list(range(16))
        assert all(s != d for s, d, _ in t)

    def test_hotspot_fraction(self):
        t = hotspot_traffic(20, 1000, hotspot=5, fraction=0.5, seed=2)
        hits = sum(1 for _, d, _ in t if d == 5)
        assert 350 < hits < 650

    def test_hotspot_bad_fraction(self):
        with pytest.raises(ValueError):
            hotspot_traffic(10, 10, fraction=1.5)

    def test_broadcast_traffic(self):
        t = broadcast_traffic(6, src=2)
        assert len(t) == 5
        assert all(s == 2 for s, _, _ in t)

    def test_group_local_majority_local(self):
        t = group_local_traffic(24, 4, 1000, local_fraction=0.9, seed=3)
        local = sum(1 for s, d, _ in t if s // 4 == d // 4)
        assert local > 700

    def test_group_local_divisibility(self):
        with pytest.raises(ValueError):
            group_local_traffic(10, 3, 5)

    def test_bernoulli_rate(self):
        t = bernoulli_stream(10, 100, 0.1, seed=4)
        assert 40 < len(t) < 170
        assert all(0 <= slot < 100 for _, _, slot in t)

    def test_bernoulli_bad_rate(self):
        with pytest.raises(ValueError):
            bernoulli_stream(10, 10, 1.5)


class TestMetrics:
    def test_summarize_requires_completion(self):
        sim = SlottedSimulator(tiny_network(), tiny_router)
        sim.inject([(0, 2, 0)])
        with pytest.raises(ValueError):
            summarize(sim)

    def test_report_row_formats(self):
        sim = SlottedSimulator(tiny_network(), tiny_router)
        sim.inject([(0, 2, 0)])
        sim.run()
        rep = summarize(sim)
        assert "msgs=" in rep.row()
        assert rep.mean_hops == 1.0
        assert 0 < rep.coupler_utilization <= 1.0
