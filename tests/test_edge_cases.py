"""Edge-case sweep across modules: degenerate sizes, custom hooks, errors."""

import pytest

from repro.__main__ import main
from repro.graphs import DiGraph, kautz_graph
from repro.hypergraphs import DirectedHypergraph, Hyperarc, stack_graph
from repro.networks import (
    POPSDesign,
    POPSNetwork,
    StackImaseItohDesign,
    StackKautzDesign,
    StackKautzNetwork,
)
from repro.optical import OTIS, OTISLayout
from repro.simulation import (
    Message,
    SlottedSimulator,
    run_traffic,
    summarize,
    uniform_traffic,
)


class TestDegenerateSizes:
    def test_otis_1_1(self):
        o = OTIS(1, 1)
        assert o.receiver_of(0, 0) == (0, 0)
        assert o.is_involution()
        lay = OTISLayout(o)
        assert lay.verify_transpose_geometry()
        assert "OTIS(1,1)" in lay.render_ascii()

    def test_pops_1_1(self):
        net = POPSNetwork(1, 1)
        assert net.num_processors == 1
        assert net.is_single_hop()
        assert POPSDesign(1, 1).verify()

    def test_stack_kautz_minimal(self):
        net = StackKautzNetwork(1, 1, 1)
        assert net.num_processors == 2
        net.verify_definition()

    def test_sk_design_k1(self):
        # KG(d, 1) = K_{d+1}: diameter-1 stack-Kautz machines
        assert StackKautzDesign(3, 2, 1).verify()

    def test_sii_design_n1(self):
        assert StackImaseItohDesign(2, 2, 1).verify()

    def test_stack_graph_single_node_base(self):
        base = DiGraph(1, [(0, 0)])
        sg = stack_graph(3, base)
        assert sg.num_nodes == 3
        assert sg.is_single_hop()


class TestCustomHooks:
    def test_custom_relay(self):
        net = DirectedHypergraph(4, [Hyperarc((0, 1), (2, 3))])

        def relay_highest(coupler, msg):
            return 3  # always the highest target

        sim = SlottedSimulator(net, lambda h, m: 0, relay_of=relay_highest)
        sim.inject([(0, 3, 0)])
        sim.run()
        assert sim.messages[0].current == 3

    def test_bad_relay_detected(self):
        net = DirectedHypergraph(4, [Hyperarc((0, 1), (2, 3))])
        sim = SlottedSimulator(net, lambda h, m: 0, relay_of=lambda c, m: 0)
        sim.inject([(0, 2, 0)])
        with pytest.raises(RuntimeError):
            sim.run()

    def test_message_latency_before_delivery_raises(self):
        m = Message(0, 0, 1, inject_slot=0)
        with pytest.raises(ValueError):
            _ = m.latency

    def test_contended_slot_fraction(self):
        net = DirectedHypergraph(4, [Hyperarc((0, 1), (2, 3))])
        sim = SlottedSimulator(net, lambda h, m: 0)
        sim.inject([(0, 2, 0), (1, 3, 0)])
        sim.run()
        rep = summarize(sim)
        assert rep.contended_slot_fraction == pytest.approx(0.5)


class TestCLIEdges:
    def test_design_sii(self, capsys):
        assert main(["design", "sii", "2", "2", "5"]) == 0
        assert "verified: True" in capsys.readouterr().out

    def test_compare_prime(self, capsys):
        assert main(["compare", "13"]) == 0
        out = capsys.readouterr().out
        # 13 = 13*1: at least POPS(13,1) exists
        assert "POPS(13,1)" in out

    @pytest.mark.parametrize("groups,size", [(0, 3), (3, 0), (-1, 2)])
    def test_otis_rejects_an_empty_side(self, groups, size, capsys):
        # one stderr line and exit 2, like every other bad argument
        assert main(["otis", str(groups), str(size)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"OTIS needs G >= 1 and T >= 1, got G={groups}, T={size}\n"
        )


class TestRunTrafficGuards:
    def test_max_slots_guard(self):
        net = StackKautzNetwork(2, 2, 2)
        from repro.simulation import stack_kautz_simulator

        sim = stack_kautz_simulator(net)
        with pytest.raises(RuntimeError):
            run_traffic(sim, uniform_traffic(net.num_processors, 500, seed=0), max_slots=2)

    def test_empty_traffic(self):
        net = POPSNetwork(2, 2)
        from repro.simulation import pops_simulator

        rep = run_traffic(pops_simulator(net), [])
        assert rep.num_messages == 0
        assert rep.mean_latency == 0.0


class TestGraphEdges:
    def test_kautz_d1_is_two_cycle_family(self):
        # d = 1: alphabet {0,1}, words alternate; KG(1,k) is a 2-cycle
        g = kautz_graph(1, 3)
        assert g.num_nodes == 2
        assert g.num_arcs == 2
        assert g.has_arc(0, 1) and g.has_arc(1, 0)

    def test_digraph_single_node_loop_girth(self):
        from repro.graphs import girth

        assert girth(DiGraph(1, [(0, 0)])) == 1

    def test_distance_distribution_empty(self):
        from repro.graphs import distance_distribution

        h = distance_distribution(DiGraph(0, []))
        assert h.sum() == 0
