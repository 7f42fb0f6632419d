"""Hot-potato (deflection) routing on multi-OPS networks (ref [25]).

Zhang and Acampora's hot-potato multihop lightwave networks ([25] in
the paper) never buffer: a message that loses arbitration for its
preferred coupler is *deflected* onto any free coupler of its current
group and re-routed from wherever it lands.  On Kautz-style topologies
deflections cost extra hops but remove queueing memory -- the classic
latency/hardware trade, and a natural ablation against the
store-and-forward engine of :mod:`repro.simulation.engine`.

:class:`DeflectionSimulator` reuses the same hypergraph, traffic and
policy machinery.  Each slot:

1. every active message requests its preferred coupler (shortest-path
   next hop from its current group);
2. per coupler, the arbitration policy picks a winner;
3. losers holding a transmitter whose coupler went *unused* this slot
   are deflected through it (hot potato: the message moves anyway);
4. messages that cannot move at all stay put -- with ``strict_hot_potato``
   they raise instead, modeling bufferless hardware.

A deflection ceiling (``max_hops_factor`` times the diameter bound)
guards against livelock; hitting it is reported, not hidden.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from ..hypergraphs.hypergraph import DirectedHypergraph
from .engine import Message, SlotStats, new_messages
from .protocol import ArbitrationPolicy, OldestFirst

__all__ = ["DeflectionSimulator"]


class DeflectionSimulator:
    """Bufferless hot-potato execution over OPS couplers.

    Parameters
    ----------
    network:
        Hypergraph of couplers (as for
        :class:`~repro.simulation.engine.SlottedSimulator`).
    preferred_coupler:
        ``(holder, message) -> coupler``: the shortest-path choice.
    out_couplers:
        ``holder -> sequence of couplers`` the holder can transmit
        into; deflections pick from these (in order) when the
        preference is lost.
    relay_of:
        ``(coupler, message) -> target processor`` receiving the
        message (default: destination if present, else offset-matched
        member).
    policy:
        Arbitration among same-coupler requests.
    max_hops_factor:
        Livelock guard: a message exceeding
        ``max_hops_factor * network diameter-ish bound`` raises.
    """

    def __init__(
        self,
        network: DirectedHypergraph,
        preferred_coupler: Callable[[int, Message], int],
        out_couplers: Callable[[int], Sequence[int]],
        relay_of: Callable[[int, Message], int] | None = None,
        policy: ArbitrationPolicy | None = None,
        max_hops: int = 1000,
    ) -> None:
        self.network = network
        self.preferred_coupler = preferred_coupler
        self.out_couplers = out_couplers
        self.relay_of = relay_of if relay_of is not None else self._default_relay
        self.policy = policy if policy is not None else OldestFirst()
        self.max_hops = max_hops
        self.messages: list[Message] = []
        self.slot_log: list[SlotStats] = []
        self.deflections = 0
        self.coupler_busy = [0] * network.num_hyperarcs
        self._now = 0

    def _default_relay(self, coupler: int, msg: Message) -> int:
        targets = self.network.hyperarc(coupler).targets
        if msg.dst in targets:
            return msg.dst
        return targets[msg.dst % len(targets)]

    # ------------------------------------------------------------------
    def inject(self, traffic: Sequence[tuple[int, int, int]]) -> None:
        """Add ``(src, dst, inject_slot)`` messages.

        Raises ``ValueError`` naming the triple when a processor id is
        out of range or the slot is already past; nothing of the batch
        is injected then.
        """
        self.messages.extend(
            new_messages(
                traffic, len(self.messages), self.network.num_nodes, self._now
            )
        )

    def run(self, max_slots: int = 100_000) -> None:
        """Advance until every message is delivered (or the caps trip)."""
        while not self.all_delivered():
            if self._now >= max_slots:
                stuck = [m.ident for m in self.messages if not m.delivered]
                raise RuntimeError(f"slot cap reached; stuck: {stuck[:10]}")
            self.step()

    def step(self) -> SlotStats:
        """One hot-potato slot."""
        now = self._now
        for m in self.messages:
            if not m.delivered and m.inject_slot <= now and m.current == m.dst:
                m.deliver_slot = max(m.inject_slot, now)

        active = [
            m
            for m in self.messages
            if not m.delivered and m.inject_slot <= now
        ]
        # Round 1: preferred couplers.
        requests: dict[int, list[Message]] = {}
        for m in active:
            requests.setdefault(self.preferred_coupler(m.current, m), []).append(m)

        winners: dict[int, Message] = {}
        contended = 0
        losers: list[Message] = []
        for coupler, msgs in requests.items():
            win = self.policy.pick(msgs, now)
            winners[coupler] = win
            if len(msgs) > 1:
                contended += 1
                losers.extend(mm for mm in msgs if mm is not win)

        # Round 2: deflect losers onto free couplers of their group.
        for m in losers:
            for alt in self.out_couplers(m.current):
                if alt not in winners:
                    winners[alt] = m
                    self.deflections += 1
                    break
            # else: no free transmitter -- the message waits one slot
            # (a real bufferless node would misroute on *some* port;
            # with one port per coupler and all busy, waiting is the
            # only option left and costs one slot of latency).

        delivered = 0
        for coupler, m in winners.items():
            ha = self.network.hyperarc(coupler)
            if m.current not in ha.sources:
                raise RuntimeError(
                    f"coupler {coupler} is not sourced at {m.current}"
                )
            relay = self.relay_of(coupler, m)
            m.current = relay
            m.hops += 1
            m.trace.append(coupler)
            self.coupler_busy[coupler] += 1
            if m.hops > self.max_hops:
                raise RuntimeError(f"message {m.ident} livelocked ({m.hops} hops)")
            if relay == m.dst:
                m.deliver_slot = now
                delivered += 1

        stats = SlotStats(now, len(winners), contended, delivered)
        self.slot_log.append(stats)
        self._now += 1
        return stats

    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current slot."""
        return self._now

    def all_delivered(self) -> bool:
        """Whether every injected message has arrived."""
        return all(m.delivered for m in self.messages)

    def deflection_rate(self) -> float:
        """Deflections per delivered message."""
        done = sum(1 for m in self.messages if m.delivered)
        return self.deflections / done if done else 0.0


def stack_kautz_deflection_simulator(net, policy: ArbitrationPolicy | None = None):
    """Hot-potato simulator over ``SK(s, d, k)``.

    Preferred coupler = label-routing next hop (as in the
    store-and-forward adapter); deflection alternatives = the group's
    other couplers, loop last (a loop deflection wastes a slot without
    progress but keeps the potato moving).
    """
    from ..networks.stack_kautz import StackKautzNetwork
    from ..routing.tables import build_routing_table

    assert isinstance(net, StackKautzNetwork)
    base = net.base_graph()
    model = net.stack_graph_model()
    table = build_routing_table(base.without_loops())
    s = net.stacking_factor

    arc_index: dict[tuple[int, int], int] = {}
    for idx, (u, v) in enumerate(base.arc_array().tolist()):
        arc_index.setdefault((u, v), idx)

    group_couplers: dict[int, list[int]] = {}
    for u in range(net.num_groups):
        non_loop = [
            arc_index[(u, int(v))]
            for v in sorted(set(base.successors(u).tolist()))
            if int(v) != u
        ]
        group_couplers[u] = non_loop + [arc_index[(u, u)]]

    def preferred(holder: int, msg: Message) -> int:
        u = holder // s
        v_final = msg.dst // s
        if u == v_final:
            return arc_index[(u, u)]
        return arc_index[(u, table.next_hop(u, v_final))]

    def outs(holder: int) -> list[int]:
        return group_couplers[holder // s]

    return DeflectionSimulator(model, preferred, outs, policy=policy)
