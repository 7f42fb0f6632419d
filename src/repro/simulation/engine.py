"""Slotted discrete-event simulator for multi-OPS networks.

The paper designs networks but never runs them; this simulator closes
that gap (simpy is unavailable offline, so the engine is self-
contained).  The model matches the paper's hardware assumptions:

* time advances in synchronous *slots* (single-wavelength OPS couplers
  carry one message per slot);
* a coupler is a hyperarc: the slot's single transmission is heard by
  *every* target processor;
* a processor owns one transmitter per out-coupler, so it may drive
  several *different* couplers in one slot, but never one coupler
  twice;
* contention on a coupler is resolved by a pluggable arbitration
  policy (:mod:`repro.simulation.protocol`).

Routing is delegated to a ``next_coupler(processor, message)`` callback
so the same engine executes POPS (always one hop) and stack-Kautz
(label-induced multi-hop) -- or any future topology.

A slot's work is proportional to the messages still in flight: the
engine keeps the unsettled messages in injection order, walks only
them, and prunes the list once per slot.  Each hop indexes the
hypergraph's hyperarc tuple directly, with the routing, arbitration
and relay callbacks bound once per slot.  ``inject`` rejects a
processor id outside the hypergraph with a ``ValueError`` naming the
triple, before any of its batch enters the run.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from ..hypergraphs.hypergraph import DirectedHypergraph
from .protocol import ArbitrationPolicy, OldestFirst

__all__ = ["Message", "SlotCapError", "SlotStats", "SlottedSimulator", "new_messages"]


class SlotCapError(RuntimeError):
    """A run reached its slot cap with messages still unsettled.

    ``cap`` is the cap and ``stuck`` the idents of the unsettled
    messages, in injection order.
    """

    def __init__(self, cap: int, stuck: Sequence[int]) -> None:
        self.cap, self.stuck = cap, list(stuck)
        message = f"slot cap {cap} reached with messages stuck: {self.stuck[:10]}"
        super().__init__(message)

    def __reduce__(self):
        return type(self), (self.cap, self.stuck)


@dataclass(slots=True)
class Message:
    """One message flowing through the simulated network."""

    ident: int
    src: int
    dst: int
    inject_slot: int
    current: int = -1  # processor currently holding the message
    hops: int = 0
    deliver_slot: int = -1
    drop_slot: int = -1
    trace: list[int] = field(default_factory=list)  # couplers used

    def __post_init__(self) -> None:
        if self.current < 0:
            self.current = self.src

    @property
    def delivered(self) -> bool:
        """Whether the message has reached its destination."""
        return self.deliver_slot >= 0

    @property
    def dropped(self) -> bool:
        """Whether the message was dropped (no surviving route)."""
        return self.drop_slot >= 0

    @property
    def settled(self) -> bool:
        """Delivered or dropped: the message needs no further slots."""
        return self.delivered or self.dropped

    @property
    def latency(self) -> int:
        """Slots from injection to delivery (valid once delivered)."""
        if not self.delivered:
            raise ValueError(f"message {self.ident} not delivered")
        return self.deliver_slot - self.inject_slot


def new_messages(
    traffic: Sequence[tuple[int, int, int]], first: int, num_nodes: int, now: int
) -> list[Message]:
    """``(src, dst, inject_slot)`` triples as messages ``first, first + 1, ...``.

    Raises ``ValueError`` naming the first triple whose processor id
    lies outside ``[0, num_nodes)`` or whose slot lies before ``now``.
    """
    batch = []
    for src, dst, slot in traffic:
        check_message(src, dst, slot, num_nodes, now)
        batch.append(Message(first + len(batch), src, dst, slot))
    return batch


def check_message(src: int, dst: int, slot: int, num_nodes: int, now: int) -> None:
    """Raise ``ValueError`` unless ``(src, dst, slot)`` can be injected at ``now``."""
    if not (0 <= src < num_nodes and 0 <= dst < num_nodes):
        raise ValueError(
            f"message {(src, dst, slot)}: processor id out of range "
            f"[0, {num_nodes})"
        )
    if slot < now:
        raise ValueError(f"cannot inject into past slot {slot} (now {now})")


@dataclass(frozen=True)
class SlotStats:
    """Per-slot accounting."""

    slot: int
    transmissions: int
    contended_couplers: int
    delivered: int
    dropped: int = 0


class SlottedSimulator:
    """Execute message batches over a hypergraph of OPS couplers.

    Parameters
    ----------
    network:
        The hypergraph: node ids are processors, hyperarcs are
        couplers.
    next_coupler:
        ``(holder, message) -> coupler index``; must return a hyperarc
        in which ``holder`` is a source.  Called only while
        ``holder != message.dst``.
    relay_of:
        ``(coupler, message) -> processor``: which of the coupler's
        targets picks the message up.  Default: the destination if it
        is a target, else the target with the same in-group offset as
        the destination (works for stack-graphs where groups are
        contiguous equal blocks).
    policy:
        Arbitration among same-coupler requests (default: oldest
        injection first, ties by message id -- deterministic).
    disabled_couplers:
        Hyperarc indices that are *dead* (failed OPS couplers).
        Passing this (even an empty set) opts the engine into
        degraded mode: a message routed onto a dead coupler -- or for
        which ``next_coupler`` returns ``-1``, meaning "no surviving
        route" -- is dropped and counted in :class:`SlotStats`, and
        the run still terminates.  Left at ``None`` (the default) the
        behaviour is exactly the historical engine: an out-of-range
        coupler from the router is a loud ``RuntimeError``, never a
        silent drop.
    """

    def __init__(
        self,
        network: DirectedHypergraph,
        next_coupler: Callable[[int, Message], int],
        relay_of: Callable[[int, Message], int] | None = None,
        policy: ArbitrationPolicy | None = None,
        disabled_couplers: frozenset[int] | None = None,
    ) -> None:
        self.network = network
        self.next_coupler = next_coupler
        self.relay_of = relay_of if relay_of is not None else self._default_relay
        self.policy = policy if policy is not None else OldestFirst()
        self._allow_drops = disabled_couplers is not None
        self.disabled_couplers = frozenset(disabled_couplers or ())
        self.messages: list[Message] = []
        #: unsettled messages, in injection order
        self._live: list[Message] = []
        self.slot_log: list[SlotStats] = []
        self.coupler_busy = [0] * network.num_hyperarcs
        self._now = 0

    # ------------------------------------------------------------------
    def _default_relay(self, coupler: int, msg: Message) -> int:
        targets = self.network.hyperarc(coupler).targets
        if msg.dst in targets:
            return msg.dst
        # Same offset within the target block as the destination has in
        # its own block (keeps relays spread across group members).
        return targets[msg.dst % len(targets)]

    # ------------------------------------------------------------------
    def inject(self, traffic: Sequence[tuple[int, int, int]]) -> None:
        """Add messages: ``(src, dst, inject_slot)`` triples.

        Raises ``ValueError`` naming the triple when a processor id is
        out of range or the slot is already past; nothing of the batch
        is injected then.
        """
        batch = new_messages(
            traffic, len(self.messages), self.network.num_nodes, self._now
        )
        self.messages.extend(batch)
        self._live.extend(batch)

    def run(self, max_slots: int = 100_000) -> None:
        """Advance slots until every message is settled (or the cap).

        Settled means delivered, or dropped on a dead coupler.  Raises
        :class:`SlotCapError` (a ``RuntimeError``) on the cap -- a stuck
        message means a routing bug or too small a cap, and silence
        would hide either.
        """
        while self._live:
            if self._now >= max_slots:
                raise SlotCapError(max_slots, [m.ident for m in self._live])
            self.step()

    def step(self) -> SlotStats:
        """Execute one slot, walking only the unsettled messages."""
        now = self._now
        hyperarcs = self.network.hyperarcs
        next_coupler = self.next_coupler
        disabled = self.disabled_couplers
        # Active messages ask for their next coupler, in injection order;
        # `waiting` keeps every message still unsettled after this pass.
        requests: dict[int, list[Message]] = {}
        waiting: list[Message] = []
        dropped = 0
        for m in self._live:
            if m.inject_slot > now:
                waiting.append(m)
                continue
            current = m.current
            if current == m.dst:
                # delivered at injection (src == dst): zero slots
                m.deliver_slot = now
                continue
            coupler = next_coupler(current, m)
            if coupler < 0 or coupler in disabled:
                if not self._allow_drops:
                    # intact engine: a bad coupler is a routing bug
                    raise RuntimeError(
                        f"routing returned invalid coupler {coupler} "
                        f"for message {m.ident} at {current}"
                    )
                m.drop_slot = now
                dropped += 1
                continue
            if current not in hyperarcs[coupler].sources:
                raise RuntimeError(
                    f"routing returned coupler {coupler} not sourced at {current}"
                )
            requests.setdefault(coupler, []).append(m)
            waiting.append(m)

        contended = 0
        delivered = 0
        pick = self.policy.pick
        relay_of = self.relay_of
        busy = self.coupler_busy
        for coupler, msgs in requests.items():
            # One transmitter per (processor, coupler): a processor
            # holding several messages for one coupler still sends one.
            winner = pick(msgs, now)
            if len(msgs) > 1:
                contended += 1
            busy[coupler] += 1
            relay = relay_of(coupler, winner)
            if relay not in hyperarcs[coupler].targets:
                raise RuntimeError(
                    f"relay {relay} is not a target of coupler {coupler}"
                )
            winner.current = relay
            winner.hops += 1
            winner.trace.append(coupler)
            if relay == winner.dst:
                winner.deliver_slot = now
                delivered += 1

        self._live = (
            [m for m in waiting if m.deliver_slot < 0] if delivered else waiting
        )
        stats = SlotStats(now, len(requests), contended, delivered, dropped)
        self.slot_log.append(stats)
        self._now += 1
        return stats

    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current slot number."""
        return self._now

    def all_delivered(self) -> bool:
        """Whether every injected message has arrived."""
        return all(m.delivered for m in self.messages)

    def all_settled(self) -> bool:
        """Whether every message is delivered or dropped."""
        return not self._live

    def num_dropped(self) -> int:
        """How many messages were dropped on dead couplers."""
        return sum(1 for m in self.messages if m.dropped)

    def verify_conservation(self) -> bool:
        """No message lost or duplicated: every message settled exactly
        once, with hop count == trace length and a coupler-connected
        trace from src to dst (dropped messages are exempt from the
        trace walk but must not also claim delivery)."""
        hyperarcs = self.network.hyperarcs
        for m in self.messages:
            if m.dropped:
                if m.delivered:
                    return False
                continue
            if not m.delivered:
                return False
            if m.hops != len(m.trace):
                return False
            cur = m.src
            for c in m.trace:
                ha = hyperarcs[c]
                if cur not in ha.sources:
                    return False
                targets = ha.targets
                # the relay recorded by the run is implicit; re-walk via dst
                cur = m.dst if m.dst in targets else targets[m.dst % len(targets)]
            if cur != m.dst:
                return False
        return True
