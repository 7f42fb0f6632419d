"""One traffic list on many degraded views of a machine, as one array pass.

A ``full`` sweep runs the same traffic on every degraded trial of a
chunk.  :class:`StackedSimulator` carries all of them at once: each
view's copy of each message is one row of flat columns (view, ident,
src, dst, inject slot, holder, hops, deliver slot, drop slot, plus a
``(rows, hops)`` coupler trace), and a slot is a few numpy operations
over the rows still in flight.  The rules are the scalar
:class:`~repro.simulation.engine.SlottedSimulator`'s under its default
:class:`~repro.simulation.protocol.OldestFirst` arbitration, with the
routing and relays :class:`~repro.resilience.degrade.DegradedNetwork`
wires into it:

* a message held by its destination is delivered (a self-addressed
  message, at its injection slot);
* a message with a dead endpoint, no route (``-1``) or a dead coupler
  ahead is dropped;
* each ``(view, coupler)`` carries its oldest request, ties going to
  the lowest message id;
* the relay is the destination when it is among the coupler's
  surviving targets, else the surviving target at the destination's
  offset.

Every check of the scalar path stays, and raises what the scalar path
raises: out-of-range and past-slot injections (``ValueError``), the
slot cap (:class:`~repro.simulation.engine.SlotCapError`), a coupler not
sourced at its holder, a relay off its coupler's targets, a coupler
with no surviving target, and the conservation re-walk
(:meth:`StackedSimulator.verify_conservation`).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ..hypergraphs.hypergraph import DirectedHypergraph
from .engine import SlotCapError, check_message

__all__ = ["CouplerTables", "StackedSimulator"]

@dataclass(frozen=True)
class CouplerTables:
    """A hypergraph's couplers as arrays, shared by every view of it.

    ``groups`` maps processor -> group; ``sources`` and ``is_target``
    are ``(couplers, n + 1)`` incidence masks, and ``targets`` lists
    each coupler's targets in hyperarc order, padded with ``n`` (whose
    mask column is all false).  ``source_csr`` and ``target_csr``, the
    ``(indptr, processors)`` incidence of each coupler, ascending, are
    derived from the masks, so :func:`dataclasses.replace` keeps them
    in step.
    """

    groups: np.ndarray  # (n,) int64
    sources: np.ndarray
    is_target: np.ndarray
    targets: np.ndarray  # (couplers, width) int64
    source_csr: tuple = field(init=False, repr=False, compare=False)
    target_csr: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n, m = len(self.groups), len(self.sources)
        for name, mask in (("source_csr", self.sources), ("target_csr", self.is_target)):
            coupler, member = np.nonzero(mask[:, :n])
            indptr = np.zeros(m + 1, dtype=np.int64)
            np.cumsum(np.bincount(coupler, minlength=m), out=indptr[1:])
            object.__setattr__(self, name, (indptr, member))

    @classmethod
    def from_hypergraph(cls, model: DirectedHypergraph, groups) -> "CouplerTables":
        """Export ``model``'s incidence, with its processor -> group map."""
        n, hyperarcs = model.num_nodes, model.hyperarcs
        width = max([1] + [len(ha.targets) for ha in hyperarcs])
        targets = np.full((len(hyperarcs), width), n, dtype=np.int64)
        sources = np.zeros((len(hyperarcs), n + 1), dtype=bool)
        is_target = sources.copy()
        for c, ha in enumerate(hyperarcs):
            targets[c, : len(ha.targets)] = ha.targets
            sources[c, list(ha.sources)] = is_target[c, list(ha.targets)] = True
        return cls(np.asarray(groups, dtype=np.int64), sources, is_target, targets)


class StackedSimulator:
    """One traffic list on ``B`` degraded views of one hypergraph.

    Parameters
    ----------
    tables:
        The hypergraph's :class:`CouplerTables`.
    next_hops:
        ``(B, g, g)`` coupler from a holder group towards a destination
        group, per view; ``-1`` drops the message.
    dead_processors, dead_couplers:
        ``(B, n)`` and ``(B, m)`` boolean effective dead sets per view.
    traffic:
        ``(src, dst, inject_slot)`` triples, injected into every view
        at slot 0.  Row ``b * M + i`` is message ``i`` of view ``b``.

    A slot reads its tables through 1-D gathers: flat next hops, dead
    couplers, ``(view, coupler)`` cells and coupler tables.
    """

    def __init__(
        self, tables: CouplerTables, next_hops: np.ndarray, dead_processors: np.ndarray,
        dead_couplers: np.ndarray, traffic: Sequence[tuple[int, int, int]],
    ) -> None:
        for src, dst, slot in traffic:
            check_message(src, dst, slot, len(tables.groups), 0)
        triples = np.asarray(traffic, dtype=np.int64).reshape(-1, 3)
        views, count = len(next_hops), len(triples)
        m, g = len(tables.sources), next_hops.shape[1]
        self.tables, self.next_hops, self.num_messages = tables, next_hops, count
        self._next_flat = np.ascontiguousarray(next_hops).reshape(-1)
        self._sources, self._is_target, self._targets = (
            np.ravel(a) for a in (tables.sources, tables.is_target, tables.targets)
        )
        # one padding column each, always dead: processor n last, and
        # coupler -1 first, so row b's coupler c is flat b * (m + 1) + c + 1
        self._dead_processors = np.pad(dead_processors, ((0, 0), (0, 1)),
                                       constant_values=True)
        self._dead_flat = np.pad(dead_couplers, ((0, 0), (1, 0)),
                                 constant_values=True).reshape(-1)
        self.view = np.repeat(np.arange(views), count)
        self.ident = np.tile(np.arange(count), views)
        self.src, self.dst, self.inject_slot = np.tile(triples.T, views)
        self.holder = self.src.copy()
        self.hops = np.zeros_like(self.src)
        self.deliver_slot = np.full_like(self.src, -1)
        self.drop_slot = np.full_like(self.src, -1)
        #: couplers used, hop by hop; -1 past a row's last hop
        self.trace = np.full((views * count, 4), -1, dtype=np.int64)
        ends = np.stack([self.src, self.dst], axis=1)
        self._lost = self._dead_processors[self.view[:, None], ends].any(axis=1)
        #: a row's next hop is _next_flat[_route[row] + _group_row[holder]]
        self._route = self.view * (g * g) + tables.groups[self.dst]
        self._group_row = tables.groups * g
        # (view, coupler) cells whose relay needs the live-target
        # count: a target died, or no target is alive at all
        listed = tables.targets < len(tables.groups)
        counts = listed.sum(axis=1)
        alive = (listed & ~self._dead_processors[:, tables.targets]).sum(axis=2)
        self._dirty = (alive < counts) | (alive == 0)
        self._intact_counts = np.maximum(counts, 1)
        #: inject slots span [0, _slots): the winner sort key's radix
        self._slots = int(triples[:, 2].max(initial=0)) + 1
        #: the narrowest unsigned type of a winner key (16 bits and
        #: less sort by radix)
        self._key_type = np.min_scalar_type(max(views * m * self._slots - 1, 0))
        #: unsettled rows, ascending (view-major, then injection order)
        self._live = np.arange(views * count)
        self._open = np.ones(views * count, dtype=bool)
        self._waiting = bool((triples[:, 2] > 0).any())
        self._now = 0

    def run(self, max_slots: int = 100_000) -> None:
        """Advance slots until every row is settled (or the cap).

        The cap raises :class:`SlotCapError` naming the first view that
        still has unsettled messages, as that view's scalar run would.
        """
        while self._live.size:
            if self._now >= max_slots:
                live = self._live
                first = self.view[live] == self.view[live[0]]
                raise SlotCapError(max_slots, self.ident[live[first]].tolist())
            self.step()

    def step(self) -> None:
        """Execute one slot of every view."""
        now, live, tables = self._now, self._live, self.tables
        m, stride = tables.sources.shape
        if self._waiting:
            live = live[self.inject_slot[live] <= now]
            self._waiting = live.size < self._live.size
        holder, dst = self.holder[live], self.dst[live]
        home = holder == dst
        if home.any():  # delivered at injection (src == dst): zero slots
            self.deliver_slot[live[home]] = now
            self._open[live[home]] = False
            live, holder, dst = live[~home], holder[~home], dst[~home]
        view = self.view[live]
        coupler = self._next_flat[self._route[live] + self._group_row[holder]]
        coupler[self._lost[live]] = -1
        keep = ~self._dead_flat[view * (m + 1) + coupler + 1]  # -1: the dead padding
        if not keep.all():
            dropped = live[~keep]
            self.drop_slot[dropped] = now
            self._open[dropped] = False
            live, holder, dst, view, coupler = (
                a[keep] for a in (live, holder, dst, view, coupler)
            )
        sourced = self._sources[coupler * stride + holder]
        if not sourced.all():
            i = np.argmin(sourced)
            raise RuntimeError(
                f"routing returned coupler {coupler[i]} not sourced at {holder[i]}"
            )
        win = self._winners(view * m + coupler, live)
        rows, coupler, dst = live[win], coupler[win], dst[win]
        relay = self._relay(view[win], coupler, dst)
        hops = self.hops[rows] + 1
        self.hops[rows] = hops
        if hops.size and hops.max() > self.trace.shape[1]:
            self.trace = np.pad(self.trace, ((0, 0), (0, hops.max())), constant_values=-1)
        self.trace[rows, hops - 1] = coupler
        self.holder[rows] = relay
        arrived = rows[relay == dst]
        self.deliver_slot[arrived] = now
        self._open[arrived] = False
        self._live = self._live[self._open[self._live]]
        self._now += 1

    def _winners(self, cell, live) -> np.ndarray:
        """Positions in ``live`` of each ``(view, coupler)`` cell's winner.

        The oldest request, ties going to the lowest message id: live
        rows ascend by id within a view (and ``cell`` names the view),
        so one stable sort on ``(cell, inject slot)`` keeps that
        tie-break.  Ascending by cell.
        """
        key = cell * self._slots + self.inject_slot[live]
        order = np.argsort(key.astype(self._key_type), kind="stable")
        cell = cell[order]
        first = np.ones(order.size, dtype=bool)
        first[1:] = cell[1:] != cell[:-1]
        return order[first]

    def _relay(self, view, coupler, dst) -> np.ndarray:
        """``dst`` if the coupler reaches it, else the live target at its offset.

        On a ``(view, coupler)`` cell with every target alive that is
        the intact target at the offset, one gather; only dirty cells
        count their live targets.
        """
        tables = self.tables
        (m, stride), width = tables.sources.shape, tables.targets.shape[1]
        direct = self._is_target[coupler * stride + dst]
        offset = dst % self._intact_counts[coupler]
        relay = np.where(direct, dst, self._targets[coupler * width + offset])
        slow = np.flatnonzero(self._dirty.reshape(-1)[view * m + coupler] & ~direct)
        if slow.size:
            row = tables.targets[coupler[slow]]
            alive = ~self._dead_processors[view[slow, None], row]
            count = alive.sum(axis=1)
            if not (count > 0).all():
                i = slow[np.argmin(count > 0)]
                raise RuntimeError(f"coupler {coupler[i]} has no surviving targets")
            offset = dst[slow] % count
            pos = (np.cumsum(alive, axis=1) > offset[:, None]).argmax(axis=1)
            relay[slow] = row[np.arange(slow.size), pos]
        listed = self._is_target[coupler * stride + relay]
        if not listed.all():
            i = np.argmin(listed)
            raise RuntimeError(
                f"relay {relay[i]} is not a target of coupler {coupler[i]}"
            )
        return relay

    def verify_conservation(self) -> bool:
        """No message lost or duplicated, in one pass over the trace columns.

        As :meth:`SlottedSimulator.verify_conservation
        <repro.simulation.engine.SlottedSimulator.verify_conservation>`:
        every row settled exactly once, and each delivered row has as
        many trace entries as hops and re-walks from ``src`` to ``dst``
        over its couplers' intact targets.  Hop ``h`` walks only the
        rows with more than ``h`` hops.
        """
        delivered = self.deliver_slot >= 0
        if (delivered == (self.drop_slot >= 0)).any():  # neither, or both
            return False
        rows = np.flatnonzero(delivered)
        hops = self.hops[rows]
        if ((self.trace >= 0).sum(axis=1)[rows] != hops).any():
            return False
        tables, cur, dst = self.tables, self.src[rows], self.dst[rows]
        (_, stride), width = tables.sources.shape, tables.targets.shape[1]
        counts = np.maximum(tables.is_target.sum(axis=1), 1)
        trace, span = self.trace.reshape(-1), self.trace.shape[1]
        on = np.flatnonzero(hops)  # rows still hopping
        for h in range(span):
            on = on[hops[on] > h]
            if not on.size:
                break
            coupler, at, to = trace[rows[on] * span + h], cur[on], dst[on]
            if not self._sources[coupler * stride + at].all():
                return False
            intact = self._targets[coupler * width + to % counts[coupler]]
            cur[on] = np.where(self._is_target[coupler * stride + to], to, intact)
        return bool((cur == dst).all())

    def outcomes(self) -> list[tuple[float, int, float, int]]:
        """``(delivery_ratio, dropped, mean_latency, slots)`` of each view.

        As :func:`~repro.simulation.metrics.summarize` reports a settled
        run: integer latency sums divided once by the delivered count,
        and a view's ``slots`` is its last settle slot plus one (0
        without messages).
        """
        total, shape = self.num_messages, (len(self.next_hops), self.num_messages)
        deliver = self.deliver_slot.reshape(shape)
        arrived = (deliver >= 0).sum(axis=1).tolist()
        lag = np.where(deliver >= 0, deliver - self.inject_slot.reshape(shape), 0)
        settle = np.maximum(deliver, self.drop_slot.reshape(shape))
        slots = (settle.max(axis=1, initial=-1) + 1).tolist()
        return [
            (k / total if total else 1.0, total - k, lat / k if k else 0.0, s)
            for k, lat, s in zip(arrived, lag.sum(axis=1).tolist(), slots)
        ]
