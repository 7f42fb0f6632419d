"""Built-in family registrations: pops, sk, sii, sops.

Each :func:`~repro.core.registry.register_family` block below is the
*complete* wiring of one topology into the toolkit -- constructor,
router, simulator, optical design, parameter schema and equal-``N``
enumerator.  Adding a fifth family means writing one more block like
these, and every facade entry point, CLI subcommand and comparison
table picks it up automatically.

The routers all return :class:`~repro.routing.stack_routing.StackRoute`
hop lists in optical-design coordinates (``(group, mux)`` couplers and
transmitter ports), so a route can be replayed against the design's
:meth:`trace` regardless of family.

Stack-Kautz alone overrides the degraded-mode hooks.  Its
``fault_route`` looks a pair's Sec. 2.5 candidates up in a per-``(d,
k)`` :class:`CandidateTable`; its ``route_lengths`` scores a whole
stack of views from the table's array index: every pair starts at its
first candidate's length, and only the pairs whose first candidate a
fault touches are re-checked.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..graphs.kautz import kautz_num_nodes
from ..networks.design import (
    POPSDesign,
    StackImaseItohDesign,
    StackKautzDesign,
)
from ..networks.pops import POPSNetwork
from ..networks.single_ops import SingleOPSDesign, SingleOPSNetwork, single_ops_simulator
from ..networks.stack_imase_itoh import StackImaseItohNetwork
from ..networks.stack_kautz import StackKautzNetwork
from ..routing.stack_routing import StackHop, StackRoute, stack_kautz_route
from .registry import NetworkFamily, register_family
from .spec import NetworkSpec, Param

__all__ = [
    "POPSFamily",
    "StackKautzFamily",
    "StackImaseItohFamily",
    "SingleOPSFamily",
]


def _ii_hop(d: int, n: int, u: int, v: int) -> StackHop:
    """The design-coordinate hop for base arc ``u -> v`` of ``II+(d, n)``.

    ``u == v`` is the dedicated loop coupler (mux ``d``, port 0); other
    arcs resolve their multiplexer from the Imase-Itoh offset.
    """
    if u == v:
        return StackHop(u, u, mux=d, tx_port=0, is_loop=True)
    a = (-d * u - v) % n
    if not 1 <= a <= d:
        raise ValueError(f"group {v} is not an Imase-Itoh successor of {u}")
    m = a - 1
    return StackHop(u, v, mux=m, tx_port=d - m, is_loop=False)


@lru_cache(maxsize=64)
def _ii_routing_table(d: int, n: int):
    """Exact next-hop table over the loopless ``II(d, n)`` base graph."""
    from ..routing.tables import build_routing_table

    base = StackImaseItohNetwork(1, d, n).base_graph()
    return build_routing_table(base.without_loops())


class CandidateTable:
    """The Sec. 2.5 candidates of ``KG(d, k)``, compiled per group pair.

    :attr:`links` numbers the undirected non-loop links of the base
    graph densely, in arc order, under either orientation, so a link
    mask has at most ``groups * d`` bits.  :meth:`candidates` compiles
    one ordered pair from
    :func:`~repro.routing.fault_tolerant.candidate_paths` itself, in
    its order, the first time that pair is asked for; the entry is a
    tuple of ``(internal, links, path)`` triples -- a bitmask of the
    candidate's internal groups, a bitmask of the links it crosses, and
    its group path -- never mutated once stored.  A candidate survives
    a scenario when both masks miss :meth:`fault_masks`.

    The array side serves whole stacks of views.  A fault *atom* is a
    group ``w`` (id ``w``) or a link ``l`` (id ``groups + l``);
    :meth:`first_routes` indexes every pair's first candidate by the
    atoms it passes, and :meth:`reroute` checks the pairs a stack's
    dead atoms touch against their candidates as arrays
    (:meth:`candidate_row`).
    """

    def __init__(self, d: int, k: int) -> None:
        self._net = StackKautzNetwork(1, d, k)
        self._arcs = self._net.base_graph().arc_array().tolist()
        self.links: dict[tuple[int, int], int] = {}
        for u, v in self._arcs:
            if u != v and (u, v) not in self.links:
                self.links[u, v] = self.links[v, u] = len(self.links) // 2
        g = self._net.num_groups
        #: atom count: groups, then links; this id is the open pad and
        #: the next one the always-dead pad
        self.atoms = g + len(self.links) // 2
        # coupler (hyperarc) -> the atom of its link; the open pad for loops
        self._coupler_atoms = np.array(
            [g + self.links[u, v] if u != v else self.atoms for u, v in self._arcs],
            dtype=np.int64,
        )
        # a candidate has at most 1 + d + d * d alternatives (candidate_paths'
        # depths 0, 1 and 2) and at most k + 1 internal groups and k + 2 links
        self._shape = (1 + d + d * d, 2 * k + 3)
        self._pairs: dict[tuple[int, int], tuple] = {}
        self._rows: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._first: tuple | None = None

    def fault_masks(self, groups, couplers) -> tuple[int, int]:
        """Dead ``groups`` and ``couplers`` (hyperarc ids) as bitmasks.

        The meaning of ``FaultSet.from_indices`` plus ``blocks_arc``:
        loop couplers carry no link, and a dead coupler blocks its link
        in both orientations.
        """
        group_mask = link_mask = 0
        for g in groups:
            group_mask |= 1 << g
        for c in couplers:
            u, v = self._arcs[c]
            if u != v:
                link_mask |= 1 << self.links[u, v]
        return group_mask, link_mask

    def candidates(
        self, src_group: int, dst_group: int
    ) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
        """The compiled candidates of ``src_group -> dst_group``."""
        key = (src_group, dst_group)
        entry = self._pairs.get(key)
        if entry is None:
            # an entry is a pure function of (d, k, pair): threads racing
            # on a miss compile equal tuples and setdefault keeps the
            # first -- no lock that a forked pool worker could inherit held
            entry = self._pairs.setdefault(key, self._compile(*key))
        return entry

    def first_routes(self) -> tuple[np.ndarray, tuple, tuple]:
        """``(lengths, by_group, by_link)`` of every pair's first candidate.

        The first candidate is the label-induced route of Sec. 2.5, the
        unique shortest path (a walk of length ``L <= k`` from ``x`` to
        ``y`` shifts in ``y``'s last ``L`` letters), so ``lengths`` is
        the read-only ``(g, g)`` intact group distance matrix, and the
        routes come from one walk of all pairs at once along the next
        hop one step closer.  ``by_group`` and ``by_link`` are CSR
        ``(indptr, pairs)`` arrays: the pairs, as flat indices ``u * g +
        v`` in ascending order, whose first candidate has group ``w`` as
        an internal group are ``pairs[indptr[w]:indptr[w + 1]]``, and
        likewise for the links it crosses.  A fault outside those lists
        leaves the pair on its first candidate.  Built once; both CSR
        halves are views of one ``indptr``/``pairs`` pair indexed by
        atom.
        """
        lengths, indptr, ids = self._atom_index()
        g = len(lengths)
        return lengths, (indptr[: g + 1], ids), (indptr[g:], ids)

    def _atom_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(lengths, indptr, pairs)``: :meth:`first_routes` by atom id."""
        if self._first is None:
            from ..resilience.degrade import group_distances

            g = self._net.num_groups
            arcs = np.asarray(self._arcs, dtype=np.int64)
            adj = np.zeros((g, g), dtype=bool)
            adj[arcs[:, 0], arcs[:, 1]] = True
            lengths = group_distances(adj)
            # each group's successors, ascending; every group has d of them
            out = arcs[arcs[:, 0] != arcs[:, 1]]
            succ = out[np.lexsort(out.T[::-1])][:, 1].reshape(g, -1)
            closer = lengths[succ] == lengths[:, None, :] - 1
            step_to = succ[np.arange(g)[:, None], closer.argmax(axis=1)]
            link_atom = np.full((g, g), -1, dtype=np.int64)
            link_atom[arcs[:, 0], arcs[:, 1]] = self._coupler_atoms
            # walk every pair's route at once, recording (atom, pair)
            pair = np.flatnonzero(lengths > 0)
            cur, dst = np.divmod(pair, g)
            atoms, pairs = [], []
            while pair.size:
                nxt = step_to[cur, dst]
                atoms.append(link_atom[cur, nxt])
                pairs.append(pair)
                inner = nxt != dst
                cur, dst, pair = nxt[inner], dst[inner], pair[inner]
                atoms.append(cur)
                pairs.append(pair)
            key = np.sort(np.concatenate(atoms) * g * g + np.concatenate(pairs))
            indptr = np.zeros(self.atoms + 1, dtype=np.int64)
            np.cumsum(np.bincount(key // (g * g), minlength=self.atoms), out=indptr[1:])
            ids = key % (g * g)
            for array in (lengths, indptr, ids):
                array.flags.writeable = False
            # published whole, in one assignment: threads share the table
            self._first = (lengths, indptr, ids)
        return self._first

    def reroute(
        self, alive: np.ndarray, dead_couplers: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The pairs a stack's faults touch, on their candidates.

        ``alive`` is a ``(B, g)`` stack's surviving processors per group
        and ``dead_couplers`` its ``(B, m)`` effective dead couplers (a
        :class:`~repro.resilience.degrade.ViewStack`'s).  Returns
        ``(rows, pairs, lengths)``: each touched ``(row, pair)`` of two
        live groups, ascending, and the length of its first candidate
        that misses the row's dead groups and dead links (``-1``: every
        candidate is blocked).  The touched pairs come from one CSR
        gather and one :func:`numpy.unique`.
        """
        views, g = alive.shape
        dead = np.zeros((views, self.atoms + 2), dtype=bool)
        dead[:, :g] = alive == 0
        row, coupler = np.nonzero(dead_couplers)
        dead[row, self._coupler_atoms[coupler]] = True
        dead[:, self.atoms] = False  # loop couplers carry no link
        dead[:, -1] = True
        _, indptr, ids = self._atom_index()
        row, atom = np.nonzero(dead[:, : self.atoms])
        start, count = indptr[atom], indptr[atom + 1] - indptr[atom]
        offset = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
        key = np.unique(np.repeat(row, count) * g * g + ids[np.repeat(start, count) + offset])
        row, pair = np.divmod(key, g * g)
        src, dst = np.divmod(pair, g)
        live = ~(dead[row, src] | dead[row, dst])
        row, pair = row[live], pair[live]
        out = np.full(row.size, -1, dtype=np.int64)
        if not row.size:
            return row, pair, out
        pairs, which = np.unique(pair, return_inverse=True)
        atoms, lengths = map(np.stack, zip(*map(self.candidate_row, pairs.tolist())))
        todo = np.arange(row.size)
        for j in range(self._shape[0]):  # first open candidate, in order
            blocked = dead[row[todo, None], atoms[which[todo], j]].any(axis=1)
            done = todo[~blocked]
            out[done] = lengths[which[done], j]
            todo = todo[blocked]
            if not todo.size:
                break
        return row, pair, out

    def candidate_row(self, pair: int) -> tuple[np.ndarray, np.ndarray]:
        """``(atoms, lengths)`` of the candidates of flat pair id ``pair``.

        ``atoms[j]`` lists the atoms candidate ``j`` passes (its
        internal groups, then its links), padded with the open pad
        :attr:`atoms`; ``lengths[j]`` is its hop count.  Rows past the
        last candidate hold the always-dead pad ``atoms + 1`` and
        length ``-1``.  Compiled from :meth:`candidates` the first time
        the pair is asked for, and published whole (read-only).
        """
        row = self._rows.get(pair)
        if row is not None:
            return row
        g = self._net.num_groups
        atoms = np.full(self._shape, self.atoms + 1, dtype=np.int64)
        lengths = np.full(self._shape[0], -1, dtype=np.int64)
        for j, (_, _, path) in enumerate(self.candidates(*divmod(pair, g))):
            ids = [*path[1:-1], *(g + self.links[arc] for arc in zip(path, path[1:]))]
            atoms[j] = self.atoms
            atoms[j, : len(ids)] = ids
            lengths[j] = len(path) - 1
        atoms.flags.writeable = lengths.flags.writeable = False
        return self._rows.setdefault(pair, (atoms, lengths))

    def _compile(self, src_group: int, dst_group: int) -> tuple:
        from ..routing.fault_tolerant import candidate_paths

        net = self._net
        out = []
        for words in candidate_paths(
            net.group_word(src_group), net.group_word(dst_group), net.degree
        ):
            path = tuple(net.group_of_word(w) for w in words)
            internal = crossed = 0
            for g in path[1:-1]:
                internal |= 1 << g
            for arc in zip(path, path[1:]):
                crossed |= 1 << self.links[arc]
            out.append((internal, crossed, path))
        return tuple(out)


#: Help strings of the stack-Kautz route counters (worker registry).
_REROUTES_HELP = "Live group pairs a view's faults touched, re-checked on their candidates"
_FALLBACKS_HELP = "Touched group pairs with every candidate blocked (word-level BFS)"


@lru_cache(maxsize=16)
def candidate_table(d: int, k: int) -> CandidateTable:
    """The per-process :class:`CandidateTable` of ``KG(d, k)``.

    Keyed by ``(d, k)`` alone, like the base graph: the candidate
    family does not depend on the stacking factor.  Bounded more
    tightly than the base-graph cache because a fully routed table on
    a large machine holds tens of MB; an evicted table is recompiled
    pair by pair, never slower than building the family per route.
    """
    return CandidateTable(d, k)


@register_family
class POPSFamily(NetworkFamily):
    """Single-hop ``POPS(t, g)`` (paper Sec. 2.4, Figs. 4-5, 11)."""

    key = "pops"
    title = "partitioned optical passive star POPS(t, g)"
    params = (
        Param("t", "processors per group (== coupler degree)"),
        Param("g", "number of groups"),
    )
    network_type = POPSNetwork
    aliases = ("partitioned-ops",)
    coupler_kind = "POPS"

    def construct(self, t: int, g: int) -> POPSNetwork:
        return POPSNetwork(t, g)

    def route(self, net: POPSNetwork, src: int, dst: int) -> StackRoute:
        if src == dst:
            return StackRoute(src, dst, ())
        i, j = net.route(src, dst)
        g = net.num_groups
        # Sec. 3.1 port convention: transmitter port j (toward group j)
        # feeds multiplexer g-1-j of the group transmit block.
        hop = StackHop(
            i,
            j,
            mux=g - 1 - j,
            tx_port=net.transmitter_port(src, dst),
            is_loop=i == j,
        )
        return StackRoute(src, dst, (hop,))

    def simulator(self, net: POPSNetwork, policy=None):
        from ..simulation.network_sim import pops_simulator

        return pops_simulator(net, policy)

    def design(self, t: int, g: int) -> POPSDesign:
        return POPSDesign(t, g)

    def sizes(self, target_n: int):
        for g in range(1, target_n + 1):
            if target_n % g == 0:
                yield NetworkSpec("pops", (target_n // g, g))


@register_family
class StackKautzFamily(NetworkFamily):
    """Multi-hop ``SK(s, d, k)`` (paper Sec. 2.7, Definition 4, Fig. 12)."""

    key = "sk"
    title = "stack-Kautz SK(s, d, k)"
    params = (
        Param("s", "stacking factor (processors per group)"),
        Param("d", "Kautz degree"),
        Param("k", "Kautz diameter"),
    )
    network_type = StackKautzNetwork
    aliases = ("stack-kautz", "stackkautz")
    coupler_kind = "Kautz"

    def construct(self, s: int, d: int, k: int) -> StackKautzNetwork:
        return StackKautzNetwork(s, d, k)

    def route(self, net: StackKautzNetwork, src: int, dst: int) -> StackRoute:
        return stack_kautz_route(net, src, dst)

    def fault_route(
        self, net: StackKautzNetwork, src_group: int, dst_group: int, degraded
    ) -> list[int] | None:
        """Sec. 2.5 structured rerouting: the ``<= k + 2`` candidates.

        A table lookup: a new list holding the first of the pair's
        compiled candidates (:func:`candidate_table`, once per
        ``(d, k)`` per process) whose internal groups and crossed links
        miss ``degraded.word_fault_masks()``.  When every candidate is
        blocked, :meth:`_blocked_route`.
        """
        if src_group == dst_group:
            return [src_group]
        dead_groups, dead_links = degraded.word_fault_masks()
        table = candidate_table(net.degree, net.diameter)
        for internal, crossed, path in table.candidates(src_group, dst_group):
            if not (internal & dead_groups or crossed & dead_links):
                return list(path)
        return self._blocked_route(net, src_group, dst_group, degraded)

    def _blocked_route(self, net, src_group: int, dst_group: int, degraded):
        """The route of a pair whose every candidate is blocked.

        The word-level BFS of
        :func:`~repro.routing.fault_tolerant.fault_tolerant_route` over
        ``degraded.word_fault_set()``, whose link-fault semantics treat
        a dead coupler as a dead fiber pair; when that conservative view
        severs the pair, the registry default -- directed BFS on the
        survivors.
        """
        from ..routing.fault_tolerant import fault_tolerant_route

        path = fault_tolerant_route(
            net.group_word(src_group),
            net.group_word(dst_group),
            net.degree,
            degraded.word_fault_set(),
        )
        if path is not None:
            return [net.group_of_word(w) for w in path]
        return super().fault_route(net, src_group, dst_group, degraded)

    def route_lengths(self, net: StackKautzNetwork, stack) -> np.ndarray:
        """:meth:`fault_route` lengths of every pair of every view of a stack.

        Starts each view from the first candidates' lengths
        (:meth:`CandidateTable.first_routes`).  The pairs whose first
        candidate passes a dead group or crosses a dead link of a view,
        and that have no dead endpoint, are checked against their
        candidates as arrays (:meth:`CandidateTable.reroute`); only a
        pair with every candidate blocked takes :meth:`_blocked_route`
        on its view.  Counts both under
        ``repro_route_reroutes_total`` and
        ``repro_route_fallbacks_total`` in the worker registry.
        Returns a new ``(B, g, g)`` array.
        """
        from ..obs.metrics import worker_registry

        table = candidate_table(net.degree, net.diameter)
        lengths = table.first_routes()[0]
        views, g = stack.alive.shape
        row, pair, found = table.reroute(stack.alive, stack.dead_couplers)
        blocked = np.flatnonzero(found < 0).tolist()
        for i in blocked:
            u, v = divmod(int(pair[i]), g)
            path = self._blocked_route(net, u, v, stack.views[row[i]])
            found[i] = -1 if path is None else len(path) - 1
        out = np.broadcast_to(lengths, (views, g, g)).copy()
        out.reshape(views, g * g)[row, pair] = found
        registry, labels = worker_registry(), {"family": self.key}
        registry.counter("repro_route_reroutes_total", _REROUTES_HELP, labels).inc(
            len(row)
        )
        registry.counter("repro_route_fallbacks_total", _FALLBACKS_HELP, labels).inc(
            len(blocked)
        )
        return out

    def simulator(self, net: StackKautzNetwork, policy=None):
        from ..simulation.network_sim import stack_kautz_simulator

        return stack_kautz_simulator(net, policy)

    def design(self, s: int, d: int, k: int) -> StackKautzDesign:
        return StackKautzDesign(s, d, k)

    def sizes(self, target_n: int):
        for d in range(2, 8):
            for k in range(1, 8):
                groups = kautz_num_nodes(d, k)
                if groups > target_n:
                    break
                if target_n % groups == 0:
                    yield NetworkSpec("sk", (target_n // groups, d, k))

    def candidate_specs(self, *, max_processors: int, min_processors: int = 2):
        """Direct ``(s, d, k)`` enumeration -- same set as the default
        :meth:`~repro.core.registry.NetworkFamily.candidate_specs`
        window scan (``d`` in 2..7, ``k`` in 1..7), without testing
        every ``N`` for divisibility by every group count."""
        for d in range(2, 8):
            for k in range(1, 8):
                groups = kautz_num_nodes(d, k)
                if groups > max_processors:
                    break
                for s in range(1, max_processors // groups + 1):
                    if s * groups >= min_processors:
                        yield NetworkSpec("sk", (s, d, k))


@register_family
class StackImaseItohFamily(NetworkFamily):
    """Any-size ``SII(s, d, n)`` -- the end-of-Sec.-2.7 extension."""

    key = "sii"
    title = "stack-Imase-Itoh SII(s, d, n)"
    params = (
        Param("s", "stacking factor (processors per group)"),
        Param("d", "Imase-Itoh degree", minimum=2),
        Param("n", "number of groups"),
    )
    network_type = StackImaseItohNetwork
    aliases = ("stack-imase-itoh", "stack-ii")
    coupler_kind = "Imase-Itoh"

    def construct(self, s: int, d: int, n: int) -> StackImaseItohNetwork:
        return StackImaseItohNetwork(s, d, n)

    def route(self, net: StackImaseItohNetwork, src: int, dst: int) -> StackRoute:
        d, n = net.degree, net.num_groups
        xs, _ = net.label_of(src)
        xd, _ = net.label_of(dst)
        if src == dst:
            return StackRoute(src, dst, ())
        if xs == xd:
            return StackRoute(src, dst, (_ii_hop(d, n, xs, xs),))
        table = _ii_routing_table(d, n)
        groups = [xs]
        while groups[-1] != xd:
            nxt = table.next_hop(groups[-1], xd)
            if nxt < 0:
                raise ValueError(
                    f"II({d},{n}) cannot route group {xs} -> {xd}"
                )
            groups.append(int(nxt))
        hops = tuple(_ii_hop(d, n, u, v) for u, v in zip(groups, groups[1:]))
        return StackRoute(src, dst, hops)

    def simulator(self, net: StackImaseItohNetwork, policy=None):
        from ..simulation.network_sim import stack_imase_itoh_simulator

        return stack_imase_itoh_simulator(net, policy)

    def design(self, s: int, d: int, n: int) -> StackImaseItohDesign:
        return StackImaseItohDesign(s, d, n)

    def sizes(self, target_n: int):
        for d in (2, 3):
            for n in range(d + 1, target_n + 1):
                if target_n % n == 0:
                    yield NetworkSpec("sii", (target_n // n, d, n))


@register_family
class SingleOPSFamily(NetworkFamily):
    """The single-OPS baseline ``sops(n)`` the paper argues against."""

    key = "sops"
    title = "single-OPS SingleOPS(n)"
    params = (Param("n", "number of processors sharing the one star"),)
    network_type = SingleOPSNetwork
    aliases = ("single-ops", "singleops",)
    coupler_kind = "star"

    def construct(self, n: int) -> SingleOPSNetwork:
        return SingleOPSNetwork(n)

    def route(self, net: SingleOPSNetwork, src: int, dst: int) -> StackRoute:
        net.label_of(src)
        net.label_of(dst)
        if src == dst:
            return StackRoute(src, dst, ())
        hop = StackHop(0, 0, mux=0, tx_port=0, is_loop=False)
        return StackRoute(src, dst, (hop,))

    def simulator(self, net: SingleOPSNetwork, policy=None):
        return single_ops_simulator(net, policy)

    def design(self, n: int) -> SingleOPSDesign:
        return SingleOPSDesign(n)

    def sizes(self, target_n: int):
        yield NetworkSpec("sops", (target_n,))
