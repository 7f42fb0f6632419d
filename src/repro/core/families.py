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
k)`` :class:`CandidateTable`; its ``route_lengths`` starts every pair
at its first candidate's length and re-routes only the pairs whose
first candidate a fault touches.
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
    :meth:`first_routes` indexes every pair's first candidate, the
    route ``fault_route`` takes unless a fault touches it.
    """

    def __init__(self, d: int, k: int) -> None:
        self._net = StackKautzNetwork(1, d, k)
        self._arcs = self._net.base_graph().arc_array().tolist()
        self.links: dict[tuple[int, int], int] = {}
        for u, v in self._arcs:
            if u != v and (u, v) not in self.links:
                self.links[u, v] = self.links[v, u] = len(self.links) // 2
        self._pairs: dict[tuple[int, int], tuple] = {}
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

        ``lengths`` is the read-only ``(g, g)`` hop count of each
        distinct pair's first candidate (0 on the diagonal);
        ``by_group[w]`` and ``by_link[l]`` are tuples of the pairs, as
        flat indices ``u * g + v``, whose first candidate has ``w`` as
        an internal group or crosses link ``l``.  A fault outside those
        lists leaves the pair on its first candidate.  Built once.
        """
        if self._first is None:
            g = self._net.num_groups
            lengths = np.zeros((g, g), dtype=np.int64)
            by_group: list[list[int]] = [[] for _ in range(g)]
            by_link: list[list[int]] = [[] for _ in range(len(self.links) // 2)]
            for u in range(g):
                for v in range(g):
                    if u != v:
                        path = self.candidates(u, v)[0][2]
                        lengths[u, v] = len(path) - 1
                        for w in path[1:-1]:
                            by_group[w].append(u * g + v)
                        for arc in zip(path, path[1:]):
                            by_link[self.links[arc]].append(u * g + v)
            lengths.flags.writeable = False
            # published whole, in one assignment: threads share the table
            self._first = (
                lengths, tuple(map(tuple, by_group)), tuple(map(tuple, by_link))
            )
        return self._first

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
        blocked it falls back to the word-level BFS of
        :func:`~repro.routing.fault_tolerant.fault_tolerant_route` over
        ``degraded.word_fault_set()``, whose link-fault semantics treat
        a dead coupler as a dead fiber pair; when that conservative view
        severs the pair, to the registry default -- directed BFS on the
        survivors.
        """
        if src_group == dst_group:
            return [src_group]
        dead_groups, dead_links = degraded.word_fault_masks()
        table = candidate_table(net.degree, net.diameter)
        for internal, crossed, path in table.candidates(src_group, dst_group):
            if not (internal & dead_groups or crossed & dead_links):
                return list(path)
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

    def route_lengths(self, net: StackKautzNetwork, degraded) -> np.ndarray:
        """:meth:`fault_route` lengths of every pair, rerouting only what
        a fault touches.

        Starts from the first candidates' lengths
        (:meth:`CandidateTable.first_routes`); a pair whose first
        candidate passes a dead group or crosses a dead link of
        ``degraded.word_fault_masks()`` -- and has no dead endpoint --
        is routed by :meth:`fault_route` itself.  Returns a new array.
        """
        lengths, by_group, by_link = candidate_table(
            net.degree, net.diameter
        ).first_routes()
        out = lengths.copy()
        dead_groups, dead_links = degraded.word_fault_masks()
        touched: set[int] = set()
        for ids, mask in ((by_group, dead_groups), (by_link, dead_links)):
            for i, pairs in enumerate(ids):
                if mask >> i & 1:
                    touched.update(pairs)
        g = len(out)
        for pair in sorted(touched):
            u, v = divmod(pair, g)
            if not (dead_groups >> u & 1 or dead_groups >> v & 1):
                path = self.fault_route(net, u, v, degraded)
                out[u, v] = -1 if path is None else len(path) - 1
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
