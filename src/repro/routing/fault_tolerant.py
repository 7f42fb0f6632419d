"""Fault-tolerant Kautz routing (Sec. 2.5, after Imase-Soneoka-Okada [17]).

The paper: label-induced routing "can be extended to generate a path of
length at most k + 2 which survives d - 1 link or node faults".  The
substance behind the claim is that ``KG(d, k)`` is maximally connected
(``d`` node-disjoint paths between distinct nodes) with wide-diameter
close to ``k + 2``.

This module provides:

* :class:`FaultSet` -- a set of failed nodes and arcs (words);
* :func:`candidate_paths` -- a structured family of alternative routes:
  the greedy path, the ``d`` one-step detours through each first hop,
  and the two-step detours, all completed greedily; lengths are
  bounded by ``k``, ``k+1`` and ``k+2`` respectively;
* :func:`fault_tolerant_route` -- first fault-free candidate in length
  order, falling back to BFS on the surviving subgraph (the fallback
  also certifies *dis*connection when no route exists);
* :func:`route_survives` -- predicate used by the benchmarks to measure
  the ``d-1``-fault guarantee empirically (benchmark CLM-5 sweeps
  exhaustive and randomized fault sets).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass, field

from ..graphs.kautz import is_kautz_word
from .kautz_routing import kautz_route

Word = tuple[int, ...]

__all__ = [
    "FaultSet",
    "candidate_paths",
    "fault_tolerant_route",
    "route_survives",
]


@dataclass(frozen=True)
class FaultSet:
    """Failed nodes and arcs, in Kautz-word coordinates.

    A path is *blocked* if any internal node (endpoints excluded --
    source and destination are assumed alive) or any traversed arc is
    in the set.  An arc fault is a *link* fault: the optical fiber
    pair dies as a unit, so a fault listed as ``(a, b)`` blocks
    traversal of both ``a -> b`` and ``b -> a``.
    """

    nodes: frozenset[Word] = field(default_factory=frozenset)
    arcs: frozenset[tuple[Word, Word]] = field(default_factory=frozenset)

    @classmethod
    def of(
        cls,
        nodes: list[Word] | None = None,
        arcs: list[tuple[Word, Word]] | None = None,
    ) -> "FaultSet":
        """Convenience constructor from lists."""
        return cls(
            nodes=frozenset(nodes or ()),
            arcs=frozenset(tuple(a) for a in (arcs or ())),
        )

    @classmethod
    def from_indices(
        cls,
        net,
        groups: "Iterable[int]" = (),
        couplers: "Iterable[int]" = (),
    ) -> "FaultSet":
        """Word-level faults from integer group / coupler ids.

        The graph-level adapter shared with :mod:`repro.resilience`:
        ``net`` is a built stack-Kautz network (anything exposing
        ``group_word`` and ``base_graph``), ``groups`` are base-graph
        node ids whose whole group failed, and ``couplers`` are
        hyperarc indices (== base-graph CSR arc indices) of failed
        couplers.  Loop couplers have no word-level arc -- their
        failure only affects sibling delivery, not group routing -- so
        they are dropped here.

        >>> from repro.networks.stack_kautz import StackKautzNetwork
        >>> net = StackKautzNetwork(2, 2, 2)
        >>> fs = FaultSet.from_indices(net, groups=[0])
        >>> fs.nodes == frozenset({net.group_word(0)})
        True
        """
        nodes = frozenset(net.group_word(int(g)) for g in groups)
        arc_array = net.base_graph().arc_array()
        arcs = set()
        for c in couplers:
            u, v = (int(x) for x in arc_array[int(c)])
            if u == v:
                continue
            arcs.add((net.group_word(u), net.group_word(v)))
        return cls(nodes=nodes, arcs=frozenset(arcs))

    @property
    def size(self) -> int:
        """Total number of faults."""
        return len(self.nodes) + len(self.arcs)

    def blocks_arc(self, a: Word, b: Word) -> bool:
        """Whether traversing ``a -> b`` crosses a faulted link.

        Checks both orientation forms: a link fault listed as
        ``(b, a)`` still kills the ``a -> b`` direction.
        """
        return (a, b) in self.arcs or (b, a) in self.arcs

    def blocks(self, path: list[Word]) -> bool:
        """Whether the path crosses any fault (endpoints exempt for nodes)."""
        for w in path[1:-1]:
            if w in self.nodes:
                return True
        for a, b in zip(path, path[1:]):
            if self.blocks_arc(a, b):
                return True
        return False


def _neighbors(w: Word, d: int) -> list[Word]:
    return [w[1:] + (z,) for z in range(d + 1) if z != w[-1]]


def candidate_paths(x: Word, y: Word, d: int) -> list[list[Word]]:
    """Structured alternative routes from ``x`` to ``y``, shortest first.

    * depth 0: the greedy label-induced route (length <= k);
    * depth 1: for each neighbor ``w`` of ``x``, ``x -> w`` + greedy
      (length <= k + 1);
    * depth 2: for each neighbor ``w`` and each neighbor ``w2`` of
      ``w``, ``x -> w -> w2`` + greedy (length <= k + 2).

    Simple paths only (cycles dropped), deduplicated, sorted by length.
    The family always contains paths through all ``d`` distinct first
    hops, which is what fault tolerance needs.  It does not depend on
    the faults, so the stack-Kautz ``fault_route`` hook compiles it once
    per ``(d, k)`` and group pair
    (:class:`~repro.core.families.CandidateTable`).
    """
    if not is_kautz_word(x, d) or not is_kautz_word(y, d):
        raise ValueError(f"{x!r} or {y!r} is not a Kautz word over {{0..{d}}}")
    if len(x) != len(y):
        raise ValueError("source and destination words must have equal length")
    paths: list[list[Word]] = []
    seen: set[tuple[Word, ...]] = set()

    def add(prefix: list[Word]) -> None:
        tail = kautz_route(prefix[-1], y, d)
        path = prefix + tail[1:]
        if len(set(path)) != len(path):
            return  # revisits a node: not a simple path
        key = tuple(path)
        if key not in seen:
            seen.add(key)
            paths.append(path)

    if x == y:
        return [[x]]
    add([x])
    for w in _neighbors(x, d):
        if w == y:
            add([x, w])
            continue
        add([x, w])
        for w2 in _neighbors(w, d):
            if w2 == x:
                continue
            if w2 == y:
                add([x, w, w2])
                continue
            add([x, w, w2])
    paths.sort(key=len)
    return paths


def fault_tolerant_route(
    x: Word,
    y: Word,
    d: int,
    faults: FaultSet,
    max_length: int | None = None,
) -> list[Word] | None:
    """A fault-free route ``x -> y``, preferring the structured candidates.

    Tries :func:`candidate_paths` in length order; when all are
    blocked, runs BFS on the surviving subgraph.  Returns ``None`` only
    when the faults disconnect ``y`` from ``x`` (or every surviving
    path exceeds ``max_length``, when given).

    With at most ``d - 1`` faults the returned path has length at most
    ``k + 2`` in every instance we have swept (benchmark CLM-5);
    ``max_length = k + 2`` turns that expectation into a hard check.
    """
    if x in faults.nodes or y in faults.nodes:
        raise ValueError("source and destination must be fault-free")
    if x == y:
        return [x]
    for path in candidate_paths(x, y, d):
        if not faults.blocks(path):
            if max_length is None or len(path) - 1 <= max_length:
                return path
    # BFS fallback over the surviving subgraph.
    parent: dict[Word, Word] = {x: x}
    queue: deque[Word] = deque([x])
    while queue:
        w = queue.popleft()
        for nb in _neighbors(w, d):
            if nb in parent:
                continue
            if faults.blocks_arc(w, nb):
                continue
            if nb in faults.nodes and nb != y:
                continue
            parent[nb] = w
            if nb == y:
                path = [nb]
                while path[-1] != x:
                    path.append(parent[path[-1]])
                path.reverse()
                if max_length is not None and len(path) - 1 > max_length:
                    return None
                return path
            queue.append(nb)
    return None


def route_survives(
    x: Word,
    y: Word,
    d: int,
    faults: FaultSet,
    max_length: int,
) -> bool:
    """Whether some fault-free route of length <= ``max_length`` exists.

    The empirical form of the paper's ``k + 2`` claim: with
    ``faults.size <= d - 1`` and ``max_length = k + 2``, this should
    always hold.
    """
    return fault_tolerant_route(x, y, d, faults, max_length=max_length) is not None
