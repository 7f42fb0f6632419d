"""Spec-keyed build caches for long-lived sessions.

Every facade verb used to re-parse its spec, rebuild the network and
recompute derived views on every call.  A :class:`SpecCache` keeps one
:class:`CacheEntry` per canonical spec string -- the built network plus
lazily-computed expensive views (the optical design, the vectorized
sweep's topology arrays, BFS routing tables, intact-baseline
simulation metrics) -- under an LRU bound with explicit
:meth:`~SpecCache.invalidate`.  :class:`~repro.core.session.Session`
owns one; the module-level facade verbs share the default session's.

Determinism note: everything cached here is a pure function of the
canonical spec (networks are frozen after construction), so a cache
hit returns byte-identical results to a cold rebuild -- caching is a
latency optimization, never a semantic one.

Thread safety: get-or-build (:meth:`~SpecCache.entry`), invalidation,
the candidate-window memo and the stats snapshot all serialize on one
internal lock, so a cache shared by server worker threads never builds
a spec twice concurrently and never tears an LRU update.  The views
hanging off a :class:`CacheEntry` (design, arrays, routing table,
baselines) materialize outside that lock; racing threads may build one
view twice, but both builds are pure functions of the spec, so either
result is correct and one simply wins.

>>> cache = SpecCache(maxsize=2)
>>> cache.network("pops(2,2)") is cache.network("pops(2,2)")
True
>>> cache.stats.hits, cache.stats.misses
(1, 1)
>>> _ = cache.network("sops(4)"); _ = cache.network("sk(2,2,2)")
>>> "pops(2,2)" in cache  # evicted: LRU bound is 2
False
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from ..obs.metrics import REGISTRY
from ..obs.trace import span
from .spec import NetworkSpec

_CACHE_OPS_HELP = "Spec-cache lookups by outcome"

__all__ = ["CacheEntry", "CacheStats", "SpecCache"]


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one :class:`SpecCache`.

    ``candidate_hits``/``candidate_misses`` count the design-search
    candidate-window memo (:meth:`SpecCache.candidate_specs`), kept
    separate from the spec-entry counters so a warm search window
    never masquerades as build-cache traffic.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    candidate_hits: int = 0
    candidate_misses: int = 0

    def as_dict(self) -> dict[str, int]:
        """JSON-ready counter view."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "candidate_hits": self.candidate_hits,
            "candidate_misses": self.candidate_misses,
        }


class CacheEntry:
    """One cached spec: the built network plus lazy derived views.

    The network is built eagerly (an entry that exists is an entry
    that builds); the expensive derived views -- optical design,
    vectorized topology arrays, the BFS routing table and per-workload
    intact baselines -- materialize on first use and stick to the
    entry for its cache lifetime.
    """

    __slots__ = ("spec", "network", "_design", "_arrays", "_table", "_baselines")

    def __init__(self, spec: NetworkSpec) -> None:
        self.spec = spec
        self.network = spec.build()
        self._design = None
        self._arrays = None
        self._table = None
        self._baselines: dict[tuple, float] = {}

    @property
    def canonical(self) -> str:
        """The entry's cache key, ``family(p1,p2,...)``."""
        return self.spec.canonical()

    def design(self):
        """The spec's optical design, built once."""
        if self._design is None:
            self._design = self.spec.design()
        return self._design

    def arrays(self):
        """The vectorized sweep backend's flat topology arrays.

        One :class:`~repro.resilience.sweep._TopologyArrays` export per
        entry; repeated vectorized sweeps and temporal replays (which
        score their trace segments on the same kernel) on the same spec
        skip the re-export entirely.
        """
        if self._arrays is None:
            from ..resilience.sweep import _TopologyArrays

            self._arrays = _TopologyArrays.from_network(self.network)
        return self._arrays

    def routing_table(self):
        """The all-pairs BFS next-hop table over the group digraph.

        Uses the network's base digraph when it has one (stack
        families, POPS); single-OPS machines get the group digraph
        derived from their coupler endpoints.
        """
        if self._table is None:
            from ..routing.tables import build_routing_table

            if hasattr(self.network, "base_graph"):
                graph = self.network.base_graph()
            else:
                from ..graphs.digraph import DiGraph
                from ..resilience.faults import coupler_endpoints

                graph = DiGraph(
                    self.network.num_groups,
                    sorted(set(coupler_endpoints(self.network))),
                )
            self._table = build_routing_table(graph)
        return self._table

    def baseline(
        self,
        *,
        workload: str = "uniform",
        messages: int = 60,
        seed: int = 0,
        max_slots: int = 100_000,
    ) -> float:
        """Intact-network mean latency for one workload configuration.

        The number ``metrics="full"`` sweeps normalize latency
        inflation against; it depends only on ``(workload, messages,
        seed, max_slots)``, so it is computed once per configuration
        per entry instead of once per sweep call.
        """
        key = (workload, messages, seed, max_slots)
        if key not in self._baselines:
            from ..resilience.sweep import _intact_baseline

            self._baselines[key] = _intact_baseline(
                self.network,
                self.spec.family,
                workload=workload,
                messages=messages,
                seed=seed,
                max_slots=max_slots,
            )
        return self._baselines[key]


class SpecCache:
    """LRU cache of :class:`CacheEntry` keyed by canonical spec string.

    ``maxsize`` bounds the number of simultaneously-held built
    networks; the least recently used entry is evicted first.
    :meth:`invalidate` drops one spec (or everything) explicitly.

    All public methods are thread-safe: get-or-build is atomic under
    an internal :class:`threading.RLock` (concurrent requests for the
    same spec build it exactly once), as are invalidation, the
    candidate-window memo and :meth:`stats_dict`.
    """

    #: Most candidate-enumeration windows memoized at once (LRU).
    CANDIDATE_MEMO = 8

    def __init__(self, maxsize: int = 32) -> None:
        if maxsize < 1:
            raise ValueError(f"cache maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.stats = CacheStats()
        self._entries: OrderedDict[str, CacheEntry] = OrderedDict()
        self._candidates: OrderedDict[tuple, list] = OrderedDict()
        self._lock = threading.RLock()

    def entry(self, spec) -> CacheEntry:
        """The (possibly fresh) entry for ``spec``; hits refresh LRU order."""
        parsed = NetworkSpec.parse(spec)
        key = parsed.canonical()
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self.stats.hits += 1
                self._entries.move_to_end(key)
                REGISTRY.counter(
                    "repro_cache_ops_total", _CACHE_OPS_HELP,
                    {"outcome": "hit"},
                ).inc()
                return cached
            self.stats.misses += 1
            REGISTRY.counter(
                "repro_cache_ops_total", _CACHE_OPS_HELP,
                {"outcome": "miss"},
            ).inc()
            with span("cache.build", spec=key):
                fresh = CacheEntry(parsed)
            while len(self._entries) >= self.maxsize:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
                REGISTRY.counter(
                    "repro_cache_ops_total", _CACHE_OPS_HELP,
                    {"outcome": "eviction"},
                ).inc()
            self._entries[key] = fresh
            return fresh

    def network(self, spec):
        """The built network for ``spec`` (cached)."""
        return self.entry(spec).network

    def candidate_specs(
        self,
        *,
        max_processors: int,
        min_processors: int = 2,
        families=None,
    ) -> list:
        """Memoized design-search candidate enumeration for one window.

        Same contract as
        :func:`~repro.design_search.search.enumerate_candidates`
        (which performs the actual enumeration on a miss); the result
        for a ``(families, min, max)`` window is kept under a small
        LRU so repeated searches over the same window skip the
        family-by-family size scan.  Counted separately in
        :class:`CacheStats` as ``candidate_hits``/``candidate_misses``.
        """
        key = (
            None if families is None else tuple(families),
            min_processors,
            max_processors,
        )
        with self._lock:
            cached = self._candidates.get(key)
            if cached is not None:
                self.stats.candidate_hits += 1
                self._candidates.move_to_end(key)
                return list(cached)
            self.stats.candidate_misses += 1
        from ..design_search.search import enumerate_candidates

        specs = enumerate_candidates(
            max_processors=max_processors,
            min_processors=min_processors,
            families=families,
        )
        with self._lock:
            while len(self._candidates) >= self.CANDIDATE_MEMO:
                self._candidates.popitem(last=False)
            self._candidates[key] = specs
        return list(specs)

    def invalidate(self, spec=None) -> int:
        """Drop one spec's entry (or all entries); returns the count dropped.

        Invalidation never changes results -- entries are pure
        functions of the spec -- it just releases memory and forces
        the next call to rebuild.  Dropping everything also clears the
        candidate-window memo.
        """
        with self._lock:
            if spec is None:
                dropped = len(self._entries)
                self._entries.clear()
                self._candidates.clear()
                return dropped
            key = NetworkSpec.parse(spec).canonical()
            return 1 if self._entries.pop(key, None) is not None else 0

    def stats_dict(self) -> dict[str, int]:
        """Atomic snapshot of the counters plus size/maxsize (JSON-ready)."""
        with self._lock:
            return {
                **self.stats.as_dict(),
                "size": len(self._entries),
                "maxsize": self.maxsize,
            }

    def keys(self) -> tuple[str, ...]:
        """Currently cached canonical specs, LRU-oldest first."""
        with self._lock:
            return tuple(self._entries)

    def __contains__(self, spec) -> bool:
        try:
            key = NetworkSpec.parse(spec).canonical()
        except Exception:
            return False
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
