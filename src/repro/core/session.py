"""`Session`: the long-lived engine behind every facade verb.

The module-level verbs (:func:`repro.build`, :func:`repro.simulate`,
:func:`repro.resilience_sweep`, ...) are stateless by signature but no
longer by implementation: each delegates to a shared *default session*
so repeated queries against the same machine stop paying cold-start
cost.  A :class:`Session` owns

* a **spec-keyed build cache** (:class:`~repro.core.cache.SpecCache`):
  canonical spec string -> built network plus lazily-computed views
  (optical design, vectorized topology arrays, routing tables,
  intact-baseline metrics), LRU-bounded with explicit
  :meth:`~Session.invalidate`;
* **persistent worker pools**
  (:class:`~repro.resilience.sweep.PersistentSweepExecutor`, one per
  worker count): sweeps, temporal replays, experiments and design
  searches reuse one lazily-started ``multiprocessing`` pool across
  calls, workers re-initializing their per-process trial context only
  when the plan changes.

Caching is a latency optimization only: every session method returns
**byte-identical** output to the stateless module-level path for the
same arguments and seed, at any worker count.

>>> from repro.core.session import Session
>>> with Session() as s:
...     n1 = s.build("sk(6,3,2)")
...     n2 = s.build("sk(6,3,2)")       # cache hit: same object
...     hit = n1 is n2
>>> hit
True
"""

from __future__ import annotations

import atexit
import threading

from .cache import SpecCache
from .registry import get_family

__all__ = ["Session", "default_session", "reset_default_session"]

#: Sentinel distinguishing "caller did not pass workers" (use the
#: session default) from an explicit ``workers=None`` (run inline).
_UNSET = object()


class Session:
    """A long-lived facade engine: spec-keyed caches + persistent pools.

    Parameters
    ----------
    cache_size : int, optional
        LRU bound on simultaneously cached built networks (default
        32).
    workers : int, optional
        Default ``multiprocessing`` worker count for sweep-shaped
        calls when the call itself does not pass ``workers``
        (``None``, the default, runs inline -- exactly the module-verb
        default).

    Examples
    --------
    >>> s = Session()
    >>> s.describe("pops(4,2)")["processors"]
    8
    >>> s.resilience_sweep("pops(2,2)", trials=3,
    ...                    metrics="connectivity").trials
    3
    >>> s.close()
    """

    def __init__(self, *, cache_size: int = 32, workers: int | None = None):
        self._cache = SpecCache(maxsize=cache_size)
        self._workers = workers
        self._executors: dict[int, object] = {}
        self._executor_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    @property
    def cache(self) -> SpecCache:
        """The session's spec-keyed build cache."""
        return self._cache

    def cache_stats(self) -> dict[str, int]:
        """Hit/miss/eviction counters plus current size (JSON-ready).

        Includes the design-search candidate-window memo counters
        (``candidate_hits``/``candidate_misses``); the snapshot is
        taken atomically, so concurrent readers never see a torn view.
        """
        return self._cache.stats_dict()

    def invalidate(self, spec=None) -> int:
        """Drop one spec's cache entry (or all); returns the count dropped.

        Cached state is a pure function of the spec, so this only
        releases memory / forces rebuilds -- results never change.
        """
        self._check_open()
        return self._cache.invalidate(spec)

    def close(self, *, terminate: bool = False) -> None:
        """Shut down every pool and drop the cache (idempotent).

        ``terminate=True`` kills pool workers instead of draining them
        -- the signal-handler teardown path (SIGINT/SIGTERM), where
        waiting on a pool that may hold an interrupted task would hang
        or spray ``BrokenProcessPool`` noise.
        """
        self._closed = True
        with self._executor_lock:
            executors, self._executors = self._executors, {}
        for executor in executors.values():
            executor.close(terminate=terminate)
        self._cache.invalidate()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("session is closed")

    def _effective_workers(self, workers):
        return self._workers if workers is _UNSET else workers

    def _executor_for(self, workers):
        """The persistent executor for one worker count (lazily built).

        Guarded by a lock so concurrent server threads asking for the
        same worker count share ONE executor (and thus one pool)
        instead of racing two into existence.
        """
        from ..resilience.sweep import PersistentSweepExecutor

        key = workers if workers is not None and workers > 1 else 0
        with self._executor_lock:
            executor = self._executors.get(key)
            if executor is None:
                executor = PersistentSweepExecutor(workers=key or None)
                self._executors[key] = executor
            return executor

    @property
    def pools_started(self) -> int:
        """How many persistent pools currently exist (for introspection)."""
        with self._executor_lock:
            return sum(1 for e in self._executors.values() if e.pool_started)

    # ------------------------------------------------------------------
    # Light verbs: build / design / route / simulate / describe / sweep
    # ------------------------------------------------------------------
    def build(self, spec):
        """The built network for ``spec`` (see :func:`repro.build`), cached."""
        self._check_open()
        return self._cache.network(spec)

    def design(self, spec):
        """The optical design for ``spec`` (see :func:`repro.design`), cached."""
        self._check_open()
        return self._cache.entry(spec).design()

    def routing_table(self, spec):
        """The cached all-pairs BFS next-hop table over ``spec``'s base graph."""
        self._check_open()
        return self._cache.entry(spec).routing_table()

    def route(self, spec, src: int, dst: int):
        """Route ``src -> dst`` on ``spec`` (see :func:`repro.route`)."""
        self._check_open()
        entry = self._cache.entry(spec)
        net = entry.network
        n = net.num_processors
        for name, value in (("src", src), ("dst", dst)):
            if not 0 <= value < n:
                raise IndexError(
                    f"{name} processor {value} out of range [0, {n}) "
                    f"for {entry.spec}"
                )
        return get_family(entry.spec.family).route(net, src, dst)

    def simulate(
        self,
        spec,
        workload="uniform",
        *,
        messages: int = 200,
        seed: int = 0,
        policy=None,
        max_slots: int = 100_000,
        **workload_options,
    ):
        """Run ``workload`` on ``spec`` (see :func:`repro.simulate`)."""
        self._check_open()
        from ..simulation.network_sim import run_traffic
        from .workloads import resolve_workload

        entry = self._cache.entry(spec)
        net = entry.network
        traffic = resolve_workload(
            workload, net, messages=messages, seed=seed, **workload_options
        )
        sim = get_family(entry.spec.family).simulator(net, policy)
        return run_traffic(sim, traffic, max_slots=max_slots)

    def describe(self, spec) -> dict[str, object]:
        """Shape summary of ``spec`` (see :func:`repro.describe`)."""
        self._check_open()
        entry = self._cache.entry(spec)
        net = entry.network
        return {
            "spec": entry.canonical,
            "family": entry.spec.family,
            "params": entry.spec.params_dict(),
            "processors": net.num_processors,
            "groups": net.num_groups,
            "couplers": net.num_couplers,
            "coupler_degree": net.coupler_degree,
            "processor_degree": net.processor_degree,
            "diameter": net.diameter,
        }

    def sweep(
        self,
        specs,
        workloads=("uniform", "permutation"),
        *,
        messages: int = 200,
        seed: int = 0,
        policy=None,
        max_slots: int = 100_000,
        **workload_options,
    ):
        """The specs x workloads matrix (see :func:`repro.sweep`)."""
        self._check_open()
        from ..simulation.network_sim import run_traffic
        from .facade import SweepCell, SweepResult
        from .workloads import resolve_workload

        entries = [self._cache.entry(s) for s in specs]
        workloads = list(workloads)
        names = [
            w if isinstance(w, str) else getattr(w, "__name__", repr(w))
            for w in workloads
        ]
        cells = []
        for entry in entries:
            net = entry.network
            family = get_family(entry.spec.family)
            for wname, w in zip(names, workloads):
                traffic = resolve_workload(
                    w, net, messages=messages, seed=seed, **workload_options
                )
                report = run_traffic(
                    family.simulator(net, policy), traffic, max_slots=max_slots
                )
                cells.append(
                    SweepCell(
                        spec=entry.canonical,
                        workload=wname,
                        processors=net.num_processors,
                        messages=report.num_messages,
                        slots=report.slots,
                        mean_latency=report.mean_latency,
                        p95_latency=report.p95_latency,
                        max_latency=report.max_latency,
                        mean_hops=report.mean_hops,
                        throughput=report.throughput,
                        coupler_utilization=report.coupler_utilization,
                    )
                )
        return SweepResult(tuple(cells))

    # ------------------------------------------------------------------
    # Resilience verbs: degrade / resilience_sweep / design_search
    # ------------------------------------------------------------------
    def degrade(
        self,
        spec,
        *,
        model="coupler",
        faults: int | None = None,
        seed: int = 0,
        scenario=None,
    ):
        """Fault-injected view of ``spec`` (see :func:`repro.degrade`)."""
        self._check_open()
        from ..resilience.degrade import DegradedNetwork
        from ..resilience.faults import resolve_fault_model

        entry = self._cache.entry(spec)
        net = entry.network
        if scenario is None:
            model = resolve_fault_model(model, faults)
            scenario = model.scenario(entry.canonical, net, seed)
        return DegradedNetwork(net, scenario)

    def resilience_sweep(self, spec, *, workers=_UNSET, **params):
        """Monte-Carlo survivability sweep (see :func:`repro.resilience_sweep`).

        ``**params`` are the fields of one
        :class:`~repro.resilience.sweep.SweepRequest`.  Warm calls reuse
        the cached built network, topology arrays, intact baseline and
        the persistent worker pool; the summary is byte-identical to a
        cold module-level
        :func:`~repro.resilience.sweep.survivability_sweep`.
        """
        from ..resilience.sweep import SweepRequest

        return self.run_sweep(spec, SweepRequest(**params), workers=workers)

    def run_sweep(self, spec, request, *, workers=_UNSET):
        """Run one ``(spec, request)`` pair on the session's caches and pool.

        ``request`` is a :class:`~repro.resilience.sweep.SweepRequest`
        (a survivability sweep) or a
        :class:`~repro.temporal.replay.TemporalRequest` (a temporal
        replay).
        """
        self._check_open()
        from ..resilience.sweep import survivability_sweep
        from ..temporal.replay import TemporalRequest

        entry = self._cache.entry(spec)
        executor = self._executor_for(self._effective_workers(workers))
        if isinstance(request, TemporalRequest):
            return self._run_temporal(entry, request, executor)
        return survivability_sweep(
            entry.spec,
            request,
            _net=entry.network,
            _baseline=entry.baseline,
            _arrays=entry.arrays,
            _executor=executor,
        )

    def temporal_sweep(self, spec, *, workers=_UNSET, **params):
        """Replay a fault process over time (see :func:`repro.temporal_sweep`).

        ``**params`` are the fields of one
        :class:`~repro.temporal.replay.TemporalRequest`.  Warm calls
        reuse the cached built network and the persistent worker pool
        that sweeps use; the summary is byte-identical at any worker
        count.
        """
        from ..temporal.replay import TemporalRequest

        return self.run_sweep(
            spec, TemporalRequest(**params), workers=workers
        )

    def _run_temporal(self, entry, request, executor):
        """One temporal replay of a cached spec on ``executor``."""
        from ..obs.metrics import REGISTRY
        from ..obs.trace import span
        from ..temporal.replay import (
            execute_temporal,
            prepare_temporal_sweep,
            summarize_temporal,
        )

        trials = request.trials
        with span("temporal.prepare", spec=entry.canonical, trials=trials,
                  horizon=request.horizon):
            prepared = prepare_temporal_sweep(
                entry.spec, request, _net=entry.network
            )
        with span("temporal.execute", spec=entry.canonical, trials=trials,
                  workers=executor.workers):
            rows = execute_temporal(prepared, _executor=executor)
        REGISTRY.counter(
            "repro_temporal_trials_total",
            "Temporal replay trials executed.",
            {"metrics": request.metrics},
        ).inc(len(rows))
        if prepared.skipped:
            REGISTRY.counter(
                "repro_temporal_skips_total",
                "Temporal sweeps skipped by max_faults capacity accounting.",
                {"process": request.process.key},
            ).inc()
        with span("temporal.summarize", spec=entry.canonical, trials=trials):
            return summarize_temporal(prepared, rows)

    def pooled_survivability_sweeps(self, requests, *, workers=_UNSET):
        """Many sweeps on one persistent pool (request-order summaries).

        Session form of
        :func:`~repro.resilience.sweep.pooled_survivability_sweeps`;
        summaries are byte-identical to it for the same requests.
        """
        self._check_open()
        from ..resilience.sweep import pooled_survivability_sweeps

        executor = self._executor_for(self._effective_workers(workers))
        return pooled_survivability_sweeps(requests, executor=executor)

    def design_search(self, *, workers=_UNSET, **kwargs):
        """Survivability-per-cost search (see :func:`repro.design_search`).

        Candidate sweeps run on the session's persistent executor, and
        candidate *enumeration* is memoized per (families, window) in
        the session cache -- repeated searches over the same window
        skip the family size scan (``candidate_hits`` in
        :meth:`cache_stats`).  The ranked table is byte-identical to
        the module-level search.
        """
        self._check_open()
        from ..design_search.search import design_search as _search

        effective = self._effective_workers(workers)
        return _search(
            workers=effective,
            _executor=self._executor_for(effective),
            _enumerator=self._cache.candidate_specs,
            **kwargs,
        )

    # ------------------------------------------------------------------
    # Experiments: the declarative plan/execute/report pipeline
    # ------------------------------------------------------------------
    def experiment(self, specs, *, workers=_UNSET, **plan):
        """Declare and run an :class:`~repro.core.experiment.Experiment`.

        Convenience wrapper: builds the frozen plan object from
        ``specs`` and the other plan fields and hands it to
        :meth:`run_experiment`.
        """
        from .experiment import Experiment

        return self.run_experiment(
            Experiment(specs=specs, **plan), workers=workers
        )

    def run_experiment(self, experiment, *, workers=_UNSET):
        """Execute one compiled experiment plan on the session's pool.

        Frozen-model and fault-process cells are scheduled together on
        the one executor; every cell's summary is byte-identical to
        :meth:`run_sweep` on that cell's ``(spec, request)`` pair.
        """
        self._check_open()
        from dataclasses import replace

        from ..obs.trace import span
        from ..resilience.sweep import _prepare_sweep, _summarize
        from ..temporal.replay import (
            TemporalRequest,
            prepare_temporal_sweep,
            summarize_temporal,
        )
        from .experiment import ExperimentResult

        cells = experiment.compile()
        executor = self._executor_for(self._effective_workers(workers))
        prepared_list = []
        arrays_list = []
        with span("experiment.prepare", cells=len(cells)):
            for spec, cell in cells:
                entry = self._cache.entry(spec)
                arrays = None
                if isinstance(cell, TemporalRequest):
                    prepared = prepare_temporal_sweep(
                        entry.spec, cell, _net=entry.network
                    )
                else:
                    prepared = _prepare_sweep(
                        entry.spec, cell, net=entry.network,
                        baseline=entry.baseline,
                    )
                    if (
                        prepared.plan.backend == "vectorized"
                        and not executor.parallel
                    ):
                        arrays = entry.arrays()
                if executor.parallel:
                    prepared = replace(prepared, net=None)
                prepared_list.append(prepared)
                arrays_list.append(arrays)
        with span("experiment.execute", cells=len(cells)):
            if experiment.ci_target is not None:
                # adaptive cells need per-wave stop decisions, so a
                # grid with ci_target runs cell-by-cell on the shared
                # pool (same bytes, no cross-cell chunk interleaving)
                rows_lists = [
                    executor.run(prepared, arrays=arrays)
                    for prepared, arrays in zip(prepared_list, arrays_list)
                ]
            else:
                rows_lists = executor.run_many(
                    prepared_list, arrays_list=arrays_list
                )
        with span("experiment.summarize", cells=len(cells)):
            summaries = [
                summarize_temporal(prepared, rows)
                if isinstance(cell, TemporalRequest)
                else _summarize(prepared, rows)
                for (_, cell), prepared, rows in zip(
                    cells, prepared_list, rows_lists
                )
            ]
        return ExperimentResult(
            experiment=experiment,
            cells=tuple(
                experiment.cell_result(cell, summary)
                for (_, cell), summary in zip(cells, summaries)
            ),
        )


# ----------------------------------------------------------------------
# The default session behind the module-level facade verbs.
# ----------------------------------------------------------------------
_default_session: Session | None = None


def default_session() -> Session:
    """The shared session the module-level facade verbs delegate to.

    Created on first use (and re-created if someone closed it), so
    plain ``repro.build(...)`` / ``repro.resilience_sweep(...)`` users
    get warm caches and pool reuse without ever seeing a session
    object.
    """
    global _default_session
    if _default_session is None or _default_session.closed:
        _default_session = Session()
    return _default_session


def reset_default_session(*, terminate: bool = False) -> None:
    """Close and forget the default session (pools shut down, cache dropped).

    The next facade-verb call starts a cold one; useful for tests and
    the CLI's non-reuse batch mode.  ``terminate=True`` kills pool
    workers instead of draining them (signal-handler teardown).
    """
    global _default_session
    if _default_session is not None:
        _default_session.close(terminate=terminate)
    _default_session = None


atexit.register(reset_default_session)
