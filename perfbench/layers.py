"""Per-layer attribution from outside the program.

:class:`LayerClock` swaps timing wrappers in at the module and class
attributes the program calls its layers through, and takes them out
again; ``src/`` is never edited.  Time is *self* time: a wrapped call
nested inside another wrapped call is subtracted from its caller, so
layer times add up to the wall time they cover.  Counts are outermost
calls only (``StackKautzFamily.fault_route`` falling back to the
generic hook is one route, not two).

A wrapper's own bookkeeping outside its timed window (~1 us a call)
would otherwise land in its caller's self time -- 0.3 s per 10^5-trial
bulk sweep, all in the executor's kernel.  The clock measures that
cost on a no-op once and subtracts it from the caller per wrapped call.

Forked sweep workers inherit whatever wrappers were installed when
their pool started.  They reset the inherited totals on their first
chunk and rewrite ``<dump_dir>/<pid>.json`` after every chunk, so the
parent sums per-pid files read before and after a run.
"""

from __future__ import annotations

import functools
import json
import os
import random
import threading
import time
from collections import defaultdict

#: Layer names; a wrapped call records its self time under one of them.
FAULTS = "faults.sample"
ROUTING = "routing.fault_route"
PATHS = "metrics.paths_self"
CONNECTIVITY = "metrics.connectivity"
DEGRADE = "degrade.build"
SIMULATION = "simulation.run_traffic"
SERIALIZE = "sweep.serialize"
#: the inline executor's own work: trial loop, numpy kernel, rows
RUN = "sweep.run"
#: a pool worker's chunk, outside every other layer
CHUNK = "sweep.chunk"

#: Layers that do trial work (inside ``sweep.run`` or a worker chunk).
TRIAL_LAYERS = (FAULTS, ROUTING, PATHS, CONNECTIVITY, DEGRADE, SIMULATION)
LAYERS = (*TRIAL_LAYERS, SERIALIZE, RUN, CHUNK)


class _ThreadState:
    """One thread's open-call stack and per-layer totals (by layer index).

    Lists indexed by position in :data:`LAYERS` keep the wrapper cheap:
    bulk sweeps make ~3 wrapped calls per trial.
    """

    __slots__ = ("stack", "depth", "seconds", "calls")

    def __init__(self) -> None:
        #: child time accumulated by each open wrapped call
        self.stack: list[float] = []
        self.depth = [0] * len(LAYERS)
        self.seconds = [0.0] * len(LAYERS)
        self.calls = [0] * len(LAYERS)


class _RandomModule:
    """Stands in for ``random`` in one module: only ``Random`` is timed."""

    def __init__(self, module, timed_random) -> None:
        self._module = module
        self.Random = timed_random

    def __getattr__(self, name):
        return getattr(self._module, name)


class LayerClock:
    """Self time and outermost call counts per layer, kept per thread."""

    def __init__(self, dump_dir: str | None = None) -> None:
        self.dump_dir = dump_dir
        self._pid = os.getpid()
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._outside = 0.0  # calibration itself runs uncorrected
        self._outside = self._calibrate()
        self._wrapped = self._wrappers()

    # -- recording ------------------------------------------------------
    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
            return state

    def timed(self, layer: str, fn):
        """``fn`` wrapped to record its self time under ``layer``."""
        perf = time.perf_counter
        state_of = self._state
        i = LAYERS.index(layer)
        outside = self._outside

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = state_of()
            stack, depth = state.stack, state.depth
            if not depth[i]:
                state.calls[i] += 1
            depth[i] += 1
            stack.append(0.0)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                depth[i] -= 1
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed + outside
                state.seconds[i] += elapsed - child

        return wrapper

    def _calibrate(self, calls: int = 20_000) -> float:
        """Seconds a wrapped call costs its caller beyond its timed window."""

        def noop():
            return None

        def loop(fn) -> float:
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            return time.perf_counter() - start

        wrapped = self.timed(RUN, noop)
        best = float("inf")
        for _ in range(5):
            self.reset()
            bare = loop(noop)
            total = loop(wrapped)
            inside = self._state().seconds[LAYERS.index(RUN)]
            best = min(best, (total - bare - inside) / calls)
        self.reset()
        return max(best, 0.0)

    def totals(self) -> dict[str, dict[str, float]]:
        """``{"seconds": {layer: s}, "calls": {layer: n}}`` over all threads."""
        seconds: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        with self._lock:
            states = list(self._states)
        for state in states:
            for layer, value in zip(LAYERS, list(state.seconds)):
                seconds[layer] += value
            for layer, value in zip(LAYERS, list(state.calls)):
                calls[layer] += value
        return {"seconds": dict(seconds), "calls": dict(calls)}

    def reset(self) -> None:
        """Forget every total (a forked worker's inherited state)."""
        with self._lock:
            states = list(self._states)
        for state in states:
            state.stack.clear()
            state.depth[:] = [0] * len(LAYERS)
            state.seconds[:] = [0.0] * len(LAYERS)
            state.calls[:] = [0] * len(LAYERS)

    # -- wrapping -------------------------------------------------------
    def _wrappers(self) -> list[tuple[object, str, object]]:
        """``(owner, attribute, wrapper)`` for every timed entry point."""
        from repro.core.registry import NetworkFamily, family_keys, get_family
        from repro.resilience import degrade, faults, metrics, sweep
        from repro.simulation import network_sim

        timed = self.timed

        def seeded_random(*args):
            return random.Random(*args)

        out = [
            (sweep, "trial_seed", timed(FAULTS, sweep.trial_seed)),
            (sweep, "random", _RandomModule(random, timed(FAULTS, seeded_random))),
            (faults.FaultModel, "scenario", timed(FAULTS, faults.FaultModel.scenario)),
        ]
        for cls in faults.FAULT_MODELS.values():
            if "sample_faults" in vars(cls):
                out.append((cls, "sample_faults", timed(FAULTS, cls.sample_faults)))
        # wrap each class's own fault_route only: a family that inherits
        # the generic hook keeps resolving to the same object as
        # NetworkFamily.fault_route, so the sweep's "overrides
        # fault_route" downgrade test decides exactly as untraced
        families = {NetworkFamily} | {type(get_family(k)) for k in family_keys()}
        for cls in families:
            if "fault_route" in vars(cls):
                out.append((cls, "fault_route", timed(ROUTING, cls.fault_route)))
        for module in (metrics, sweep):
            out.append((module, "path_survival", timed(PATHS, metrics.path_survival)))
            out.append(
                (module, "connectivity_metrics",
                 timed(CONNECTIVITY, metrics.connectivity_metrics))
            )
        out.append(
            (degrade.DegradedNetwork, "__init__",
             timed(DEGRADE, degrade.DegradedNetwork.__init__))
        )
        out.append(
            (network_sim, "run_traffic", timed(SIMULATION, network_sim.run_traffic))
        )
        for name in ("to_json", "as_dict"):
            out.append(
                (sweep.SweepSummary, name,
                 timed(SERIALIZE, getattr(sweep.SweepSummary, name)))
            )

        # a parallel executor's parent only waits; its workers' chunks
        # carry the trial work
        executor = sweep.PersistentSweepExecutor
        original, inline = executor.run, timed(RUN, executor.run)

        def run(self_, *args, **kwargs):
            return (original if self_.parallel else inline)(self_, *args, **kwargs)

        out.append((executor, "run", functools.wraps(executor.run)(run)))
        # the pool pickles chunk functions by name, so a worker resolves
        # this attribute in its own (forked, already wrapped) module
        chunk = timed(CHUNK, sweep._run_persistent_chunk)
        clock = self

        @functools.wraps(sweep._run_persistent_chunk)
        def run_chunk(task):
            if os.getpid() != clock._pid:
                clock.reset()
                clock._pid = os.getpid()
            try:
                return chunk(task)
            finally:
                clock.dump_worker()

        out.append((sweep, "_run_persistent_chunk", run_chunk))
        return out

    def install(self) -> None:
        """Put every wrapper in place (idempotent)."""
        if self._patches:
            return
        for owner, name, wrapper in self._wrapped:
            self._patches.append((owner, name, vars(owner)[name]))
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        """Restore the program's own attributes."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- worker totals --------------------------------------------------
    def dump_worker(self) -> None:
        """Rewrite this worker's cumulative totals (``<pid>.json``)."""
        if self.dump_dir is None:
            return
        path = os.path.join(self.dump_dir, f"{os.getpid()}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(self.totals(), handle)
        os.replace(path + ".tmp", path)

    def worker_totals(self) -> dict[str, dict[str, float]]:
        """The sum of every worker's last dump."""
        total: dict[str, dict[str, float]] = {"seconds": {}, "calls": {}}
        for name in sorted(os.listdir(self.dump_dir)) if self.dump_dir else ():
            if name.endswith(".json"):
                path = os.path.join(self.dump_dir, name)
                with open(path, encoding="utf-8") as handle:
                    total = add_totals(total, json.load(handle))
        return total


def diff_totals(after: dict, before: dict) -> dict[str, dict[str, float]]:
    """``after - before`` of two :meth:`LayerClock.totals` snapshots."""
    return {
        kind: {
            layer: value - before.get(kind, {}).get(layer, 0)
            for layer, value in after.get(kind, {}).items()
        }
        for kind in ("seconds", "calls")
    }


def add_totals(a: dict, b: dict) -> dict[str, dict[str, float]]:
    """Layer-wise sum of two totals snapshots."""
    out: dict[str, dict[str, float]] = {}
    for kind in ("seconds", "calls"):
        merged: dict[str, float] = defaultdict(float)
        for source in (a, b):
            for layer, value in source.get(kind, {}).items():
                merged[layer] += value
        out[kind] = dict(merged)
    return out


def span_seconds(events, names) -> dict[str, float]:
    """Total duration in seconds of the trace events named in ``names``."""
    out = {name: 0.0 for name in names}
    for event in events:
        if event["name"] in out:
            out[event["name"]] += event["dur"] / 1e6
    return out
