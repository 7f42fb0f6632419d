"""Survivability-metrics bugfix pins (PR 8 satellites).

Three regressions, each pinned so it cannot quietly return:

1. ``resolve_workload`` materializes callable/registered workloads --
   a one-shot generator must not be drained by the degraded run and
   leave the intact baseline with empty traffic.
2. ``_sample_masks`` only translates exceptions that originate from
   the array proxy's *missing* surface; a bug inside a fault model's
   own ``sample_faults`` propagates untouched.
3. ``path_survival`` leaves routed pairs whose intact distance is
   undefined (BFS ``-1``) out of the ``mean_stretch`` average instead
   of counting them as stretch 1.0.
"""

import random

import numpy as np
import pytest

import repro
from repro.core.workloads import resolve_workload
from repro.resilience.degrade import DegradedNetwork
from repro.resilience.faults import FaultModel, FaultScenario
from repro.resilience.metrics import measure, path_survival
from repro.resilience.sweep import (
    _ArrayNetworkProxy,
    _SweepPlan,
    _TopologyArrays,
    _VectorContext,
)


# ----------------------------------------------------------------------
# 1. Workload materialization
# ----------------------------------------------------------------------
def _triples(net, *, messages, seed, **_):
    rng = random.Random(seed)
    n = net.num_processors
    return [
        (rng.randrange(n), rng.randrange(n), t) for t in range(messages)
    ]


def _generator_workload(net, *, messages, seed, **_):
    return iter(_triples(net, messages=messages, seed=seed))


class TestWorkloadMaterialization:
    def test_callable_generator_result_is_materialized(self):
        net = repro.build("pops(2,2)")
        traffic = resolve_workload(
            _generator_workload, net, messages=12, seed=4
        )
        assert isinstance(traffic, list)
        assert traffic == _triples(net, messages=12, seed=4)
        # iterating twice sees the same triples -- the old bug left a
        # one-shot iterator here
        assert list(traffic) == list(traffic)

    def test_measure_baseline_survives_generator_workloads(self):
        """Degraded run must not drain the baseline's traffic."""
        net = repro.build("pops(2,2)")
        scenario = FaultScenario("pops(2,2)", "coupler", seed=0)
        from_list = measure(
            DegradedNetwork(net, scenario),
            workload=_triples(net, messages=12, seed=4),
            messages=12,
            seed=4,
        )
        from_generator = measure(
            DegradedNetwork(net, scenario),
            workload=_generator_workload,
            messages=12,
            seed=4,
        )
        assert from_generator.as_dict() == from_list.as_dict()
        assert from_generator.latency_inflation > 0.0

    def test_non_iterable_workload_result_is_named(self):
        net = repro.build("pops(2,2)")
        with pytest.raises(TypeError, match="workload returned int"):
            resolve_workload(
                lambda *a, **k: 7, net, messages=4, seed=0
            )


# ----------------------------------------------------------------------
# 2. Proxy-surface exception translation
# ----------------------------------------------------------------------
class _NeedsMissingSurface(FaultModel):
    """Touches network surface the array proxy does not carry."""

    key = "needs-missing-surface"

    def sample_faults(self, net, rng):
        net.routing_table()  # not part of the proxy's surface
        return set(), set()


class _BuggyAttrModel(FaultModel):
    """AttributeError on a non-proxy object: a genuine model bug."""

    key = "buggy-attr"

    def sample_faults(self, net, rng):
        return {}.no_such_method()


class _BuggyIndexModel(FaultModel):
    """IndexError raised by the model's own code."""

    key = "buggy-index"

    def sample_faults(self, net, rng):
        return ([0][5], set())


class _OutOfRangeLookupModel(FaultModel):
    """IndexError raised *inside* the proxy's ``label_of``."""

    key = "out-of-range-lookup"

    def sample_faults(self, net, rng):
        net.label_of(net.num_processors + 10**6)
        return set(), set()


def _context(model: FaultModel) -> _VectorContext:
    net = repro.build("pops(2,3)")
    plan = _SweepPlan(
        canonical="pops(2,3)",
        model=model,
        seed=0,
        workload="uniform",
        messages=8,
        bound=net.diameter + 2,
        max_slots=1000,
        baseline_mean_latency=None,
        metrics="connectivity",
        backend="vectorized",
    )
    return _VectorContext(plan, _TopologyArrays.from_network(net))


class TestProxySurfaceTranslation:
    def test_missing_surface_is_translated_and_named(self):
        ctx = _context(_NeedsMissingSurface(1))
        with pytest.raises(ValueError, match="backend='batched'") as info:
            ctx._sample_masks(0, 1)
        assert "_NeedsMissingSurface" in str(info.value)

    def test_proxy_internal_index_error_is_translated(self):
        ctx = _context(_OutOfRangeLookupModel(1))
        with pytest.raises(ValueError, match="array proxy"):
            ctx._sample_masks(0, 1)

    def test_model_bug_attribute_error_propagates(self):
        ctx = _context(_BuggyAttrModel(1))
        with pytest.raises(AttributeError, match="no_such_method"):
            ctx._sample_masks(0, 1)

    def test_model_bug_index_error_propagates(self):
        ctx = _context(_BuggyIndexModel(1))
        with pytest.raises(IndexError):
            ctx._sample_masks(0, 1)

    def test_registered_models_sample_without_translation(self):
        from repro.resilience.faults import make_fault_model

        ctx = _context(make_fault_model("adversarial", 1))
        dead_proc, direct = ctx._sample_masks(0, 4)
        assert dead_proc.shape[0] == 4 and direct.shape[0] == 4
        assert direct.any()

    def test_proxy_surface_matches_real_network(self):
        net = repro.build("pops(2,3)")
        proxy = _ArrayNetworkProxy(_TopologyArrays.from_network(net))
        assert proxy.num_processors == net.num_processors
        assert proxy.label_of(3)[0] == int(net.label_of(3)[0])


# ----------------------------------------------------------------------
# 3. Undefined intact distance stays out of the stretch mean
# ----------------------------------------------------------------------
class _StubIntact:
    def __init__(self, dist):
        self._dist = dist

    def without_loops(self):
        return self

    def bfs_distances(self, group):
        return self._dist[group]


class _StubNet:
    diameter = 2
    num_groups = 3

    def __init__(self, dist):
        self._intact = _StubIntact(dist)

    def base_graph(self):
        return self._intact


class _StubDegraded:
    dead_groups = frozenset()

    def __init__(self, net, routes):
        self.net = net
        self._routes = routes

    def fault_route(self, src, dst):
        return self._routes.get((src, dst))

    def route_lengths(self):
        lengths = np.full((self.net.num_groups,) * 2, -1)
        for (src, dst), path in self._routes.items():
            lengths[src, dst] = len(path) - 1
        return lengths


class TestUndefinedBaselineStretch:
    def test_unreachable_intact_pairs_excluded_from_stretch(self):
        # group 2 is intact-unreachable from 0 and 1 (and vice versa),
        # but the routing hook still finds degraded paths to it
        dist = {
            0: [0, 1, -1],
            1: [1, 0, -1],
            2: [-1, -1, 0],
        }
        routes = {
            (0, 1): [0, 9, 1],  # length 2, d0=1 -> stretch 2.0
            (1, 0): [1, 9, 0],  # length 2, d0=1 -> stretch 2.0
            (0, 2): [0, 8, 9, 2],  # length 3, d0=-1 -> no stretch term
        }
        degraded = _StubDegraded(_StubNet(dist), routes)
        reachable, max_len, stretch, within = path_survival(degraded)
        assert reachable == 3 / 6
        assert max_len == 3
        assert within == 1.0  # bound = diameter + 2 = 4 covers length 3
        # the old bug counted (0, 2) as stretch 1.0 -> mean 5/3
        assert stretch == 2.0

    def test_all_baselines_undefined_defaults_to_one(self):
        dist = {g: [-1, -1, -1] for g in range(3)}
        routes = {(0, 1): [0, 1], (1, 2): [1, 9, 2]}
        degraded = _StubDegraded(_StubNet(dist), routes)
        _, _, stretch, within = path_survival(degraded)
        assert stretch == 1.0
        assert within == 1.0

    def test_real_networks_unaffected(self):
        """On real machines degraded routes imply intact reachability."""
        net = repro.build("pops(2,3)")
        scenario = FaultScenario(
            "pops(2,3)", "coupler", seed=0, couplers=frozenset({0})
        )
        reachable, _, stretch, _ = path_survival(
            DegradedNetwork(net, scenario)
        )
        assert reachable > 0.0
        assert stretch >= 1.0
