"""The stacked ``full`` scorer against the scalar slotted engine.

A ``full`` sweep scores each trial chunk as one stack of degraded
views (:func:`repro.resilience.metrics.stack_rows`): one distance
stack, one next-hop compile and one array slot pass
(:class:`repro.simulation.stacked.StackedSimulator`).  The scalar
:class:`~repro.simulation.engine.SlottedSimulator`, wired by
:meth:`DegradedNetwork.simulator`, is the oracle:

* per message (deliver slot, drop slot, hops, coupler trace) and per
  view (slots) on every family, fault model and workload;
* per row: ``full`` rows built the scalar way, at any sub-batch size,
  inline and pooled, including stratified and ``ci_target`` sweeps;
* every engine check still raises under a corrupted table, trace or
  cap;
* zero-message, self-addressed and one-processor runs.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.core import build
from repro.core.session import Session
from repro.core.workloads import resolve_workload, workload_names
from repro.resilience import metrics as resilience_metrics
from repro.resilience.degrade import (
    DegradedNetwork,
    _network_state,
    next_hop_table,
    stack_views,
)
from repro.resilience.faults import FaultScenario, make_fault_model
from repro.resilience.metrics import (
    ResilienceMetrics,
    connectivity_metrics,
    stack_rows,
    measure,
    path_survival,
)
from repro.resilience.sweep import SweepRequest, _prepare_sweep, _summarize
from repro.simulation import run_traffic, summarize
from repro.simulation.engine import SlotCapError
from repro.simulation.stacked import StackedSimulator


@pytest.fixture(scope="module")
def pooled():
    """One two-worker session for the module's pooled sweeps."""
    with Session(workers=2) as session:
        yield session


SPECS = ("sk(2,2,2)", "sk(3,2,3)", "pops(4,3)", "sii(3,2,10)", "sops(6)")
MODELS = ("coupler", "processor", "link", "group", "adversarial", "bernoulli")


def _views(spec, model, faults, seeds):
    net = build(spec)
    fault_model = make_fault_model(model, faults)
    return [
        DegradedNetwork(net, fault_model.scenario(spec, net, seed)) for seed in seeds
    ]


def _scalar_row(view, traffic, bound, baseline):
    """A ``full`` row the scalar way: per-view metrics, the slotted engine."""
    conn = connectivity_metrics(view, with_reachable=False)
    reachable, max_len, stretch, within = path_survival(view, bound)
    report = run_traffic(view.simulator(), traffic)
    if report.delivery_ratio == 0.0:
        inflation = 0.0
    elif baseline == 0.0:
        inflation = 1.0
    else:
        inflation = report.mean_latency / baseline
    scenario = view.scenario
    return ResilienceMetrics(
        spec=scenario.spec,
        model=scenario.model,
        seed=scenario.seed,
        faults=scenario.size,
        connectivity=conn["connectivity"],
        alive_connectivity=conn["alive_connectivity"],
        reachable_groups=reachable,
        max_path_length=max_len,
        mean_stretch=stretch,
        within_bound=within,
        bound=bound,
        delivery_ratio=report.delivery_ratio,
        dropped=report.num_dropped,
        mean_latency=report.mean_latency,
        latency_inflation=inflation,
        slots=report.slots,
    ).as_dict()


def _assert_matches_scalar(spec, model, faults, seeds, traffic):
    """Every message and view of one stacked run equals its scalar run,
    holders slot by slot included."""
    stack = stack_views(_views(spec, model, faults, seeds))
    stacked = StackedSimulator(
        stack.tables, next_hop_table(stack.arcs, stack.dist),
        stack.dead_processors, stack.dead_couplers, traffic,
    )
    holders = []
    while ((stacked.deliver_slot < 0) & (stacked.drop_slot < 0)).any():
        stacked.step()
        holders.append(stacked.holder.tolist())
    assert stacked.verify_conservation()
    outcomes = stacked.outcomes()
    width = stacked.trace.shape[1]
    for b, view in enumerate(_views(spec, model, faults, seeds)):
        sim = view.simulator()
        sim.inject(traffic)
        rows = slice(b * len(traffic), (b + 1) * len(traffic))
        for holder in holders:
            if sim.all_settled():
                break
            sim.step()
            assert [m.current for m in sim.messages] == holder[rows]
        assert sim.all_settled() and sim.verify_conservation()
        report = summarize(sim)
        assert [
            (m.deliver_slot, m.drop_slot, m.hops, m.current,
             m.trace + [-1] * (width - m.hops))
            for m in sim.messages
        ] == list(zip(
            stacked.deliver_slot[rows].tolist(),
            stacked.drop_slot[rows].tolist(),
            stacked.hops[rows].tolist(),
            stacked.holder[rows].tolist(),
            stacked.trace[rows].tolist(),
        ))
        assert outcomes[b] == (
            report.delivery_ratio, report.num_dropped, report.mean_latency, report.slots
        )


# ----------------------------------------------------------------------
# Engine: every message of every view, against the scalar engine
# ----------------------------------------------------------------------
class TestEngineMatchesScalar:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        spec=st.sampled_from(SPECS),
        model=st.sampled_from(MODELS),
        faults=st.integers(0, 3),
        workload=st.sampled_from(workload_names()),
        messages=st.integers(1, 40),
        seed=st.integers(-5, 10**6),
        views=st.integers(1, 6),
    )
    def test_messages_and_slots(self, spec, model, faults, workload, messages, seed, views):
        net = build(spec)
        traffic = resolve_workload(workload, net, messages=messages, seed=seed)
        _assert_matches_scalar(spec, model, faults, [seed + 7 * b for b in range(views)],
                               traffic)

    @settings(max_examples=40, deadline=None)
    @given(
        spec=st.sampled_from(("sk(2,2,2)", "sii(3,2,10)", "pops(4,3)")),
        model=st.sampled_from(("coupler", "processor")),
        faults=st.integers(0, 3),
        seed=st.integers(0, 1000),
        traffic=st.lists(
            st.tuples(st.integers(0, 11), st.integers(0, 11), st.integers(0, 6)),
            max_size=40,
        ),
    )
    def test_arbitrary_traffic(self, spec, model, faults, seed, traffic):
        """Injection out of id order, repeated pairs, self-addressed
        messages: the oldest request wins, ties to the lowest id."""
        _assert_matches_scalar(spec, model, faults, [seed, seed + 1, seed + 2], traffic)

    def test_processor_faults_kill_relays_and_endpoints(self):
        """Dead endpoints drop at their first request; no slot hands a
        message to a dead relay."""
        spec = "sk(3,2,3)"
        net = build(spec)
        traffic = resolve_workload("uniform", net, messages=120, seed=3)
        views = _views(spec, "processor", 6, range(40))
        stack = stack_views(views)
        sim = StackedSimulator(
            stack.tables, next_hop_table(stack.arcs, stack.dist),
            stack.dead_processors, stack.dead_couplers, traffic,
        )
        dead = stack.dead_processors[sim.view, sim.holder]
        lost = dead.copy()  # a dead source; a dead destination drops too
        lost |= stack.dead_processors[sim.view, sim.dst]
        relayed = 0
        while ((sim.deliver_slot < 0) & (sim.drop_slot < 0)).any():
            sim.step()
            relayed += int((sim.hops > 0).sum())
            assert not (stack.dead_processors[sim.view, sim.holder] & ~lost).any()
        assert (sim.drop_slot[lost] == sim.inject_slot[lost]).all()
        assert dead.any() and relayed


# ----------------------------------------------------------------------
# The stack's masks and counts against the per-view loop
# ----------------------------------------------------------------------
@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("model", ("processor", "coupler", "group"))
def test_stack_views_equals_the_per_view_loop(spec, model):
    views = _views(spec, model, 3, range(12))
    stack = stack_views(views)
    _, endpoints, groups, tables = _network_state(views[0].net)
    for b, view in enumerate(views):
        dead_p = np.zeros(len(groups), dtype=bool)
        dead_p[list(view.dead_processors)] = True
        dead_c = np.zeros(len(endpoints), dtype=bool)
        dead_c[list(view.dead_couplers)] = True
        alive = np.bincount(tables.groups[~dead_p], minlength=view.net.num_groups)
        assert (stack.dead_processors[b] == dead_p).all()
        assert (stack.dead_couplers[b] == dead_c).all()
        assert (stack.alive[b] == alive).all() and stack.alive.dtype == alive.dtype
        assert view.alive_per_group() is not None and (view.alive_per_group() == alive).all()
    for array in (stack.arcs, stack.dist, stack.alive):
        assert not array.flags.writeable
    assert stack.views == tuple(views)


# ----------------------------------------------------------------------
# The slot pass's shortcuts against the general rules they replace
# ----------------------------------------------------------------------
def _cumsum_relay(sim, view, coupler, dst):
    """The relay rule counted out on every row: the oracle of ``_relay``."""
    tables = sim.tables
    row = tables.targets[coupler]
    alive = ~sim._dead_processors[view[:, None], row]
    count = alive.sum(axis=1)
    direct = tables.is_target[coupler, dst]
    if not (direct | (count > 0)).all():
        i = np.argmin(direct | (count > 0))
        raise RuntimeError(f"coupler {coupler[i]} has no surviving targets")
    offset = dst % np.maximum(count, 1)
    pos = (np.cumsum(alive, axis=1) > offset[:, None]).argmax(axis=1)
    relay = np.where(direct, dst, row[np.arange(len(row)), pos])
    listed = tables.is_target[coupler, relay]
    if not listed.all():
        i = np.argmin(listed)
        raise RuntimeError(f"relay {relay[i]} is not a target of coupler {coupler[i]}")
    return relay


def _outcome(call, *args):
    try:
        return call(*args).tolist()
    except RuntimeError as exc:
        return str(exc)


class TestSlotPassShortcuts:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        spec=st.sampled_from(SPECS + ("sk(1,2,3)",)),
        model=st.sampled_from(("processor", "coupler", "group")),
        faults=st.integers(0, 4),
        seed=st.integers(0, 10**6),
        views=st.integers(1, 5),
        data=st.data(),
    )
    def test_fault_free_relay_equals_the_cumsum_path(
        self, spec, model, faults, seed, views, data
    ):
        """Clean and dirty (view, coupler) cells, dead processors included."""
        stack = stack_views(_views(spec, model, faults, [seed + b for b in range(views)]))
        sim = StackedSimulator(
            stack.tables, next_hop_table(stack.arcs, stack.dist),
            stack.dead_processors, stack.dead_couplers, [],
        )
        n, m = stack.dead_processors.shape[1], stack.dead_couplers.shape[1]
        requests = data.draw(st.lists(
            st.tuples(st.integers(0, views - 1), st.integers(0, m - 1), st.integers(0, n - 1)),
            min_size=1, max_size=30,
        ))
        view, coupler, dst = (np.array(column) for column in zip(*requests))
        assert _outcome(sim._relay, view, coupler, dst) == _outcome(
            _cumsum_relay, sim, view, coupler, dst
        )

    def test_relay_mixes_clean_and_dirty_cells(self):
        stack = stack_views(_views("sk(2,2,2)", "processor", 3, range(6)))
        sim = StackedSimulator(
            stack.tables, next_hop_table(stack.arcs, stack.dist),
            stack.dead_processors, stack.dead_couplers, [],
        )
        live = ~stack.dead_couplers
        assert (sim._dirty & live).any() and (~sim._dirty & live).any()
        view, coupler = np.nonzero(live)
        for dst in range(stack.dead_processors.shape[1]):
            dsts = np.full(view.size, dst)
            assert _outcome(sim._relay, view, coupler, dsts) == _outcome(
                _cumsum_relay, sim, view, coupler, dsts
            )

    @settings(max_examples=80, deadline=None)
    @given(
        traffic=st.lists(
            st.tuples(st.integers(0, 11), st.integers(0, 11), st.integers(0, 9)),
            min_size=1, max_size=40,
        ),
        views=st.integers(1, 4),
        data=st.data(),
    )
    def test_winners_equal_the_three_key_lexsort(self, traffic, views, data):
        stack = stack_views(_views("sk(2,2,2)", "coupler", 0, range(views)))
        sim = StackedSimulator(
            stack.tables, next_hop_table(stack.arcs, stack.dist),
            stack.dead_processors, stack.dead_couplers, traffic,
        )
        rows = views * len(traffic)
        keep = data.draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
        live = np.flatnonzero(keep)
        m = len(stack.tables.targets)
        coupler = np.array(
            data.draw(st.lists(st.integers(0, 3), min_size=live.size, max_size=live.size)),
            dtype=np.int64,
        )
        cell = sim.view[live] * m + coupler
        order = np.lexsort((sim.ident[live], sim.inject_slot[live], cell))
        first = np.ones(order.size, dtype=bool)
        first[1:] = cell[order[1:]] != cell[order[:-1]]
        assert sim._winners(cell, live).tolist() == order[first].tolist()


# ----------------------------------------------------------------------
# Rows: the stacked scorer against scalar rows, at any chunking
# ----------------------------------------------------------------------
class TestRowsMatchScalar:
    CASES = [
        ("sk(6,3,2)", "coupler", 2, "uniform"),
        ("sk(6,3,2)", "processor", 2, "hotspot"),
        ("pops(4,3)", "processor", 2, "bernoulli"),
        ("sii(2,2,6)", "link", 1, "uniform"),
        ("sops(6)", "processor", 1, "group-local"),
        ("sk(3,2,3)", "group", 1, "permutation"),
    ]

    @staticmethod
    def _prepared(spec, model, faults, workload, trials, **kw):
        request = SweepRequest(
            model, faults=faults, trials=trials, seed=5, workload=workload,
            messages=30, backend="batched", **kw,
        )
        return _prepared_pair(spec, request)

    @pytest.mark.parametrize(("spec", "model", "faults", "workload"), CASES)
    def test_any_sub_batch_matches_scalar_rows(self, spec, model, faults, workload):
        prepared, ctx = self._prepared(spec, model, faults, workload, 200)
        plan = prepared.plan
        oracle = [
            _scalar_row(ctx.view(i), ctx.traffic, plan.bound, plan.baseline_mean_latency)
            for i in range(200)
        ]
        assert ctx.run_range(0, 200) == oracle
        for batch in (1, 7, 25, 200):  # sub-batches, across a chunk boundary
            ctx.batch = batch
            assert ctx.run_range(0, 13) + ctx.run_range(13, 200) == oracle

    @pytest.mark.parametrize(("spec", "model", "faults", "workload"), CASES)
    def test_sweeps_equal_inline_and_pooled(self, pooled, spec, model, faults, workload):
        # 7, 56 and 200 trials on two workers: two chunks each
        for trials in (7, 56, 200):
            prepared, ctx = self._prepared(spec, model, faults, workload, trials)
            plan = prepared.plan
            oracle = _summarize(prepared, [
                _scalar_row(ctx.view(i), ctx.traffic, plan.bound,
                            plan.baseline_mean_latency)
                for i in range(trials)
            ])
            kw = dict(model=model, faults=faults, trials=trials, seed=5,
                      workload=workload, messages=30, backend="batched")
            inline = repro.resilience_sweep(spec, workers=0, **kw)
            assert inline.to_json() == oracle.to_json()
            assert pooled.resilience_sweep(spec, **kw).to_json() == oracle.to_json()

    def test_stratified_sweep_matches_scalar_rows(self, pooled):
        prepared, ctx = self._prepared(
            "sk(6,3,2)", "coupler", 2, "uniform", 60, sampling="stratified"
        )
        plan = prepared.plan
        oracle = _summarize(prepared, [
            _scalar_row(ctx.view(i), ctx.traffic, plan.bound, plan.baseline_mean_latency)
            for i in range(60)
        ])
        kw = dict(model="coupler", faults=2, trials=60, seed=5, messages=30,
                  sampling="stratified", backend="batched")
        assert repro.resilience_sweep("sk(6,3,2)", **kw).to_json() == oracle.to_json()
        assert pooled.resilience_sweep("sk(6,3,2)", **kw).to_json() == oracle.to_json()

    def test_ci_target_sweep_is_worker_independent(self, pooled):
        kw = dict(model="coupler", faults=2, trials=400, seed=5, messages=30,
                  ci_target=0.05, backend="batched")
        inline = repro.resilience_sweep("sk(6,3,2)", workers=0, **kw)
        assert inline.adaptive["trials_spent"] < 400
        assert inline.to_json() == pooled.resilience_sweep("sk(6,3,2)", **kw).to_json()

    def test_measure_is_a_stack_of_one(self):
        spec = "sk(2,2,2)"
        net = build(spec)
        traffic = resolve_workload("uniform", net, messages=40, seed=2)
        for view in _views(spec, "processor", 2, range(10)):
            row = measure(view, workload=traffic, baseline_mean_latency=2.5).as_dict()
            assert row == _scalar_row(view, traffic, net.diameter + 2, 2.5)


def _prepared_pair(spec, request):
    prepared = _prepare_sweep(spec, request)
    return prepared, prepared.plan.build_context(net=prepared.net)


# ----------------------------------------------------------------------
# Every engine check still fires
# ----------------------------------------------------------------------
class TestChecksFire:
    SPEC = "sk(2,2,2)"

    def _run(self, max_slots=100_000, views=None):
        net = build(self.SPEC)
        traffic = resolve_workload("uniform", net, messages=30, seed=1)
        views = views or _views(self.SPEC, "coupler", 1, range(4))
        return stack_rows(
            views, "full", traffic=traffic, bound=4, max_slots=max_slots,
            baseline_mean_latency=2.0,
        )

    def test_coupler_not_sourced_at_holder(self, monkeypatch):
        net = build(self.SPEC)
        endpoints = _network_state(net)[1]
        # for each group, a coupler some other group sources
        foreign = {
            u: int(np.flatnonzero(endpoints[:, 0] != u)[0])
            for u in range(net.num_groups)
        }

        def corrupted(arcs, dist):
            table = next_hop_table(arcs, dist)
            for u, c in foreign.items():
                table[:, u, :] = np.where(table[:, u, :] >= 0, c, -1)
            return table

        monkeypatch.setattr(resilience_metrics, "next_hop_table", corrupted)
        with pytest.raises(RuntimeError, match="not sourced at"):
            self._run()

    def test_relay_off_its_target_list(self):
        net = build(self.SPEC)
        views = _views(self.SPEC, "coupler", 0, [0])
        stack = stack_views(views)
        # every coupler's padded targets swapped for another coupler's
        shuffled = dataclasses.replace(
            stack.tables, targets=np.roll(stack.tables.targets, 1, axis=0)
        )
        traffic = resolve_workload("uniform", net, messages=30, seed=1)
        sim = StackedSimulator(
            shuffled, next_hop_table(stack.arcs, stack.dist),
            stack.dead_processors, stack.dead_couplers, traffic,
        )
        with pytest.raises(RuntimeError, match="is not a target of coupler"):
            sim.run()

    def test_coupler_with_no_surviving_target(self):
        """A route through a coupler whose only target died: the intact
        next hops with the dead-coupler closure left out."""
        spec = "sk(1,2,2)"
        net = build(spec)
        intact = stack_views([DegradedNetwork(net, FaultScenario(spec, "none", 0))])
        lengths = intact.dist[0]
        u, v = map(int, np.argwhere(lengths == 2)[0])
        w = int(np.flatnonzero((lengths[u] == 1) & (lengths[:, v] == 1))[0])
        broken = DegradedNetwork(
            net, FaultScenario(spec, "manual", 0, processors=frozenset({w}))
        )
        dead = stack_views([broken]).dead_processors
        sim = StackedSimulator(
            intact.tables, next_hop_table(intact.arcs, intact.dist), dead,
            np.zeros_like(intact.dead_couplers), [(u, v, 0)],
        )
        with pytest.raises(RuntimeError, match="has no surviving targets"):
            sim.run()

    def test_coupler_with_no_target_at_all(self):
        """A coupler listing no target goes down the counting path too."""
        net = build(self.SPEC)
        stack = stack_views([DegradedNetwork(net, FaultScenario(self.SPEC, "none", 0))])
        hops = next_hop_table(stack.arcs, stack.dist)
        groups = stack.tables.groups
        src, dst = 0, int(np.flatnonzero(groups != groups[0])[0])
        coupler = hops[0, groups[src], groups[dst]]
        targets, is_target = stack.tables.targets.copy(), stack.tables.is_target.copy()
        targets[coupler], is_target[coupler] = len(groups), False
        tables = dataclasses.replace(stack.tables, targets=targets, is_target=is_target)
        sim = StackedSimulator(
            tables, hops, stack.dead_processors, stack.dead_couplers, [(src, dst, 0)]
        )
        with pytest.raises(RuntimeError, match="has no surviving targets"):
            sim.run()

    @pytest.mark.parametrize("corruption", ["settled-twice", "broken-trace", "hops"])
    def test_conservation_break(self, monkeypatch, corruption):
        original = StackedSimulator.run

        def run(self, max_slots=100_000):
            original(self, max_slots)
            delivered = np.flatnonzero((self.deliver_slot >= 0) & (self.hops > 0))
            row = delivered[0]
            if corruption == "settled-twice":
                self.drop_slot[row] = 0
            elif corruption == "broken-trace":
                # the first hop leaves from a group that does not hold it
                sourced = self.tables.sources[:, self.src[row]]
                self.trace[row, 0] = int(np.argmin(sourced))
            else:
                self.hops[row] += 1

        monkeypatch.setattr(StackedSimulator, "run", run)
        with pytest.raises(RuntimeError, match="conservation check failed"):
            self._run()

    def test_slot_cap(self):
        with pytest.raises(SlotCapError, match="slot cap 2 reached") as err:
            self._run(max_slots=2)
        assert err.value.cap == 2 and err.value.stuck

    def test_slot_cap_on_a_routing_cycle(self, monkeypatch):
        def cycle(arcs, dist):
            # every message bounces inside its holder group forever
            table = next_hop_table(arcs, dist)
            loops = arcs[:, np.arange(arcs.shape[1]), np.arange(arcs.shape[1])]
            return np.where(table >= 0, loops[:, :, None], -1)

        monkeypatch.setattr(resilience_metrics, "next_hop_table", cycle)
        with pytest.raises(SlotCapError, match="slot cap 50 reached"):
            self._run(max_slots=50, views=_views(self.SPEC, "coupler", 0, [0, 1]))

    def test_injection_checks(self):
        views = _views(self.SPEC, "coupler", 1, [0])
        for traffic, message in (
            ([(0, 1, 0), (0, 12, 0)], r"message \(0, 12, 0\): processor id out of range"),
            ([(0, 1, 0), (-1, 3, 0)], "processor id out of range"),
            ([(0, 1, -2)], r"cannot inject into past slot -2 \(now 0\)"),
        ):
            with pytest.raises(ValueError, match=message):
                stack_rows(views, "full", traffic=traffic, bound=4, max_slots=100,
                           baseline_mean_latency=1.0)


# ----------------------------------------------------------------------
# Degenerate runs keep the scalar engine's rows
# ----------------------------------------------------------------------
class TestDegenerateRuns:
    @pytest.mark.parametrize(
        ("spec", "traffic"),
        [
            ("pops(1,1)", []),
            ("pops(1,1)", [(0, 0, 0)]),
            ("sops(1)", [(0, 0, 3)]),
            ("sk(2,2,2)", []),
            ("sk(2,2,2)", [(3, 3, 0), (3, 3, 2), (1, 5, 0), (5, 1, 4)]),
        ],
    )
    def test_rows_match_scalar(self, spec, traffic):
        net = build(spec)
        for views in (
            [DegradedNetwork(net, FaultScenario(spec, "none", 0))],
            _views(spec, "processor", 1, range(5)),
        ):
            rows = stack_rows(views, "full", traffic=traffic, bound=net.diameter + 2,
                              max_slots=100, baseline_mean_latency=1.0)
            assert rows == [
                _scalar_row(view, traffic, net.diameter + 2, 1.0)
                for view in _views_like(views)
            ]

    @pytest.mark.parametrize("workload", ["permutation", "broadcast"])
    def test_one_processor_sweeps(self, pooled, workload):
        prepared, ctx = _prepared_pair(
            "pops(1,1)", SweepRequest(trials=3, workload=workload, messages=4)
        )
        plan = prepared.plan
        oracle = _summarize(prepared, [
            _scalar_row(ctx.view(i), ctx.traffic, plan.bound, plan.baseline_mean_latency)
            for i in range(3)
        ])
        kw = dict(trials=3, workload=workload, messages=4)
        assert repro.resilience_sweep("pops(1,1)", **kw).to_json() == oracle.to_json()
        assert pooled.resilience_sweep("pops(1,1)", **kw).to_json() == oracle.to_json()


def _views_like(views):
    """Fresh views of the same scenarios (no caches shared with a stack)."""
    return [DegradedNetwork(view.net, view.scenario) for view in views]


# ----------------------------------------------------------------------
# The chunk rule: worker-sized chunks, never cut below a sub-batch
# ----------------------------------------------------------------------
class TestIndexChunks:
    @settings(max_examples=300, deadline=None)
    @given(trials=st.integers(0, 200_000), workers=st.integers(2, 16))
    def test_properties(self, trials, workers):
        from repro.resilience.sweep import _VECTOR_BATCH, _index_chunks

        chunks = _index_chunks(trials, workers)
        bounds = [lo for lo, _ in chunks] + [trials]
        assert [hi for _, hi in chunks] == bounds[1:] and bounds[0] == 0  # cover
        assert len(chunks) <= 4 * workers
        if trials >= workers:
            assert len(chunks) % workers == 0
        sizes = [hi - lo for lo, hi in chunks]
        assert all(size > 0 for size in sizes)
        if sizes:
            assert max(sizes) - min(sizes) <= 1
            assert min(sizes) >= min(_VECTOR_BATCH, trials // workers)

    def test_perfbench_sweep_is_one_sub_batch_per_worker(self):
        from repro.resilience.sweep import _index_chunks

        assert _index_chunks(200, 2) == [(0, 100), (100, 200)]
        assert _index_chunks(10_000, 2) == [(0, 5_000), (5_000, 10_000)]
        assert len(_index_chunks(100_000, 2)) == 8
        assert _index_chunks(3, 4) == [(0, 1), (1, 2), (2, 3)]
        assert _index_chunks(0, 2) == []
