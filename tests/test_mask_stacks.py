"""Mask-native batched sub-batches against per-trial degraded views.

A batched sub-batch draws its fault masks the way the vectorized kernel
does -- one batch draw (``faults._PickMap``) for the five sample-based
built-in models, one ``scenario`` per trial for every other model and
for the rows the batch draw hands back -- and scores one
:func:`repro.resilience.degrade.stack_masks` stack; no trial builds a
:class:`~repro.resilience.degrade.DegradedNetwork`.  The per-trial path
it replaced is the oracle here: one view per trial, stacked by
:func:`~repro.resilience.degrade.stack_views`, each row's scenario
fields taken from its view.

Also held to oracles kept in this file: the stack's arrays (per-view
Python loops), the lazily built views, ``next_hop_table`` (the
per-view ``argsort`` compile it replaced) and the ``full`` sub-batch
size (its message columns against the cell budget).
"""

import itertools
import tracemalloc
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import pytest

import repro
from repro.core import build
from repro.core.session import Session
from repro.resilience import faults
from repro.resilience.degrade import (
    DegradedNetwork,
    _network_state,
    next_hop_table,
    stack_masks,
    stack_views,
)
from repro.resilience.faults import FaultModel, make_fault_model
from repro.resilience.metrics import stack_rows
from repro.resilience.sweep import (
    _MESSAGE_COLUMNS,
    _VECTOR_CELL_BUDGET,
    SweepRequest,
    _prepare_sweep,
)

SPECS = ("sk(6,3,2)", "pops(4,3)", "sii(2,2,6)", "sops(6)")
MODELS = (
    ("coupler", 2), ("processor", 2), ("link", 1), ("group", 1),
    ("adversarial", 1), ("bernoulli", 2),
)
TRIALS = 60


def _context(spec, model, metrics, trials=TRIALS, **kw):
    request = SweepRequest(
        model, trials=trials, seed=9, metrics=metrics, backend="batched",
        messages=24, **kw,
    )
    prepared = _prepare_sweep(spec, request)
    return prepared.plan.build_context(net=prepared.net)


def _oracle_views(ctx, lo, hi):
    return [
        DegradedNetwork(ctx.net, ctx.scenario(i), family=ctx.family)
        for i in range(lo, hi)
    ]


def _oracle_rows(ctx, lo, hi):
    """The per-trial path: a view per trial, its scenario's fields."""
    plan, views = ctx.plan, _oracle_views(ctx, lo, hi)
    scenarios = [view.scenario for view in views]
    return stack_rows(
        stack_views(views), plan.metrics, bound=plan.bound, spec=plan.canonical,
        model=plan.model.key, seeds=[s.seed for s in scenarios],
        sizes=[s.size for s in scenarios], traffic=ctx.traffic or (),
        max_slots=plan.max_slots, baseline_mean_latency=plan.baseline_mean_latency or 0.0,
    )


def _assert_sub_batches_match(ctx, trials=TRIALS):
    oracle = _oracle_rows(ctx, 0, trials)
    for batch in (1, 7, trials):
        ctx.batch = batch
        assert ctx.run_range(0, 5) + ctx.run_range(5, trials) == oracle


@dataclass(frozen=True)
class OutOfRangeFaults(FaultModel):
    """A custom model whose draws name components the machine lacks."""

    key: ClassVar[str] = "out-of-range"

    def sample_faults(self, net, rng):
        couplers = {rng.randrange(net.num_couplers), net.num_couplers + 3, -2}
        processors = {net.num_processors + rng.randrange(4)}
        if rng.random() < 0.5:
            processors.add(rng.randrange(net.num_processors))
        return couplers, processors


# ----------------------------------------------------------------------
# Rows: masks against per-trial views
# ----------------------------------------------------------------------
class TestRowsMatchViews:
    @pytest.mark.parametrize("metrics", ["paths", "full"])
    @pytest.mark.parametrize(("model", "faults_"), MODELS)
    @pytest.mark.parametrize("spec", SPECS)
    def test_every_model_family_and_sub_batch(self, spec, model, faults_, metrics):
        ctx = _context(spec, model, metrics, faults=faults_)
        assert (ctx._picks is None) == (model == "bernoulli")
        _assert_sub_batches_match(ctx)

    @pytest.mark.parametrize("model", ["coupler", "processor", "link", "group", "adversarial"])
    def test_handed_back_rows(self, model, monkeypatch):
        # one word per draw: most rows outrun it and take their scenario
        stream = faults._word_stream
        monkeypatch.setattr(
            faults, "_word_stream", lambda seeds, count: stream(seeds, min(count, 1))
        )
        ctx = _context("sk(6,3,2)", model, "full", faults=2)
        seeds = faults.trial_seeds(ctx.plan.seed, 0, TRIALS)
        assert ctx._picks.draw(seeds)[2].size > 0
        _assert_sub_batches_match(ctx)

    def test_victims_without_out_couplers_are_handed_back(self):
        # sops(6) is one group: every adversarial draw falls back
        ctx = _context("sops(6)", "adversarial", "full", faults=1)
        seeds = faults.trial_seeds(ctx.plan.seed, 0, TRIALS)
        assert ctx._picks.draw(seeds)[2].size == TRIALS
        _assert_sub_batches_match(ctx)

    @pytest.mark.parametrize("metrics", ["paths", "full"])
    @pytest.mark.parametrize(
        ("sampling", "model"),
        [("stratified", "coupler"), ("stratified", "processor"), ("importance", "bernoulli")],
    )
    def test_index_aware_samplers(self, sampling, model, metrics):
        ctx = _context("sk(6,3,2)", model, metrics, faults=2, sampling=sampling)
        assert ctx._picks is None and hasattr(ctx.plan.model, "scenario_at")
        _assert_sub_batches_match(ctx)

    @pytest.mark.parametrize("spec", ["sk(2,2,2)", "pops(4,2)"])
    def test_out_of_range_indices_still_count(self, spec):
        ctx = _context(spec, OutOfRangeFaults(), "full")
        rows = ctx.run_range(0, TRIALS)
        sizes = [ctx.scenario(i).size for i in range(TRIALS)]
        assert [row["faults"] for row in rows] == sizes and min(sizes) >= 4
        assert rows == _oracle_rows(ctx, 0, TRIALS)

    def test_sweeps_equal_inline_and_pooled(self):
        kw = dict(trials=200, seed=3, metrics="full", messages=24)
        with Session(workers=2) as pooled:
            for spec, (model, count) in itertools.product(SPECS, MODELS[:3]):
                inline = repro.resilience_sweep(spec, model=model, faults=count, **kw)
                other = pooled.resilience_sweep(spec, model=model, faults=count, **kw)
                assert inline.to_json() == other.to_json()


# ----------------------------------------------------------------------
# The stack: arrays against per-view loops, views built lazily
# ----------------------------------------------------------------------
@pytest.mark.parametrize("spec", SPECS + ("sk(3,2,3)",))
@pytest.mark.parametrize(("model", "faults_"), MODELS)
def test_mask_stack_equals_the_per_view_loops(spec, model, faults_):
    ctx = _context(spec, model, "connectivity", faults=faults_)
    dead, direct, _, _ = ctx._masks(0, 30)
    stack = stack_masks(ctx.net, dead, direct, family=ctx.family)
    _, endpoints, groups, _ = _network_state(ctx.net)
    g = ctx.net.num_groups
    for b, view in enumerate(_oracle_views(ctx, 0, 30)):
        arcs = np.full((g, g), -1)
        for c in sorted(view.surviving_couplers, reverse=True):
            arcs[tuple(endpoints[c])] = c
        dist = [view.surviving_base().bfs_distances(u) for u in range(g)]
        alive = np.bincount(
            [groups[p] for p in view.alive_processors], minlength=g
        )
        assert (stack.arcs[b] == arcs).all()
        assert (stack.dist[b] == np.array(dist)).all()
        assert (stack.alive[b] == alive).all()
        assert set(np.flatnonzero(stack.dead_couplers[b])) == view.dead_couplers
        assert set(np.flatnonzero(stack.dead_processors[b])) == view.dead_processors
    assert stack.family is ctx.family and not stack.views._built


def test_views_are_built_only_for_blocked_pairs():
    # sk(6,3,2) under 6 coupler faults: some pairs lose every candidate
    ctx = _context("sk(6,3,2)", "coupler", "paths", faults=6, trials=40)
    dead, direct, _, _ = ctx._masks(0, 40)
    stack = stack_masks(ctx.net, dead, direct, family=ctx.family)
    lengths = ctx.family.route_lengths(ctx.net, stack)
    built = set(stack.views._built)
    assert 0 < len(built) < 40
    oracle = stack_views(_oracle_views(ctx, 0, 40))
    assert (lengths == ctx.family.route_lengths(ctx.net, oracle)).all()
    b = min(built)
    view = stack.views[b]
    assert view is stack.views[b]  # built once
    assert view.dead_couplers == set(np.flatnonzero(stack.dead_couplers[b]).tolist())


# ----------------------------------------------------------------------
# next_hop_table against the per-view argsort compile it replaced
# ----------------------------------------------------------------------
def _argsort_next_hop_table(arcs, dist):
    views, g, _ = arcs.shape
    rows = np.arange(g)
    stack = np.arange(views)[:, None]
    out = arcs >= 0
    out[:, rows, rows] = False
    degree = out.sum(axis=2)
    width = max(1, int(degree.max(initial=0)))
    succ = np.argsort(~out, axis=2, kind="stable")[:, :, :width]
    valid = np.arange(width) < degree[..., None]
    table = np.full((views, g, g), -1, dtype=np.int64)
    for j in range(width):
        w = succ[:, :, j]
        closer = valid[:, :, j, None] & (dist[stack, w] == dist - 1) & (table < 0)
        table = np.where(closer, arcs[stack, rows, w][..., None], table)
    back = dist[stack[..., None], succ, rows[:, None]]
    back = np.where(valid & (back >= 0), back, g)
    best = back.argmin(axis=2)[..., None]
    via = np.take_along_axis(succ, best, axis=2)[..., 0]
    found = np.take_along_axis(back, best, axis=2)[..., 0] < g
    sibling = np.where(found, arcs[stack, rows, via], -1)
    loops = arcs[:, rows, rows]
    table[:, rows, rows] = np.where(loops >= 0, loops, sibling)
    return table


@pytest.mark.parametrize(
    "spec", ["sk(6,3,2)", "sk(3,2,3)", "sk(1,2,4)", "pops(4,3)", "sii(2,2,6)", "sops(6)"]
)
@pytest.mark.parametrize("model", ["coupler", "processor", "link", "group", "adversarial"])
def test_next_hop_table_equals_the_argsort_compile(spec, model):
    net = build(spec)
    fault_model = make_fault_model(model, 3)
    views = [DegradedNetwork(net, fault_model.scenario(spec, net, s)) for s in range(25)]
    stack = stack_views(views)
    table = next_hop_table(stack.arcs, stack.dist)
    assert (table == _argsort_next_hop_table(stack.arcs, stack.dist)).all()
    for b in (0, 7):  # a stack of one walks only its own successors
        one = next_hop_table(stack.arcs[b : b + 1], stack.dist[b : b + 1])
        assert (one[0] == table[b]).all()


# ----------------------------------------------------------------------
# full sub-batches count the message columns
# ----------------------------------------------------------------------
def test_full_sub_batches_fit_the_cell_budget():
    for messages in (60, 600, 2_000):
        request = SweepRequest(
            "coupler", faults=2, trials=10, messages=messages, backend="batched"
        )
        prepared = _prepare_sweep("sk(6,3,2)", request)
        ctx = prepared.plan.build_context(net=prepared.net)
        assert ctx.batch * messages * _MESSAGE_COLUMNS <= _VECTOR_CELL_BUDGET
        assert (ctx.batch + 1) * messages * _MESSAGE_COLUMNS > _VECTOR_CELL_BUDGET


def test_inline_full_sweep_peak_memory():
    """10^4 sk(6,3,2) trials inline: sub-batches sized by their message
    columns keep the traced peak near 36 MB."""
    with Session(workers=0) as session:
        session.resilience_sweep("sk(6,3,2)", faults=2, trials=20, seed=0)
        tracemalloc.start()
        try:
            session.resilience_sweep("sk(6,3,2)", faults=2, trials=10_000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 56e6, peak
