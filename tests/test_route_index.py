"""The stack-Kautz array route index and the batched ``route_lengths`` hook.

:meth:`CandidateTable.first_routes` builds every pair's first Sec. 2.5
candidate from the intact group distances and one next-hop walk of all
pairs, as CSR arrays; the oracle is the per-pair word compile,
``candidates(u, v)[0]``.  ``NetworkFamily.route_lengths(net, stack)``
scores a whole :class:`~repro.resilience.degrade.ViewStack`; the oracle
is ``fault_route`` pair by pair on each view.  Sweeps score every
batched sub-batch as one stack; the oracle is the old per-view scoring
(``connectivity_metrics`` plus ``path_survival``).
"""

import itertools

import numpy as np
import pytest

import repro
from repro.core import build
from repro.core.families import CandidateTable, candidate_table
from repro.core.session import Session
from repro.graphs.kautz import kautz_num_nodes
from repro.obs.metrics import REGISTRY, worker_registry
from repro.resilience.degrade import DegradedNetwork, stack_views
from repro.resilience.faults import FaultScenario, make_fault_model
from repro.resilience.metrics import connectivity_metrics, path_survival
from repro.resilience.sweep import SweepRequest, _prepare_sweep, _summarize
from repro.routing.fault_tolerant import candidate_paths
from repro.routing.kautz_routing import kautz_route

#: Every KG(d, k) up to ~400 groups, as (d, k).
TABLES = [
    (d, k)
    for d in range(1, 8)
    for k in range(1, 9)
    if kautz_num_nodes(d, k) <= 400 and (d > 1 or k <= 4)
]
SMALL = [(d, k) for d, k in TABLES if kautz_num_nodes(d, k) <= 40]


def _index_rows(table, pairs):
    """``{pair: (length, internal groups, crossed links)}`` from the index."""
    lengths, (g_ptr, g_ids), (l_ptr, l_ids) = table.first_routes()
    g = len(lengths)
    internal = {p: set() for p in pairs}
    crossed = {p: set() for p in pairs}
    for out, ptr, ids in ((internal, g_ptr, g_ids), (crossed, l_ptr, l_ids)):
        for atom in range(len(ptr) - 1):
            members = ids[ptr[atom]:ptr[atom + 1]]
            assert (np.diff(members) > 0).all()  # ascending, no repeats
            for p in members.tolist():
                if p in out:
                    out[p].add(atom)
    return {
        p: (int(lengths[divmod(p, g)]), internal[p], crossed[p]) for p in pairs
    }


def _check_index(d, k, sources=None):
    table = CandidateTable(d, k)
    g = kautz_num_nodes(d, k)
    sources = range(g) if sources is None else sources
    pairs = [u * g + v for u in sources for v in range(g) if u != v]
    got = _index_rows(table, pairs)
    for p in pairs:
        path = table.candidates(*divmod(p, g))[0][2]
        links = {table.links[arc] for arc in zip(path, path[1:])}
        assert got[p] == (len(path) - 1, set(path[1:-1]), links), (d, k, p)
    lengths = table.first_routes()[0]
    assert (np.diag(lengths) == 0).all() and not lengths.flags.writeable


class TestFirstRouteIndex:
    @pytest.mark.parametrize(("d", "k"), SMALL)
    def test_every_pair_of_small_tables(self, d, k):
        _check_index(d, k)

    @pytest.mark.parametrize(("d", "k"), TABLES)
    def test_sampled_sources_up_to_400_groups(self, d, k):
        g = kautz_num_nodes(d, k)
        _check_index(d, k, sources=sorted({0, g - 1}))

    @pytest.mark.slow
    @pytest.mark.parametrize(("d", "k"), [t for t in TABLES if t not in SMALL])
    def test_every_pair_up_to_400_groups(self, d, k):
        _check_index(d, k)

    def test_csr_halves_share_one_array(self):
        table = CandidateTable(3, 2)
        lengths, (g_ptr, g_ids), (l_ptr, l_ids) = table.first_routes()
        assert g_ids is l_ids and g_ptr[-1] == l_ptr[0]
        assert len(g_ptr) == 13 and len(l_ptr) == len(table.links) // 2 + 1
        assert l_ptr[-1] == len(l_ids)


# ----------------------------------------------------------------------
# The batched hook against fault_route, pair by pair
# ----------------------------------------------------------------------
def _views(spec, model, faults, seeds):
    net = build(spec)
    fault_model = make_fault_model(model, faults)
    return [
        DegradedNetwork(net, fault_model.scenario(spec, net, seed)) for seed in seeds
    ]


def _oracle_counts(view):
    """``(touched live pairs, pairs with every candidate blocked)``."""
    net = view.net
    faults = view.word_fault_set()
    live = set(range(net.num_groups)) - view.dead_groups
    touched = blocked = 0
    for u, v in itertools.permutations(live, 2):
        x, y = net.group_word(u), net.group_word(v)
        if faults.blocks(kautz_route(x, y, net.degree)):
            touched += 1
            blocked += all(
                faults.blocks(p) for p in candidate_paths(x, y, net.degree)
            )
    return touched, blocked


def _counter(name):
    return sum(c.value for c in REGISTRY.series(name).values())


def _assert_stack_matches(views):
    stack = stack_views(views)
    net = views[0].net
    lengths = views[0].family.route_lengths(net, stack)
    assert lengths.shape == (len(views), net.num_groups, net.num_groups)
    for b, view in enumerate(views):
        live = set(range(net.num_groups)) - view.dead_groups
        for u, v in itertools.permutations(live, 2):
            path = view.fault_route(u, v)
            assert lengths[b, u, v] == (-1 if path is None else len(path) - 1), (
                view, u, v,
            )
    return lengths


class TestStackRouteLengths:
    @pytest.mark.parametrize(
        ("spec", "model", "faults"),
        [
            ("sk(6,3,2)", "coupler", 2),
            ("sk(6,3,2)", "coupler", 6),
            ("sk(2,3,3)", "link", 2),
            ("sk(1,2,4)", "processor", 3),
            ("sk(2,2,3)", "adversarial", 3),
            ("sk(3,2,3)", "group", 2),
        ],
    )
    def test_equals_fault_route_and_counts(self, spec, model, faults):
        views = _views(spec, model, faults, range(25))
        oracle = [_oracle_counts(view) for view in views]
        REGISTRY.reset()
        worker_registry().reset()
        _assert_stack_matches(views)
        REGISTRY.merge(worker_registry().drain())
        assert _counter("repro_route_reroutes_total") == sum(t for t, _ in oracle)
        assert _counter("repro_route_fallbacks_total") == sum(b for _, b in oracle)

    def test_processor_faults_take_the_fallback(self):
        """sk(1,2,4) under 3 processor faults: ~30 blocked pairs a trial."""
        views = _views("sk(1,2,4)", "processor", 3, range(20))
        blocked = sum(_oracle_counts(view)[1] for view in views)
        assert blocked > 20 * 10
        _assert_stack_matches(views)

    def test_fault_free_stack_reroutes_nothing(self):
        net = build("sk(2,2,3)")
        views = [DegradedNetwork(net, FaultScenario("sk(2,2,3)", "none", 0))] * 3
        worker_registry().reset()
        lengths = views[0].family.route_lengths(net, stack_views(views))
        table = candidate_table(2, 3)
        assert (lengths == table.first_routes()[0]).all() and lengths.flags.writeable
        touched = worker_registry().drain()
        REGISTRY.reset()
        REGISTRY.merge(touched)
        assert _counter("repro_route_reroutes_total") == 0

    def test_stack_of_one_is_the_view_hook(self):
        for view in _views("sk(2,2,3)", "link", 3, range(10)):
            stacked = view.family.route_lengths(view.net, stack_views([view]))[0]
            assert (view.route_lengths() == stacked).all()

    @pytest.mark.parametrize("spec", ["pops(3,4)", "sii(3,2,10)", "sops(6)"])
    def test_default_hook_is_the_distance_stack(self, spec):
        views = _views(spec, "processor", 2, range(8))
        lengths = _assert_stack_matches(views)
        stack = stack_views(views)
        assert (lengths == stack.dist).all() and not lengths.flags.writeable
        family = views[0].family
        assert family.route_lengths(views[0].net, stack) is stack.dist

    def test_rows_compile_lazily_and_are_shared(self):
        table = CandidateTable(2, 3)
        atoms, lengths = table.candidate_row(7)
        assert atoms.shape == (1 + 2 + 4, 2 * 3 + 3) and lengths.shape == (7,)
        assert set(table._rows) == {7} and set(table._pairs) == {(0, 7)}
        assert table.candidate_row(7)[0] is atoms and not atoms.flags.writeable
        count = len(table.candidates(0, 7))
        assert (lengths[:count] > 0).all() and (lengths[count:] == -1).all()
        assert (atoms[count:] == table.atoms + 1).all()


# ----------------------------------------------------------------------
# Sweeps: every batched mode scores stacks, rows as per view
# ----------------------------------------------------------------------
def _per_view_row(view, metrics, bound):
    """The old per-view ``connectivity``/``paths`` row."""
    row = connectivity_metrics(view, with_reachable=metrics == "connectivity")
    if metrics == "paths":
        keys = ("reachable_groups", "max_path_length", "mean_stretch", "within_bound")
        row.update(zip(keys, path_survival(view, bound)))
    return row


@pytest.fixture(scope="module")
def pooled():
    """One two-worker session for the module's pooled sweeps."""
    with Session(workers=2) as session:
        yield session


#: (spec, model, faults, metrics); the fallback-heavy paths case
#: (~28 word-level BFS routes a trial, per view in the oracle) is slow
ROW_CASES = [
    *(
        (spec, model, faults, metrics)
        for spec, model, faults in [
            ("sk(6,3,2)", "coupler", 6),
            ("sk(2,3,3)", "link", 2),
            ("pops(4,3)", "processor", 2),
            ("sii(2,2,6)", "link", 1),
            ("sops(6)", "processor", 1),
        ]
        for metrics in ("connectivity", "paths")
    ),
    ("sk(1,2,4)", "processor", 3, "connectivity"),
    pytest.param("sk(1,2,4)", "processor", 3, "paths", marks=pytest.mark.slow),
]


class TestStackedRows:
    @pytest.mark.parametrize(("spec", "model", "faults", "metrics"), ROW_CASES)
    def test_any_sub_batch_matches_per_view_rows(
        self, pooled, spec, model, faults, metrics
    ):
        request = SweepRequest(
            model, faults=faults, trials=200, seed=3, metrics=metrics,
            backend="batched",
        )
        prepared = _prepare_sweep(spec, request)
        ctx = prepared.plan.build_context(net=prepared.net)
        bound = prepared.plan.bound
        oracle = [
            _per_view_row(DegradedNetwork(ctx.net, ctx.scenario(i), family=ctx.family),
                          metrics, bound)
            for i in range(200)
        ]
        assert ctx.run_range(0, 200) == oracle
        for batch in (1, 7, 25, 200):  # sub-batches, across a chunk boundary
            ctx.batch = batch
            assert ctx.run_range(0, 13) + ctx.run_range(13, 200) == oracle
        summary = _summarize(prepared, oracle)
        kw = dict(model=model, faults=faults, trials=200, seed=3, metrics=metrics,
                  backend="batched")
        assert repro.resilience_sweep(spec, **kw).to_json() == summary.to_json()
        # two pooled chunks of 100: the boundary falls inside a sub-batch
        assert pooled.resilience_sweep(spec, **kw).to_json() == summary.to_json()
