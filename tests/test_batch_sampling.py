"""Batch fault draws: CPython's ``random`` replayed bit for bit.

The vectorized kernel draws the five sample-based built-in fault
models for whole trial batches (:class:`repro.resilience.faults._PickMap`).
Each piece is held to its oracle here:

* the trial seeds to :func:`~repro.resilience.faults.trial_seed`;
* both word sources -- the numpy ``init_by_array`` replay and the
  reseeded C generator -- to ``random.Random(x).getrandbits(32)``;
* the replayed draw to ``Random.sample`` and ``Random.randrange``;
* each model's masks to its scalar ``sample_faults`` on the same seed,
  row by row, including rows a short word budget hands back;
* whole sweeps to the batched backend, above the real crossover.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import build
from repro.resilience import faults, survivability_sweep
from repro.resilience.faults import (
    AdversarialFirstHopFaults,
    GroupBlockOutage,
    UniformCouplerFaults,
    UniformLinkFaults,
    UniformProcessorFaults,
    trial_seed,
    trial_seeds,
)
from repro.resilience.sweep import _ArrayNetworkProxy, _TopologyArrays

#: The sample-based built-ins the batch draw covers (not Bernoulli).
SAMPLE_MODELS = (
    UniformCouplerFaults,
    UniformProcessorFaults,
    UniformLinkFaults,
    GroupBlockOutage,
    AdversarialFirstHopFaults,
)
#: One spec per family, plus sk(2,3,2), whose 36 couplers and 24
#: processors take ``Random.sample``'s set branch.
SPECS = ("sk(2,2,2)", "sk(3,2,2)", "pops(2,3)", "sops(6)", "sii(2,2,6)", "sk(2,3,2)")
EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1)
#: ``_REPLAY_MIN_ROWS`` values that force each word source.
SOURCES = {"numpy": 1, "c": math.inf}
ONE_SOURCE = settings(
    max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def scalar_words(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.getrandbits(32) for _ in range(count)]


def proxy(spec: str) -> _ArrayNetworkProxy:
    return _ArrayNetworkProxy(_TopologyArrays.from_network(build(spec)))


@given(
    seed=st.integers(-(2**70), 2**70),
    lo=st.integers(0, 10**7),
    rows=st.integers(0, 40),
)
def test_trial_seeds_equal_the_scalar_stream(seed, lo, rows):
    seeds = trial_seeds(seed, lo, lo + rows)
    assert seeds.dtype == np.uint64
    assert seeds.tolist() == [trial_seed(seed, i) for i in range(lo, lo + rows)]


class TestWordSources:
    @pytest.mark.parametrize("source", sorted(SOURCES))
    @ONE_SOURCE
    @given(
        seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=12),
        count=st.integers(1, faults._MT_WORDS),
    )
    def test_words_equal_getrandbits(self, monkeypatch, source, seeds, count):
        monkeypatch.setattr(faults, "_REPLAY_MIN_ROWS", SOURCES[source])
        column = [*seeds, *EDGE_SEEDS]
        words = faults._word_stream(np.array(column, dtype=np.uint64), count)
        assert words.shape == (count, len(column))
        assert words.T.tolist() == [scalar_words(s, count) for s in column]

    def test_replay_pieces_join_in_row_order(self, monkeypatch):
        monkeypatch.setattr(faults, "_REPLAY_MIN_ROWS", 1)
        monkeypatch.setattr(faults, "_REPLAY_ROWS", 3)
        seeds = np.array([*EDGE_SEEDS, *trial_seeds(9, 0, 6)], dtype=np.uint64)
        words = faults._word_stream(seeds, 5)
        assert words.T.tolist() == [scalar_words(s, 5) for s in seeds.tolist()]

    def test_a_kernel_batch_replays_in_one_piece(self, monkeypatch):
        from repro.resilience.sweep import _VECTOR_BATCH

        pieces = []
        replay = faults._replayed_words

        def counted(seeds, count):
            pieces.append(len(seeds))
            return replay(seeds, count)

        monkeypatch.setattr(faults, "_replayed_words", counted)
        faults._word_stream(trial_seeds(4, 0, _VECTOR_BATCH), 3)
        assert pieces == [_VECTOR_BATCH]


@given(
    seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8),
    n=st.integers(0, 400),
    data=st.data(),
)
def test_replayed_sample_equals_random_sample(seeds, n, data):
    # both branches: a pool up to the set size, redraws above it
    k = data.draw(st.integers(0, min(n, 30)))
    count = min(2 * k + 8, faults._MT_WORDS)
    column = np.array(seeds, dtype=np.uint64)
    picks, ok = faults._replay_sample(faults._word_stream(column, count), n, k)
    for j, s in enumerate(seeds):
        if ok[j]:
            assert picks[:, j].tolist() == random.Random(s).sample(range(n), k)
    # a draw that outruns its words is handed back, never guessed
    full, _ = faults._replay_sample(
        faults._word_stream(column, faults._MT_WORDS), n, k
    )
    assert (full[:, ok] == picks[:, ok]).all()


@pytest.mark.parametrize(
    "n,k", [(21, 3), (22, 3), (85, 6), (86, 6), (341, 30), (342, 30)]
)
def test_replayed_sample_at_the_set_size_edges(n, k):
    # sample's branch turns on n <= 21 + 4 ** ceil(log(3k, 4)) (k > 5)
    seeds = trial_seeds(n * k, 0, 64)
    picks, ok = faults._replay_sample(
        faults._word_stream(seeds, faults._MT_WORDS), n, k
    )
    assert ok.all()
    assert picks.T.tolist() == [
        random.Random(s).sample(range(n), k) for s in seeds.tolist()
    ]


@given(seed=st.integers(0, 2**64 - 1), g=st.integers(1, 5000))
def test_randrange_is_a_one_pick_sample(seed, g):
    picks, ok = faults._replay_sample(
        faults._word_stream(np.array([seed], dtype=np.uint64), 10), g, 1
    )
    if ok[0]:
        assert picks[0, 0] == random.Random(seed).randrange(g)


def batch_masks_match_scalar(model, net, seeds) -> int:
    """Assert each batch row equals the scalar draw; count handed back."""
    dead, direct, back = model._pick_map(net).draw(seeds)
    back = set(back.tolist())
    for j, seed in enumerate(seeds.tolist()):
        if j in back:  # left fault-free for the scalar sampler to fill
            assert not dead[j].any() and not direct[j].any()
            continue
        couplers, processors = model.sample_faults(net, random.Random(seed))
        assert set(np.flatnonzero(direct[j]).tolist()) == couplers
        assert set(np.flatnonzero(dead[j]).tolist()) == processors
    return len(back)


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("cls", SAMPLE_MODELS, ids=lambda cls: cls.key)
def test_batch_masks_equal_scalar_draws(spec, cls):
    net = proxy(spec)
    for count in range(cls(0).max_faults(net) + 2):  # 0 .. cap + 1
        seeds = np.array(
            [*EDGE_SEEDS, *trial_seeds(count, 0, 120)], dtype=np.uint64
        )
        batch_masks_match_scalar(cls(count), net, seeds)


@pytest.mark.parametrize("cls", SAMPLE_MODELS, ids=lambda cls: cls.key)
def test_short_word_budget_hands_rows_back(monkeypatch, cls):
    stream = faults._word_stream
    monkeypatch.setattr(
        faults, "_word_stream", lambda seeds, count: stream(seeds, min(count, 1))
    )
    net = proxy("sk(2,2,2)")
    seeds = trial_seeds(4, 0, 200)
    assert batch_masks_match_scalar(cls(2), net, seeds) > 0
    # the sweep fills every handed-back row from the scalar sampler
    model = cls(2)
    kw = dict(trials=200, seed=4, metrics="connectivity")
    vectorized = survivability_sweep("sk(2,2,2)", model, backend="vectorized", **kw)
    batched = survivability_sweep("sk(2,2,2)", model, backend="batched", **kw)
    assert vectorized.to_json() == batched.to_json()


def test_victim_without_out_coupler_is_handed_back():
    # sops(6) is one group: every adversarial draw falls back
    net = proxy("sops(6)")
    seeds = trial_seeds(0, 0, 16)
    assert batch_masks_match_scalar(AdversarialFirstHopFaults(1), net, seeds) == 16


@pytest.mark.parametrize("model,count", [("coupler", 1), ("link", 2)])
def test_sweep_above_the_crossover_equals_batched(model, count):
    trials = 3000
    assert trials > faults._REPLAY_MIN_ROWS
    kw = dict(faults=count, trials=trials, seed=2**40 + 3, metrics="connectivity")
    vectorized = survivability_sweep("sk(2,2,2)", model, backend="vectorized", **kw)
    batched = survivability_sweep("sk(2,2,2)", model, backend="batched", **kw)
    assert vectorized.to_json() == batched.to_json()
