"""Composable fault models: seeded generators of `FaultScenario`s.

The paper's fault-tolerance story (Sec. 2.5) is analytic; this module
makes failures a first-class workload.  A :class:`FaultModel` samples
*which* components break -- couplers (hyperarcs), processors, or whole
fiber links -- and a :class:`FaultScenario` freezes one such draw so it
can be replayed, hashed, pickled across ``multiprocessing`` workers and
serialized into sweep reports.

Determinism contract: a scenario is fully determined by
``(model, spec, seed)``.  :func:`trial_seed` derives per-trial seeds
from a sweep seed via SHA-256, so trial ``i`` sees the same faults no
matter how trials are sharded over workers.  The vectorized sweep
kernel draws the five sample-based built-ins for whole trial batches
(:class:`_PickMap`): it replays each trial's ``random.Random(seed)``
word stream and ``Random.sample`` in numpy, so every batch draw equals
the scalar :meth:`FaultModel.sample_faults` bit for bit, and that
scalar sampler stays the oracle and the fallback.

>>> from repro.core import build
>>> net = build("sk(2,2,2)")
>>> model = UniformCouplerFaults(faults=1)
>>> model.scenario("sk(2,2,2)", net, seed=7).couplers \\
...     == model.scenario("sk(2,2,2)", net, seed=7).couplers
True
"""

from __future__ import annotations

import _random
import hashlib
import random
from dataclasses import dataclass, field
from math import ceil as _ceil, log as _log
from typing import ClassVar

import numpy as np

__all__ = [
    "FaultScenario",
    "FaultModel",
    "BernoulliCouplerFaults",
    "UniformCouplerFaults",
    "UniformProcessorFaults",
    "UniformLinkFaults",
    "AdversarialFirstHopFaults",
    "GroupBlockOutage",
    "FAULT_MODELS",
    "make_fault_model",
    "resolve_fault_model",
    "fault_model_keys",
    "trial_seed",
    "trial_seeds",
    "scenarios",
    "coupler_endpoints",
]


def group_of(net, processor: int) -> int:
    """Group of a processor, via the protocol's ``label_of``."""
    return int(net.label_of(processor)[0])


def coupler_endpoints(net) -> list[tuple[int, int]]:
    """``(src_group, dst_group)`` per coupler, in hyperarc order.

    Reads the base digraph's CSR arc order when the network has one
    (stack families, POPS); otherwise derives the group pair from the
    hyperarc's source/target blocks (single-OPS).
    """
    if hasattr(net, "base_graph"):
        return [
            (int(u), int(v)) for u, v in net.base_graph().arc_array().tolist()
        ]
    model = net.hypergraph_model()
    return [
        (group_of(net, ha.sources[0]), group_of(net, ha.targets[0]))
        for ha in model.hyperarcs
    ]


def _out_couplers(net) -> list[list[int]]:
    """Each group's non-loop out-couplers, lowest index first."""
    out: list[list[int]] = [[] for _ in range(net.num_groups)]
    for idx, (u, v) in enumerate(coupler_endpoints(net)):
        if u != v:
            out[u].append(idx)
    return out


@dataclass(frozen=True)
class FaultScenario:
    """One concrete set of broken components on one network.

    ``couplers`` are hyperarc indices of dead OPS couplers;
    ``processors`` are flat ids of dead processors.  The scenario is
    hashable and picklable, and remembers the ``(model, seed)`` that
    produced it so sweep rows are self-describing.
    """

    spec: str
    model: str
    seed: int
    couplers: frozenset[int] = field(default_factory=frozenset)
    processors: frozenset[int] = field(default_factory=frozenset)

    @property
    def size(self) -> int:
        """Total number of injected faults."""
        return len(self.couplers) + len(self.processors)

    def as_dict(self) -> dict[str, object]:
        """JSON-ready view (fault sets sorted for stable output)."""
        return {
            "spec": self.spec,
            "model": self.model,
            "seed": self.seed,
            "couplers": sorted(self.couplers),
            "processors": sorted(self.processors),
        }

    def __str__(self) -> str:
        return (
            f"FaultScenario({self.spec}, {self.model}, seed={self.seed}, "
            f"couplers={sorted(self.couplers)}, "
            f"processors={sorted(self.processors)})"
        )


@dataclass(frozen=True)
class FaultModel:
    """Base class: a picklable, seeded sampler of fault scenarios.

    ``faults`` is the model's intensity knob -- how many components
    (couplers, processors, links or group blocks, depending on the
    subclass) one scenario breaks.
    """

    faults: int = 1
    key: ClassVar[str] = ""

    def sample_faults(
        self, net, rng: random.Random
    ) -> tuple[set[int], set[int]]:
        """``(dead couplers, dead processors)`` for one draw."""
        raise NotImplementedError

    def max_faults(self, net) -> int | None:
        """The largest intensity fully injectable into ``net``.

        Every sampler caps its draw so the machine retains a shred of
        life (at least one coupler, two processors, one group...); a
        scenario asked for more faults than this silently injects
        fewer.  Consumers that compare machines -- the design search
        above all -- use this to *skip* candidates too small to absorb
        the requested intensity instead of crowning them immune.
        ``None`` means the model cannot say (custom models without an
        override); built-ins all report an exact cap.
        """
        return None

    def scenario(self, spec: str, net, seed: int) -> FaultScenario:
        """The deterministic scenario for ``(self, spec, seed)``."""
        couplers, processors = self.sample_faults(net, random.Random(seed))
        return FaultScenario(
            spec=str(spec),
            model=self.key,
            seed=int(seed),
            couplers=frozenset(couplers),
            processors=frozenset(processors),
        )


@dataclass(frozen=True)
class UniformCouplerFaults(FaultModel):
    """``faults`` couplers chosen uniformly at random (all kinds)."""

    key: ClassVar[str] = "coupler"

    def _space(self, net) -> tuple[range, int]:
        """``(population, k)`` of the draw's ``rng.sample``."""
        m = net.num_couplers
        return range(m), min(self.faults, max(m - 1, 0))

    def sample_faults(self, net, rng: random.Random):
        return set(rng.sample(*self._space(net))), set()

    def _pick_map(self, net) -> "_PickMap":
        population, k = self._space(net)  # pick i is coupler i
        return _PickMap(net, len(population), k, couplers=population)

    def max_faults(self, net) -> int:
        return max(net.num_couplers - 1, 0)


@dataclass(frozen=True)
class BernoulliCouplerFaults(FaultModel):
    """Every coupler fails independently with one per-coupler probability.

    The rare-event workhorse: unlike the fixed-count models its fault
    *cardinality* is a full Binomial distribution, which is what the
    stratified/importance estimators in
    :mod:`~repro.resilience.adaptive` redistribute trials over.  The
    per-coupler probability is ``rate`` when given, else
    ``faults / num_couplers`` (so ``faults`` keeps its meaning as the
    *expected* fault count for string-keyed construction).  Draws are
    deliberately uncapped -- a scenario may kill every coupler -- so
    the cardinality law is exactly ``Binomial(m, p)`` and, conditioned
    on ``k`` deaths, the dead set is exactly uniform over
    ``k``-subsets.  That exchangeability is what makes the reweighted
    estimators unbiased rather than approximate.
    """

    key: ClassVar[str] = "bernoulli"

    rate: float | None = None

    def __post_init__(self) -> None:
        if self.rate is not None and not 0.0 <= self.rate <= 1.0:
            raise ValueError(
                f"rate must be a probability in [0, 1], got {self.rate}"
            )

    def probability(self, net) -> float:
        """The per-coupler failure probability on ``net``."""
        if self.rate is not None:
            return self.rate
        m = net.num_couplers
        return min(self.faults / m, 1.0) if m else 0.0

    def sample_faults(self, net, rng: random.Random):
        p = self.probability(net)
        return (
            {c for c in range(net.num_couplers) if rng.random() < p},
            set(),
        )

    def max_faults(self, net) -> int:
        return net.num_couplers


@dataclass(frozen=True)
class UniformProcessorFaults(FaultModel):
    """``faults`` processors chosen uniformly (at least two survive)."""

    key: ClassVar[str] = "processor"

    def _space(self, net) -> tuple[range, int]:
        """``(population, k)`` of the draw's ``rng.sample``."""
        n = net.num_processors
        return range(n), min(self.faults, max(n - 2, 0))

    def sample_faults(self, net, rng: random.Random):
        return set(), set(rng.sample(*self._space(net)))

    def _pick_map(self, net) -> "_PickMap":
        population, k = self._space(net)  # pick i is processor i
        return _PickMap(net, len(population), k, processors=population)

    def max_faults(self, net) -> int:
        return max(net.num_processors - 2, 0)


@dataclass(frozen=True)
class UniformLinkFaults(FaultModel):
    """``faults`` whole fiber links: both orientations die together.

    A link is an unordered non-loop group pair; killing it disables
    every coupler over either orientation -- the undirected "link
    fault" of the paper's ``d - 1`` claim (and the orientation-blind
    arc semantics of :class:`repro.routing.FaultSet`).
    """

    key: ClassVar[str] = "link"

    def _space(self, ends) -> tuple[list[tuple[int, int]], int]:
        """``(population, k)`` of the draw's ``rng.sample``: sorted links."""
        links = sorted({(min(u, v), max(u, v)) for u, v in ends if u != v})
        return links, min(self.faults, max(len(links) - 1, 0))

    def sample_faults(self, net, rng: random.Random):
        ends = coupler_endpoints(net)
        picked = set(rng.sample(*self._space(ends)))
        chosen = {
            idx
            for idx, (u, v) in enumerate(ends)
            if u != v and (min(u, v), max(u, v)) in picked
        }
        return chosen, set()

    def _pick_map(self, net) -> "_PickMap":
        ends = coupler_endpoints(net)
        links, k = self._space(ends)
        index = {link: i for i, link in enumerate(links)}
        killed = [index[min(u, v), max(u, v)] if u != v else -1 for u, v in ends]
        return _PickMap(net, len(links), k, couplers=killed)

    def max_faults(self, net) -> int:
        return max(len(self._space(coupler_endpoints(net))[0]) - 1, 0)


@dataclass(frozen=True)
class AdversarialFirstHopFaults(FaultModel):
    """Worst-first-hop attack: kill out-couplers of one victim group.

    Fault tolerance on stack-Kautz rests on the ``d`` distinct first
    hops of the candidate-path family (Sec. 2.5); this model attacks
    exactly that diversity by disabling ``faults`` of the victim
    group's non-loop out-couplers.  The victim is drawn from the seed,
    the couplers killed are the lowest-indexed ones -- deterministic
    given the victim.
    """

    key: ClassVar[str] = "adversarial"

    def sample_faults(self, net, rng: random.Random):
        victim = rng.randrange(net.num_groups)
        outgoing = _out_couplers(net)[victim]
        if not outgoing:  # single-group machine: fall back to any coupler
            return UniformCouplerFaults(self.faults).sample_faults(net, rng)
        return set(outgoing[: self.faults]), set()

    def _pick_map(self, net) -> "_PickMap":
        # randrange(g) reads exactly the words of sample(range(g), 1); a
        # victim with no out-coupler goes on to a coupler draw, which
        # the scalar sampler makes
        out = _out_couplers(net)
        killed = [-1] * net.num_couplers
        for victim, outgoing in enumerate(out):
            for idx in outgoing[: self.faults]:
                killed[idx] = victim
        idle = [victim for victim, outgoing in enumerate(out) if not outgoing]
        return _PickMap(net, net.num_groups, 1, couplers=killed, handback=idle)

    def max_faults(self, net) -> int:
        # the weakest possible victim bounds what every seed can absorb;
        # a victim with no non-loop out-couplers takes the any-coupler
        # fallback, whose own cap is num_couplers - 1
        fallback = max(net.num_couplers - 1, 0)
        return min(len(outgoing) or fallback for outgoing in _out_couplers(net))


@dataclass(frozen=True)
class GroupBlockOutage(FaultModel):
    """Correlated outage: ``faults`` whole group blocks go dark.

    Models a failed OTIS block / power domain: every processor of the
    chosen groups dies, along with every coupler touching them.
    At least one group always survives.
    """

    key: ClassVar[str] = "group"

    def _space(self, net) -> tuple[range, int]:
        """``(population, k)`` of the draw's ``rng.sample``."""
        g = net.num_groups
        return range(g), min(self.faults, max(g - 1, 0))

    def sample_faults(self, net, rng: random.Random):
        dead_groups = set(rng.sample(*self._space(net)))
        ends = coupler_endpoints(net)
        couplers = {
            idx
            for idx, (u, v) in enumerate(ends)
            if u in dead_groups or v in dead_groups
        }
        processors = {
            p
            for p in range(net.num_processors)
            if group_of(net, p) in dead_groups
        }
        return couplers, processors

    def _pick_map(self, net) -> "_PickMap":
        population, k = self._space(net)
        groups = [group_of(net, p) for p in range(net.num_processors)]
        ends = coupler_endpoints(net)
        return _PickMap(net, len(population), k, couplers=ends, processors=groups)

    def max_faults(self, net) -> int:
        return max(net.num_groups - 1, 0)


FAULT_MODELS: dict[str, type[FaultModel]] = {
    cls.key: cls
    for cls in (
        UniformCouplerFaults,
        BernoulliCouplerFaults,
        UniformProcessorFaults,
        UniformLinkFaults,
        AdversarialFirstHopFaults,
        GroupBlockOutage,
    )
}


def fault_model_keys() -> tuple[str, ...]:
    """All registered fault-model keys, sorted."""
    return tuple(sorted(FAULT_MODELS))


def make_fault_model(key: str, faults: int = 1) -> FaultModel:
    """The fault model named ``key`` with intensity ``faults``.

    >>> make_fault_model("coupler", 2)
    UniformCouplerFaults(faults=2)
    """
    try:
        cls = FAULT_MODELS[key.strip().lower()]
    except KeyError:
        known = ", ".join(fault_model_keys())
        raise ValueError(
            f"unknown fault model {key!r}; known models: {known}"
        ) from None
    if faults < 0:
        raise ValueError(f"faults must be >= 0, got {faults}")
    return cls(faults=faults)


def resolve_fault_model(model, faults: int | None = None) -> FaultModel:
    """``model`` as a :class:`FaultModel` instance.

    A registered key takes intensity ``faults`` (default 1); an instance
    already carries its own, so combining it with ``faults`` is an
    error.

    >>> resolve_fault_model("link", 2)
    UniformLinkFaults(faults=2)
    """
    if isinstance(model, str):
        return make_fault_model(model, 1 if faults is None else faults)
    if not isinstance(model, FaultModel):
        raise TypeError(
            f"model must be a fault-model key or FaultModel, "
            f"got {type(model).__name__}"
        )
    if faults is not None:
        raise ValueError(
            "faults applies to string model keys; a FaultModel instance "
            "already carries its intensity"
        )
    return model


def trial_seed(seed: int, index: int) -> int:
    """Deterministic, platform-stable per-trial seed.

    SHA-256 of ``"seed:index"`` keeps trial streams independent of the
    worker count and of Python's hash randomization.
    """
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def trial_seeds(seed: int, lo: int, hi: int) -> np.ndarray:
    """``trial_seed(seed, i)`` for ``i`` in ``lo .. hi - 1``, as uint64.

    >>> trial_seeds(3, 0, 2).tolist() == [trial_seed(3, 0), trial_seed(3, 1)]
    True
    """
    prefix = f"{seed}:".encode()
    sha256 = hashlib.sha256
    digests = b"".join([sha256(prefix + b"%d" % i).digest() for i in range(lo, hi)])
    return np.frombuffer(digests, ">u8")[::4].astype(np.uint64)


# ----------------------------------------------------------------------
# Batch draws: CPython's random.Random(seed) word streams, replayed for
# whole batches of trial seeds (Modules/_randommodule.c, random.py).
# ----------------------------------------------------------------------
#: Mersenne Twister state length and twist offset.
_MT_N, _MT_M = 624, 397
#: Words a freshly seeded generator yields from its seeded state alone
#: (word ``w < N - M`` twists state words not yet overwritten).
_MT_WORDS = _MT_N - _MT_M
_U32 = np.uint32


def _genrand_base() -> list[np.ndarray]:
    """``init_genrand(19650218)``, the state ``init_by_array`` mixes into."""
    mt = [19650218]
    for i in range(1, _MT_N):
        mt.append((1812433253 * (mt[-1] ^ (mt[-1] >> 30)) + i) & 0xFFFFFFFF)
    return [np.array(word, dtype=_U32) for word in mt]


# 0-d operands: a ufunc takes them faster than numpy scalars
_MT_BASE = _genrand_base()
_MT_INDEX = [np.array(i, dtype=_U32) for i in range(_MT_N)]
_C30, _C1, _C2 = (np.array(c, dtype=_U32) for c in (30, 1664525, 1566083941))

#: Batch rows from which the numpy seeding replay beats reseeding one C
#: generator per row: the replay's ~6,200 ufunc calls cost ~2.3 ms a
#: batch, ~500 reseeds at ~5.8 us (measured on a 2-vCPU x86 host).
_REPLAY_MIN_ROWS = 512
#: Most rows one replay's ``(624, rows)`` state holds (2.5 KB a row): a
#: bigger batch is replayed in even pieces.  It is the kernel batch
#: (``sweep._VECTOR_BATCH``), so a batch replays in one piece (~10 MB
#: of state); the kernel's rows with equal fault masks share one dict
#: (``_VectorContext.score``), which frees more than that.
_REPLAY_ROWS = 4096


def _c_words(seeds: np.ndarray, count: int) -> np.ndarray:
    """``(count, rows)`` words from one C generator reseeded per row."""
    rng, chunks = _random.Random(0), []
    for s in seeds.tolist():
        _random.Random.seed(rng, s)
        # getrandbits(32 * count) packs the next count words little-endian
        chunks.append(rng.getrandbits(32 * count).to_bytes(4 * count, "little"))
    words = np.frombuffer(b"".join(chunks), "<u4").reshape(len(seeds), count)
    return np.ascontiguousarray(words.T, dtype=_U32)


def _replayed_words(seeds: np.ndarray, count: int) -> np.ndarray:
    """``(count, rows)`` words of seeds in ``[2**32, 2**64)``, in numpy.

    ``Random.seed`` splits such a seed into the 2-word key ``[lo, hi]``
    and runs ``init_by_array`` over it; each step below is one in-place
    ufunc over a ``(rows,)`` row of the ``(624, rows)`` state.
    """
    # key[j] + j, the addend of init_by_array's first loop
    addend = ((seeds & 0xFFFFFFFF).astype(_U32), (seeds >> 32).astype(_U32) + _U32(1))
    mt = np.empty((_MT_N, len(seeds)), dtype=_U32)
    row, tmp = list(mt), np.empty(len(seeds), dtype=_U32)  # views made once

    def mix(i: int, factor: np.ndarray) -> np.ndarray:
        # tmp = (mt[i-1] ^ (mt[i-1] >> 30)) * factor; returns mt[i]
        np.right_shift(row[i - 1], _C30, tmp)
        np.bitwise_xor(tmp, row[i - 1], tmp)
        np.multiply(tmp, factor, tmp)
        return row[i]

    # first loop: 624 steps over rows 1..623, then row 1 again; the
    # first visit of a row meets init_genrand's word, the same for all
    row[0][:] = _MT_BASE[0]
    for i in range(1, _MT_N):
        np.bitwise_xor(tmp, _MT_BASE[i], mix(i, _C1))
        row[i] += addend[(i - 1) & 1]
    row[0][:] = row[-1]
    mix(1, _C1)
    row[1] ^= tmp
    row[1] += addend[1]
    # second loop: 623 steps over rows 2..623, then row 1
    for i in (*range(2, _MT_N), 1):
        if i == 1:
            row[0][:] = row[-1]
        mix(i, _C2)
        row[i] ^= tmp
        row[i] -= _MT_INDEX[i]
    mt[0] = 0x80000000
    # genrand_uint32's first twist, word by word, then tempering
    y = (mt[:count] & _U32(0x80000000)) | (mt[1 : count + 1] & _U32(0x7FFFFFFF))
    words = mt[_MT_M : _MT_M + count] ^ (y >> 1) ^ ((y & 1) * _U32(0x9908B0DF))
    words ^= words >> 11
    words ^= (words << 7) & _U32(0x9D2C5680)
    words ^= (words << 15) & _U32(0xEFC60000)
    words ^= words >> 18
    return words


def _word_stream(seeds: np.ndarray, count: int) -> np.ndarray:
    """``(count, rows)`` uint32: each seed's first ``count`` words.

    Column ``j`` is ``[random.Random(s).getrandbits(32) for _ in
    range(count)]`` for ``s = seeds[j]`` and ``count <= 227``.  A big
    batch is replayed in numpy, in one piece up to :data:`_REPLAY_ROWS`
    seeds (a whole kernel batch), apart from seeds under ``2**32``,
    whose 1-word key seeds differently; those and small batches reseed
    one C generator per row.  Columns are independent, so the pieces
    never change a word.
    """
    if not count:
        return np.zeros((0, len(seeds)), dtype=_U32)
    if len(seeds) < _REPLAY_MIN_ROWS:
        return _c_words(seeds, count)
    pieces = np.array_split(seeds, -(-len(seeds) // _REPLAY_ROWS))
    words = np.concatenate([_replayed_words(p, count) for p in pieces], axis=1)
    short = np.flatnonzero(seeds < 2**32)
    if short.size:
        words[:, short] = _c_words(seeds[short], count)
    return words


def _pick_table(rows, length: int) -> np.ndarray:
    """``(length, w)`` int64 picks per row (``w`` may be 0)."""
    table = np.asarray(rows, dtype=np.int64)
    return table.reshape(length, -1 if table.size else 0)


def _replay_sample(words: np.ndarray, n: int, k: int):
    """``Random.sample(range(n), k)`` replayed over each column of words.

    Returns ``(picks, ok)``: ``picks`` is ``(k, rows)`` int64 in draw
    order, and ``ok`` marks the rows that finished within their words
    (the other rows' picks mean nothing).  ``_randbelow(b)`` takes a
    row's next word until ``word >> (32 - b.bit_length()) < b``; a
    population of ``n`` up to the set size swap-removes from a pool,
    a larger one redraws a repeated pick -- both as in ``random.py``.
    """
    rows = words.shape[1]
    picks = np.full((k, rows), -1, dtype=np.int64)
    made = np.zeros(rows, dtype=np.int64)  # picks drawn so far, per row
    if k > n or n.bit_length() > 32:  # an error, or two words per draw
        return picks, made < 0
    pooled = n <= 21 + (4 ** _ceil(_log(k * 3, 4)) if k > 5 else 0)
    # the bound of each row's next _randbelow, by picks made so far
    bounds = n - np.arange(k + 1) if pooled else np.full(k + 1, n)
    shifts = np.array([32 - max(int(b), 1).bit_length() for b in bounds], _U32)
    pool = np.tile(np.arange(n), (rows, 1)) if pooled else None
    taken = None if pooled else np.zeros((rows, n), dtype=bool)
    live = np.flatnonzero(made < k)
    for word in words:
        if not live.size:
            break
        i = made[live]
        value = (word[live] >> shifts[i]).astype(np.int64)
        hit = value < bounds[i]
        if not pooled:
            hit &= ~taken[live, np.minimum(value, n - 1)]
        r, i, value = live[hit], i[hit], value[hit]
        if pooled:  # the pick's slot takes the pool's last live entry
            picks[i, r] = pool[r, value]
            pool[r, value] = pool[r, n - 1 - i]
        else:
            picks[i, r] = value
            taken[r, value] = True
        made[r] += 1
        live = live[made[live] < k]
    return picks, made == k


class _PickMap:
    """A sample-based model's draw, replayed for whole batches of seeds.

    A draw is ``rng.sample(range(size), k)``.  Coupler ``c`` dies when
    a pick is in ``couplers[c]`` and processor ``p`` when one is in
    ``processors[p]`` (each a list of picks, ``-1`` for none); a draw
    with a pick in ``handback`` is left to the scalar sampler.
    """

    def __init__(self, net, size, k, *, couplers=(), processors=(), handback=()):
        self.size, self.k = size, k
        self.couplers = _pick_table(couplers, net.num_couplers)
        self.processors = _pick_table(processors, net.num_processors)
        self.handback = np.asarray(handback, dtype=np.int64)

    def draw(self, seeds: np.ndarray):
        """``(dead_processors, direct_couplers, handed_back)`` per seed.

        Mask row ``j`` is the draw of ``random.Random(seeds[j])``; the
        rows listed in ``handed_back`` stay fault-free here, for the
        scalar sampler to fill: their draw outran the first ``2k + 8``
        words (at most 227) or picked a ``handback`` entry.
        """
        rows = len(seeds)
        count = min(2 * self.k + 8, _MT_WORDS) if self.k else 0
        picks, ok = _replay_sample(_word_stream(seeds, count), self.size, self.k)
        # a column per population entry, and a last one that the -1 of
        # a pad or of an unfinished row's pick indexes: it ends up clear
        chosen = np.zeros((rows, self.size + 1), dtype=bool)
        chosen[np.arange(rows), picks] = True
        back = ~ok | chosen[:, self.handback].any(axis=1)
        chosen[back] = False
        return (
            chosen[:, self.processors].any(axis=2),
            chosen[:, self.couplers].any(axis=2),
            np.flatnonzero(back),
        )


def scenarios(model: FaultModel, spec, *, trials: int, seed: int = 0):
    """Yield ``trials`` deterministic scenarios of ``model`` on ``spec``.

    >>> list(scenarios(UniformCouplerFaults(1), "pops(2,2)", trials=2,
    ...                seed=3))[0].model
    'coupler'
    """
    from ..core.spec import NetworkSpec

    parsed = NetworkSpec.parse(spec)
    net = parsed.build()
    for i in range(trials):
        yield model.scenario(parsed.canonical(), net, trial_seed(seed, i))
