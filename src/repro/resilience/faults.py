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
matter how trials are sharded over workers.

>>> from repro.core import build
>>> net = build("sk(2,2,2)")
>>> model = UniformCouplerFaults(faults=1)
>>> model.scenario("sk(2,2,2)", net, seed=7).couplers \\
...     == model.scenario("sk(2,2,2)", net, seed=7).couplers
True
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import ClassVar

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

    def sample_faults(self, net, rng: random.Random):
        m = net.num_couplers
        return set(rng.sample(range(m), min(self.faults, max(m - 1, 0)))), set()

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

    def sample_faults(self, net, rng: random.Random):
        n = net.num_processors
        return set(), set(rng.sample(range(n), min(self.faults, max(n - 2, 0))))

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

    def sample_faults(self, net, rng: random.Random):
        ends = coupler_endpoints(net)
        links = sorted({(min(u, v), max(u, v)) for u, v in ends if u != v})
        picked = set(rng.sample(links, min(self.faults, max(len(links) - 1, 0))))
        chosen = {
            idx
            for idx, (u, v) in enumerate(ends)
            if u != v and (min(u, v), max(u, v)) in picked
        }
        return chosen, set()

    def max_faults(self, net) -> int:
        ends = coupler_endpoints(net)
        links = {(min(u, v), max(u, v)) for u, v in ends if u != v}
        return max(len(links) - 1, 0)


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
        ends = coupler_endpoints(net)
        victim = rng.randrange(net.num_groups)
        outgoing = sorted(
            idx for idx, (u, v) in enumerate(ends) if u == victim and u != v
        )
        if not outgoing:  # single-group machine: fall back to any coupler
            m = net.num_couplers
            return (
                set(rng.sample(range(m), min(self.faults, max(m - 1, 0)))),
                set(),
            )
        return set(outgoing[: self.faults]), set()

    def max_faults(self, net) -> int:
        ends = coupler_endpoints(net)
        per_group = [0] * net.num_groups
        for u, v in ends:
            if u != v:
                per_group[u] += 1
        # the weakest possible victim bounds what every seed can absorb;
        # a victim with no non-loop out-couplers takes the any-coupler
        # fallback, whose own cap is num_couplers - 1
        fallback = max(net.num_couplers - 1, 0)
        return min(c if c > 0 else fallback for c in per_group)


@dataclass(frozen=True)
class GroupBlockOutage(FaultModel):
    """Correlated outage: ``faults`` whole group blocks go dark.

    Models a failed OTIS block / power domain: every processor of the
    chosen groups dies, along with every coupler touching them.
    At least one group always survives.
    """

    key: ClassVar[str] = "group"

    def sample_faults(self, net, rng: random.Random):
        g = net.num_groups
        dead_groups = set(
            rng.sample(range(g), min(self.faults, max(g - 1, 0)))
        )
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
