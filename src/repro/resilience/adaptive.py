"""Adaptive and rare-event Monte-Carlo estimation for survivability sweeps.

Three estimator upgrades over the plain fixed-count sweep, all of them
exactly unbiased for the survival probability ``P(no surviving pair is
severed)`` and all preserving the sweep's byte-identity contract
(same request => same JSON at any worker count):

* **sequential stopping** (``ci_target=``) -- trials run in
  deterministic waves (:func:`wave_schedule`); after each wave the
  parent recomputes the survival confidence interval from the
  aggregate rows alone and stops once its half-width is at most the
  target.  Workers never vote: the stop decision is a pure function of
  the trial prefix, so worker count cannot change it.
* **stratified sampling** (``sampling="stratified"``) -- the fault
  *cardinality* (how many components die) is partitioned into strata
  (:func:`build_strata`); each trial's stratum is a pure function of
  its index (:class:`StratifiedSampler`), trials are allocated
  proportionally per wave (:func:`allocate_strata`), and the combined
  estimator reweights per-stratum means by exact stratum masses.
* **importance sampling** (``sampling="importance"``) -- cardinality
  is drawn from a defensive mixture proposal biased toward high fault
  counts (:class:`ImportanceSampler`); every draw is reweighted by the
  exact likelihood ratio ``pmf(k) / proposal(k)``, which the parent
  replays per index to aggregate.

Unbiasedness rests on one structural fact: every supported fault model
is *exchangeable within a cardinality* -- conditioned on ``k``
components dying, the dead set is uniform over ``k``-subsets.  The
samplers redistribute mass across cardinalities only and keep the
conditional subset draw identical to the target model's, so
reweighting by cardinality mass is exact, not asymptotic.  The
exact-enumeration oracle suite (``tests/test_estimator_oracle.py``)
pins this against ground truth computed by enumerating every fault
set on small machines.

The survival event scored here is the complement of the sweep's
``partitioned_fraction`` indicator: a trial survives when
``alive_connectivity >= 1`` (no *surviving* processor pair severed).
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass

from ..obs.metrics import REGISTRY
from ..obs.trace import span
from .faults import (
    BernoulliCouplerFaults,
    FaultModel,
    FaultScenario,
    UniformCouplerFaults,
    UniformProcessorFaults,
    trial_seed,
)

__all__ = [
    "SAMPLING_MODES",
    "ImportanceSampler",
    "StratifiedSampler",
    "allocate_strata",
    "build_strata",
    "cardinality_profile",
    "check_cardinality_model",
    "survival_estimate",
    "wave_schedule",
    "wilson_interval",
]

#: Registered trial-allocation strategies for the sweep's ``sampling=``.
SAMPLING_MODES = ("uniform", "stratified", "importance")

#: Two-sided 95% normal quantile, frozen so CI bytes never drift with
#: the platform's erf implementation.
Z95 = 1.959964

#: First adaptive wave is at least this many trials (before the cap).
_MIN_WAVE = 64

#: Smallest pmf mass a stratum may hold before it merges with its
#: neighbor (rare tails pool into one stratum instead of starving).
_STRATUM_MASS = 0.05

#: Defensive-mixture weight on the target pmf: the proposal is
#: ``alpha * pmf + (1 - alpha) * uniform``, bounding every likelihood
#: ratio by ``1 / alpha`` however aggressive the tail bias is.
_MIXTURE_ALPHA = 0.25

#: Importance-sampling CIs trust the sample variance only after this
#: many failure hits; below it a Wilson envelope on the (weighted) hit
#: rate guards against the zero-variance instant-stop pathology.
_MIN_HITS = 5

_ROUNDS_HELP = "Adaptive sweep waves executed"
_SAVED_HELP = "Trials saved by sequential stopping vs the requested cap"


def wilson_interval(successes: int, n: int, z: float = Z95) -> tuple[float, float]:
    """The Wilson score interval for a binomial proportion.

    Well-behaved at the boundaries (never collapses to zero width on
    0/n or n/n counts), which is exactly what sequential stopping
    needs: an empty-failure prefix keeps a positive half-width until
    the sample is genuinely large enough.

    >>> lo, hi = wilson_interval(0, 100)
    >>> 0.0 <= lo < hi < 0.1
    True
    """
    if n <= 0:
        return 0.0, 1.0
    p = successes / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2 * n)) / denom
    spread = (z / denom) * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n))
    return max(0.0, center - spread), min(1.0, center + spread)


def wave_schedule(
    trials: int, *, strata: int = 1, ci_target: float | None = None
) -> tuple[int, ...]:
    """Deterministic trial-wave sizes for one sweep.

    Fixed mode (no ``ci_target``) is a single wave of every trial.
    Adaptive mode opens with ``max(64, 4 * strata)`` trials, then
    doubles the cumulative spend each wave (capped at 256 per wave so
    late stops do not overshoot the target by a whole doubling), and
    always sums to exactly ``trials`` -- the cap.  The schedule
    depends only on ``(trials, strata, ci_target is None)``, never on
    results or workers, which is what makes early stopping replayable.

    >>> wave_schedule(1000, ci_target=0.01)
    (64, 64, 128, 256, 256, 232)
    >>> sum(wave_schedule(1000, ci_target=0.01))
    1000
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if ci_target is None:
        return (trials,)
    first = min(trials, max(_MIN_WAVE, 4 * strata))
    waves = [first]
    spent = first
    while spent < trials:
        size = min(spent, 256, trials - spent)
        waves.append(size)
        spent += size
    return tuple(waves)


def rounds_spent(waves: tuple[int, ...], spent: int) -> int:
    """How many waves of ``waves`` produce ``spent`` trials."""
    ends: list[int] = []
    total = 0
    for size in waves:
        total += size
        ends.append(total)
    return min(bisect_right(ends, spent - 1) + 1, len(waves))


def allocate_strata(total: int, weights) -> list[int]:
    """Proportional integer allocation of ``total`` across ``weights``.

    Largest-remainder rounding (ties to the lowest index), then every
    positive-weight stratum is topped up to at least one trial while
    room allows, stealing from the largest allocation.  Deterministic,
    and the result always sums to exactly ``total``.

    >>> allocate_strata(10, [0.85, 0.1, 0.05])
    [8, 1, 1]
    >>> sum(allocate_strata(7, [0.99, 0.005, 0.005]))
    7
    """
    weights = list(weights)
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    if not weights or any(w < 0 for w in weights):
        raise ValueError("weights must be a non-empty list of non-negatives")
    wsum = float(sum(weights))
    if wsum <= 0:
        raise ValueError("at least one weight must be positive")
    shares = [total * (w / wsum) for w in weights]
    counts = [math.floor(s) for s in shares]
    remainder = total - sum(counts)
    order = sorted(
        range(len(weights)), key=lambda h: (counts[h] - shares[h], h)
    )
    for h in order[:remainder]:
        counts[h] += 1
    positive = [h for h, w in enumerate(weights) if w > 0]
    if total >= len(positive):
        for h in positive:
            while counts[h] == 0:
                donor = max(
                    range(len(counts)), key=lambda i: (counts[i], -i)
                )
                if counts[donor] <= 1:
                    break
                counts[donor] -= 1
                counts[h] += 1
    return counts


# ----------------------------------------------------------------------
# Cardinality profiles: each supported model as (axis, size, pmf).
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CardinalityProfile:
    """The exact fault-count distribution of one model on one machine.

    ``axis`` names which component population dies (``"coupler"`` or
    ``"processor"``), ``size`` is that population's size and ``pmf[k]``
    the probability that exactly ``k`` components die.  Conditioned on
    ``k``, every supported model kills a uniform ``k``-subset -- the
    exchangeability that makes stratified/importance reweighting exact.
    """

    axis: str
    size: int
    pmf: tuple[float, ...]

    def support(self) -> tuple[int, ...]:
        """Cardinalities with positive mass, ascending."""
        return tuple(k for k, w in enumerate(self.pmf) if w > 0)


def _binomial_pmf(m: int, p: float) -> tuple[float, ...]:
    """Exact Binomial(m, p) pmf via log-space terms (no scipy)."""
    if p <= 0.0:
        return (1.0,) + (0.0,) * m
    if p >= 1.0:
        return (0.0,) * m + (1.0,)
    logs = [
        math.lgamma(m + 1)
        - math.lgamma(k + 1)
        - math.lgamma(m - k + 1)
        + k * math.log(p)
        + (m - k) * math.log1p(-p)
        for k in range(m + 1)
    ]
    return tuple(math.exp(v) for v in logs)


def check_cardinality_model(model: FaultModel) -> None:
    """Reject ``model`` unless its fault cardinality law is known exactly.

    Non-uniform sampling redistributes trials over fault cardinalities,
    which needs the model's exact cardinality distribution: only
    :class:`UniformCouplerFaults`, :class:`UniformProcessorFaults` and
    :class:`BernoulliCouplerFaults` have one.  The type check is strict
    -- a subclass with its own ``sample_faults`` would silently break
    the replayed-draw contract, so it is rejected instead.
    """
    kind = type(model)
    if kind not in (
        BernoulliCouplerFaults, UniformCouplerFaults, UniformProcessorFaults
    ):
        raise ValueError(
            f"sampling modes other than 'uniform' need a fault model with "
            f"a known cardinality distribution (coupler, processor or "
            f"bernoulli); got {kind.__name__}"
        )


def cardinality_profile(model: FaultModel, net) -> CardinalityProfile:
    """The :class:`CardinalityProfile` of ``model`` on ``net``.

    Supported models (see :func:`check_cardinality_model`):
    :class:`UniformCouplerFaults` and :class:`UniformProcessorFaults`
    (degenerate pmf at their clamped intensity) and
    :class:`BernoulliCouplerFaults` (exact binomial).
    """
    check_cardinality_model(model)
    kind = type(model)
    if kind is BernoulliCouplerFaults:
        m = net.num_couplers
        return CardinalityProfile(
            axis="coupler",
            size=m,
            pmf=_binomial_pmf(m, model.probability(net)),
        )
    if kind is UniformCouplerFaults:
        m = net.num_couplers
        k = min(model.faults, max(m - 1, 0))
        pmf = [0.0] * (m + 1)
        pmf[k] = 1.0
        return CardinalityProfile(axis="coupler", size=m, pmf=tuple(pmf))
    n = net.num_processors
    k = min(model.faults, max(n - 2, 0))
    pmf = [0.0] * (n + 1)
    pmf[k] = 1.0
    return CardinalityProfile(axis="processor", size=n, pmf=tuple(pmf))


def build_strata(
    profile: CardinalityProfile, *, min_mass: float = _STRATUM_MASS
) -> tuple[tuple[int, int], ...]:
    """Contiguous cardinality ranges, each holding >= ``min_mass`` pmf.

    Walks the support in ascending order, closing a stratum as soon as
    it has accumulated ``min_mass``; a light tail merges into the last
    stratum instead of forming a starved one.  Stratum draws stay
    exact: within a range, ``k`` is drawn from the pmf restricted to
    the range, then a uniform ``k``-subset.

    >>> build_strata(CardinalityProfile("coupler", 3, (0.6, 0.3, 0.08, 0.02)))
    ((0, 0), (1, 1), (2, 3))
    """
    support = profile.support()
    if not support:
        raise ValueError("cardinality profile has empty support")
    strata: list[tuple[int, int]] = []
    lo = support[0]
    mass = 0.0
    for k in support:
        mass += profile.pmf[k]
        if mass >= min_mass:
            strata.append((lo, k))
            nxt = [j for j in support if j > k]
            lo = nxt[0] if nxt else -1
            mass = 0.0
    if mass > 0.0 and lo >= 0:
        if strata:
            strata[-1] = (strata[-1][0], support[-1])
        else:
            strata.append((lo, support[-1]))
    return tuple(strata)


def _range_mass(profile: CardinalityProfile, lo: int, hi: int) -> float:
    return sum(profile.pmf[lo : hi + 1])


def _draw_k_in_range(
    profile: CardinalityProfile, lo: int, hi: int, rng: random.Random
) -> int:
    """One cardinality from the pmf restricted to ``[lo, hi]``."""
    u = rng.random() * _range_mass(profile, lo, hi)
    acc = 0.0
    for k in range(lo, hi + 1):
        acc += profile.pmf[k]
        if u < acc:
            return k
    return hi


def proven_safe_cardinality(
    profile: CardinalityProfile, net, *, limit: int = 1
) -> int:
    """Largest ``k <= limit`` with EVERY size-``k`` fault set surviving.

    Verified by direct enumeration on the built network: the intact
    scenario first, then all ``size`` single-component scenarios.  The
    importance estimator treats proven cardinalities as contributing
    exactly zero failure mass -- without this, ruling out failures in
    the high-probability ``k <= 1`` buckets would cost as many trials
    as plain sampling, erasing the rare-event speedup.  Returns ``-1``
    if even the intact network is partitioned.  Cost is
    ``1 + size`` connectivity checks, paid once at prepare time.
    """
    from .degrade import degrade_network
    from .metrics import alive_connectivity_ratio

    def survives(members: frozenset[int]) -> bool:
        couplers = members if profile.axis == "coupler" else frozenset()
        processors = members if profile.axis == "processor" else frozenset()
        scenario = FaultScenario(
            spec="",
            model="safe-cardinality-proof",
            seed=0,
            couplers=couplers,
            processors=processors,
        )
        degraded = degrade_network(net, scenario)
        return alive_connectivity_ratio(degraded) >= 1.0

    if not survives(frozenset()):
        return -1
    if limit < 1:
        return 0
    for member in range(profile.size):
        if not survives(frozenset({member})):
            return 0
    return 1


def _subset_scenario(
    profile: CardinalityProfile, k: int, rng: random.Random
) -> tuple[set[int], set[int]]:
    """A uniform ``k``-subset of the profile's component axis."""
    dead = set(rng.sample(range(profile.size), k))
    if profile.axis == "processor":
        return set(), dead
    return dead, set()


# ----------------------------------------------------------------------
# Index-aware samplers: frozen wrappers the sweep plan ships to workers.
# ----------------------------------------------------------------------
class _IndexedSampler:
    """Shared surface of the stratified/importance wrappers.

    Wrappers stand in for the base :class:`FaultModel` inside a frozen
    sweep plan: same ``key``/``faults`` surface (summaries stay
    self-describing), but sampling needs the *trial index*, not just
    its seed -- the index selects the stratum / replays the proposal
    draw.  Both trial contexts detect ``sample_faults_at`` /
    ``scenario_at`` and pass the index through.
    """

    base: FaultModel
    profile: CardinalityProfile

    @property
    def key(self) -> str:
        return self.base.key

    @property
    def faults(self) -> int:
        return self.base.faults

    def max_faults(self, net):
        return self.base.max_faults(net)

    def sample_faults_at(
        self, net, rng: random.Random, index: int
    ) -> tuple[set[int], set[int]]:
        raise NotImplementedError

    def scenario_at(self, spec: str, net, seed: int, index: int) -> FaultScenario:
        """The deterministic scenario of trial ``index``."""
        couplers, processors = self.sample_faults_at(
            net, random.Random(trial_seed(seed, index)), index
        )
        return FaultScenario(
            spec=str(spec),
            model=self.key,
            seed=trial_seed(seed, index),
            couplers=frozenset(couplers),
            processors=frozenset(processors),
        )


@dataclass(frozen=True)
class StratifiedSampler(_IndexedSampler):
    """Cardinality-stratified replacement sampler for one sweep.

    ``schedule`` holds, per wave, the wave's start index and its
    per-stratum allocation; :meth:`stratum_of` is therefore a pure
    function of the trial index over the whole horizon, fixed at
    prepare time -- early stopping truncates the schedule, it never
    reshuffles it.
    """

    base: FaultModel
    profile: CardinalityProfile
    strata: tuple[tuple[int, int], ...]
    weights: tuple[float, ...]
    #: per wave: (start_index, per-stratum trial counts)
    schedule: tuple[tuple[int, tuple[int, ...]], ...]

    @classmethod
    def plan(
        cls,
        base: FaultModel,
        profile: CardinalityProfile,
        waves: tuple[int, ...],
    ) -> "StratifiedSampler":
        """Freeze strata and the full-horizon allocation schedule."""
        strata = build_strata(profile)
        weights = tuple(_range_mass(profile, lo, hi) for lo, hi in strata)
        schedule = []
        start = 0
        for size in waves:
            schedule.append((start, tuple(allocate_strata(size, weights))))
            start += size
        return cls(
            base=base,
            profile=profile,
            strata=strata,
            weights=weights,
            schedule=tuple(schedule),
        )

    def stratum_of(self, index: int) -> int:
        """The stratum trial ``index`` samples (pure in ``index``)."""
        starts = [start for start, _ in self.schedule]
        wave = bisect_right(starts, index) - 1
        start, counts = self.schedule[wave]
        offset = index - start
        for h, count in enumerate(counts):
            if offset < count:
                return h
            offset -= count
        raise IndexError(f"trial index {index} beyond the sweep horizon")

    def sample_faults_at(self, net, rng: random.Random, index: int):
        lo, hi = self.strata[self.stratum_of(index)]
        k = _draw_k_in_range(self.profile, lo, hi, rng)
        return _subset_scenario(self.profile, k, rng)


@dataclass(frozen=True)
class ImportanceSampler(_IndexedSampler):
    """Likelihood-ratio sampler biased toward high fault cardinality.

    The proposal over cardinalities is the defensive mixture
    ``alpha * pmf + (1 - alpha) * uniform(support range)``: the
    uniform component floods mass into the high-``k`` tail where rare
    partitions live, while the pmf component caps every weight at
    ``1 / alpha``.  Weights are replayed exactly from the trial seed
    (the ``k`` draw consumes the stream's first ``random()``), so the
    parent aggregates without shipping per-row side channels.
    """

    base: FaultModel
    profile: CardinalityProfile
    proposal: tuple[float, ...]
    alpha: float = _MIXTURE_ALPHA
    #: largest cardinality proven (by enumeration) to always survive;
    #: its pmf mass contributes zero failure and zero CI variance
    safe_k: int = 0

    @classmethod
    def plan(
        cls,
        base: FaultModel,
        profile: CardinalityProfile,
        *,
        alpha: float = _MIXTURE_ALPHA,
        safe_k: int = 0,
    ) -> "ImportanceSampler":
        support = profile.support()
        lo, hi = support[0], support[-1]
        width = hi - lo + 1
        proposal = tuple(
            alpha * w + ((1.0 - alpha) / width if lo <= k <= hi else 0.0)
            for k, w in enumerate(profile.pmf)
        )
        return cls(
            base=base,
            profile=profile,
            proposal=proposal,
            alpha=alpha,
            safe_k=safe_k,
        )

    def draw_k(self, rng: random.Random) -> int:
        """One proposal cardinality; consumes exactly one ``random()``."""
        u = rng.random()
        acc = 0.0
        last = 0
        for k, q in enumerate(self.proposal):
            if q <= 0.0:
                continue
            acc += q
            last = k
            if u < acc:
                return k
        return last

    def weight(self, k: int) -> float:
        """The exact likelihood ratio ``pmf(k) / proposal(k)``."""
        return self.profile.pmf[k] / self.proposal[k]

    def max_weight(self) -> float:
        """The largest likelihood ratio over the support."""
        return max(self.weight(k) for k in self.profile.support())

    def sample_faults_at(self, net, rng: random.Random, index: int):
        k = self.draw_k(rng)
        return _subset_scenario(self.profile, k, rng)


def make_sampler(
    model: FaultModel,
    net,
    *,
    sampling: str,
    trials: int,
    ci_target: float | None,
):
    """The index-aware sampler for ``sampling``, or ``None`` for uniform.

    ``sampling`` is one of :data:`SAMPLING_MODES`, already checked by
    the sweep request.  A stratified plan needs its wave schedule
    frozen up front (the per-index stratum map covers the whole
    ``trials`` horizon), and the schedule in turn depends on the
    stratum count -- so the profile, strata and waves are all derived
    here, from the same arguments the sweep validated.
    """
    if sampling == "uniform":
        return None
    profile = cardinality_profile(model, net)
    if sampling == "importance":
        return ImportanceSampler.plan(
            model, profile, safe_k=proven_safe_cardinality(profile, net)
        )
    strata = build_strata(profile)
    if trials < len(strata):
        raise ValueError(
            f"stratified sampling on this model needs at least "
            f"{len(strata)} trials (one per stratum), got {trials}"
        )
    waves = wave_schedule(trials, strata=len(strata), ci_target=ci_target)
    return StratifiedSampler.plan(model, profile, waves)


# ----------------------------------------------------------------------
# Estimators: survival point estimate + CI from the aggregate rows.
# ----------------------------------------------------------------------
def _failed(row) -> bool:
    """The partition indicator (the complement of survival)."""
    return float(row["alive_connectivity"]) < 1.0


def survival_estimate(model, seed: int, rows: list[dict]) -> dict[str, float]:
    """``{"survival", "ci_low", "ci_high", "ci_half_width"}`` of a prefix.

    Dispatches on the plan's model: a :class:`StratifiedSampler` gets
    the mass-reweighted stratum estimator, an
    :class:`ImportanceSampler` the likelihood-ratio estimator, and
    anything else the plain proportion with a Wilson interval.  Pure
    in ``(model, seed, rows)`` -- this is the function the sequential
    stopper evaluates between waves, so it must not read any state a
    worker count could perturb.
    """
    n = len(rows)
    if isinstance(model, StratifiedSampler):
        return _stratified_estimate(model, rows)
    if isinstance(model, ImportanceSampler):
        return _importance_estimate(model, seed, rows)
    failures = sum(1 for r in rows if _failed(r))
    lo, hi = wilson_interval(n - failures, n)
    return _pack(survival=(n - failures) / n if n else 0.0, lo=lo, hi=hi)


def _pack(
    *, survival: float, lo: float, hi: float, half: float | None = None
) -> dict[str, float]:
    """The estimate record; ``half`` is the UNCLAMPED half-width.

    Normal-approximation intervals get truncated to ``[0, 1]``, but
    the sequential stopper must compare the estimator's actual
    precision against ``ci_target`` -- judging by the truncated width
    would declare victory spuriously whenever the estimate sits near a
    boundary.  Wilson callers omit ``half``: their interval already
    lives inside ``[0, 1]``.
    """
    return {
        "survival": survival,
        "ci_low": lo,
        "ci_high": hi,
        "ci_half_width": (hi - lo) / 2.0 if half is None else half,
    }


def _stratified_estimate(
    sampler: StratifiedSampler, rows: list[dict]
) -> dict[str, float]:
    """Mass-weighted stratum means, normal CI with smoothed variances.

    The point estimate is the exactly unbiased
    ``sum_h W_h * x_h / n_h``; the variance uses the Agresti-Coull
    style smoothed proportion ``(x_h + 0.5) / (n_h + 1)`` per stratum
    so an all-survived stratum contributes positive width instead of
    certainty.
    """
    counts = [0] * len(sampler.strata)
    fails = [0] * len(sampler.strata)
    for index, row in enumerate(rows):
        h = sampler.stratum_of(index)
        counts[h] += 1
        fails[h] += 1 if _failed(row) else 0
    survival = 0.0
    variance = 0.0
    for h, weight in enumerate(sampler.weights):
        if counts[h] == 0:
            # not yet sampled: count its whole mass as uncertain
            variance += weight * weight
            continue
        p_fail = fails[h] / counts[h]
        survival += weight * (1.0 - p_fail)
        smoothed = (fails[h] + 0.5) / (counts[h] + 1)
        variance += weight * weight * smoothed * (1 - smoothed) / counts[h]
    half = Z95 * math.sqrt(variance)
    return _pack(
        survival=survival,
        lo=max(0.0, survival - half),
        hi=min(1.0, survival + half),
        half=half,
    )


def _importance_estimate(
    sampler: ImportanceSampler, seed: int, rows: list[dict]
) -> dict[str, float]:
    """Likelihood-ratio failure mean; CI floored per cardinality.

    Each trial's weight is replayed from its seed (the proposal draw
    is the stream's first ``random()``), the failure probability is
    the weighted mean and survival its complement.  The naive sample
    variance of the weighted terms is a trap here: the dominant
    variance contribution comes from moderate-cardinality failures
    that are *rare under the proposal*, and until one has been drawn
    the sample variance is blind to them -- a sequential stopper
    trusting it would stop after one wave with a wildly overconfident
    interval.  So the half-width is floored by the post-stratified
    variance over cardinalities: per ``k`` beyond the proven-safe
    range, the WORST conditional variance consistent with that
    bucket's own Wilson interval on ``(x_k, n_k)``, weighted by
    ``pmf(k)^2 / n_k`` (an unsampled ``k`` contributes its full
    squared mass) -- a point estimate would again go blind while a
    bucket's observed failure count is still zero.  Cardinalities
    ``k <= safe_k`` were proven surviving by enumeration at prepare
    time and contribute nothing.  A Wilson envelope on the raw hit
    rate scaled by the largest weight guards the first few waves
    before any failure is seen.
    """
    n = len(rows)
    if n == 0:
        return _pack(survival=0.0, lo=0.0, hi=1.0)
    terms = []
    hits = 0
    by_k: dict[int, list[int]] = {}
    for index, row in enumerate(rows):
        k = sampler.draw_k(random.Random(trial_seed(seed, index)))
        failed = _failed(row)
        counts = by_k.setdefault(k, [0, 0])
        counts[0] += 1
        counts[1] += 1 if failed else 0
        if failed:
            terms.append(sampler.weight(k))
            hits += 1
        else:
            terms.append(0.0)
    mean_fail = sum(terms) / n
    if n > 1:
        var = sum((t - mean_fail) ** 2 for t in terms) / (n - 1)
        half = Z95 * math.sqrt(var / n)
    else:
        half = 1.0
    pmf = sampler.profile.pmf
    var_floor = 0.0
    for k in sampler.profile.support():
        if k <= sampler.safe_k:
            continue
        n_k, fails_k = by_k.get(k, (0, 0))
        if n_k == 0:
            var_floor += pmf[k] * pmf[k]
            continue
        lo_k, hi_k = wilson_interval(fails_k, n_k)
        worst = min(max(0.5, lo_k), hi_k)
        var_floor += pmf[k] * pmf[k] * worst * (1.0 - worst) / n_k
    half = max(half, Z95 * math.sqrt(var_floor))
    if hits < _MIN_HITS:
        _, hit_hi = wilson_interval(hits, n)
        envelope = sampler.max_weight() * hit_hi
        half = max(half, envelope - mean_fail)
    survival = 1.0 - mean_fail
    return _pack(
        survival=survival,
        lo=max(0.0, survival - half),
        hi=min(1.0, survival + half),
        half=half,
    )


# ----------------------------------------------------------------------
# The sequential controller: wave, merge, evaluate, stop/continue.
# ----------------------------------------------------------------------
def run_adaptive(prepared, executor, *, extra_stop=None) -> list[dict]:
    """All rows of one adaptive sweep, stopping as soon as the CI allows.

    ``prepared`` is a validated ``_PreparedSweep`` whose request sets
    ``ci_target``; ``executor`` a ``PersistentSweepExecutor`` (inline or
    parallel -- rows and the stop decision are identical either way,
    because waves are index ranges and the decision reads only the
    aggregate prefix).  ``extra_stop``, if given, sees each wave's
    estimate dict and may end the sweep early -- the design search
    uses it to discard candidates whose CI can no longer overlap the
    leader's.  Emits one ``sweep.adaptive_round`` span per wave and
    maintains ``repro_sweep_adaptive_rounds_total`` /
    ``repro_sweep_trials_saved_total``.
    """
    plan = prepared.plan
    labels = {"backend": plan.backend}
    request = prepared.request
    waves = wave_schedule(
        request.trials,
        strata=num_strata(plan.model),
        ci_target=request.ci_target,
    )
    rows: list[dict] = []
    spent = 0
    for size in waves:
        with span(
            "sweep.adaptive_round",
            spec=plan.canonical,
            start=spent,
            trials=size,
            backend=plan.backend,
        ):
            rows.extend(executor.run_range(prepared, spent, spent + size))
        spent += size
        REGISTRY.counter(
            "repro_sweep_adaptive_rounds_total", _ROUNDS_HELP, labels
        ).inc()
        estimate = survival_estimate(plan.model, plan.seed, rows)
        if estimate["ci_half_width"] <= request.ci_target:
            break
        if extra_stop is not None and extra_stop(estimate):
            break
    saved = request.trials - spent
    if saved > 0:
        REGISTRY.counter(
            "repro_sweep_trials_saved_total", _SAVED_HELP, labels
        ).inc(saved)
    return rows


def num_strata(model) -> int:
    """Stratum count of a plan's model (1 for anything unstratified)."""
    if isinstance(model, StratifiedSampler):
        return len(model.strata)
    return 1


def adaptive_summary_block(prepared, rows: list[dict]) -> dict | None:
    """The summary's ``"adaptive"`` dict, or ``None`` for plain sweeps.

    Present exactly when the request opted into adaptivity
    (``ci_target`` set or a non-uniform ``sampling``); fixed uniform
    sweeps return ``None`` so their JSON stays byte-identical to the
    pre-adaptive engine.
    """
    request, plan = prepared.request, prepared.plan
    if request.ci_target is None and request.sampling == "uniform":
        return None
    estimate = survival_estimate(plan.model, plan.seed, rows)
    waves = wave_schedule(
        request.trials,
        strata=num_strata(plan.model),
        ci_target=request.ci_target,
    )
    return {
        "sampling": request.sampling,
        "ci_target": request.ci_target,
        "trials_requested": request.trials,
        "trials_spent": len(rows),
        "rounds": rounds_spent(waves, len(rows)),
        "survival": round(estimate["survival"], 6),
        "ci_low": round(estimate["ci_low"], 6),
        "ci_high": round(estimate["ci_high"], 6),
        "ci_half_width": round(estimate["ci_half_width"], 6),
    }
