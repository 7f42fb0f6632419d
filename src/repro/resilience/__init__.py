"""Resilience subsystem: fault injection, degraded-mode operation,
Monte-Carlo survivability.

The paper claims (Sec. 2.5) that label-induced stack-Kautz routing
survives ``d - 1`` link or node faults with paths of length at most
``k + 2``; this package turns that analytic claim -- and its analogue
for every registered family -- into something you can *run*:

* :mod:`~repro.resilience.faults` -- composable seeded
  :class:`FaultModel`s (uniform coupler/processor/link failures,
  adversarial worst-first-hop, correlated group-block outage)
  producing frozen :class:`FaultScenario`s;
* :mod:`~repro.resilience.degrade` -- :class:`DegradedNetwork`, the
  scenario applied to a registry-built machine: surviving
  digraph/hypergraph views plus a fault-aware ``next_coupler`` so the
  unmodified slotted simulator runs on the broken network;
* :mod:`~repro.resilience.metrics` -- connectivity ratio, degraded
  path lengths against the ``diameter + 2`` bound, delivery ratio and
  latency inflation under load;
* :mod:`~repro.resilience.sweep` -- the Monte-Carlo engine fanning
  scenarios over ``multiprocessing`` workers with per-trial
  deterministic seeds (same seed => byte-identical JSON, any worker
  count and either backend: ``batched`` or numpy ``vectorized``); its
  :class:`SweepRequest` declares, defaults and checks every sweep
  parameter once, for every entry point.

Facade: :func:`repro.degrade` and :func:`repro.resilience_sweep`; CLI:
``python -m repro resilience "sk(6,3,2)" --faults 2 --trials 1000``.
"""

from .adaptive import (
    ImportanceSampler,
    StratifiedSampler,
    survival_estimate,
    wilson_interval,
)
from .degrade import DegradedNetwork, degrade_network
from .faults import (
    FAULT_MODELS,
    AdversarialFirstHopFaults,
    BernoulliCouplerFaults,
    FaultModel,
    FaultScenario,
    GroupBlockOutage,
    UniformCouplerFaults,
    UniformLinkFaults,
    UniformProcessorFaults,
    coupler_endpoints,
    fault_model_keys,
    make_fault_model,
    resolve_fault_model,
    scenarios,
    trial_seed,
)
from .metrics import (
    ResilienceMetrics,
    alive_connectivity_ratio,
    connectivity_metrics,
    connectivity_ratio,
    measure,
    path_survival,
)
from .sweep import (
    METRICS_MODES,
    SAMPLING_MODES,
    SWEEP_BACKENDS,
    SWEEP_FIELDS,
    PersistentSweepExecutor,
    SweepRequest,
    SweepRequestError,
    SweepSummary,
    pooled_survivability_sweeps,
    survivability_sweep,
)

__all__ = [
    "FAULT_MODELS",
    "METRICS_MODES",
    "SAMPLING_MODES",
    "SWEEP_BACKENDS",
    "SWEEP_FIELDS",
    "AdversarialFirstHopFaults",
    "BernoulliCouplerFaults",
    "DegradedNetwork",
    "FaultModel",
    "FaultScenario",
    "GroupBlockOutage",
    "ImportanceSampler",
    "PersistentSweepExecutor",
    "ResilienceMetrics",
    "StratifiedSampler",
    "SweepRequest",
    "SweepRequestError",
    "SweepSummary",
    "UniformCouplerFaults",
    "UniformLinkFaults",
    "UniformProcessorFaults",
    "alive_connectivity_ratio",
    "connectivity_metrics",
    "connectivity_ratio",
    "coupler_endpoints",
    "degrade_network",
    "fault_model_keys",
    "make_fault_model",
    "measure",
    "path_survival",
    "pooled_survivability_sweeps",
    "resolve_fault_model",
    "scenarios",
    "survivability_sweep",
    "survival_estimate",
    "trial_seed",
    "wilson_interval",
]
