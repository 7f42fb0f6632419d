"""Temporal dynamics: fault processes, trace replay, traffic matrices.

The subsystem that moves the survivability story from frozen one-shot
fault scenarios to *processes* unfolding in slot time:

* :mod:`~repro.temporal.processes` -- seeded MTBF/MTTR renewal
  processes (exponential and deterministic laws) and correlated
  cascades, compiled into deterministic per-slot event traces;
* :mod:`~repro.temporal.replay` -- the replay engine scoring a trace
  against the connectivity/paths kernels (piecewise-constant masks)
  and the slotted simulator (views swapped between slots), with the
  availability-over-time / repair-aware survivability /
  mean-time-to-disconnect / delivery-under-churn metric family;
  :class:`TemporalRequest` declares, defaults and checks every
  temporal-sweep parameter once, for every door;
* :mod:`~repro.temporal.traffic` -- demand matrices, per-coupler
  utilization, dimensioning and overload-driven degraded routing.
"""

from .processes import (
    FAULT_PROCESSES,
    RENEWAL_LAWS,
    CascadeCouplerProcess,
    ComponentEvent,
    CouplerRenewalProcess,
    FaultProcess,
    FaultTrace,
    ProcessorRenewalProcess,
    fault_process_keys,
    make_fault_process,
    stream_seed,
)
from .replay import (
    DEFAULT_HORIZON,
    TEMPORAL_FIELDS,
    TEMPORAL_METRICS_MODES,
    TemporalRequest,
    TemporalSummary,
    execute_temporal,
    prepare_temporal_sweep,
    replay_trace,
    summarize_temporal,
)
from .traffic import (
    TrafficMatrix,
    UtilizationReport,
    dimension,
    overload_scenario,
    reroute_overloaded,
    route_demands,
    served_fraction,
    utilization,
)

__all__ = [
    "RENEWAL_LAWS",
    "ComponentEvent",
    "FaultTrace",
    "FaultProcess",
    "CouplerRenewalProcess",
    "ProcessorRenewalProcess",
    "CascadeCouplerProcess",
    "FAULT_PROCESSES",
    "make_fault_process",
    "fault_process_keys",
    "stream_seed",
    "DEFAULT_HORIZON",
    "TEMPORAL_FIELDS",
    "TEMPORAL_METRICS_MODES",
    "TemporalRequest",
    "TemporalSummary",
    "replay_trace",
    "prepare_temporal_sweep",
    "execute_temporal",
    "summarize_temporal",
    "TrafficMatrix",
    "UtilizationReport",
    "route_demands",
    "utilization",
    "dimension",
    "overload_scenario",
    "reroute_overloaded",
    "served_fraction",
]
