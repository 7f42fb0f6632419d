"""repro -- OTIS-based multi-hop multi-OPS lightwave networks.

A full reproduction of Coudert, Ferreira, Munoz, *OTIS-Based Multi-Hop
Multi-OPS Lightwave Networks* (WOCS/IPPS'99, LNCS 1586): graph
substrates (Kautz, Imase-Itoh, de Bruijn, stack-graphs), optical
substrates (OTIS, OPS couplers, power budgets), the POPS and
stack-Kautz networks, their complete OTIS optical designs with
end-to-end light-path verification, routing (label-induced and
fault-tolerant), collectives, embeddings, and a slotted discrete-event
simulator.

Quickstart
----------
Every network is named by a spec string -- ``"sk(6,3,2)"``,
``"pops(4,2)"``, ``"sii(4,3,10)"``, ``"sops(8)"`` -- and the facade
verbs drive any family end to end:

>>> import repro
>>> net = repro.build("sk(6,3,2)")                # paper Fig. 7
>>> net.num_processors, net.diameter
(72, 2)
>>> design = repro.design("sk(6,3,2)")            # paper Fig. 12
>>> design.verify()
True
>>> design.bill_of_materials().otis_units[(3, 12)]
1
>>> repro.route("sk(6,3,2)", 0, 71).num_hops
1
>>> repro.simulate("sk(6,3,2)", "uniform", messages=100).num_messages
100
>>> result = repro.sweep(["pops(4,2)", "sk(2,2,2)"], ["uniform"], messages=50)
>>> [cell.spec for cell in result]
['pops(4,2)', 'sk(2,2,2)']

The concrete classes remain available (``repro.StackKautzDesign(6, 3, 2)``
is the same object ``repro.design("sk(6,3,2)")`` returns), and new
topology families join every verb above through one
:func:`repro.register_family` registration.

Subpackages
-----------
:mod:`repro.core`
    Network specs, the family registry and the facade verbs.
:mod:`repro.graphs`
    Digraph kernel and the named families the paper builds on.
:mod:`repro.hypergraphs`
    Directed hypergraphs and stack-graphs (Definition 1).
:mod:`repro.optical`
    OTIS, OPS couplers, components, lens layouts, power budgets.
:mod:`repro.networks`
    POPS / stack-Kautz / stack-Imase-Itoh and their optical designs
    (Sections 3-4, Proposition 1, Corollary 1).
:mod:`repro.routing`
    Label-induced shortest-path and fault-tolerant routing.
:mod:`repro.comm`
    Broadcast, gossip, embeddings.
:mod:`repro.simulation`
    Slotted discrete-event simulation with traffic generators.
:mod:`repro.resilience`
    Fault injection, degraded-mode operation, Monte-Carlo
    survivability sweeps.
:mod:`repro.analysis`
    Moore bounds and cross-topology comparisons.
:mod:`repro.design_search`
    Resilience-aware design search: candidate enumeration, BOM
    costing, survivability-per-cost ranking and Pareto fronts.  The
    package doubles as the facade verb -- it is a *callable module*,
    so ``repro.design_search(max_processors=48, ...)`` runs the
    search while ``repro.design_search.CostModel`` (and every import
    form) still reaches the namespace.
:mod:`repro.obs`
    Observability: process-wide metrics registry (Prometheus text
    exposition), span tracing (Chrome trace-event export), structured
    access logs -- all stdlib-only timing side channels.
:mod:`repro.temporal`
    Temporal dynamics: seeded MTBF/MTTR failure/repair processes,
    availability-over-time replay against the kernels and the slotted
    simulator, and traffic-matrix engineering (utilization,
    dimensioning, overload-driven degraded routing).
"""

from . import (
    analysis,
    comm,
    core,
    design_search,  # the callable package: verb and namespace in one
    graphs,
    hypergraphs,
    networks,
    obs,
    optical,
    resilience,
    routing,
    simulation,
    temporal,
)
from .core import (
    Experiment,
    ExperimentCell,
    ExperimentResult,
    Network,
    NetworkFamily,
    NetworkSpec,
    Session,
    SpecCache,
    SpecError,
    SweepCell,
    SweepResult,
    build,
    default_session,
    degrade,
    describe,
    design,
    experiment,
    get_family,
    family_keys,
    register_family,
    reset_default_session,
    resilience_sweep,
    route,
    simulate,
    sweep,
    temporal_sweep,
)
from .design_search import (
    DEFAULT_COST_MODEL,
    PARALLELISM_MODES,
    CostModel,
    DesignCandidate,
    DesignSearchResult,
)
from .resilience import (
    METRICS_MODES,
    SWEEP_BACKENDS,
    DegradedNetwork,
    FaultModel,
    FaultScenario,
    PersistentSweepExecutor,
    SweepRequest,
    SweepSummary,
    make_fault_model,
    pooled_survivability_sweeps,
    survivability_sweep,
)
from .graphs import (
    DiGraph,
    debruijn_graph,
    imase_itoh_graph,
    kautz_graph,
    kautz_graph_with_loops,
    kautz_num_nodes,
)
from .hypergraphs import DirectedHypergraph, Hyperarc, StackGraph, stack_graph
from .networks import (
    OTISImaseItohRealization,
    POPSDesign,
    POPSNetwork,
    SingleOPSDesign,
    SingleOPSNetwork,
    StackImaseItohDesign,
    StackImaseItohNetwork,
    StackKautzDesign,
    StackKautzNetwork,
    imase_itoh_view,
    otis_for_kautz,
)
from .optical import OTIS, OPSCoupler, OTISLayout, PowerBudget
from .routing import (
    FaultSet,
    fault_tolerant_route,
    kautz_distance,
    kautz_route,
    stack_kautz_route,
)
from .simulation import (
    SlottedSimulator,
    pops_simulator,
    run_traffic,
    simulator_for,
    stack_kautz_simulator,
)
from .temporal import (
    FaultProcess,
    FaultTrace,
    TemporalRequest,
    TemporalSummary,
    TrafficMatrix,
    make_fault_process,
)

__version__ = "1.0.0"

__all__ = [
    "DEFAULT_COST_MODEL",
    "METRICS_MODES",
    "OTIS",
    "PARALLELISM_MODES",
    "SWEEP_BACKENDS",
    "CostModel",
    "DegradedNetwork",
    "DesignCandidate",
    "DesignSearchResult",
    "DiGraph",
    "DirectedHypergraph",
    "Experiment",
    "ExperimentCell",
    "ExperimentResult",
    "FaultModel",
    "FaultProcess",
    "FaultScenario",
    "FaultSet",
    "FaultTrace",
    "Hyperarc",
    "Network",
    "NetworkFamily",
    "NetworkSpec",
    "OPSCoupler",
    "OTISImaseItohRealization",
    "OTISLayout",
    "POPSDesign",
    "POPSNetwork",
    "PersistentSweepExecutor",
    "PowerBudget",
    "Session",
    "SingleOPSDesign",
    "SingleOPSNetwork",
    "SlottedSimulator",
    "SpecCache",
    "SpecError",
    "StackGraph",
    "StackImaseItohDesign",
    "StackImaseItohNetwork",
    "StackKautzDesign",
    "StackKautzNetwork",
    "SweepCell",
    "SweepResult",
    "SweepRequest",
    "SweepSummary",
    "TemporalRequest",
    "TemporalSummary",
    "TrafficMatrix",
    "analysis",
    "build",
    "core",
    "default_session",
    "degrade",
    "describe",
    "design",
    "design_search",
    "comm",
    "debruijn_graph",
    "experiment",
    "family_keys",
    "fault_tolerant_route",
    "get_family",
    "graphs",
    "hypergraphs",
    "imase_itoh_graph",
    "imase_itoh_view",
    "kautz_distance",
    "kautz_graph",
    "kautz_graph_with_loops",
    "kautz_num_nodes",
    "kautz_route",
    "make_fault_model",
    "make_fault_process",
    "networks",
    "obs",
    "optical",
    "otis_for_kautz",
    "pooled_survivability_sweeps",
    "pops_simulator",
    "register_family",
    "reset_default_session",
    "resilience",
    "resilience_sweep",
    "route",
    "routing",
    "run_traffic",
    "survivability_sweep",
    "simulate",
    "simulator_for",
    "simulation",
    "stack_graph",
    "stack_kautz_route",
    "stack_kautz_simulator",
    "sweep",
    "temporal",
    "temporal_sweep",
]
