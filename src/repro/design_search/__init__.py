"""Design-search subsystem: pick a topology by survivability per cost.

PR 2 made survivability measurable; this package makes it a *design
criterion*.  The paper's Section-4 comparison (POPS vs stack-Kautz at
equal ``N``) is a two-point special case of the question answered
here: over every registered family's candidate window, which designs
give the most surviving connectivity per unit of optical hardware?

* :mod:`~repro.design_search.costing` --
  :class:`~repro.design_search.costing.CostModel`, unit prices over a
  design's bill of materials;
* :mod:`~repro.design_search.search` -- candidate enumeration (the
  :meth:`~repro.core.registry.NetworkFamily.candidate_specs` hook),
  per-candidate survivability sweeps, ranking and the
  (cost, survivability, diameter) Pareto front.

Facade: :func:`repro.design_search`; CLI: ``python -m repro
design-search --max-processors 48 --faults 2 --trials 200 --json``.
"""

import sys as _sys
import types as _types

from . import prices
from .costing import DEFAULT_COST_MODEL, CostModel, price_spec
from .search import (
    RANKINGS,
    DesignCandidate,
    DesignSearchResult,
    design_search,
    enumerate_candidates,
)

__all__ = [
    "DEFAULT_COST_MODEL",
    "RANKINGS",
    "CostModel",
    "DesignCandidate",
    "DesignSearchResult",
    "design_search",
    "enumerate_candidates",
    "price_spec",
    "prices",
]


class _CallableModule(_types.ModuleType):
    """Make ``repro.design_search`` usable as the facade verb itself.

    The ISSUE-mandated names collide: the *package*
    ``repro.design_search`` and the facade *verb*
    ``repro.design_search(...)``.  Rather than letting the function
    shadow the module (which breaks ``import repro.design_search as
    ds; ds.CostModel``), the module is callable -- both
    ``repro.design_search(max_processors=...)`` and attribute access
    work, under every import form.
    """

    def __call__(self, **kwargs):
        # route through the facade verb so callable-module calls share
        # the default session's caches and persistent pools
        from repro.core.facade import design_search as _verb

        return _verb(**kwargs)


_sys.modules[__name__].__class__ = _CallableModule
