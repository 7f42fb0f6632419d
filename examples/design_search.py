#!/usr/bin/env python3
"""Survivability-per-cost design search, facade edition.

The question the paper's Section 4 answers for two hand-picked designs
-- POPS(4,2) vs SK(6,3,2), priced in OTIS stages and transceivers --
asked over a whole candidate window: of every buildable network up to
N processors, which designs buy the most surviving connectivity per
unit of optical hardware under injected faults?

Run:  PYTHONPATH=src python examples/design_search.py
"""

import repro
from repro.design_search import CostModel

MAX_N = 24
FAULTS = 2
TRIALS = 96


def main() -> None:
    # ------------------------------------------------------------------
    # The search: enumerate, price, sweep, rank.  Deterministic: the
    # same seed gives byte-identical JSON on every run.
    # ------------------------------------------------------------------
    result = repro.design_search(
        max_processors=MAX_N,
        min_processors=12,
        families=("pops", "sk", "sii"),
        model="coupler",
        faults=FAULTS,
        trials=TRIALS,
        seed=0,
        min_groups=2,           # exclude degenerate single-star machines
        max_coupler_degree=8,   # keep splitting loss (10 log10 s) sane
        min_margin_db=0.0,      # the optical link must actually close
        top=12,
    )
    print(result.formatted())
    print()

    best = result.best()
    print(f"winner: {best.spec} -- {best.processors} processors, "
          f"diameter {best.diameter}, {best.cost:.0f} cost units, "
          f"{best.survivability:.3f} mean connectivity under "
          f"{FAULTS} coupler fault(s)")
    print(f"pareto front: {', '.join(result.pareto)}")
    print()

    # ------------------------------------------------------------------
    # Re-price under different economics: free-space optics dominated
    # by transceiver cost vs lens-/alignment-dominated assembly.
    # ------------------------------------------------------------------
    transceiver_heavy = CostModel(transmitter=900.0, receiver=700.0)
    alignment_heavy = CostModel(lens=150.0, otis_stage=600.0)
    for tag, pricing in (("transceiver-heavy", transceiver_heavy),
                         ("alignment-heavy", alignment_heavy)):
        repriced = repro.design_search(
            max_processors=MAX_N,
            min_processors=12,
            families=("pops", "sk", "sii"),
            faults=FAULTS,
            trials=TRIALS,
            seed=0,
            min_groups=2,
            max_coupler_degree=8,
            cost_model=pricing,
            top=3,
        )
        podium = ", ".join(c.spec for c in repriced)
        print(f"{tag:<18} top-3: {podium}")

    # ------------------------------------------------------------------
    # Why it is tractable: the scoring sweep is the vectorized kernel's
    # connectivity fast path -- compare one candidate's sweep to the
    # full-metrics mode.
    # ------------------------------------------------------------------
    print()
    spec = best.spec
    fast = repro.resilience_sweep(
        spec, faults=FAULTS, trials=TRIALS, metrics="connectivity"
    )
    full = repro.resilience_sweep(
        spec, faults=FAULTS, trials=TRIALS, messages=40, metrics="full"
    )
    assert fast.quantiles["connectivity"] == full.quantiles["connectivity"]
    print(f"{spec}: connectivity quantiles identical in both modes; the "
          f"fast path just skips routing + simulation per trial")


if __name__ == "__main__":
    main()
