"""EXT-9: the design-search loop and its batched-sweep timings.

The resilience-aware design search only pays off if survivability
sweeps are fast enough to score hundreds of candidates, so this
benchmark regenerates the subsystem's two headline numbers:

* the batched trial executor (shared built network + intact baseline,
  connectivity-only scoring) at 10^4 trials, inline and on 4 workers,
  with byte-identical JSON either way (the ``full``-mode bytes are
  pinned in the tier-1 suite against a rebuild-per-trial reference);
* a cross-family search window must come back ranked, deterministic
  and Pareto-annotated.

Headline numbers land in ``BENCH_design_search.json``.
"""

import json
import time

from repro.design_search import design_search
from repro.resilience import survivability_sweep

SPEC = "sk(2,2,2)"
MODEL = "coupler"
FAULTS = 1
TRIALS = 10_000


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def bench_ext9_batched_sweep_speedup(benchmark, record_artifact):
    """Batched connectivity scoring at 1e4 trials, inline vs 4 workers."""
    common = dict(faults=FAULTS, trials=TRIALS, seed=0, metrics="connectivity")

    batched = benchmark.pedantic(
        lambda: survivability_sweep(SPEC, MODEL, **common),
        rounds=1,
        iterations=1,
    )
    _, batched_s = _timed(lambda: survivability_sweep(SPEC, MODEL, **common))
    batched_w4, batched_w4_s = _timed(
        lambda: survivability_sweep(SPEC, MODEL, workers=4, **common)
    )
    speedup_w4 = batched_s / batched_w4_s
    assert batched.trials == TRIALS
    byte_identical = batched_w4.to_json() == batched.to_json()
    assert byte_identical

    art = [
        f"{SPEC} under {FAULTS} {MODEL} fault(s), {TRIALS} Monte-Carlo trials:",
        "",
        f"  batched, connectivity scoring, inline:        {batched_s:8.2f} s",
        f"  batched, connectivity scoring, 4 workers:     {batched_w4_s:8.2f} s "
        f"({speedup_w4:.1f}x)",
        "",
        f"  4-worker JSON byte-identical to inline:       {byte_identical}",
    ]
    record_artifact("ext9_sweep_speedup.txt", "\n".join(art))
    point = {
        "claim": "batched connectivity sweep at 1e4 trials, inline vs 4 workers",
        "spec": SPEC,
        "model": MODEL,
        "faults": FAULTS,
        "trials": TRIALS,
        "batched_connectivity_seconds": round(batched_s, 3),
        "batched_connectivity_workers4_seconds": round(batched_w4_s, 3),
        "speedup_workers4": round(speedup_w4, 2),
        "workers4_byte_identical_to_inline": byte_identical,
    }
    record_artifact(
        "BENCH_design_search.json", json.dumps(point, indent=2, sort_keys=True)
    )


def bench_ext9_design_search_window(benchmark, record_artifact):
    """A cross-family window ranks deterministically with a Pareto front."""
    kw = dict(
        max_processors=16,
        families=("pops", "sk", "sops"),
        model=MODEL,
        faults=1,
        trials=64,
        seed=0,
    )
    result = benchmark.pedantic(lambda: design_search(**kw), rounds=1, iterations=1)

    again = design_search(**kw)
    assert result.to_json() == again.to_json()
    assert len(result) > 20
    assert result.pareto
    best = result.best()
    assert best.survivability_per_kilocost >= result.candidates[-1].survivability_per_kilocost

    art = [
        "survivability-per-cost design search, N <= 16, pops/sk/sops, "
        f"{kw['trials']} trials per candidate:",
        "",
        result.formatted(),
        "",
        f"deterministic: repeated search byte-identical "
        f"({len(result)} candidates, {len(result.pareto)} on the front)",
    ]
    record_artifact("ext9_design_search.txt", "\n".join(art))
