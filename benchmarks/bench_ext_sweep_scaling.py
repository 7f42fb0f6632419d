"""EXT-10: the vectorized sweep backend at 10^5-10^6 trials.

PR 3's batched executor made 10^4-trial survivability sweeps routine;
this benchmark certifies the next order of magnitude.  The
``vectorized`` backend exports the built network's topology into flat
numpy arrays once, draws whole trial batches of fault
masks from the same SHA-256 seed stream, and scores connectivity
metrics with batched reachability closures instead of per-trial Python
BFS.  Two headline claims:

* ``backend="vectorized"`` must beat ``backend="batched"`` by
  **>= 5x** at 10^5 trials on ``sk(2,2,2)`` in connectivity mode,
  while reproducing the batched aggregate JSON byte for byte (any
  worker count);
* a million-trial sweep must complete in one sitting, and a design
  search that pools its candidates on 2 workers must rank a window
  identically to the inline search, which runs them one by one.

Headline numbers land in ``BENCH_sweep_scaling.json``.
"""

import json
import time

from repro.design_search import design_search
from repro.resilience import survivability_sweep

SPEC = "sk(2,2,2)"
MODEL = "coupler"
FAULTS = 1
TRIALS = 100_000
MEGA_TRIALS = 1_000_000


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def bench_ext10_vectorized_sweep_scaling(benchmark, record_artifact):
    """Vectorized connectivity scoring >= 5x over batched at 1e5 trials."""
    common = dict(faults=FAULTS, trials=TRIALS, seed=0, metrics="connectivity")

    batched, batched_s = _timed(
        lambda: survivability_sweep(SPEC, MODEL, backend="batched", **common)
    )
    vectorized = benchmark.pedantic(
        lambda: survivability_sweep(SPEC, MODEL, backend="vectorized", **common),
        rounds=1,
        iterations=1,
    )
    _, vectorized_s = _timed(
        lambda: survivability_sweep(SPEC, MODEL, backend="vectorized", **common)
    )
    workers2, workers2_s = _timed(
        lambda: survivability_sweep(
            SPEC, MODEL, backend="vectorized", workers=2, **common
        )
    )
    speedup = batched_s / vectorized_s
    assert vectorized.trials == TRIALS
    byte_identical = vectorized.to_json() == batched.to_json()
    workers_identical = workers2.to_json() == batched.to_json()
    assert byte_identical, "vectorized must reproduce batched JSON exactly"
    assert workers_identical, "worker count must not change the aggregate"
    assert speedup >= 5.0, f"only {speedup:.2f}x over the batched backend"

    # the next order of magnitude: one million trials, inline
    mega, mega_s = _timed(
        lambda: survivability_sweep(
            SPEC,
            MODEL,
            backend="vectorized",
            faults=FAULTS,
            trials=MEGA_TRIALS,
            seed=0,
            metrics="connectivity",
        )
    )
    assert mega.trials == MEGA_TRIALS

    art = [
        f"{SPEC} under {FAULTS} {MODEL} fault(s), connectivity metrics:",
        "",
        f"  batched,    10^5 trials, inline:     {batched_s:8.2f} s",
        f"  vectorized, 10^5 trials, inline:     {vectorized_s:8.2f} s "
        f"({speedup:.1f}x)",
        f"  vectorized, 10^5 trials, 2 workers:  {workers2_s:8.2f} s",
        f"  vectorized, 10^6 trials, inline:     {mega_s:8.2f} s",
        "",
        f"  vectorized JSON byte-identical to batched: {byte_identical}",
        f"  worker-count invariant:                    {workers_identical}",
        "",
        "flat topology arrays + batched numpy fault masks clear",
        "the >= 5x target at 10^5 trials and make 10^6-trial sweeps routine.",
    ]
    record_artifact("ext10_sweep_scaling.txt", "\n".join(art))
    point = {
        "claim": "vectorized sweep >= 5x over batched at 1e5 trials "
        "(connectivity mode)",
        "spec": SPEC,
        "model": MODEL,
        "faults": FAULTS,
        "trials": TRIALS,
        "batched_seconds": round(batched_s, 3),
        "vectorized_seconds": round(vectorized_s, 3),
        "vectorized_workers2_seconds": round(workers2_s, 3),
        "speedup_inline": round(speedup, 2),
        "mega_trials": MEGA_TRIALS,
        "mega_trials_seconds": round(mega_s, 3),
        "byte_identical_to_batched": byte_identical,
        "worker_count_invariant": workers_identical,
    }
    record_artifact(
        "BENCH_sweep_scaling.json", json.dumps(point, indent=2, sort_keys=True)
    )


def bench_ext10_candidate_parallelism(benchmark, record_artifact):
    """One shared pool across candidate sweeps ranks identically.

    Inline, a search runs its candidates one after another; on 2
    workers every candidate's trial chunks share one pool map.
    """
    kw = dict(
        max_processors=16,
        families=("pops", "sk", "sops"),
        model=MODEL,
        faults=1,
        trials=256,
        seed=0,
        backend="vectorized",
    )
    inline, inline_s = _timed(lambda: design_search(**kw))
    pooled = benchmark.pedantic(
        lambda: design_search(workers=2, **kw),
        rounds=1,
        iterations=1,
    )
    _, pooled_s = _timed(lambda: design_search(workers=2, **kw))
    identical = pooled.to_json() == inline.to_json()
    assert identical, "pooling the candidates must not move the table"
    assert len(pooled) > 20

    art = [
        "design search, N <= 16, pops/sk/sops, 256 vectorized trials "
        "per candidate:",
        "",
        f"  inline (candidates in order):           {inline_s:8.2f} s",
        f"  2 workers (candidates on one pool map): {pooled_s:8.2f} s",
        "",
        f"  ranked table byte-identical: {identical} "
        f"({len(pooled)} candidates, {len(pooled.pareto)} on the front)",
    ]
    record_artifact("ext10_candidate_parallelism.txt", "\n".join(art))
