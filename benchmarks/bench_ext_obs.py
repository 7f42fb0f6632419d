"""EXT-13: observability overhead on the hot sweep path.

The observability layer (metrics registry + span tracing) promises to
be a *timing side channel*: results byte-identical with tracing on or
off, and near-zero cost on the paths that matter.  This benchmark
pins both claims on the hottest path in the repo -- the vectorized
sweep at 10^5 trials:

* run the same sweep with tracing disabled and enabled, min-of-N each
  (min is the noise-robust estimator for a deterministic workload);
* assert the traced JSON equals the untraced JSON byte for byte;
* assert the tracing overhead stays under 2%.

Headline numbers land in ``BENCH_obs.json``.
"""

import json
import time

from repro.core.session import Session
from repro.obs.metrics import REGISTRY
from repro.obs.trace import disable_tracing, enable_tracing

SPEC = "sk(4,3,2)"
TRIALS = 100_000
ROUNDS = 7
MAX_OVERHEAD_PCT = 2.0


def _timed_sweep(session):
    t0 = time.perf_counter()
    summary = session.resilience_sweep(
        SPEC,
        trials=TRIALS,
        seed=0,
        metrics="connectivity",
        backend="vectorized",
    )
    return time.perf_counter() - t0, summary.to_json()


def bench_ext13_observability_overhead(benchmark, record_artifact):
    """Tracing on vs off on a 10^5-trial vectorized sweep: < 2%."""
    with Session(workers=0) as session:
        _timed_sweep(session)  # warm: spec build + topology arrays

        baseline_times, baseline_json = [], None
        for _ in range(ROUNDS):
            dt, body = _timed_sweep(session)
            baseline_times.append(dt)
            baseline_json = body

        benchmark.pedantic(
            lambda: _timed_sweep(session), rounds=1, iterations=1
        )

        tracer = enable_tracing()
        try:
            traced_times, traced_json = [], None
            for _ in range(ROUNDS):
                dt, body = _timed_sweep(session)
                traced_times.append(dt)
                traced_json = body
        finally:
            disable_tracing()

    assert traced_json == baseline_json, (
        "tracing must not change sweep results"
    )
    assert len(tracer) > 0, "traced runs must actually record spans"

    baseline_s = min(baseline_times)
    traced_s = min(traced_times)
    overhead_pct = 100.0 * (traced_s - baseline_s) / baseline_s

    trials_series = REGISTRY.series("repro_sweep_trials_total")
    recorded_trials = sum(c.value for c in trials_series.values())

    point = {
        "spec": SPEC,
        "trials": TRIALS,
        "rounds": ROUNDS,
        "baseline_min_ms": round(1e3 * baseline_s, 3),
        "traced_min_ms": round(1e3 * traced_s, 3),
        "overhead_pct": round(overhead_pct, 3),
        "max_overhead_pct": MAX_OVERHEAD_PCT,
        "spans_per_traced_run": round(len(tracer) / ROUNDS, 1),
        "results_identical": traced_json == baseline_json,
        "trials_counted_by_registry": recorded_trials,
    }
    record_artifact(
        "BENCH_obs.json", json.dumps(point, indent=2, sort_keys=True)
    )

    assert overhead_pct < MAX_OVERHEAD_PCT, (
        f"tracing overhead {overhead_pct:.2f}% exceeds "
        f"{MAX_OVERHEAD_PCT}% on the vectorized hot path "
        f"({baseline_s * 1e3:.1f}ms -> {traced_s * 1e3:.1f}ms)"
    )
