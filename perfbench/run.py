"""The repository benchmark: three workloads, end-to-end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-bulk --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test          # every workload, tiny scale
    python3 perfbench/run.py --write-manifest     # regenerate BENCHMARK.json

``--trace 0`` measures the end-to-end metrics with nothing installed.
``--trace 1`` alternates untraced and traced operations on the same
inputs: the traced ones run with :class:`layers.LayerClock` wrappers
and the program's own span tracer on, and give the per-layer metrics
plus ``obs.trace_overhead``; their outputs must equal the untraced
ones byte for byte.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

Every end-to-end metric applies to every workload.  An *operation* is
one sweep call on the sweep workloads and one HTTP request on
``serve-mixed``.  ``ops_per_s`` is the work completed per second of
timed operations: trials on the sweep workloads, requests on
``serve-mixed``; ``sweep_p50_ms`` is the median time of one sweep
call (in process, or over HTTP).

The host is a shared VM whose speed moves by up to 2x from one second
to the next and from one minute to the next, so every end-to-end
*time* is given at reference-host speed: each timed stretch is
multiplied by :data:`REFERENCE_LOOP_S` over the mean of two readings
of a fixed pure-Python loop taken just before and just after it
(:func:`reference_loop`).  A slower program reads slower; a slower
host does not.  The raw times are in the printed report.

Per-layer times are per operation (``s/op``), unscaled.  The
``error_rate`` the printed table shows is ``failed / attempted``:
operations that failed or returned a wrong answer plus verification
checks that did not hold.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import platform
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, replace

from layers import (
    CHUNK, CONNECTIVITY, DEGRADE, FAULTS, PATHS, ROUTING, RUN, SERIALIZE,
    SIMULATION, TRIAL_LAYERS, LayerClock, add_totals, diff_totals, span_seconds,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: The seed the pinned digests belong to; every run checks it first.
REFERENCE_SEED = 0

WORKLOAD_WHY = {
    "sweep-bulk": (
        "the 10^5-trial vectorized connectivity path, where the per-trial "
        "fault sampler dominates; no routing, degrade or simulation work"
    ),
    "sweep-full-sk": (
        "the paper's stack-Kautz family on structured fault_route in full "
        "mode at d-1 faults; the only workload on the 2-process pool"
    ),
    "serve-mixed": (
        "many small warm HTTP requests (sweep, temporal, describe) from one "
        "closed-loop client: per-call, validation and transport costs"
    ),
}

#: (name, unit, better, bound) of every end-to-end metric.
#: No p90 here: a 30 s sweep-workload run holds ~16 sweeps, too few
#: for ten samples beyond it; serve-mixed prints its per-class p90s.
#: Timing bounds sit at the 0.25 cap: on a shared 2-vCPU host raw
#: 10-run spreads reached 0.3-0.4 in noisy hours.  Scaling to
#: reference speed removes only part of that, because the program
#: slows down more than the reference loop does: sweep requests took
#: 110-240 ms in one run while the loop's readings moved 1.0-1.4x.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("sweep_p50_ms", "ms", "lower", 0.25),
)

#: (name, unit) of every per-layer metric.
PER_LAYER = (
    ("faults.sample_s", "s/op"),
    ("faults.sample_share", "fraction"),
    ("sweep.kernel_s", "s/op"),
    ("sweep.prepare_s", "s/op"),
    ("sweep.summarize_s", "s/op"),
    ("sweep.serialize_s", "s/op"),
    ("routing.fault_route_s", "s/op"),
    ("routing.fault_route_calls", "count/op"),
    ("metrics.paths_self_s", "s/op"),
    ("metrics.connectivity_s", "s/op"),
    ("degrade.build_s", "s/op"),
    ("simulation.run_traffic_s", "s/op"),
    ("simulation.calls", "count/op"),
    ("sweep.chunks", "count/op"),
    ("sweep.chunk_run_s", "s/op"),
    ("sweep.queue_wait_s", "s/op"),
    ("core.build_s", "s"),
    ("core.cache_hits", "count/op"),
    ("core.cache_misses", "count/op"),
    ("temporal.prepare_s", "s/op"),
    ("temporal.execute_s", "s/op"),
    ("temporal.summarize_s", "s/op"),
    ("serve.server_ms.sweep", "ms"),
    ("serve.server_ms.temporal", "ms"),
    ("serve.server_ms.describe", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.admission_rejected", "count"),
    ("serve.coalesced_followers", "count"),
    ("obs.trace_overhead", "fraction"),
)

#: Spans of the program's own tracer that per-layer metrics read.
SPAN_NAMES = (
    "sweep.prepare",
    "sweep.execute",
    "sweep.summarize",
    "temporal.prepare",
    "temporal.execute",
    "temporal.summarize",
    "cache.build",
)


RUN_SECONDS = 30


def manifest() -> dict:
    """The ``BENCHMARK.json`` this benchmark is run under."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOAD_WHY.items()
        ],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": "lower"} for n, u in PER_LAYER
        ],
    }


# ----------------------------------------------------------------------
# Small helpers.
# ----------------------------------------------------------------------
def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("PYTHONSTARTUP", None)
    return env


def sha256(text: str | bytes) -> str:
    data = text.encode() if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-int(round(q * 100)) * len(ordered) // 100))
    return ordered[min(rank, len(ordered)) - 1]


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size of one live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for process {pid}")


def child_pids() -> list[int]:
    """Live child processes of this process (pool workers)."""
    pids: list[int] = []
    task_dir = "/proc/self/task"
    for tid in os.listdir(task_dir):
        try:
            with open(f"{task_dir}/{tid}/children", encoding="ascii") as handle:
                pids.extend(int(p) for p in handle.read().split())
        except OSError:
            continue
    return pids


#: Iterations of one reference-loop pass, and what a reading (the
#: median of three passes) takes on the reference host: a 2-vCPU
#: x86-64 VM, Python 3.11, in a quiet minute.
REFERENCE_ITERATIONS = 2_000
REFERENCE_LOOP_S = 0.018


def reference_loop() -> float:
    """Seconds a fixed pure-Python loop takes on this host now.

    The loop seeds ``random.Random`` from SHA-256 digests and updates a
    dict: interpreter work like the sweeps' own.  It is the benchmark's
    code, so no change to the program moves it; only the host's speed
    does.  The median of three passes ignores a single preemption.
    """
    readings = []
    for _ in range(3):
        start = time.perf_counter()
        table = {}
        for i in range(REFERENCE_ITERATIONS):
            digest = hashlib.sha256(i.to_bytes(8, "little")).digest()
            table[i & 255] = random.Random(digest).random()
        readings.append(time.perf_counter() - start)
    return statistics.median(readings)


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """``seconds`` timed between two :func:`reference_loop` readings,
    scaled to the reference host's speed."""
    return seconds * REFERENCE_LOOP_S * 2 / (before + after)


def derived_seeds(seed: int, name: str):
    """The workload's operation seeds: a pure function of ``seed``."""
    rng = random.Random(f"{name}:{seed}")
    base = rng.randrange(1, 2**31)
    index = 0
    while True:
        yield base + index
        index += 1


def git_sha() -> str:
    """HEAD of the enclosing git checkout, or ``"unknown"``."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:]), encoding="ascii") as handle:
                return handle.read().strip()
        return head
    except OSError:
        return "unknown"


def provenance(workload: str, seed: int) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
    }


def flatten_snapshot(snap: dict) -> dict[str, float]:
    """A registry snapshot as ``{series: value}`` (see :func:`flatten_text`)."""
    flat: dict[str, float] = {}
    for name, entry in snap.items():
        for labels, payload in entry["series"]:
            if entry["kind"] == "histogram":
                parts = ((name + "_sum", payload[1]), (name + "_count", payload[2]))
            else:
                parts = ((name, payload),)
            for key, value in parts:
                flat[key] = flat.get(key, 0) + value
                for k, v in labels:
                    series = f"{key}{{{k}={v}}}"
                    flat[series] = flat.get(series, 0) + value
    return flat


def flatten_text(text: str) -> dict[str, float]:
    """Prometheus exposition as ``{name: total, "name{k=v}": total}``."""
    flat: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        name, _, labels = series.partition("{")
        if name.endswith("_bucket"):
            continue
        number = float(value)
        flat[name] = flat.get(name, 0) + number
        for pair in labels.rstrip("}").split(","):
            if "=" in pair:
                k, v = pair.split("=", 1)
                key = f"{name}{{{k}={v.strip(chr(34))}}}"
                flat[key] = flat.get(key, 0) + number
    return flat


def diff_flat(after: dict, before: dict) -> dict[str, float]:
    return {k: v - before.get(k, 0) for k, v in after.items()}


class Tally:
    """Attempted and failed operations and checks, with reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def check(self, ok: bool, reason: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(reason)
        return ok


# ----------------------------------------------------------------------
# Per-layer metrics from layer totals, spans and registry deltas.
# ----------------------------------------------------------------------
def layer_metrics(totals, spans, registry, ops, *, build_s, overhead, serve=None):
    """Every per-layer metric; times and counts are per operation."""
    seconds, calls = totals["seconds"], totals["calls"]
    kernel = seconds.get(RUN, 0.0) + seconds.get(CHUNK, 0.0)
    trial_work = kernel + sum(seconds.get(layer, 0.0) for layer in TRIAL_LAYERS)
    per = 1.0 / max(ops, 1)
    serve = serve or {}
    return {
        "faults.sample_s": seconds.get(FAULTS, 0.0) * per,
        "faults.sample_share": (
            seconds.get(FAULTS, 0.0) / trial_work if trial_work else 0.0
        ),
        "sweep.kernel_s": kernel * per,
        "sweep.prepare_s": spans["sweep.prepare"] * per,
        "sweep.summarize_s": spans["sweep.summarize"] * per,
        "sweep.serialize_s": seconds.get(SERIALIZE, 0.0) * per,
        "routing.fault_route_s": seconds.get(ROUTING, 0.0) * per,
        "routing.fault_route_calls": calls.get(ROUTING, 0) * per,
        "metrics.paths_self_s": seconds.get(PATHS, 0.0) * per,
        "metrics.connectivity_s": seconds.get(CONNECTIVITY, 0.0) * per,
        "degrade.build_s": seconds.get(DEGRADE, 0.0) * per,
        "simulation.run_traffic_s": seconds.get(SIMULATION, 0.0) * per,
        "simulation.calls": calls.get(SIMULATION, 0) * per,
        "sweep.chunks": registry.get("repro_sweep_chunks_total", 0) * per,
        "sweep.chunk_run_s": registry.get("repro_sweep_chunk_run_seconds_sum", 0) * per,
        "sweep.queue_wait_s": (
            registry.get("repro_sweep_queue_wait_seconds_sum", 0) * per
        ),
        "core.build_s": build_s,
        "core.cache_hits": registry.get("repro_cache_ops_total{outcome=hit}", 0) * per,
        "core.cache_misses": (
            registry.get("repro_cache_ops_total{outcome=miss}", 0) * per
        ),
        "temporal.prepare_s": spans["temporal.prepare"] * per,
        "temporal.execute_s": spans["temporal.execute"] * per,
        "temporal.summarize_s": spans["temporal.summarize"] * per,
        "serve.server_ms.sweep": serve.get("sweep", 0.0),
        "serve.server_ms.temporal": serve.get("temporal", 0.0),
        "serve.server_ms.describe": serve.get("describe", 0.0),
        "serve.transport_ms": serve.get("transport", 0.0),
        "serve.admission_rejected": serve.get("rejected", 0),
        "serve.coalesced_followers": serve.get("followers", 0),
        "obs.trace_overhead": overhead,
    }


# ----------------------------------------------------------------------
# In-process sweep workloads.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepWorkload:
    name: str
    spec: str
    faults: int
    trials: int
    metrics: str
    backend: str
    workers: int
    #: trials of the setup probe's warm-up call
    warmup_trials: int
    #: trial prefix of the cross-executor byte-identity check
    prefix_trials: int
    #: the executor the prefix check compares against
    prefix_against: dict
    #: the backend every call must report having run on
    expected_backend: str
    #: SHA-256 of ``to_json()`` at :data:`REFERENCE_SEED`
    reference_digest: str
    setup_probes: int = 7

    def call(self, session, seed: int, *, trials: int | None = None, **kw):
        options = {"backend": self.backend, **kw}
        return session.resilience_sweep(
            self.spec,
            model="coupler",
            faults=self.faults,
            trials=self.trials if trials is None else trials,
            seed=seed,
            metrics=self.metrics,
            **options,
        )


SWEEPS = {
    "sweep-bulk": SweepWorkload(
        name="sweep-bulk",
        spec="sk(2,2,2)",
        faults=1,
        trials=100_000,
        metrics="connectivity",
        backend="vectorized",
        workers=1,
        warmup_trials=1_000,
        prefix_trials=1_000,
        prefix_against={"backend": "batched"},
        expected_backend="vectorized",
        reference_digest=(
            "5bc133f58e2c39edb68855f6dd042b734541c1f05daba1b8f825d839a4d3f1fc"
        ),
    ),
    "sweep-full-sk": SweepWorkload(
        name="sweep-full-sk",
        spec="sk(6,3,2)",
        faults=2,
        trials=200,
        metrics="full",
        backend="batched",
        workers=2,
        warmup_trials=8,
        prefix_trials=40,
        prefix_against={"workers": 1},
        expected_backend="batched",
        reference_digest=(
            "c39e09bc8cbe2393563a91c5323af7f643fcc5e218400751fec3f7cdd9011eed"
        ),
    ),
}

#: Tiny-scale variants for ``--self-test`` (same code paths, seconds).
TINY_SWEEPS = {
    "sweep-bulk": replace(
        SWEEPS["sweep-bulk"], trials=2_000, prefix_trials=200, setup_probes=1,
        reference_digest="5f55b08ffe3b9a32f631d5c5792187f9bed47c67246579fe8e457b83f39bb7ed",
    ),
    "sweep-full-sk": replace(
        SWEEPS["sweep-full-sk"], trials=16, prefix_trials=8, setup_probes=1,
        reference_digest="83e774aeba33d42f193e01d09d33a1c22da796dc66ec885065ade13f29ecb8bb",
    ),
}


def probe(workload: SweepWorkload, trace: bool) -> None:
    """Set-up probe: imports, session, warm-up call, then ``ready <build s>``.

    With ``trace`` the program's span tracer times the spec build
    (``cache.build``); otherwise nothing is installed and the build
    time prints as 0.
    """
    from repro.core.session import Session
    from repro.obs.trace import Tracer, enable_tracing

    tracer = enable_tracing(Tracer()) if trace else None
    session = Session(workers=workload.workers)
    workload.call(session, REFERENCE_SEED, trials=workload.warmup_trials)
    build = span_seconds(tracer.events() if tracer else (), ("cache.build",))
    print(f"ready {build['cache.build']!r}", flush=True)
    session.close()


def measure_setup(workload: SweepWorkload, scale: str, trace: bool):
    """``(setup seconds, build seconds)`` of fresh-interpreter probes.

    Set-up runs from spawning the interpreter to its warm-up call
    returning, at reference speed.
    """
    times, builds = [], []
    before = reference_loop()
    for _ in range(workload.setup_probes):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--probe",
             workload.name, "--scale", scale, "--trace", str(int(trace))],
            stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=60)
        word, _, build = line.strip().partition(" ")
        if word != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed (exit {code}): {line!r}")
        after = reference_loop()
        times.append(at_reference_speed(elapsed, before, after))
        before = after
        builds.append(float(build))
    return times, builds


def run_sweep_workload(workload: SweepWorkload, seed, seconds, trace, scale, scratch):
    from repro.core.session import Session

    tally = Tally()
    setup, builds = measure_setup(workload, scale, trace)
    seeds = derived_seeds(seed, workload.name)

    def checked_call(session, op_seed, **kw):
        start = time.perf_counter()
        summary = workload.call(session, op_seed, **kw)
        text = summary.to_json()
        elapsed = time.perf_counter() - start
        tally.check(
            summary.trials == workload.trials
            and summary.backend == workload.expected_backend
            and summary.downgrade_reason is None,
            f"seed {op_seed}: trials={summary.trials} backend={summary.backend} "
            f"downgrade={summary.downgrade_reason}",
        )
        return elapsed, summary, text

    def reference_check(session):
        _, _, text = checked_call(session, REFERENCE_SEED)
        tally.check(
            sha256(text) == workload.reference_digest,
            f"reference digest {sha256(text)} != {workload.reference_digest}",
        )

    session = Session(workers=workload.workers)
    reference_check(session)  # warm-up plus the pinned-output check
    report: dict = {"setup_runs_s": [round(t, 4) for t in setup]}
    first_seed = None
    if not trace:
        raw, times = [], []
        before = reference_loop()
        deadline = time.perf_counter() + seconds
        while len(times) < 3 or time.perf_counter() < deadline:
            op_seed = next(seeds)
            first_seed = first_seed or op_seed
            elapsed, _, _ = checked_call(session, op_seed)
            after = reference_loop()
            raw.append(elapsed)
            times.append(at_reference_speed(elapsed, before, after))
            before = after
        rss = vm_hwm_mb() + sum(vm_hwm_mb(pid) for pid in child_pids())
        metrics = {
            "setup_s": statistics.median(setup),
            "ops_per_s": workload.trials * len(times) / sum(times),
            "peak_rss_mb": rss,
            "sweep_p50_ms": 1e3 * statistics.median(times),
        }
        report["operations"] = len(times)
        report["raw_op_ms"] = [round(1e3 * t, 1) for t in raw]
        report["raw_trials_per_s"] = round(workload.trials * len(raw) / sum(raw), 1)
    else:
        metrics, first_seed = traced_sweeps(
            workload, session, seeds, seconds, checked_call, reference_check,
            tally, report, statistics.median(builds), scratch,
        )
    # cross-executor byte identity on a trial prefix, outside timing
    ours = workload.call(session, first_seed, trials=workload.prefix_trials)
    theirs = workload.call(
        session, first_seed, trials=workload.prefix_trials,
        **workload.prefix_against,
    )
    tally.check(
        ours.to_json() == theirs.to_json(),
        f"prefix of seed {first_seed}: {workload.backend} x{workload.workers} "
        f"differs from {workload.prefix_against}",
    )
    session.close()
    tally.check(not child_pids(), "pool workers outlived the session")
    return metrics, tally, report


def traced_sweeps(workload, session, seeds, seconds, checked_call,
                  reference_check, tally, report, build_s, scratch):
    """Alternate untraced and traced calls on the same seeds."""
    from repro.core.session import Session
    from repro.obs.metrics import REGISTRY
    from repro.obs.trace import Tracer, disable_tracing, enable_tracing

    dump_dir = tempfile.mkdtemp(prefix="layers-", dir=scratch)
    clock = LayerClock(dump_dir)
    # the traced session's pool forks with the wrappers in place
    clock.install()
    try:
        traced = Session(workers=workload.workers)
        reference_check(traced)
    finally:
        clock.uninstall()
    tracer = Tracer()
    parent0, workers0 = clock.totals(), clock.worker_totals()
    registry: dict[str, float] = {}
    plain, timed = [], []
    first_seed = None
    deadline = time.perf_counter() + seconds
    while len(timed) < 3 or time.perf_counter() < deadline:
        op_seed = next(seeds)
        first_seed = first_seed or op_seed
        elapsed, summary, text = checked_call(session, op_seed)
        plain.append(elapsed)
        before = flatten_snapshot(REGISTRY.snapshot())
        clock.install()
        enable_tracing(tracer)
        try:
            elapsed, traced_summary, traced_text = checked_call(traced, op_seed)
        finally:
            disable_tracing()
            clock.uninstall()
        for key, value in diff_flat(flatten_snapshot(REGISTRY.snapshot()), before).items():
            registry[key] = registry.get(key, 0) + value
        timed.append(elapsed)
        tally.check(
            traced_text == text
            and traced_summary.backend == summary.backend
            and traced_summary.downgrade_reason == summary.downgrade_reason,
            f"seed {op_seed}: traced output differs from untraced",
        )
    totals = add_totals(
        diff_totals(clock.totals(), parent0),
        diff_totals(clock.worker_totals(), workers0),
    )
    traced.close()
    metrics = layer_metrics(
        totals,
        span_seconds(tracer.events(), SPAN_NAMES),
        registry,
        len(timed),
        build_s=build_s,
        overhead=statistics.median(timed) / statistics.median(plain) - 1.0,
    )
    report["operations"] = len(timed)
    report["untraced_median_s"] = round(statistics.median(plain), 4)
    report["traced_median_s"] = round(statistics.median(timed), 4)
    return metrics, first_seed


# ----------------------------------------------------------------------
# serve-mixed: a real server process and a closed-loop load generator.
# ----------------------------------------------------------------------
SERVE_FLAGS = ["--port", "0", "--workers", "0", "--concurrency", "2",
               "--queue-depth", "8"]
SERVE_SETUP_SPAWNS = 5
#: Seconds of requests between two reference-loop readings.
WINDOW_S = 0.5
SERVE_VERIFY_PER_CLASS = 3
REQUEST_TIMEOUT_S = 30.0

SWEEP_REQUEST = {"spec": "sk(2,2,2)", "model": "coupler", "faults": 1,
                 "trials": 256, "metrics": "connectivity"}
TEMPORAL_REQUEST = {"spec": "sk(2,2,2)", "process": "coupler-renewal",
                    "trials": 20}
DESCRIBE_REQUEST = {"spec": "sk(6,3,2)"}


def build_schedule(seed: int, count: int) -> list[tuple[str, dict]]:
    """``count`` requests, 50% sweep / 25% temporal / 25% describe.

    Each block of four holds two sweeps, one temporal and one describe
    in a seeded order; sweep and temporal seeds are distinct.
    """
    rng = random.Random(f"serve-mixed:{seed}")
    base = rng.randrange(1, 2**30)
    schedule = []
    while len(schedule) < count:
        block = ["sweep", "sweep", "temporal", "describe"]
        rng.shuffle(block)
        for kind in block:
            index = len(schedule)
            if kind == "sweep":
                payload = {**SWEEP_REQUEST, "seed": base + index}
            elif kind == "temporal":
                payload = {**TEMPORAL_REQUEST, "seed": base + index}
            else:
                payload = dict(DESCRIBE_REQUEST)
            schedule.append((kind, payload))
    return schedule


def http_call(port: int, method: str, path: str, payload=None):
    """``(status, body)`` of one request on a fresh connection."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        body = None if payload is None else json.dumps(payload)
        headers = {} if payload is None else {"Content-Type": "application/json"}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class Server:
    """One serving-tier process: the CLI, or the traced launcher."""

    def __init__(self, traced: bool, scratch: str) -> None:
        self.dump_dir = None
        if traced:
            self.dump_dir = tempfile.mkdtemp(prefix="serve-", dir=scratch)
            cmd = [sys.executable, os.path.join(HERE, "serve_launcher.py"),
                   "--dump-dir", self.dump_dir, *SERVE_FLAGS]
        else:
            cmd = [sys.executable, "-m", "repro", "serve", *SERVE_FLAGS]
        fd, _ = tempfile.mkstemp(prefix="server-", suffix=".log", dir=scratch)
        self.log = os.fdopen(fd, "w", encoding="utf-8")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self.log, env=child_env(),
            cwd=ROOT, text=True,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], 60)
        line = self.proc.stdout.readline() if ready else ""
        if "serving on http://" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.strip().rsplit(":", 1)[1])

    def get_json(self, path: str) -> dict:
        status, body = http_call(self.port, "GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path}: HTTP {status}")
        return json.loads(body)

    def metrics(self) -> dict[str, float]:
        status, body = http_call(self.port, "GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"GET /metrics: HTTP {status}")
        return flatten_text(body.decode())

    def dump(self, name: str) -> dict:
        """The traced launcher's layer and span totals (``before``/``after``)."""
        path = os.path.join(self.dump_dir, f"{name}.json")
        if name == "before":
            self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 30
        while not os.path.exists(path):
            if time.monotonic() > deadline:
                raise RuntimeError(f"launcher wrote no {name} dump")
            time.sleep(0.01)
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)

    def stop(self) -> int:
        """SIGTERM, wait for a clean exit, return the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait(timeout=30)
        self.proc.stdout.close()
        self.log.close()
        return code


WARMUP = (
    ("describe", DESCRIBE_REQUEST),
    ("temporal", {**TEMPORAL_REQUEST, "seed": REFERENCE_SEED}),
    ("sweep", {**SWEEP_REQUEST, "seed": REFERENCE_SEED}),
)


def start_warm_server(traced: bool, tally: Tally, scratch: str) -> tuple[Server, float]:
    """A server after the first success of each request class."""
    server = Server(traced, scratch)
    try:
        for kind, payload in WARMUP:
            status, _ = http_call(server.port, "POST", f"/v1/{kind}", payload)
            tally.check(status == 200, f"warm-up {kind}: HTTP {status}")
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - server.started


def drive(server: Server, schedule, seconds: float):
    """One closed-loop client: each request goes out when the last returns.

    One client, not two: two clients' sweeps contend for the server's
    interpreter lock, and throughput moved by +-14% between identical
    15 s runs on a 2-core host (one client: +-5%).  Every
    :data:`WINDOW_S` the client takes a :func:`reference_loop` reading,
    and a request's latency is scaled by the readings around its window.
    Returns ``(done, elapsed, scaled_elapsed)``: ``done`` holds
    ``(index, (kind, latency, status, body, scaled latency))``, and the
    elapsed times cover the request windows only.
    """
    done = []
    elapsed = scaled_elapsed = 0.0
    requests = enumerate(schedule)
    before = reference_loop()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        window, start = [], time.perf_counter()
        end = min(start + WINDOW_S, deadline)
        while time.perf_counter() < end:
            index, (kind, payload) = next(requests)
            sent = time.perf_counter()
            try:
                status, body = http_call(server.port, "POST", f"/v1/{kind}", payload)
            except (OSError, http.client.HTTPException) as exc:
                status, body = 0, repr(exc).encode()
            window.append((index, kind, time.perf_counter() - sent, status, body))
        span = time.perf_counter() - start
        after = reference_loop()
        scale = at_reference_speed(1.0, before, after)
        before = after
        elapsed += span
        scaled_elapsed += span * scale
        done.extend(
            (index, (kind, latency, status, body, latency * scale))
            for index, kind, latency, status, body in window
        )
    return done, elapsed, scaled_elapsed


def serve_stats_delta(after: dict, before: dict, a_metrics, b_metrics) -> dict:
    """Per-endpoint server time and tier counters across one run."""
    out = {}
    for kind in ("sweep", "temporal", "describe"):
        a = after["latency"].get(f"/v1/{kind}", {"count": 0, "sum": 0.0})
        b = before["latency"].get(f"/v1/{kind}", {"count": 0, "sum": 0.0})
        count = a["count"] - b["count"]
        out[kind] = 1e3 * (a["sum"] - b["sum"]) / count if count else 0.0
        out[f"{kind}_count"] = count
    out["rejected"] = after["admission"]["rejected"] - before["admission"]["rejected"]
    out["followers"] = after["coalescer"]["followers"] - before["coalescer"]["followers"]
    out["registry"] = diff_flat(a_metrics, b_metrics)
    out["registry"]["repro_cache_ops_total{outcome=hit}"] = (
        after["cache"]["hits"] - before["cache"]["hits"]
    )
    out["registry"]["repro_cache_ops_total{outcome=miss}"] = (
        after["cache"]["misses"] - before["cache"]["misses"]
    )
    return out


def serve_half(traced: bool, schedule, seconds, tally, scratch, setup_times=None):
    """One warm server driven for ``seconds``; returns its figures."""
    spawns = SERVE_SETUP_SPAWNS if setup_times is not None else 1
    before = reference_loop()
    for attempt in range(spawns):
        server, setup = start_warm_server(traced, tally, scratch)
        if setup_times is not None:
            after = reference_loop()
            setup_times.append(at_reference_speed(setup, before, after))
            before = after
        if attempt < spawns - 1:
            tally.check(server.stop() == 0, "server exit code after SIGTERM")
    try:
        before_dump = server.dump("before") if traced else None
        stats0, metrics0 = server.get_json("/stats"), server.metrics()
        done, elapsed, scaled_elapsed = drive(server, schedule, seconds)
        stats1, metrics1 = server.get_json("/stats"), server.metrics()
        rss = vm_hwm_mb(server.proc.pid)
    finally:
        code = server.stop()
    tally.check(code == 0, f"server exit code {code} after SIGTERM")
    after_dump = server.dump("after") if traced else None
    delta = serve_stats_delta(stats1, stats0, metrics1, metrics0)
    for index, (kind, _, status, _, _) in done:
        tally.check(status == 200, f"request {index} ({kind}): HTTP {status}")
    return {
        "done": done,
        "elapsed": elapsed,
        "scaled_elapsed": scaled_elapsed,
        "rss_mb": rss,
        "stats_rss_mb": stats1["rss_bytes"] / 2**20,
        "delta": delta,
        "dumps": (before_dump, after_dump),
    }


def verify_bodies(schedule, done, tally) -> None:
    """A sample of response bodies equals an in-process Session's answer."""
    from repro.core.session import Session

    picked: dict[str, int] = {}
    with Session() as session:
        for index, (kind, _, status, body, _) in done:
            if status != 200 or picked.get(kind, 0) >= SERVE_VERIFY_PER_CLASS:
                continue
            picked[kind] = picked.get(kind, 0) + 1
            payload = schedule[index][1]
            spec = payload["spec"]
            options = {k: v for k, v in payload.items() if k != "spec"}
            if kind == "sweep":
                expected = session.resilience_sweep(spec, **options).as_dict()
            elif kind == "temporal":
                expected = session.temporal_sweep(spec, **options).as_dict()
            else:
                expected = session.describe(spec)
            wanted = json.dumps(expected, sort_keys=True).encode() + b"\n"
            tally.check(body == wanted, f"request {index} ({kind}) body differs")
    for kind in ("sweep", "temporal", "describe"):
        tally.check(picked.get(kind, 0) > 0, f"no {kind} response to verify")


def latency_summary(done, scaled_elapsed) -> dict:
    """Request rate and per-class p50/p90 latency, at reference speed."""
    out = {"requests": len(done), "requests_per_s": len(done) / scaled_elapsed}
    for kind in ("sweep", "temporal", "describe"):
        ms = [1e3 * r[4] for _, r in done if r[0] == kind and r[2] == 200]
        out[f"{kind}_n"] = len(ms)
        out[f"{kind}_p50_ms"] = statistics.median(ms) if ms else 0.0
        out[f"{kind}_p90_ms"] = percentile(ms, 0.90) if ms else 0.0
    return out


def run_serve_workload(seed, seconds, trace, scratch):
    tally = Tally()
    schedule = build_schedule(seed, 50_000)
    report: dict = {}
    if not trace:
        setup: list[float] = []
        half = serve_half(False, schedule, seconds, tally, scratch, setup_times=setup)
        lat = latency_summary(half["done"], half["scaled_elapsed"])
        metrics = {
            "setup_s": statistics.median(setup),
            "ops_per_s": lat["requests_per_s"],
            "peak_rss_mb": half["rss_mb"],
            "sweep_p50_ms": lat["sweep_p50_ms"],
        }
        report.update(
            {k: round(v, 4) if isinstance(v, float) else v for k, v in lat.items()}
        )
        report["setup_runs_s"] = [round(t, 4) for t in setup]
        report["raw_requests_per_s"] = round(len(half["done"]) / half["elapsed"], 3)
        report["stats_rss_mb"] = round(half["stats_rss_mb"], 2)
        verify_bodies(schedule, half["done"], tally)
    else:
        metrics = traced_serve(schedule, seconds, tally, report, scratch)
    tally.check(not child_pids(), "a server process outlived the run")
    return metrics, tally, report


def traced_serve(schedule, seconds, tally, report, scratch):
    """Half the time on the CLI server, half on the traced launcher."""
    plain = serve_half(False, schedule, seconds / 2, tally, scratch)
    traced = serve_half(True, schedule, seconds / 2, tally, scratch)
    plain_bodies = {i: r[3] for i, r in plain["done"] if r[2] == 200}
    compared = 0
    for index, (kind, _, status, body, _) in traced["done"]:
        if status == 200 and index in plain_bodies:
            compared += 1
            tally.check(
                body == plain_bodies[index],
                f"request {index} ({kind}): traced body differs from untraced",
            )
    tally.check(compared > 0, "no traced response to compare")
    verify_bodies(schedule, traced["done"], tally)
    before, after = traced["dumps"]
    totals = diff_totals(after["layers"], before["layers"])
    spans = {k: after["spans"][k] - before["spans"][k] for k in SPAN_NAMES}
    delta = traced["delta"]
    requests = len(traced["done"])
    client_ms = 1e3 * statistics.fmean(r[1] for _, r in traced["done"] if r[2] == 200)
    server_ms = (
        sum(delta[k] * delta[f"{k}_count"] for k in ("sweep", "temporal", "describe"))
        / max(1, sum(delta[f"{k}_count"] for k in ("sweep", "temporal", "describe")))
    )
    # the halves run one after the other: compare them at reference speed
    plain_rate = len(plain["done"]) / plain["scaled_elapsed"]
    traced_rate = requests / traced["scaled_elapsed"]
    report["untraced_requests_per_s"] = round(plain_rate, 3)
    report["traced_requests_per_s"] = round(traced_rate, 3)
    report["operations"] = requests
    return layer_metrics(
        totals,
        spans,
        delta["registry"],
        requests,
        build_s=before["spans"]["cache.build"],
        overhead=plain_rate / traced_rate - 1.0,
        serve={**delta, "transport": client_ms - server_ms},
    )


# ----------------------------------------------------------------------
# Entry points.
# ----------------------------------------------------------------------
def run(workload: str, seed: int, seconds: float, trace: bool, scale: str):
    """``(metrics, tally, report)`` of one run, in a private scratch directory."""
    base = os.path.join(ROOT, ".perfbench-tmp")
    os.makedirs(base, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=base)
    try:
        if workload == "serve-mixed":
            return run_serve_workload(seed, seconds, trace, scratch)
        table = TINY_SWEEPS if scale == "tiny" else SWEEPS
        return run_sweep_workload(table[workload], seed, seconds, trace, scale, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:  # another run still uses it
            pass


def metric_units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics a run prints."""
    return dict(PER_LAYER) if trace else {n: u for n, u, _, _ in END_TO_END}


def result_line(metrics: dict, tally: Tally, trace: bool) -> dict:
    units = metric_units(trace)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }


def print_table(workload, seed, metrics, tally, report, trace) -> None:
    units = metric_units(trace)
    print(f"# {workload}, seed {seed}, {'traced' if trace else 'untraced'}")
    for name, unit in units.items():
        print(f"{name:<28} {metrics[name]:>14.6g} {unit}")
    if workload == "serve-mixed" and not trace:
        print(f"{'requests_per_s':<28} {report['requests_per_s']:>14.6g} 1/s")
        for kind in ("sweep", "temporal", "describe"):
            for q in ("p50", "p90"):
                key = f"{kind}_{q}_ms"
                print(f"{key:<28} {report[key]:>14.6g} ms "
                      f"(n={report[kind + '_n']})")
    elif not trace:
        print(f"{'trials_per_s':<28} {metrics['ops_per_s']:>14.6g} 1/s")
    error_rate = tally.failed / tally.attempted
    print(f"{'error_rate':<28} {error_rate:>14.6g} fraction "
          f"({tally.failed}/{tally.attempted})")
    for reason in tally.reasons[:10]:
        print(f"  failed: {reason}")
    print("report " + json.dumps(report, sort_keys=True))
    print("provenance " + json.dumps(provenance(workload, seed), sort_keys=True))


def self_test() -> int:
    """Every workload at tiny scale, traced and untraced, in seconds."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        committed = json.load(handle)
    ok = committed == manifest()
    print(f"BENCHMARK.json matches the manifest: {ok}")
    for workload in WORKLOAD_WHY:
        for trace in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", "0", "--seconds", "3", "--trace", trace,
                 "--scale", "tiny"],
                capture_output=True, text=True, cwd=ROOT, timeout=180,
            )
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                result = {"correct": False, "metrics": {}}
            wanted = set(metric_units(trace == "1"))
            passed = (
                proc.returncode == 0
                and result["correct"]
                and set(result["metrics"]) == wanted
            )
            ok = ok and passed
            print(f"{workload} trace={trace}: {'ok' if passed else 'FAILED'}")
            if not passed:
                print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOAD_WHY))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--probe", choices=sorted(SWEEPS), help=argparse.SUPPRESS)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-manifest", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.probe:
        table = TINY_SWEEPS if args.scale == "tiny" else SWEEPS
        probe(table[args.probe], bool(args.trace))
        return 0
    if args.write_manifest:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as handle:
            json.dump(manifest(), handle, indent=2)
            handle.write("\n")
        return 0
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    metrics, tally, report = run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.scale
    )
    print_table(args.workload, args.seed, metrics, tally, report, args.trace)
    print(json.dumps(result_line(metrics, tally, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
