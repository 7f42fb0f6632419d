"""Process-wide metrics: counters, gauges and fixed-bucket histograms.

One :class:`MetricsRegistry` holds every instrument of a process,
keyed by ``(name, sorted label items)``.  Three instrument kinds cover
everything the serving tier and the sweep executors report:

* :class:`Counter` -- monotone totals (requests served, trials run);
* :class:`Gauge` -- point-in-time levels (queue depth, cache size);
* :class:`Histogram` -- fixed-bucket latency distributions with
  deterministic p50/p95/p99 estimates (linear interpolation inside
  the winning bucket, so the same observations always summarize to
  the same numbers).

Everything is stdlib-only and thread-safe: the registry serializes
instrument creation on one lock and each instrument serializes its own
updates, so server threads, pool callbacks and the event loop can all
record concurrently.

**Fork-awareness** is the part the sweep executors lean on.  A
``multiprocessing`` worker forked mid-run inherits the parent's
registry *contents*, so workers never ship their inherited global
state back; instead each worker process records into a dedicated
*worker registry* that the pool initializer resets
(:func:`reset_worker_registry`) and each finished chunk drains
(:meth:`MetricsRegistry.drain`) into a JSON-safe snapshot shipped home
with the rows.  The parent merges each delta as its chunk arrives
(:meth:`MetricsRegistry.merge`) -- counters and histogram buckets add,
gauges take the max -- all commutative, so the merged totals are
deterministic for any worker count and arrival order.  Scorers record
into :func:`recording_registry`: the worker registry while their
thread runs a chunk (:func:`chunk_scope`), else the process registry,
so a scorer called directly never leaves series for the next chunk to
ship.

>>> r = MetricsRegistry()
>>> r.counter("jobs_total", "jobs run").inc()
>>> r.counter("jobs_total").inc(2)
>>> r.counter("jobs_total").value
3
>>> h = r.histogram("latency_seconds", "job latency")
>>> h.observe(0.004); h.observe(0.004); h.observe(0.09)
>>> h.summary()["count"]
3
>>> other = MetricsRegistry()
>>> other.merge(r.snapshot())
>>> other.counter("jobs_total").value
3
"""

from __future__ import annotations

import bisect
import threading
from contextlib import contextmanager

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "get_registry",
    "worker_registry",
    "reset_worker_registry",
    "chunk_scope",
    "recording_registry",
]

#: Default histogram bucket upper bounds, in seconds: microbenchmark
#: floor to multi-minute sweeps.  The ``+Inf`` bucket is implicit.
DEFAULT_BUCKETS = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
    120.0,
)


def _format_value(value: float) -> str:
    """Prometheus sample formatting: integers bare, floats via repr."""
    number = float(value)
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _label_suffix(labels: tuple[tuple[str, str], ...], extra=()) -> str:
    """The ``{k="v",...}`` block of one sample line (may be empty)."""
    pairs = [*labels, *extra]
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{_escape_label(v)}"' for k, v in pairs)
    return "{" + inner + "}"


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """Current total (an ``int`` when the total is whole)."""
        with self._lock:
            value = self._value
        return int(value) if value == int(value) else value


class Gauge:
    """A point-in-time level; merges across processes by max."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def merge_max(self, value: float) -> None:
        """Keep the larger of the current and incoming value."""
        with self._lock:
            self._value = max(self._value, float(value))

    @property
    def value(self) -> float:
        with self._lock:
            value = self._value
        return int(value) if value == int(value) else value


class Histogram:
    """Fixed-bucket distribution with deterministic quantile estimates.

    ``buckets`` are the finite upper bounds (ascending); an implicit
    ``+Inf`` bucket catches the tail.  Quantiles interpolate linearly
    inside the winning bucket -- the classic Prometheus
    ``histogram_quantile`` estimate -- so two histograms holding the
    same counts report identical p50/p95/p99 regardless of the
    observation order that produced them.
    """

    __slots__ = ("buckets", "_counts", "_sum", "_count", "_lock")

    def __init__(self, buckets=DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(
                f"histogram buckets must be ascending and unique: {buckets!r}"
            )
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1: the +Inf bucket
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    def merge_counts(self, counts, total_sum: float, count: int) -> None:
        """Fold another histogram's state in (bucket-wise addition)."""
        if len(counts) != len(self._counts):
            raise ValueError(
                f"cannot merge histograms with {len(counts)} vs "
                f"{len(self._counts)} buckets"
            )
        with self._lock:
            for i, c in enumerate(counts):
                self._counts[i] += c
            self._sum += total_sum
            self._count += count

    def state(self) -> tuple[list[int], float, int]:
        """``(per-bucket counts, sum, count)`` -- one atomic snapshot."""
        with self._lock:
            return list(self._counts), self._sum, self._count

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0 <= q <= 1) from the buckets."""
        counts, _, total = self.state()
        if total == 0:
            return 0.0
        rank = q * total
        cumulative = 0
        for index, bucket_count in enumerate(counts):
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= rank and bucket_count:
                lower = 0.0 if index == 0 else self.buckets[index - 1]
                if index >= len(self.buckets):  # the +Inf bucket
                    return lower
                upper = self.buckets[index]
                fraction = (rank - previous) / bucket_count
                return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
        return self.buckets[-1] if self.buckets else 0.0

    def summary(self) -> dict[str, float]:
        """JSON-ready ``{count, sum, mean, p50, p95, p99}`` digest."""
        _, total_sum, count = self.state()
        return {
            "count": count,
            "sum": round(total_sum, 6),
            "mean": round(total_sum / count, 6) if count else 0.0,
            "p50": round(self.quantile(0.50), 6),
            "p95": round(self.quantile(0.95), 6),
            "p99": round(self.quantile(0.99), 6),
        }


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """All instruments of one process (or one worker), by name + labels.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first
    call fixes the instrument's kind and help text, later calls with
    the same name return the existing series (a conflicting kind
    raises).  Labels distinguish series under one name; every
    ``(name, labels)`` pair is its own instrument.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: name -> {"kind": str, "help": str, "buckets": tuple | None}
        self._families: dict[str, dict] = {}
        #: (name, labels-tuple) -> instrument
        self._series: dict[tuple, object] = {}

    # ------------------------------------------------------------------
    # Get-or-create.
    # ------------------------------------------------------------------
    def _instrument(self, kind, name, help_text, labels, buckets=None):
        label_key = (
            () if not labels
            else tuple(sorted((str(k), str(v)) for k, v in labels.items()))
        )
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = {
                    "kind": kind,
                    "help": help_text,
                    "buckets": tuple(buckets) if buckets else None,
                }
                self._families[name] = family
            elif family["kind"] != kind:
                raise ValueError(
                    f"metric {name!r} is a {family['kind']}, not a {kind}"
                )
            elif help_text and not family["help"]:
                family["help"] = help_text
            key = (name, label_key)
            instrument = self._series.get(key)
            if instrument is None:
                if kind == "histogram":
                    instrument = Histogram(family["buckets"] or DEFAULT_BUCKETS)
                else:
                    instrument = _KINDS[kind]()
                self._series[key] = instrument
            return instrument

    def counter(self, name, help_text="", labels=None) -> Counter:
        """The counter series for ``(name, labels)``."""
        return self._instrument("counter", name, help_text, labels)

    def gauge(self, name, help_text="", labels=None) -> Gauge:
        """The gauge series for ``(name, labels)``."""
        return self._instrument("gauge", name, help_text, labels)

    def histogram(
        self, name, help_text="", labels=None, buckets=None
    ) -> Histogram:
        """The histogram series for ``(name, labels)``.

        ``buckets`` (finite ascending upper bounds) applies on first
        creation of the family; later calls inherit it.
        """
        return self._instrument(
            "histogram", name, help_text, labels, buckets=buckets
        )

    def series(self, name) -> dict[tuple, object]:
        """``labels-tuple -> instrument`` for one family (a snapshot)."""
        with self._lock:
            return {
                labels: instrument
                for (n, labels), instrument in self._series.items()
                if n == name
            }

    # ------------------------------------------------------------------
    # Snapshots, merging, reset -- the fork-aware side.
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Deterministic JSON-safe dump of every family and series.

        Shape: ``{name: {"kind", "help", "buckets", "series":
        [[labels, payload], ...]}}``, names and label sets sorted.
        Counter/gauge payloads are plain numbers; histogram payloads
        are ``[counts, sum, count]``.
        """
        with self._lock:
            families = {
                name: dict(family) for name, family in self._families.items()
            }
            items = sorted(self._series.items())
        out: dict[str, dict] = {}
        for (name, labels), instrument in items:
            family = families[name]
            entry = out.setdefault(
                name,
                {
                    "kind": family["kind"],
                    "help": family["help"],
                    "buckets": (
                        list(family["buckets"]) if family["buckets"] else None
                    ),
                    "series": [],
                },
            )
            if family["kind"] == "histogram":
                counts, total_sum, count = instrument.state()
                payload = [counts, total_sum, count]
                if entry["buckets"] is None:
                    entry["buckets"] = list(instrument.buckets)
            else:
                payload = instrument.value
            entry["series"].append([[list(pair) for pair in labels], payload])
        return out

    def drain(self) -> dict:
        """Snapshot, then forget everything -- the per-chunk delta.

        Worker processes call this after each finished chunk so the
        shipped snapshot contains exactly the activity of that chunk,
        never fork-inherited or already-shipped state.
        """
        snap = self.snapshot()
        self.reset()
        return snap

    def reset(self) -> None:
        """Drop every family and series (a fresh registry)."""
        with self._lock:
            self._families.clear()
            self._series.clear()

    def merge(self, snap: dict) -> None:
        """Fold a :meth:`snapshot` in: counters/histograms add, gauges max.

        Every operation is commutative and associative, so merging N
        worker deltas yields the same totals in any join order -- the
        determinism the sweep executors promise.
        """
        for name in sorted(snap):
            entry = snap[name]
            kind = entry["kind"]
            for labels_list, payload in entry["series"]:
                labels = {k: v for k, v in labels_list}
                if kind == "counter":
                    self.counter(name, entry["help"], labels).inc(payload)
                elif kind == "gauge":
                    self.gauge(name, entry["help"], labels).merge_max(payload)
                else:
                    histogram = self.histogram(
                        name, entry["help"], labels,
                        buckets=entry["buckets"],
                    )
                    counts, total_sum, count = payload
                    histogram.merge_counts(counts, total_sum, count)

    # ------------------------------------------------------------------
    # Prometheus text exposition.
    # ------------------------------------------------------------------
    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format (0.0.4).

        ``# HELP``/``# TYPE`` per family, then one sample line per
        series -- histograms expand to cumulative ``_bucket`` lines
        (``le`` upper bounds, ``+Inf`` last), ``_sum`` and ``_count``.
        Families and series render sorted, so the exposition is
        deterministic for a given registry state.
        """
        snap = self.snapshot()
        lines: list[str] = []
        for name in sorted(snap):
            entry = snap[name]
            kind = entry["kind"]
            if entry["help"]:
                lines.append(f"# HELP {name} {entry['help']}")
            lines.append(f"# TYPE {name} {kind}")
            for labels_list, payload in entry["series"]:
                labels = tuple((k, v) for k, v in labels_list)
                if kind != "histogram":
                    lines.append(
                        f"{name}{_label_suffix(labels)} "
                        f"{_format_value(payload)}"
                    )
                    continue
                counts, total_sum, count = payload
                bounds = [
                    _format_value(b) for b in (entry["buckets"] or [])
                ] + ["+Inf"]
                cumulative = 0
                for bound, bucket_count in zip(bounds, counts):
                    cumulative += bucket_count
                    suffix = _label_suffix(labels, extra=(("le", bound),))
                    lines.append(f"{name}_bucket{suffix} {cumulative}")
                lines.append(
                    f"{name}_sum{_label_suffix(labels)} "
                    f"{_format_value(total_sum)}"
                )
                lines.append(f"{name}_count{_label_suffix(labels)} {count}")
        return "\n".join(lines) + ("\n" if lines else "")


#: The process-wide registry: parents merge worker deltas into this,
#: the CLI and the serving tier render it.
REGISTRY = MetricsRegistry()

#: The per-worker-process registry (see the module docstring): reset
#: by pool initializers, drained per chunk, merged by the parent.
_WORKER_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide :data:`REGISTRY`."""
    return REGISTRY


def worker_registry() -> MetricsRegistry:
    """The per-worker-process registry chunk runners record into."""
    return _WORKER_REGISTRY


def reset_worker_registry() -> None:
    """Forget fork-inherited worker state (pool initializers call this)."""
    _WORKER_REGISTRY.reset()


_CHUNK = threading.local()


@contextmanager
def chunk_scope():
    """Run the block as a chunk: its scorers record into the worker registry.

    The sweep executors' chunk runner enters it and drains the worker
    registry afterwards; the scope is per thread, so concurrent inline
    runs and direct scorer calls in other threads keep their own.
    """
    depth = getattr(_CHUNK, "depth", 0)
    _CHUNK.depth = depth + 1
    try:
        yield
    finally:
        _CHUNK.depth = depth


def recording_registry() -> MetricsRegistry:
    """The registry a scorer records into right now.

    The worker registry inside :func:`chunk_scope` (the chunk ships it
    home), else :data:`REGISTRY`: a scorer called outside any chunk --
    a direct ``replay_trace`` or ``route_lengths`` call -- counts where
    it runs instead of in the next chunk's delta.
    """
    return _WORKER_REGISTRY if getattr(_CHUNK, "depth", 0) else REGISTRY
