"""Post-run statistics for simulator executions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import SlottedSimulator

__all__ = ["SimulationReport", "summarize"]


@dataclass(frozen=True)
class SimulationReport:
    """Aggregate results of one simulation run."""

    num_messages: int
    slots: int
    mean_latency: float
    p95_latency: float
    max_latency: int
    mean_hops: float
    max_hops: int
    throughput: float  # delivered messages per slot
    coupler_utilization: float  # mean busy fraction over couplers
    max_coupler_utilization: float
    contended_slot_fraction: float
    num_dropped: int = 0  # messages dropped on dead couplers
    delivery_ratio: float = 1.0  # delivered / injected (1.0 when intact)

    def row(self) -> str:
        """One formatted results row (benchmark table output)."""
        return (
            f"msgs={self.num_messages:>6}  slots={self.slots:>6}  "
            f"lat(mean/p95/max)={self.mean_latency:6.2f}/{self.p95_latency:6.2f}/{self.max_latency:>4}  "
            f"hops(mean/max)={self.mean_hops:5.2f}/{self.max_hops}  "
            f"thr={self.throughput:6.3f}  util(mean/max)={self.coupler_utilization:5.3f}/{self.max_coupler_utilization:5.3f}"
        )


def summarize(sim: SlottedSimulator) -> SimulationReport:
    """Build a :class:`SimulationReport` from a completed run.

    Raises ``ValueError`` when messages remain unsettled (reports on
    partial runs would silently mix latencies of unfinished traffic).
    Latency and hop statistics cover *delivered* messages; drops --
    possible only when the network carries dead couplers -- show up in
    ``num_dropped`` and ``delivery_ratio``.  Means and maxima are plain
    Python over the integer latencies and hops: ``sum(ints) / n`` equals
    numpy's ``mean`` exactly while the sum stays below ``2**53``.
    """
    if not sim.all_settled():
        raise ValueError("cannot summarize: unsettled messages remain")
    delivered = [m for m in sim.messages if m.deliver_slot >= 0]
    lat = [m.deliver_slot - m.inject_slot for m in delivered]
    hops = [m.hops for m in delivered]
    count = len(delivered)
    slots = max(sim.now, 1)
    busy = np.asarray(sim.coupler_busy, dtype=np.float64) / slots
    contended = sum(1 for s in sim.slot_log if s.contended_couplers > 0)
    total = len(sim.messages)
    return SimulationReport(
        num_messages=total,
        slots=sim.now,
        mean_latency=sum(lat) / count if count else 0.0,
        p95_latency=float(np.percentile(lat, 95)) if count else 0.0,
        max_latency=max(lat, default=0),
        mean_hops=sum(hops) / count if count else 0.0,
        max_hops=max(hops, default=0),
        throughput=count / slots,
        coupler_utilization=float(busy.mean()) if busy.size else 0.0,
        max_coupler_utilization=float(busy.max()) if busy.size else 0.0,
        contended_slot_fraction=contended / slots,
        num_dropped=total - count,
        delivery_ratio=count / total if total else 1.0,
    )
