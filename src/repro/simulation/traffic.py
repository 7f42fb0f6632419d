"""Workload generators for the simulator.

Each generator returns ``(src, dst, inject_slot)`` triples.  Seeds are
explicit everywhere: a benchmark run is a pure function of its
parameters.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "uniform_traffic",
    "permutation_traffic",
    "hotspot_traffic",
    "broadcast_traffic",
    "group_local_traffic",
    "bernoulli_stream",
]


def _rng(seed: int) -> np.random.Generator:
    """The generator of a workload seed; any integer is a valid seed.

    Sweep and replay requests accept negative seeds (their per-trial
    streams hash the seed), while numpy accepts only non-negative
    ones.  A non-negative seed passes through unchanged; a negative
    one maps to its own stream, apart from every non-negative seed's.
    """
    if seed < 0:
        return np.random.default_rng(np.random.SeedSequence(-seed, spawn_key=(1,)))
    return np.random.default_rng(seed)


def _check_processors(num_processors: int) -> None:
    """Reject a machine on which ``src != dst`` traffic cannot exist."""
    if num_processors < 2:
        raise ValueError("need at least 2 processors")


def uniform_traffic(
    num_processors: int, num_messages: int, seed: int = 0
) -> list[tuple[int, int, int]]:
    """``num_messages`` one-shot messages with uniform random src != dst."""
    _check_processors(num_processors)
    rng = _rng(seed)
    out = []
    for _ in range(num_messages):
        src = int(rng.integers(num_processors))
        dst = int(rng.integers(num_processors - 1))
        if dst >= src:
            dst += 1
        out.append((src, dst, 0))
    return out


def permutation_traffic(
    num_processors: int, seed: int = 0
) -> list[tuple[int, int, int]]:
    """One message per processor along a random fixed-point-free-ish
    permutation (fixed points are re-targeted to the next processor)."""
    rng = _rng(seed)
    perm = rng.permutation(num_processors)
    out = []
    for src in range(num_processors):
        dst = int(perm[src])
        if dst == src:
            dst = (src + 1) % num_processors
        out.append((src, dst, 0))
    return out


def hotspot_traffic(
    num_processors: int,
    num_messages: int,
    hotspot: int = 0,
    fraction: float = 0.5,
    seed: int = 0,
) -> list[tuple[int, int, int]]:
    """Uniform traffic with ``fraction`` of messages aimed at ``hotspot``.

    The classic stress test for broadcast media: the hotspot's inbound
    couplers serialize, and multi-hop topologies feel it more.
    """
    _check_processors(num_processors)
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    rng = _rng(seed)
    out = []
    for _ in range(num_messages):
        src = int(rng.integers(num_processors))
        if rng.random() < fraction and src != hotspot:
            dst = hotspot
        else:
            dst = int(rng.integers(num_processors - 1))
            if dst >= src:
                dst += 1
        out.append((src, dst, 0))
    return out


def broadcast_traffic(
    num_processors: int, src: int = 0
) -> list[tuple[int, int, int]]:
    """One message from ``src`` to every other processor (unicast fan-out).

    Collectives in :mod:`repro.comm` do this in O(diameter) slots by
    exploiting the one-to-many couplers; pushing it through unicast
    routing measures what that optimization is worth.
    """
    return [(src, dst, 0) for dst in range(num_processors) if dst != src]


def group_local_traffic(
    num_processors: int,
    group_size: int,
    num_messages: int,
    local_fraction: float = 0.8,
    seed: int = 0,
) -> list[tuple[int, int, int]]:
    """Traffic with locality: most messages stay within the source group.

    Models the workload multi-OPS groups are designed for -- tight
    clusters with occasional global exchange.
    """
    _check_processors(num_processors)
    if num_processors % group_size:
        raise ValueError("group_size must divide num_processors")
    rng = _rng(seed)
    out = []
    for _ in range(num_messages):
        src = int(rng.integers(num_processors))
        base = (src // group_size) * group_size
        if rng.random() < local_fraction and group_size > 1:
            dst = base + int(rng.integers(group_size - 1))
            if dst >= src:
                dst += 1
        else:
            dst = int(rng.integers(num_processors - 1))
            if dst >= src:
                dst += 1
        out.append((src, dst, 0))
    return out


def bernoulli_stream(
    num_processors: int,
    num_slots: int,
    rate: float,
    seed: int = 0,
) -> list[tuple[int, int, int]]:
    """Open-loop arrivals: each processor injects w.p. ``rate`` per slot.

    The load knob for throughput/saturation curves (EXT-2): offered
    load is ``rate`` messages/processor/slot.
    """
    _check_processors(num_processors)
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must be in [0, 1], got {rate}")
    rng = _rng(seed)
    out = []
    for slot in range(num_slots):
        for src in range(num_processors):
            if rng.random() < rate:
                dst = int(rng.integers(num_processors - 1))
                if dst >= src:
                    dst += 1
                out.append((src, dst, slot))
    return out
