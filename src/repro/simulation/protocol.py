"""Arbitration policies for single-wavelength OPS couplers.

When several processors want the same coupler in the same slot, the
distributed control protocol must pick one (the paper's companion work
[11] argues distributed control is practical on these topologies; [25]
studies age/distance priorities).  Policies here are deterministic
given their inputs, so simulations are reproducible.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .engine import Message

__all__ = [
    "ArbitrationPolicy",
    "OldestFirst",
    "RoundRobin",
    "RandomChoice",
    "FurthestFirst",
]


class ArbitrationPolicy(Protocol):
    """Picks the winning message among same-coupler requests."""

    def pick(self, candidates: "list[Message]", slot: int) -> "Message":
        """Return the message that transmits this slot."""
        ...


class OldestFirst:
    """Oldest injection wins; ties broken by message id (age priority)."""

    def pick(self, candidates: "list[Message]", slot: int) -> "Message":
        _ = slot
        if len(candidates) == 1:
            return candidates[0]
        return min(candidates, key=lambda m: (m.inject_slot, m.ident))


class RoundRobin:
    """Cycle priority over source processors slot by slot.

    Guarantees starvation freedom: the processor with id congruent to
    the slot (mod a rotating offset) gets first claim.
    """

    def pick(self, candidates: "list[Message]", slot: int) -> "Message":
        return min(
            candidates,
            key=lambda m: ((m.current - slot) % (max(c.current for c in candidates) + 1), m.ident),
        )


class RandomChoice:
    """Uniform random winner from a seeded generator (reproducible)."""

    def __init__(self, seed: int = 0) -> None:
        self.rng = np.random.default_rng(seed)

    def pick(self, candidates: "list[Message]", slot: int) -> "Message":
        _ = slot
        ordered = sorted(candidates, key=lambda m: m.ident)
        return ordered[int(self.rng.integers(len(ordered)))]


class FurthestFirst:
    """Distance priority: the message injected longest ago wins, then
    the one with more hops already taken (it has consumed more network
    resources -- dropping it now would waste them), then id."""

    def pick(self, candidates: "list[Message]", slot: int) -> "Message":
        _ = slot
        return min(
            candidates, key=lambda m: (m.inject_slot, -m.hops, m.ident)
        )
