"""The network-family registry: one registration, five behaviours.

A :class:`NetworkFamily` descriptor bundles everything the toolkit
needs to drive one topology family end to end -- constructor, router,
simulator factory, optical-design factory, parameter schema and an
equal-``N`` size enumerator.  Registering a family (the
:func:`register_family` class decorator) makes it reachable from the
facade (:func:`repro.build` and friends), the CLI, the comparison
tables and the sweep matrix with **no** per-family ``if/elif`` chains
anywhere downstream: adding a topology is one subclass, not edits to
five modules.

>>> sorted(family_keys())
['pops', 'sii', 'sk', 'sops']
>>> get_family("sk").construct(6, 3, 2).num_processors
72
>>> get_family("stack-kautz").key            # aliases resolve too
'sk'
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import TYPE_CHECKING

from .spec import Param, SpecError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .spec import NetworkSpec

__all__ = [
    "NetworkFamily",
    "register_family",
    "get_family",
    "family_keys",
    "iter_families",
    "family_for_network",
]

_REGISTRY: dict[str, "NetworkFamily"] = {}
_ALIASES: dict[str, str] = {}


class NetworkFamily:
    """Descriptor of one topology family; subclass + register to add one.

    Class attributes
    ----------------
    key:
        Canonical family key used in specs (``"sk"``, ``"pops"``, ...).
    title:
        Human-readable family name.
    params:
        The parameter schema, a tuple of :class:`~repro.core.spec.Param`
        in positional order.
    network_type:
        The class :meth:`construct` returns; used to dispatch from a
        network *instance* back to its family.
    aliases:
        Alternative keys accepted by :func:`get_family`.

    Methods to override
    -------------------
    ``construct``, ``route``, ``simulator``, ``design`` and ``sizes``
    (the equal-``N`` enumerator used by comparison tables).
    """

    key: str = ""
    title: str = ""
    params: tuple[Param, ...] = ()
    network_type: type | None = None
    aliases: tuple[str, ...] = ()
    #: Display name for the family's non-loop couplers ("Kautz", ...).
    coupler_kind: str = "OPS"

    # -- behaviours ----------------------------------------------------
    def construct(self, *params: int):
        """Build the network instance for ``params``."""
        raise NotImplementedError

    def route(self, net, src: int, dst: int):
        """Route ``src -> dst`` on ``net``; returns a ``StackRoute``."""
        raise NotImplementedError

    def simulator(self, net, policy=None):
        """A ready :class:`~repro.simulation.engine.SlottedSimulator`."""
        raise NotImplementedError

    def design(self, *params: int):
        """The full optical design (verifiable, with a BOM)."""
        raise NotImplementedError

    def sizes(self, target_n: int) -> Iterator["NetworkSpec"]:
        """Yield every family spec with exactly ``target_n`` processors."""
        raise NotImplementedError

    def candidate_specs(
        self, *, max_processors: int, min_processors: int = 2
    ) -> Iterator["NetworkSpec"]:
        """Every buildable family spec within the processor-count window.

        The enumeration hook behind :func:`repro.design_search`: yield
        each spec whose machine has between ``min_processors`` and
        ``max_processors`` processors (inclusive), in deterministic
        order.  The default walks the equal-``N`` enumerator over the
        whole window; families with cheap direct parameterizations
        override this (stack-Kautz enumerates ``(s, d, k)`` directly
        instead of scanning every ``N`` for divisors).
        """
        if max_processors < min_processors:
            return
        for n in range(min_processors, max_processors + 1):
            yield from self.sizes(n)

    def fault_route(
        self, net, src_group: int, dst_group: int, degraded
    ) -> list[int] | None:
        """A group-level path ``src_group -> dst_group`` avoiding faults.

        ``degraded`` is a
        :class:`~repro.resilience.degrade.DegradedNetwork` over ``net``;
        its ``fault_route`` answers ``None`` for a dead endpoint group
        itself, so both groups given here are alive.  Returns the list
        of groups visited (``[g]`` when source and destination
        coincide) or ``None`` when the faults sever the pair.  The
        default walks BFS over the surviving base digraph;
        families with structured fault-tolerant routing (stack-Kautz's
        ``k + 2`` candidate family) override this, and must then
        override :meth:`route_lengths` too (:func:`register_family`
        rejects a family that overrides only this hook).
        """
        if src_group == dst_group:
            return [src_group]
        return degraded.surviving_base().shortest_path(src_group, dst_group)

    def route_lengths(self, net, stack):
        """``(B, g, g)`` int array of :meth:`fault_route` lengths on a stack.

        ``stack`` is a :class:`~repro.resilience.degrade.ViewStack` of
        ``B`` degraded views of ``net``.  For live distinct groups of
        view ``b``, entry ``[b, u, v]`` is
        ``len(fault_route(net, u, v, stack.views[b])) - 1``, or ``-1``
        when the hook returns ``None``; other entries are unspecified.
        A sweep's stack builds ``stack.views[b]`` only when it is
        asked for, so a hook should read the stack's arrays and reach
        for a view only where they cannot answer.
        This is what :func:`~repro.resilience.metrics.route_quality`
        scores for a sweep's stacks, and
        :meth:`~repro.resilience.degrade.DegradedNetwork.route_lengths`
        calls it on a stack of one.  The default is ``stack.dist``
        (shared, do not mutate): the default hook's BFS route is a
        shortest path.
        """
        return stack.dist

    # -- description ---------------------------------------------------
    def signature(self) -> str:
        """``key(p1,p2,...)`` with schema parameter names."""
        return f"{self.key}({','.join(p.name for p in self.params)})"

    def describe(self) -> str:
        """One usage line for CLI help and error messages."""
        plist = "; ".join(f"{p.name}: {p.description}" for p in self.params)
        return f"{self.signature()} -- {self.title} ({plist})"


def register_family(cls: type[NetworkFamily]) -> type[NetworkFamily]:
    """Class decorator: instantiate ``cls`` and add it to the registry.

    The registry maps both the canonical key and every alias
    (case-insensitively) to the single descriptor instance.  A class
    that overrides ``fault_route`` but inherits the BFS
    ``route_lengths`` is rejected: its routes would be scored as BFS
    lengths.
    """
    if (
        cls.fault_route is not NetworkFamily.fault_route
        and cls.route_lengths is NetworkFamily.route_lengths
    ):
        raise ValueError(
            f"{cls.__name__} overrides fault_route but not route_lengths; "
            "route_lengths must report the lengths of its fault_route"
        )
    family = cls()
    if not family.key:
        raise ValueError(f"{cls.__name__} must define a non-empty 'key'")
    key = family.key.lower()
    if key in _REGISTRY or key in _ALIASES:
        raise ValueError(f"network family key {key!r} is already taken")
    _REGISTRY[key] = family
    for alias in family.aliases:
        alias = alias.lower()
        if alias in _REGISTRY or alias in _ALIASES:
            raise ValueError(f"family alias {alias!r} is already taken")
        _ALIASES[alias] = key
    return cls


def _ensure_builtin_families() -> None:
    """Idempotently import the built-in family registrations."""
    from . import families as _families  # noqa: F401


def get_family(key: str) -> NetworkFamily:
    """The descriptor for ``key`` (canonical or alias, case-insensitive)."""
    _ensure_builtin_families()
    k = key.strip().lower()
    k = _ALIASES.get(k, k)
    try:
        return _REGISTRY[k]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise SpecError(
            f"unknown network family {key!r}; known families: {known}"
        ) from None


def family_keys() -> tuple[str, ...]:
    """All registered canonical family keys, sorted."""
    _ensure_builtin_families()
    return tuple(sorted(_REGISTRY))


def iter_families() -> Iterator[NetworkFamily]:
    """All registered descriptors, in sorted key order."""
    _ensure_builtin_families()
    for key in sorted(_REGISTRY):
        yield _REGISTRY[key]


def family_for_network(net) -> NetworkFamily:
    """The family descriptor owning a network *instance*.

    Dispatches on :attr:`NetworkFamily.network_type`; this is how
    :func:`repro.simulation.simulator_for` stays family-agnostic.
    """
    _ensure_builtin_families()
    for family in _REGISTRY.values():
        if family.network_type is not None and isinstance(
            net, family.network_type
        ):
            return family
    raise SpecError(
        f"no registered network family owns instances of "
        f"{type(net).__name__}"
    )
