"""Declarative experiments: a plan grid that compiles to one schedule.

Before this module, running "survivability of these machines under
these fault models at these scoring depths" meant hand-writing loops
over :func:`repro.resilience_sweep` (or :func:`repro.sweep`, or
:func:`repro.design_search`) and collecting summaries yourself.  An
:class:`Experiment` is the declarative form of that loop: a frozen
plan object over the grid

    ``specs x fault models x metrics modes x trial counts x samplings``

that **compiles** into ``(spec, request)`` pairs -- a
:class:`~repro.resilience.sweep.SweepRequest` per frozen-model cell, a
:class:`~repro.temporal.replay.TemporalRequest` per fault-process
cell -- runs them on the same path as every single sweep and replay,
on one (persistent, when run through a
:class:`~repro.core.session.Session`) worker pool, and reports a
structured :class:`ExperimentResult` with ``as_dicts()`` /
``to_json()``.

Determinism: cells are ordered spec-major (specs, then models, then
metrics, then trials, then samplings), every cell reuses the
experiment seed, and each
cell's summary is **byte-identical** to calling
:func:`repro.resilience_sweep` with that cell's parameters.

>>> exp = Experiment(specs=("pops(2,2)",), models=("coupler:1",),
...                  metrics=("connectivity",), trials=4)
>>> [spec for spec, _ in exp.compile()]
['pops(2,2)']
>>> result = exp.run()
>>> result.cells[0].summary.trials
4
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field, fields

from .spec import NetworkSpec

__all__ = ["Experiment", "ExperimentCell", "ExperimentResult"]

#: Sentinel for :meth:`Experiment.run`: "caller did not pass workers",
#: so the target session's own default applies.
_UNSET_WORKERS = object()

#: Grid axis of each :class:`~repro.resilience.sweep.SweepRequest`
#: field an axis feeds (scalar plan fields share the request's names).
_AXES = {
    "metrics": "metrics modes",
    "trials": "trial counts",
    "sampling": "samplings",
}


def _normalize_tuple(value) -> tuple:
    """One entry or an iterable of entries -> a tuple of entries.

    Grid axes accept single entries of every shape the underlying
    parsers take -- including non-iterable ones (a spec dict, a
    ``NetworkSpec``, a ``FaultModel`` instance) -- so anything that is
    not a proper collection of entries wraps into a 1-tuple.
    """
    if isinstance(value, (str, int, Mapping)):
        return (value,)
    try:
        return tuple(value)
    except TypeError:
        return (value,)


def _make_model_or_process(key: str, intensity: int):
    """Resolve ``key`` in the fault-model registry, then the processes.

    The models axis accepts *fault processes* alongside frozen fault
    models: a process-keyed cell (``"coupler-renewal:2"``) is a
    temporal replay instead of a one-shot sweep.
    """
    from ..resilience.faults import FAULT_MODELS, make_fault_model
    from ..temporal.processes import FAULT_PROCESSES, make_fault_process

    normalized = key.strip().lower()
    if normalized in FAULT_MODELS:
        return make_fault_model(normalized, intensity)
    if normalized in FAULT_PROCESSES:
        return make_fault_process(normalized, intensity)
    known = ", ".join(sorted({*FAULT_MODELS, *FAULT_PROCESSES}))
    raise ValueError(
        f"unknown fault model or process {key!r}; known: {known}"
    )


def _parse_model(entry):
    """One model grid entry -> a FaultModel or FaultProcess instance.

    Accepts a :class:`~repro.resilience.faults.FaultModel`, a
    :class:`~repro.temporal.processes.FaultProcess`, a key string
    (``"coupler"``, ``"coupler-renewal"``), a ``"key:faults"`` string
    (``"coupler:2"``) or a ``(key, faults)`` pair.
    """
    from ..resilience.faults import FaultModel
    from ..temporal.processes import FaultProcess

    if isinstance(entry, (FaultModel, FaultProcess)):
        return entry
    if isinstance(entry, str):
        key, sep, faults = entry.partition(":")
        if sep:
            try:
                intensity = int(faults)
            except ValueError:
                raise ValueError(
                    f"malformed fault-model entry {entry!r}: expected "
                    f"'key' or 'key:faults' with integer faults"
                ) from None
            return _make_model_or_process(key, intensity)
        return _make_model_or_process(key, 1)
    if isinstance(entry, (tuple, list)) and len(entry) == 2:
        return _make_model_or_process(str(entry[0]), int(entry[1]))
    raise ValueError(
        f"cannot parse a fault model from {entry!r}; pass a FaultModel, "
        f"a FaultProcess, 'key', 'key:faults' or a (key, faults) pair"
    )


@dataclass(frozen=True)
class Experiment:
    """A frozen plan: spec grid x fault models x metrics x trials.

    Parameters are normalized (single entries become one-element
    grids, model entries become :class:`FaultModel` instances, specs
    are canonicalized) and validated at construction -- every cell's
    :class:`~repro.resilience.sweep.SweepRequest` is built here -- so an
    experiment that exists is an experiment that runs.  The scalar fields (``seed``, ``backend``, ``workload``,
    ``messages``, ``bound``, ``max_slots``, ``ci_target``) and the
    entries of the ``metrics``, ``trials`` and ``samplings`` axes mean
    what the request's fields of the same name mean.

    ``backend`` is the *preferred* trial executor (default ``"auto"``,
    which picks per cell); grid cells whose metrics mode a
    ``vectorized`` plan cannot score (``full``) run as ``"auto"``, so
    one plan can mix scoring depths.  ``paths`` cells for families with
    structured ``fault_route`` hooks are further downgraded per spec
    inside the sweep preparation; each frozen-model cell records the
    backend that actually ran, and each fault-process cell
    ``"temporal"``, the engine that replays it.

    A fault *process* on the models axis (``"coupler-renewal:2"``) is
    a temporal-replay cell (a
    :class:`~repro.temporal.replay.TemporalRequest` over the plan's
    ``trials``, ``seed``, ``workload``, ``messages``, ``bound`` and
    metrics mode, scheduled on the same pool), which has neither
    non-uniform sampling nor sequential stopping, so such a grid must
    keep ``samplings`` uniform and ``ci_target`` unset.

    >>> e = Experiment(specs=("pops(2,2)", "sk(2,2,2)"),
    ...                models=("coupler", "processor:2"), trials=8)
    >>> len(e.compile())
    4
    """

    specs: tuple = ()
    models: tuple = ("coupler",)
    metrics: tuple = ("connectivity",)
    trials: tuple = (100,)
    seed: int = 0
    backend: str = "auto"
    workload: str = "uniform"
    messages: int = 60
    bound: int | None = None
    max_slots: int = 100_000
    samplings: tuple = ("uniform",)
    ci_target: float | None = None

    def __post_init__(self) -> None:
        from ..resilience.sweep import SweepRequestError
        from ..temporal.processes import FaultProcess

        parse = {"specs": NetworkSpec.parse, "models": _parse_model}
        for name, noun in (
            ("specs", "spec"),
            ("models", "fault model"),
            ("metrics", "metrics mode"),
            ("trials", "trial count"),
            ("samplings", "sampling mode"),
        ):
            entries = _normalize_tuple(getattr(self, name))
            if name in parse:
                entries = tuple(map(parse[name], entries))
            if not entries:
                raise ValueError(f"an experiment needs at least one {noun}")
            object.__setattr__(self, name, entries)
        if any(isinstance(m, FaultProcess) for m in self.models) and (
            self.ci_target is not None
            or any(mode != "uniform" for mode in self.samplings)
        ):
            raise ValueError(
                "fault-process cells replay through the temporal engine, "
                "which has neither non-uniform sampling nor ci_target; "
                "keep samplings uniform and ci_target unset, or split "
                "the processes into their own experiment"
            )
        try:
            self.compile()
        except SweepRequestError as exc:
            if exc.field not in _AXES:
                raise
            raise ValueError(f"{_AXES[exc.field]}: {exc}") from None

    def _cell_backend(self, metrics_mode: str) -> str:
        """The preferred backend, or ``auto`` where it cannot score.

        ``vectorized`` cannot score ``full`` (slotted simulation)
        cells.  ``_prepare_sweep`` resolves ``auto`` per spec, and the
        executed backend is what each :class:`ExperimentCell` records.
        """
        if self.backend == "vectorized" and metrics_mode == "full":
            return "auto"
        return self.backend

    def compile(self) -> list[tuple[str, object]]:
        """The grid flattened into ``(spec, cell)`` pairs, spec-major order.

        ``spec`` is the canonical string.  A frozen-model cell is its
        :class:`~repro.resilience.sweep.SweepRequest` and a
        fault-process cell its
        :class:`~repro.temporal.replay.TemporalRequest`; either runs
        through :meth:`~repro.core.session.Session.run_sweep`.
        """
        from ..resilience.sweep import SweepRequest
        from ..temporal.processes import FaultProcess
        from ..temporal.replay import TemporalRequest

        def cell(model, metrics_mode, trials, sampling):
            # a process cell checks the plan's sweep-only values
            # (backend, max_slots, ...) through the same request as a
            # frozen cell, with a stand-in model
            process = isinstance(model, FaultProcess)
            request = SweepRequest(
                model="coupler" if process else model,
                trials=trials,
                seed=self.seed,
                workload=self.workload,
                messages=self.messages,
                bound=self.bound,
                max_slots=self.max_slots,
                metrics=metrics_mode,
                backend=self._cell_backend(metrics_mode),
                ci_target=self.ci_target,
                sampling=sampling,
            )
            if not process:
                return request
            return TemporalRequest(
                process=model,
                trials=trials,
                seed=self.seed,
                workload=self.workload,
                messages=self.messages,
                bound=self.bound,
                metrics=metrics_mode,
            )

        cells = [
            cell(model, metrics_mode, trials, sampling)
            for model in self.models
            for metrics_mode in self.metrics
            for trials in self.trials
            for sampling in self.samplings
        ]
        return [(spec.canonical(), c) for spec in self.specs for c in cells]

    def cell_result(self, cell, summary) -> "ExperimentCell":
        """The :class:`ExperimentCell` of one compiled cell's summary.

        Records the backend that actually ran: a frozen cell's summary
        knows it, and a process cell ran on the temporal engine.
        """
        from ..resilience.sweep import SweepRequest
        from ..temporal.replay import _TemporalPlan

        frozen = isinstance(cell, SweepRequest)
        return ExperimentCell(
            spec=summary.spec,
            model=summary.model if frozen else summary.process,
            faults=summary.faults,
            metrics=cell.metrics,
            backend=summary.backend if frozen else _TemporalPlan.backend,
            sampling=cell.sampling if frozen else "uniform",
            summary=summary,
        )

    def run(self, *, workers=_UNSET_WORKERS, session=None) -> "ExperimentResult":
        """Execute the plan and return its :class:`ExperimentResult`.

        Runs on ``session`` (default: the shared default session, so
        repeated experiments reuse warm caches and pools).  ``workers``
        follows :func:`repro.resilience_sweep` semantics; when omitted,
        the target session's own default worker count applies.
        """
        from .session import default_session

        target = default_session() if session is None else session
        if workers is _UNSET_WORKERS:
            return target.run_experiment(self)
        return target.run_experiment(self, workers=workers)

    def as_dict(self) -> dict[str, object]:
        """JSON-ready view of the plan itself."""
        return {
            "specs": [s.canonical() for s in self.specs],
            "models": [f"{m.key}:{m.faults}" for m in self.models],
            "metrics": list(self.metrics),
            "trials": list(self.trials),
            "seed": self.seed,
            "backend": self.backend,
            "workload": self.workload,
            "messages": self.messages,
            "samplings": list(self.samplings),
            "ci_target": self.ci_target,
        }

    def to_payload(self) -> dict[str, object]:
        """The full constructor-argument dict, JSON-safe.

        Unlike :meth:`as_dict` (the *report* header, whose key set is
        golden-tested), this carries every plan field -- including
        ``bound`` and ``max_slots`` -- so :meth:`from_payload` rebuilds
        an equal plan on the other side of a JSON hop: the serving
        tier's ``/v1/experiment`` requests normalize to it.
        """
        return {**self.as_dict(), "bound": self.bound,
                "max_slots": self.max_slots}

    @classmethod
    def from_payload(cls, payload: Mapping) -> "Experiment":
        """Rebuild a plan from :meth:`to_payload` output (round-trip safe).

        Accepts any mapping of constructor keyword arguments; unknown
        keys raise ``ValueError`` (the serving tier's strict-request
        contract) rather than being dropped silently.

        >>> e = Experiment(specs=("pops(2,2)",), trials=4, bound=5)
        >>> Experiment.from_payload(e.to_payload()) == e
        True
        """
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(
                f"unknown experiment field(s): {', '.join(unknown)}; "
                f"known: {', '.join(sorted(known))}"
            )
        return cls(**dict(payload))


@dataclass(frozen=True)
class ExperimentCell:
    """One executed grid cell: its coordinates plus the sweep summary."""

    spec: str
    model: str
    faults: int
    metrics: str
    backend: str
    sampling: str
    summary: object  # the cell's SweepSummary or TemporalSummary

    def as_dict(self) -> dict[str, object]:
        """JSON-ready view (the summary nested under ``"summary"``)."""
        return {
            "spec": self.spec,
            "model": self.model,
            "faults": self.faults,
            "metrics": self.metrics,
            "backend": self.backend,
            "sampling": self.sampling,
            "summary": self.summary.as_dict(),
        }


@dataclass(frozen=True)
class ExperimentResult:
    """The structured report of one executed :class:`Experiment`."""

    experiment: Experiment
    cells: tuple[ExperimentCell, ...] = field(default_factory=tuple)

    def __iter__(self):
        return iter(self.cells)

    def __len__(self) -> int:
        return len(self.cells)

    def cell(
        self, spec, *, model=None, metrics=None, trials=None
    ) -> ExperimentCell:
        """The first cell matching the coordinates; ``KeyError`` if none.

        ``model`` accepts the same forms as the experiment's model
        grid; omitted coordinates match anything.
        """
        key = NetworkSpec.parse(spec).canonical()
        want = _parse_model(model) if model is not None else None
        for c in self.cells:
            if c.spec != key:
                continue
            if want is not None and (
                c.model != want.key or c.faults != want.faults
            ):
                continue
            if metrics is not None and c.metrics != metrics:
                continue
            if trials is not None and c.summary.trials != trials:
                continue
            return c
        raise KeyError(
            f"no experiment cell for ({key}, model={model}, "
            f"metrics={metrics}, trials={trials})"
        )

    def as_dicts(self) -> list[dict[str, object]]:
        """All cells as plain dicts, in grid order (JSON-ready)."""
        return [c.as_dict() for c in self.cells]

    def as_dict(self) -> dict[str, object]:
        """The whole report: plan parameters plus the cell list."""
        return {**self.experiment.as_dict(), "cells": self.as_dicts()}

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, 2-space indent.

        Deterministic: the same plan and seed give the same string at
        any worker count, on a cold or a warm session.
        """
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def formatted(self) -> str:
        """Human-readable per-cell quantile table."""
        header = (
            f"experiment: {len(self.experiment.specs)} spec(s) x "
            f"{len(self.experiment.models)} model(s) x "
            f"{len(self.experiment.metrics)} metrics mode(s) x "
            f"{len(self.experiment.trials)} trial count(s), "
            f"seed {self.experiment.seed}, backend {self.experiment.backend}"
        )
        blocks = [header]
        for c in self.cells:
            blocks.append("")
            blocks.append(f"[{c.metrics}/{c.backend}] {c.summary.formatted()}")
        return "\n".join(blocks)
