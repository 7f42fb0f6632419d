"""Deterministic experiment sharding across worker Session processes.

An :class:`~repro.core.experiment.Experiment` compiles to a flat,
deterministically ordered list of grid cells, and every cell's summary
is byte-identical to a standalone :func:`repro.resilience_sweep` with
the cell's parameters -- which makes the grid embarrassingly
partitionable: a front process deals cell *indices* round-robin across
``N`` worker subprocesses, each worker rebuilds the plan from its
JSON-safe payload (:meth:`Experiment.from_payload`) inside its own
warm :class:`~repro.core.session.Session`, streams finished cells back
tagged with their index, and the front releases them **in index
order** -- so both the streamed NDJSON sequence and the merged report
are byte-identical to a single-host
:meth:`ExperimentResult.to_json` at ANY shard count, including 1.

>>> from repro.core.experiment import Experiment, ExperimentResult
>>> exp = Experiment(specs=("pops(2,2)", "sk(2,2,2)"), trials=4)
>>> partition_indices(5, 2)
[[0, 2, 4], [1, 3]]
>>> merged = run_sharded_experiment(exp, shards=2)
>>> merged == exp.run(workers=0).as_dict()
True
"""

from __future__ import annotations

import json
import multiprocessing
import queue as queue_mod
import signal
import traceback

__all__ = [
    "ShardError",
    "partition_indices",
    "iter_sharded_cells",
    "run_sharded_experiment",
    "sharded_to_json",
]

#: Seconds without any worker message before the front gives up.
SHARD_TIMEOUT = 600.0


class ShardError(RuntimeError):
    """A shard worker failed or died; carries the worker's traceback."""


def partition_indices(n_cells: int, shards: int) -> list[list[int]]:
    """Deal cell indices ``0..n_cells-1`` round-robin over ``shards``.

    Round-robin (not contiguous blocks) so a grid whose early cells
    are cheap and late cells expensive still spreads the expensive
    tail across workers.  Deterministic by construction.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    return [list(range(shard, n_cells, shards)) for shard in range(shards)]


def _run_cells(session, experiment, indices):
    """Run the given cells on ``session``, yielding ``(index, dict)``.

    The dict is :meth:`ExperimentCell.as_dict` of the cell the
    single-host path would report: the same compiled ``(spec, request)``
    pair runs as a standalone sweep (or, for a fault-process cell, a
    temporal replay), whose summary is byte-identical to the cell's.
    """
    cells = experiment.compile()
    for i in indices:
        spec, cell = cells[i]
        summary = session.run_sweep(spec, cell)
        yield i, experiment.cell_result(cell, summary).as_dict()


def _shard_worker(shard, payload, indices, workers, out) -> None:
    """Subprocess body: rebuild the plan, run assigned cells, report.

    Message protocol on ``out``: ``("cell", index, cell_dict)`` per
    finished cell, then ``("metrics", shard, snapshot)`` with the
    worker's drained metrics registry, then ``("done", shard)``; any
    failure short-circuits to ``("error", shard, traceback_text)``.
    """
    from ..core.experiment import Experiment
    from ..core.session import Session
    from ..obs.metrics import REGISTRY

    try:
        # Fork-inherited signal plumbing must go FIRST.  When the front
        # is an asyncio server, its loop routes signals through a
        # wakeup-fd socketpair the child inherits -- so a SIGTERM
        # delivered to the child (e.g. the front reaping a straggler)
        # would be WRITTEN INTO THE PARENT'S LOOP and read back there
        # as "the server got SIGTERM", triggering a spurious graceful
        # shutdown.  Detach the fd and restore default dispositions.
        signal.set_wakeup_fd(-1)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_DFL)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    try:
        # The worker's global registry starts as a fork-copy of the
        # front's -- reset it so the drained snapshot shipped back
        # carries only THIS shard's activity.
        REGISTRY.reset()
        experiment = Experiment.from_payload(payload)
        with Session(workers=workers) as session:
            for i, cell in _run_cells(session, experiment, indices):
                out.put(("cell", i, cell))
        out.put(("metrics", shard, REGISTRY.drain()))
        out.put(("done", shard))
    except BaseException:
        out.put(("error", shard, traceback.format_exc()))


def iter_sharded_cells(experiment, *, shards: int, workers: int = 0):
    """Run the plan on ``shards`` subprocesses, yield cells in order.

    Yields ``(index, cell_dict)`` strictly in index order: finished
    cells arriving early are held until every lower-index cell has
    been released, so consumers (the NDJSON stream, the merge) see one
    deterministic sequence regardless of worker timing.  ``shards``
    is capped at the cell count; ``shards <= 1`` runs in-process on a
    private Session -- same sequence, no subprocesses.  ``workers``
    sizes each worker Session's own pool (default 0: inline trials --
    sharding IS the parallelism).
    """
    n_cells = len(experiment.compile())
    shards = max(1, min(shards, n_cells))
    if shards == 1:
        from ..core.session import Session

        with Session(workers=workers) as session:
            yield from _run_cells(session, experiment, range(n_cells))
        return

    ctx = multiprocessing.get_context()
    out = ctx.Queue()
    payload = experiment.to_payload()
    parts = partition_indices(n_cells, shards)
    procs = [
        ctx.Process(
            target=_shard_worker,
            args=(shard, payload, parts[shard], workers, out),
            daemon=True,
        )
        for shard in range(shards)
    ]
    for proc in procs:
        proc.start()
    held: dict[int, dict] = {}
    next_index = 0
    done = 0
    completed = False
    try:
        while done < shards or next_index < n_cells:
            try:
                message = out.get(timeout=SHARD_TIMEOUT)
            except queue_mod.Empty:
                raise ShardError(
                    f"no shard output for {SHARD_TIMEOUT:.0f}s "
                    f"({done}/{shards} shards done, "
                    f"{next_index}/{n_cells} cells merged)"
                ) from None
            tag = message[0]
            if tag == "cell":
                held[message[1]] = message[2]
            elif tag == "metrics":
                from ..obs.metrics import REGISTRY

                REGISTRY.merge(message[2])
            elif tag == "done":
                done += 1
            else:
                raise ShardError(
                    f"shard {message[1]} failed:\n{message[2]}"
                )
            while next_index in held:
                yield next_index, held.pop(next_index)
                next_index += 1
        completed = True
    finally:
        if completed:
            # happy path: every shard reported "done" -- give workers
            # a moment to flush and exit before reaping stragglers
            for proc in procs:
                proc.join(timeout=10)
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            proc.join()
        out.close()


def run_sharded_experiment(experiment, *, shards: int, workers: int = 0):
    """The merged report dict -- equal to ``experiment.run().as_dict()``.

    Cells collected from :func:`iter_sharded_cells` (already in index
    order) under the plan's own header, so serializing the result with
    sorted keys and 2-space indent reproduces
    :meth:`ExperimentResult.to_json` byte for byte.
    """
    cells = [
        cell
        for _, cell in iter_sharded_cells(
            experiment, shards=shards, workers=workers
        )
    ]
    return {**experiment.as_dict(), "cells": cells}


def sharded_to_json(merged: dict) -> str:
    """Canonical JSON of a merged report (sorted keys, 2-space indent)."""
    return json.dumps(merged, indent=2, sort_keys=True)
