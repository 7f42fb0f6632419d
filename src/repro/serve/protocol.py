"""Request/response schemas of the serving tier.

Every verb the server exposes (``describe``, ``sweep``,
``design-search``, ``experiment``, ``temporal``) has one validator
here that turns a
raw JSON payload into a **normalized request**: spec strings are
canonicalized through :class:`~repro.core.spec.NetworkSpec`, fault
models resolve to their registered ``(key, faults)`` form, defaults
are filled in explicitly, and unknown or ill-typed fields raise a
:class:`ServeError` carrying a structured error payload -- requests
fail loud at the door, never halfway into a pool.

Normalization is also what makes request coalescing exact:
:func:`request_key` serializes the normalized request canonically
(sorted keys, no whitespace), so ``{"spec": "sk 2 2 2"}`` and
``{"spec": "sk(2,2,2)", "trials": 100}`` -- textually different,
semantically identical -- map to the SAME in-flight key and execute
once.

>>> validate_describe({"spec": "sk 2 2 2"})
{'spec': 'sk(2,2,2)'}
>>> a = validate_sweep({"spec": "sk 2 2 2", "metrics": "connectivity"})
>>> b = validate_sweep({"spec": "sk(2,2,2)", "metrics": "connectivity",
...                     "trials": 100})
>>> request_key("sweep", a) == request_key("sweep", b)
True
"""

from __future__ import annotations

import inspect
import json

from ..core.spec import NetworkSpec, SpecError

__all__ = [
    "SERVE_VERBS",
    "ServeError",
    "request_key",
    "validate_describe",
    "validate_sweep",
    "validate_design_search",
    "validate_experiment",
    "validate_temporal",
]

#: The verbs the serving tier exposes (each one POST endpoint).
SERVE_VERBS = ("describe", "sweep", "design-search", "experiment", "temporal")


class ServeError(Exception):
    """A rejected request: HTTP status + structured JSON error payload.

    ``code`` is a stable machine-readable tag (``"bad_request"``,
    ``"invalid_spec"``, ``"overloaded"``, ``"not_found"``,
    ``"internal"``); ``details`` is an optional JSON-safe dict of
    extra context (e.g. the admission queue's capacity on a 429).
    """

    def __init__(
        self,
        message: str,
        *,
        code: str = "bad_request",
        status: int = 400,
        details: dict | None = None,
    ) -> None:
        super().__init__(message)
        self.code = code
        self.status = status
        self.details = dict(details or {})

    def payload(self) -> dict:
        """The JSON body a handler sends for this error."""
        error: dict[str, object] = {"code": self.code, "message": str(self)}
        if self.details:
            error["details"] = self.details
        return {"error": error}


def request_key(verb: str, normalized: dict) -> str:
    """The canonical coalescing key of one normalized request.

    Canonical JSON (sorted keys, no whitespace) of the *normalized*
    request, prefixed by the verb -- requests that differ only in
    spelling (loose vs canonical spec form, omitted vs explicit
    defaults) share a key; requests that differ in any semantic field
    never do.
    """
    return f"{verb} " + json.dumps(
        normalized, sort_keys=True, separators=(",", ":")
    )


# ----------------------------------------------------------------------
# Field plumbing shared by the validators.
# ----------------------------------------------------------------------
def _require_object(payload, verb: str) -> dict:
    if not isinstance(payload, dict):
        raise ServeError(
            f"{verb} request body must be a JSON object, "
            f"got {type(payload).__name__}"
        )
    return payload


def _reject_unknown(payload: dict, allowed, verb: str) -> None:
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise ServeError(
            f"unknown {verb} field(s): {', '.join(unknown)}",
            code="unknown_field",
            details={"allowed": sorted(allowed)},
        )


def _canonical_spec(payload: dict, verb: str) -> str:
    if "spec" not in payload:
        raise ServeError(f"{verb} request needs a 'spec' field")
    try:
        return NetworkSpec.parse(payload["spec"]).canonical()
    except (SpecError, TypeError) as exc:
        raise ServeError(str(exc), code="invalid_spec") from None


def _checked(check, *args, **kwargs):
    """``check(*args, **kwargs)``, a rejection of it a structured 400.

    The library's own checks -- the sweep and temporal requests, the
    design-search options -- become the door's: unknown model and
    process keys are ``invalid_model``/``invalid_process``, choice
    fields carry their ``known`` values in ``details``.
    """
    try:
        return check(*args, **kwargs)
    except (ValueError, TypeError) as exc:
        raise ServeError(
            str(exc),
            code=getattr(exc, "code", "bad_request"),
            details=getattr(exc, "details", None),
        ) from None


def _sweep_request(payload: dict, **defaults):
    """The :class:`~repro.resilience.sweep.SweepRequest` a payload names.

    Only the payload's sweep fields are read; ``defaults`` are
    per-verb defaults (the design search scores ``connectivity``).
    """
    from ..resilience.sweep import SWEEP_FIELDS, SweepRequest

    fields = {k: payload[k] for k in SWEEP_FIELDS if k in payload}
    return _checked(SweepRequest.from_payload, {**defaults, **fields})


# ----------------------------------------------------------------------
# Verb validators.
# ----------------------------------------------------------------------
def validate_describe(payload) -> dict:
    """``describe`` request -> ``{"spec": canonical}``."""
    payload = _require_object(payload, "describe")
    _reject_unknown(payload, ("spec",), "describe")
    return {"spec": _canonical_spec(payload, "describe")}


def validate_sweep(payload) -> dict:
    """``sweep`` request -> normalized survivability-sweep arguments.

    ``spec`` plus the :class:`~repro.resilience.sweep.SweepRequest`
    fields (never ``workers``: pool sizing belongs to the server, not
    the caller).  The result is defaults-complete -- spec canonical,
    model resolved to its registered key and ``faults``, every field
    present -- so requests that differ only in spelling share one
    coalescing key.
    """
    from ..resilience.sweep import SWEEP_FIELDS

    payload = _require_object(payload, "sweep")
    _reject_unknown(payload, ("spec", *SWEEP_FIELDS), "sweep")
    spec = _canonical_spec(payload, "sweep")
    return {"spec": spec, **_sweep_request(payload).to_payload()}


def validate_design_search(payload) -> dict:
    """``design-search`` request -> normalized search arguments.

    The :data:`~repro.design_search.search.SEARCH_OPTIONS` plus the
    sweep fields but ``bound`` and ``max_slots``, checked by
    :func:`~repro.design_search.search.check_search_options` -- the
    library's own checks -- and defaults-complete, the defaults read
    from :func:`~repro.design_search.search.design_search` itself.
    """
    from ..core.registry import get_family
    from ..design_search.search import (
        SEARCH_OPTIONS,
        check_search_options,
        design_search,
    )
    from ..resilience.sweep import SWEEP_FIELDS

    payload = _require_object(payload, "design-search")
    sweep_fields = [f for f in SWEEP_FIELDS if f not in ("bound", "max_slots")]
    _reject_unknown(payload, (*SEARCH_OPTIONS, *sweep_fields), "design-search")
    if "max_processors" not in payload:
        raise ServeError(
            "design-search request needs a 'max_processors' field"
        )
    families = payload.get("families")
    if families is not None:
        if isinstance(families, str) or not isinstance(families, list):
            raise ServeError(
                f"'families' must be a list of family keys, got {families!r}"
            )
        try:
            families = [get_family(k).key for k in families]
        except (KeyError, SpecError) as exc:
            raise ServeError(str(exc), code="invalid_family") from None
    request = _sweep_request(payload, metrics="connectivity")
    defaults = inspect.signature(design_search).parameters
    options = {
        name: payload.get(name, defaults[name].default) for name in SEARCH_OPTIONS
    }
    _checked(check_search_options, request, **options)
    sweep = request.to_payload()
    del sweep["bound"], sweep["max_slots"]  # not design-search fields
    margin = options["min_margin_db"]
    return {
        **sweep,
        **options,
        "families": families,
        "min_margin_db": None if margin is None else float(margin),
    }


def validate_temporal(payload) -> dict:
    """``temporal`` request -> normalized temporal-sweep arguments.

    ``spec`` plus the :class:`~repro.temporal.replay.TemporalRequest`
    fields minus ``traffic`` (matrix objects don't cross the JSON
    boundary); never ``workers``, since pool sizing belongs to the
    server.  The process resolves through the registry, so unknown
    keys fail at the door, and the normalized dict is
    defaults-complete for exact coalescing.
    """
    from ..temporal.replay import TEMPORAL_FIELDS, TemporalRequest

    payload = _require_object(payload, "temporal")
    allowed = [name for name in TEMPORAL_FIELDS if name != "traffic"]
    _reject_unknown(payload, ("spec", *allowed), "temporal")
    spec = _canonical_spec(payload, "temporal")
    fields = {k: v for k, v in payload.items() if k != "spec"}
    normalized = _checked(TemporalRequest.from_payload, fields).to_payload()
    del normalized["traffic"]
    return {"spec": spec, **normalized}


def validate_experiment(payload) -> tuple[object, dict]:
    """``experiment`` request -> ``(Experiment plan, normalized dict)``.

    Plan fields go through
    :meth:`~repro.core.experiment.Experiment.from_payload` (strict:
    unknown fields raise), and the normalized dict is the plan's
    defaults-complete :meth:`~repro.core.experiment.Experiment.to_payload`
    plus ``stream``, the one transport field: ``true`` answers NDJSON
    cells as they finish, ``false`` (the default) one report.  Both
    forms run on the server's session.
    """
    from ..core.experiment import Experiment

    payload = _require_object(payload, "experiment")
    stream = payload.get("stream", False)
    if not isinstance(stream, bool):
        raise ServeError(f"stream must be true or false, got {stream!r}")
    try:
        experiment = Experiment.from_payload(
            {k: v for k, v in payload.items() if k != "stream"}
        )
    except (SpecError, ValueError, TypeError) as exc:
        raise ServeError(str(exc), code="invalid_experiment") from None
    return experiment, {**experiment.to_payload(), "stream": stream}
