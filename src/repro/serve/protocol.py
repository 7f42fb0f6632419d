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


def _int_field(payload, name, default, *, minimum=None, optional=False):
    value = payload.get(name, default)
    if value is None and (optional or default is None):
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ServeError(
            f"'{name}' must be an integer, got {value!r}"
        )
    if minimum is not None and value < minimum:
        raise ServeError(f"'{name}' must be >= {minimum}, got {value}")
    return value


def _str_field(payload, name, default):
    value = payload.get(name, default)
    if not isinstance(value, str):
        raise ServeError(f"'{name}' must be a string, got {value!r}")
    return value


def _ci_target_field(payload) -> float | None:
    """Optional ``ci_target``: a number > 0, or ``None``/absent."""
    value = payload.get("ci_target")
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ServeError(
            f"'ci_target' must be a number > 0, got {value!r}"
        )
    if not value > 0:
        raise ServeError(f"'ci_target' must be > 0, got {value}")
    return float(value)


def _sampling_field(payload) -> str:
    """``sampling``: one of the registered trial-allocation modes."""
    from ..resilience.sweep import SAMPLING_MODES

    sampling = _str_field(payload, "sampling", "uniform")
    if sampling not in SAMPLING_MODES:
        raise ServeError(
            f"unknown sampling mode {sampling!r}",
            details={"known": list(SAMPLING_MODES)},
        )
    return sampling


def _fault_model(payload) -> tuple[str, int]:
    """Normalize ``model``/``faults`` to the registered ``(key, n)``."""
    from ..resilience.faults import make_fault_model

    model = _str_field(payload, "model", "coupler")
    faults = _int_field(payload, "faults", None, minimum=0, optional=True)
    try:
        resolved = make_fault_model(model, 1 if faults is None else faults)
    except (KeyError, ValueError) as exc:
        raise ServeError(str(exc), code="invalid_model") from None
    return resolved.key, resolved.faults


def _metrics_backend(payload, *, default_metrics: str) -> tuple[str, str]:
    """Validate the metrics/backend pair including the combo rules."""
    from ..resilience.sweep import METRICS_MODES, SWEEP_BACKENDS

    metrics = _str_field(payload, "metrics", default_metrics)
    if metrics not in METRICS_MODES:
        raise ServeError(
            f"unknown metrics mode {metrics!r}",
            details={"known": sorted(METRICS_MODES)},
        )
    backend = _str_field(payload, "backend", "batched")
    if backend not in SWEEP_BACKENDS:
        raise ServeError(
            f"unknown sweep backend {backend!r}",
            details={"known": list(SWEEP_BACKENDS)},
        )
    if backend == "vectorized" and metrics == "full":
        raise ServeError(
            "the vectorized backend scores metrics='connectivity' and "
            "'paths'; 'full' needs backend='batched'"
        )
    return metrics, backend


# ----------------------------------------------------------------------
# Verb validators.
# ----------------------------------------------------------------------
def validate_describe(payload) -> dict:
    """``describe`` request -> ``{"spec": canonical}``."""
    payload = _require_object(payload, "describe")
    _reject_unknown(payload, ("spec",), "describe")
    return {"spec": _canonical_spec(payload, "describe")}


#: Every field a ``sweep`` request may carry (all others rejected).
_SWEEP_FIELDS = (
    "spec",
    "model",
    "faults",
    "trials",
    "seed",
    "workload",
    "messages",
    "bound",
    "max_slots",
    "metrics",
    "backend",
    "ci_target",
    "sampling",
)


def validate_sweep(payload) -> dict:
    """``sweep`` request -> normalized survivability-sweep arguments.

    Field-for-field the :func:`repro.resilience_sweep` signature minus
    ``workers`` (pool sizing belongs to the server, never the caller).
    The result is defaults-complete: every field present, spec
    canonical, model resolved -- the exact tuple the ISSUE's coalescing
    key names, ``(spec, model, metrics, trials, seed, backend)``, plus
    the workload knobs that also shape the answer.
    """
    payload = _require_object(payload, "sweep")
    _reject_unknown(payload, _SWEEP_FIELDS, "sweep")
    spec = _canonical_spec(payload, "sweep")
    model, faults = _fault_model(payload)
    metrics, backend = _metrics_backend(payload, default_metrics="full")
    return {
        "spec": spec,
        "model": model,
        "faults": faults,
        "trials": _int_field(payload, "trials", 100, minimum=1),
        "seed": _int_field(payload, "seed", 0),
        "workload": _str_field(payload, "workload", "uniform"),
        "messages": _int_field(payload, "messages", 60, minimum=1),
        "bound": _int_field(payload, "bound", None, minimum=0, optional=True),
        "max_slots": _int_field(payload, "max_slots", 100_000, minimum=1),
        "metrics": metrics,
        "backend": backend,
        "ci_target": _ci_target_field(payload),
        "sampling": _sampling_field(payload),
    }


#: Every field a ``design-search`` request may carry.
_DESIGN_SEARCH_FIELDS = (
    "max_processors",
    "min_processors",
    "families",
    "model",
    "faults",
    "trials",
    "seed",
    "metrics",
    "workload",
    "messages",
    "max_coupler_degree",
    "min_groups",
    "max_groups",
    "max_diameter",
    "min_margin_db",
    "top",
    "parallelism",
    "backend",
    "rank_by",
    "ci_target",
    "sampling",
)


def validate_design_search(payload) -> dict:
    """``design-search`` request -> normalized search arguments."""
    from ..core.registry import get_family
    from ..design_search.search import PARALLELISM_MODES, RANKINGS

    payload = _require_object(payload, "design-search")
    _reject_unknown(payload, _DESIGN_SEARCH_FIELDS, "design-search")
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
    model, faults = _fault_model(payload)
    metrics, backend = _metrics_backend(
        payload, default_metrics="connectivity"
    )
    parallelism = _str_field(payload, "parallelism", "sweeps")
    if parallelism not in PARALLELISM_MODES:
        raise ServeError(
            f"unknown parallelism mode {parallelism!r}",
            details={"known": list(PARALLELISM_MODES)},
        )
    rank_by = _str_field(payload, "rank_by", "survivability-per-cost")
    if rank_by not in RANKINGS:
        raise ServeError(
            f"unknown ranking {rank_by!r}",
            details={"known": list(RANKINGS)},
        )
    if rank_by != "survivability-per-cost" and metrics == "connectivity":
        raise ServeError(
            f"rank_by={rank_by!r} ranks on path metrics; request "
            "metrics='paths' or 'full'"
        )
    margin = payload.get("min_margin_db")
    if margin is not None and not isinstance(margin, (int, float)):
        raise ServeError(
            f"'min_margin_db' must be a number, got {margin!r}"
        )
    ci_target = _ci_target_field(payload)
    if ci_target is not None and parallelism == "candidates":
        raise ServeError(
            "ci_target needs parallelism='sweeps' (early discard runs "
            "candidates in order)"
        )
    return {
        "max_processors": _int_field(
            payload, "max_processors", None, minimum=1
        ),
        "min_processors": _int_field(
            payload, "min_processors", 2, minimum=1
        ),
        "families": families,
        "model": model,
        "faults": faults,
        "trials": _int_field(payload, "trials", 100, minimum=1),
        "seed": _int_field(payload, "seed", 0),
        "metrics": metrics,
        "workload": _str_field(payload, "workload", "uniform"),
        "messages": _int_field(payload, "messages", 60, minimum=1),
        "max_coupler_degree": _int_field(
            payload, "max_coupler_degree", None, minimum=1, optional=True
        ),
        "min_groups": _int_field(
            payload, "min_groups", None, minimum=1, optional=True
        ),
        "max_groups": _int_field(
            payload, "max_groups", None, minimum=1, optional=True
        ),
        "max_diameter": _int_field(
            payload, "max_diameter", None, minimum=0, optional=True
        ),
        "min_margin_db": None if margin is None else float(margin),
        "top": _int_field(payload, "top", None, minimum=0, optional=True),
        "parallelism": parallelism,
        "backend": backend,
        "rank_by": rank_by,
        "ci_target": ci_target,
        "sampling": _sampling_field(payload),
    }


#: Every field a ``temporal`` request may carry (all others rejected).
_TEMPORAL_FIELDS = (
    "spec",
    "process",
    "faults",
    "mtbf",
    "mttr",
    "law",
    "horizon",
    "trials",
    "seed",
    "workload",
    "messages",
    "bound",
    "metrics",
    "curve_points",
)


def _positive_float_field(payload, name, default) -> float:
    value = payload.get(name, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ServeError(f"'{name}' must be a number > 0, got {value!r}")
    if not value > 0:
        raise ServeError(f"'{name}' must be > 0, got {value}")
    return float(value)


def validate_temporal(payload) -> dict:
    """``temporal`` request -> normalized temporal-sweep arguments.

    Field-for-field the :func:`repro.temporal_sweep` signature minus
    ``workers`` (pool sizing belongs to the server) and ``traffic``
    (matrix objects don't cross the JSON boundary yet).  The process
    resolves through the registry so unknown keys and capacity-free
    parameter combos fail at the door, and the normalized dict is
    defaults-complete for exact coalescing.
    """
    from ..temporal.processes import make_fault_process
    from ..temporal.replay import TEMPORAL_METRICS_MODES

    payload = _require_object(payload, "temporal")
    _reject_unknown(payload, _TEMPORAL_FIELDS, "temporal")
    spec = _canonical_spec(payload, "temporal")
    process = _str_field(payload, "process", "coupler-renewal")
    faults = _int_field(payload, "faults", None, minimum=1, optional=True)
    mtbf = _positive_float_field(payload, "mtbf", 400.0)
    mttr = _positive_float_field(payload, "mttr", 100.0)
    law = _str_field(payload, "law", "exponential")
    try:
        resolved = make_fault_process(
            process, 1 if faults is None else faults,
            mtbf=mtbf, mttr=mttr, law=law,
        )
    except (KeyError, ValueError) as exc:
        raise ServeError(str(exc), code="invalid_process") from None
    metrics = _str_field(payload, "metrics", "connectivity")
    if metrics not in TEMPORAL_METRICS_MODES:
        raise ServeError(
            f"unknown metrics mode {metrics!r}",
            details={"known": sorted(TEMPORAL_METRICS_MODES)},
        )
    return {
        "spec": spec,
        "process": resolved.key,
        "faults": resolved.faults,
        "mtbf": resolved.mtbf,
        "mttr": resolved.mttr,
        "law": resolved.law,
        "horizon": _int_field(payload, "horizon", 1000, minimum=1),
        "trials": _int_field(payload, "trials", 20, minimum=1),
        "seed": _int_field(payload, "seed", 0),
        "workload": _str_field(payload, "workload", "uniform"),
        "messages": _int_field(payload, "messages", 60, minimum=1),
        "bound": _int_field(payload, "bound", None, minimum=0, optional=True),
        "metrics": metrics,
        "curve_points": _int_field(
            payload, "curve_points", 16, minimum=1
        ),
    }


#: Transport-level experiment fields that are NOT plan fields.
_EXPERIMENT_TRANSPORT = ("shards", "stream")


def validate_experiment(payload) -> tuple[object, dict]:
    """``experiment`` request -> ``(Experiment plan, normalized dict)``.

    Plan fields go through
    :meth:`~repro.core.experiment.Experiment.from_payload` (strict:
    unknown fields raise), so the plan a shard worker reconstructs on
    the far side of the JSON hop equals the one validated here.
    ``shards`` (transport, not plan) rides along in the normalized
    dict: it never changes the merged bytes -- sharding is
    deterministic -- so it deliberately keeps requests coalescible
    only when their shard counts also agree (a streaming/sharded run
    and a single-host run hold different server resources).
    """
    from ..core.experiment import Experiment

    payload = _require_object(payload, "experiment")
    plan_fields = {
        k: v for k, v in payload.items() if k not in _EXPERIMENT_TRANSPORT
    }
    try:
        experiment = Experiment.from_payload(plan_fields)
    except (SpecError, ValueError, TypeError) as exc:
        raise ServeError(str(exc), code="invalid_experiment") from None
    shards = _int_field(payload, "shards", 0, minimum=0)
    normalized = {**experiment.to_payload(), "shards": shards}
    return experiment, normalized
