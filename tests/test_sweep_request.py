"""One `SweepRequest` behind every door.

The facade, `Session`, the CLI, the serving validator, `Experiment` and
the design search all build the same frozen request, so they accept
exactly the same values: a value one door rejects, every door rejects
(``ValueError``, CLI exit 2, HTTP 400), and a valid parameter set means
the same request -- and the same summary bytes -- through each of them.
"""

import dataclasses
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.__main__ import _request_args, build_parser, main
from repro.core.experiment import Experiment
from repro.core.session import Session
from repro.resilience import SweepRequest, survivability_sweep
from repro.serve.protocol import ServeError, validate_sweep

#: Values ``/v1/sweep`` has always rejected, which other doors used to
#: run (or crash on deep inside a trial).
REJECTED = [
    ("trials", True),
    ("trials", 2.5),
    ("seed", "abc"),
    ("seed", 1.5),
    ("messages", 0),
    ("bound", -1),
    ("max_slots", 0),
]

#: CLI flag of each request field the ``resilience`` subcommand exposes.
CLI_FLAGS = {"trials": "--trials", "seed": "--seed", "messages": "--messages"}


def _cli_exit(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects ill-typed flags itself
        return exc.code


class TestEveryDoorRejectsTheSameValues:
    @pytest.mark.parametrize("field,value", REJECTED)
    def test_rejected_everywhere(self, field, value, capsys):
        kw = {"trials": 2, "metrics": "full", field: value}
        with pytest.raises(ValueError):
            repro.resilience_sweep("pops(2,2)", **kw)
        with pytest.raises(ValueError):
            survivability_sweep("pops(2,2)", **kw)
        with Session() as session:
            with pytest.raises(ValueError):
                session.resilience_sweep("pops(2,2)", **kw)
        with pytest.raises(ValueError):
            Experiment(specs="pops(2,2)", metrics="full", **{field: value})
        with pytest.raises(ServeError) as err:
            validate_sweep({"spec": "pops(2,2)", field: value})
        assert err.value.status == 400
        if field in CLI_FLAGS:
            argv = ["resilience", "pops(2,2)", "--trials", "2",
                    CLI_FLAGS[field], str(value)]
            assert _cli_exit(argv) == 2
            capsys.readouterr()

    def test_unknown_keywords_stay_type_errors(self):
        with pytest.raises(TypeError):
            repro.resilience_sweep("pops(2,2)", trails=3)
        with pytest.raises(TypeError):
            survivability_sweep("pops(2,2)", trails=3)
        with pytest.raises(TypeError):
            repro.design_search(max_processors=8, bound=3)
        with pytest.raises(TypeError):
            repro.design_search(max_processors=8, max_slots=10)

    def test_design_search_rejects_bad_fields_before_enumerating(self):
        # an empty window (max < min) would otherwise return no rows
        with pytest.raises(ValueError, match="messages"):
            repro.design_search(
                max_processors=2, min_processors=3, messages=0
            )

    def test_request_carries_no_workers(self):
        names = {f.name for f in dataclasses.fields(SweepRequest)}
        assert "workers" not in names and "spec" not in names


class TestProcessCellsRunWhatTheyReport:
    @pytest.mark.parametrize(
        "bad",
        [
            dict(models=("coupler-renewal:1",), samplings=("importance",)),
            dict(models=("coupler-renewal:1",), ci_target=0.01),
            dict(models=("coupler", "cascade:1"), samplings=("stratified",)),
        ],
    )
    def test_process_grid_rejects_sampling_and_ci_target(self, bad):
        with pytest.raises(ValueError, match="temporal engine"):
            Experiment(specs="sk(2,2,2)", **bad)

    def test_cli_exits_2(self, capsys):
        argv = ["experiment", "sk(2,2,2)", "--models", "coupler-renewal:1",
                "--samplings", "importance", "--ci-target", "0.01", "--json"]
        assert main(argv) == 2
        assert "temporal engine" in capsys.readouterr().err


# ----------------------------------------------------------------------
# One valid request, every door
# ----------------------------------------------------------------------
CARDINALITY_MODELS = ("coupler", "processor", "bernoulli")


@st.composite
def valid_requests(draw):
    """``(spec, fields)``: a valid sweep parameter set, some defaults left out."""
    metrics = draw(st.sampled_from(("connectivity", "paths", "full")))
    model = draw(st.sampled_from(
        ("coupler", "processor", "link", "adversarial", "group", "bernoulli")
    ))
    sampling = draw(st.sampled_from(
        ("uniform", "importance", "stratified")
        if model in ("coupler", "processor") else
        ("uniform", "importance") if model in CARDINALITY_MODELS else
        ("uniform",)
    ))
    fields = {
        "model": model,
        "faults": draw(st.integers(0, 2)),
        "trials": draw(st.integers(1, 4)),
        "seed": draw(st.integers(-5, 10**6)),
        "workload": draw(st.sampled_from(("uniform", "permutation"))),
        "messages": draw(st.integers(2, 8)),
        "bound": draw(st.one_of(st.none(), st.integers(0, 5))),
        "max_slots": draw(st.sampled_from((100_000, 5_000))),
        "metrics": metrics,
        "backend": draw(st.sampled_from(
            ("auto", "batched") if metrics == "full"
            else ("auto", "batched", "vectorized")
        )),
        "ci_target": draw(st.one_of(
            st.none(), st.floats(0.05, 0.5, allow_nan=False)
        )),
        "sampling": sampling,
    }
    omitted = draw(st.sets(st.sampled_from(sorted(fields))))
    if fields["backend"] == "vectorized":
        omitted.discard("metrics")  # the default, "full", needs batched
    spec = draw(st.sampled_from(("pops(2,2)", "sk(2,2,1)", "sops(3)")))
    return spec, {k: v for k, v in fields.items() if k not in omitted}


def _normalized(spec, fields):
    """The ``/v1/sweep`` normalized dict, spelled out field by field."""
    model = fields.get("model", "coupler")
    ci_target = fields.get("ci_target")
    return {
        "spec": spec,
        "model": model,
        "faults": fields.get("faults", 1),
        "trials": fields.get("trials", 100),
        "seed": fields.get("seed", 0),
        "workload": fields.get("workload", "uniform"),
        "messages": fields.get("messages", 60),
        "bound": fields.get("bound"),
        "max_slots": fields.get("max_slots", 100_000),
        "metrics": fields.get("metrics", "full"),
        "backend": fields.get("backend", "auto"),
        "ci_target": None if ci_target is None else float(ci_target),
        "sampling": fields.get("sampling", "uniform"),
    }


def _flags(fields):
    """``--name value`` argv for every field set but ``bound``/``max_slots``.

    Neither is a flag of ``resilience``, ``design-search`` or
    ``experiment`` (a design search holds each candidate to its own
    bound).
    """
    argv = []
    for name, value in fields.items():
        if name not in ("bound", "max_slots") and value is not None:
            argv += [f"--{name.replace('_', '-')}", str(value)]
    return argv


def _cli_request(spec, fields):
    """The request ``repro resilience`` builds from the same flags."""
    args = build_parser().parse_args(["resilience", spec, *_flags(fields)])
    return SweepRequest(**_request_args(args, SweepRequest))


class _Reached(Exception):
    """Carries the arguments a patched library seam was called with."""


def _seam_arguments(target, run):
    """The ``(args, kwargs)`` the callable ``target`` receives from ``run()``.

    ``target`` is patched to raise them as :class:`_Reached`, so the run
    stops there: nothing past the seam executes.
    """
    def reach(*args, **kwargs):
        raise _Reached(args, kwargs)

    with mock.patch(target, reach), pytest.raises(_Reached) as reached:
        run()
    return reached.value.args


#: The design search's option check: every search reaches it, with its
#: per-candidate request, before any candidate is built.
SEARCH_SEAM = "repro.design_search.search.check_search_options"


def _cli_search_arguments(fields):
    """What ``repro design-search`` hands the design search's option check."""
    argv = ["design-search", "--max-processors", "8", *_flags(fields)]
    return _seam_arguments(SEARCH_SEAM, lambda: main(argv))


def _cli_experiment_request(spec, fields):
    """The one cell ``repro experiment`` plans over the same fields.

    The model, metrics and sampling ride on the grid axes
    (``--models``, ``--metrics``, ``--samplings``).
    """
    model = fields.get("model", "coupler")
    if "faults" in fields:
        model = f"{model}:{fields['faults']}"
    axes = {
        "models": model,
        "metrics": fields.get("metrics", "full"),  # the sweep's default
        "samplings": fields.get("sampling", "uniform"),
    }
    scalars = {k: v for k, v in fields.items()
               if k not in ("model", "faults", "metrics", "sampling")}
    argv = ["experiment", spec, *_flags({**axes, **scalars})]
    (_, plan), _ = _seam_arguments(
        "repro.core.session.Session.run_experiment", lambda: main(argv)
    )
    (cell,) = plan.compile()
    assert cell[0] == spec
    return cell[1]


def _experiment_request(spec, fields):
    """The request of a one-cell experiment over the same fields."""
    model = fields.get("model", "coupler")
    if "faults" in fields:
        model = f"{model}:{fields['faults']}"
    plan = {k: v for k, v in fields.items()
            if k not in ("model", "faults", "sampling")}
    plan.setdefault("metrics", "full")  # the sweep's own default
    (cell,) = Experiment(
        specs=spec,
        models=(model,),
        samplings=(fields.get("sampling", "uniform"),),
        **plan,
    ).compile()
    assert cell[0] == spec
    return cell[1]


class TestOneRequestThroughEveryDoor:
    @given(valid_requests())
    @settings(max_examples=40)
    def test_doors_agree(self, drawn):
        spec, fields = drawn
        request = SweepRequest(**fields)
        assert SweepRequest.from_payload(request.to_payload()) == request
        # the serving door's normalized dict -- its coalescing key --
        # is unchanged, key for key
        assert validate_sweep({"spec": spec, **fields}) == _normalized(
            spec, fields
        )
        # the faults default of the CLI (1) is the request's own default
        cli_fields = {"faults": 1, **fields}
        assert _cli_request(spec, cli_fields) == dataclasses.replace(
            request, bound=None, max_slots=100_000
        )
        assert _experiment_request(spec, fields) == request
        # design-search and experiment argv build the library's request
        scoped = {k: v for k, v in fields.items()
                  if k not in ("bound", "max_slots")}
        assert _cli_search_arguments(scoped) == _seam_arguments(
            SEARCH_SEAM, lambda: repro.design_search(max_processors=8, **scoped)
        )
        assert _cli_experiment_request(spec, scoped) == _experiment_request(
            spec, scoped
        )

    @given(valid_requests())
    @settings(max_examples=25)
    def test_session_and_module_path_bytes_agree(self, drawn):
        spec, fields = drawn
        fields = {**fields, "trials": min(fields.get("trials", 4), 4)}
        fields.setdefault("messages", 8)
        module = survivability_sweep(spec, **fields)
        with Session() as session:
            warm = session.resilience_sweep(spec, **fields)
            again = session.run_sweep(spec, SweepRequest(**fields))
        assert warm.to_json() == module.to_json() == again.to_json()
        assert warm.backend == module.backend
