"""One `TemporalRequest` behind every temporal door.

The facade, `Session`, `prepare_temporal_sweep`, the CLI, the serving
validator and `Experiment` process cells all build the same frozen
request, so they accept exactly the same values: a value one door
rejects, every door rejects (``ValueError``, CLI exit 2, HTTP 400), and
a valid parameter set means the same request -- and the same summary
bytes -- through each of them.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.__main__ import _request_args, build_parser, main
from repro.core.experiment import Experiment
from repro.core.session import Session
from repro.serve.protocol import ServeError, validate_temporal
from repro.temporal import (
    TEMPORAL_FIELDS,
    CouplerRenewalProcess,
    TemporalRequest,
    execute_temporal,
    prepare_temporal_sweep,
    summarize_temporal,
)

#: Values ``/v1/temporal`` has always rejected (``curve_points`` above
#: 512 it passed on to fail mid-execution), which other doors used to
#: run, truncated or crashed on.
REJECTED = [
    ("trials", True),
    ("trials", 0),
    ("horizon", 2.5),
    ("horizon", 0),
    ("seed", 1.5),
    ("seed", "abc"),
    ("faults", -1),
    ("mtbf", True),
    ("mttr", 0),
    ("messages", 0),
    ("bound", -1),
    ("curve_points", 0),
    ("curve_points", 1000),
]

#: Request fields an experiment's process cell takes from the plan.
EXPERIMENT_FIELDS = ("trials", "seed", "messages", "bound")

#: Small replays, so a door that wrongly accepts a value stays fast.
SMALL = {"trials": 2, "horizon": 40}


def _experiment_plan(field, value):
    """A one-process-cell plan carrying ``field``, if an experiment can."""
    if field == "faults":  # a process's intensity rides on its model entry
        return {"models": (f"coupler-renewal:{value}",)}
    if field in EXPERIMENT_FIELDS:
        return {"models": ("coupler-renewal:1",), field: value}
    return None


def _cli_exit(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects ill-typed flags itself
        return exc.code


class TestEveryDoorRejectsTheSameValues:
    @pytest.mark.parametrize("field,value", REJECTED)
    def test_rejected_everywhere(self, field, value, capsys):
        kw = {**SMALL, field: value}
        with pytest.raises(ValueError):
            repro.temporal_sweep("pops(2,2)", **kw)
        with Session() as session:
            with pytest.raises(ValueError):
                session.temporal_sweep("pops(2,2)", **kw)
        with pytest.raises(ValueError):
            prepare_temporal_sweep("pops(2,2)", **kw)
        plan = _experiment_plan(field, value)
        if plan is not None:
            with pytest.raises(ValueError):
                Experiment(specs="pops(2,2)", **plan)
        with pytest.raises(ServeError) as err:
            validate_temporal({"spec": "pops(2,2)", field: value})
        assert (err.value.status, err.value.code) == (400, "bad_request")
        flag = f"--{field.replace('_', '-')}"
        argv = ["temporal", "pops(2,2)", "--trials", "2", "--horizon",
                "40", flag, str(value)]
        assert _cli_exit(argv) == 2
        capsys.readouterr()

    def test_zero_faults_accepted_everywhere(self, capsys):
        """``faults >= 0`` everywhere; the serving door used to say >= 1."""
        summary = repro.temporal_sweep("pops(2,2)", faults=0, **SMALL)
        assert summary.faults == 0
        assert summary.quantiles["availability"]["min"] == 1.0
        assert validate_temporal({"spec": "pops(2,2)", "faults": 0})[
            "faults"
        ] == 0
        (cell,) = Experiment(
            specs="pops(2,2)", models=("coupler-renewal:0",), trials=2
        ).compile()
        assert cell[1].process.faults == 0
        argv = ["temporal", "pops(2,2)", "--faults", "0", "--trials", "2",
                "--horizon", "40", "--json"]
        assert main(argv) == 0
        assert capsys.readouterr().out.rstrip("\n") == summary.to_json()

    def test_unknown_keywords_stay_type_errors(self):
        with pytest.raises(TypeError):
            repro.temporal_sweep("pops(2,2)", trails=3)
        with Session() as session:
            with pytest.raises(TypeError):
                session.temporal_sweep("pops(2,2)", trails=3)
        with pytest.raises(TypeError):
            prepare_temporal_sweep("pops(2,2)", trails=3)

    def test_process_instance_plus_keywords_is_not_both(self):
        process = CouplerRenewalProcess(faults=1)
        for kw in ({"faults": 2}, {"mtbf": 50}, {"law": "deterministic"}):
            with pytest.raises(ValueError, match="not both"):
                repro.temporal_sweep("pops(2,2)", process=process, **kw)
            with pytest.raises(ValueError, match="not both"):
                prepare_temporal_sweep("pops(2,2)", process, **kw)

    def test_request_declares_exactly_the_temporal_parameters(self):
        assert TEMPORAL_FIELDS == (
            "process", "faults", "mtbf", "mttr", "law", "horizon", "trials",
            "seed", "workload", "messages", "bound", "metrics",
            "curve_points", "traffic",
        )

    def test_serving_door_fields_unchanged(self):
        with pytest.raises(ServeError) as err:
            validate_temporal({"spec": "pops(2,2)", "traffic": None})
        assert err.value.code == "unknown_field"
        assert err.value.details["allowed"] == sorted((
            "spec", "process", "faults", "mtbf", "mttr", "law", "horizon",
            "trials", "seed", "workload", "messages", "bound", "metrics",
            "curve_points",
        ))


# ----------------------------------------------------------------------
# One valid request, every door
# ----------------------------------------------------------------------
@st.composite
def valid_requests(draw):
    """``(spec, fields)``: valid parameters, some defaults left out."""
    fields = {
        "process": draw(st.sampled_from(
            ("coupler-renewal", "processor-renewal", "cascade")
        )),
        "faults": draw(st.integers(0, 3)),
        "mtbf": draw(st.one_of(
            st.integers(1, 500), st.floats(0.5, 500, allow_nan=False)
        )),
        "mttr": draw(st.one_of(
            st.integers(1, 200), st.floats(0.5, 200, allow_nan=False)
        )),
        "law": draw(st.sampled_from(("exponential", "deterministic"))),
        "horizon": draw(st.integers(1, 120)),
        "trials": draw(st.integers(1, 3)),
        "seed": draw(st.integers(-5, 10**6)),
        "workload": draw(st.sampled_from(("uniform", "permutation"))),
        "messages": draw(st.integers(1, 8)),
        "bound": draw(st.one_of(st.none(), st.integers(0, 5))),
        "metrics": draw(st.sampled_from(("connectivity", "paths", "full"))),
        "curve_points": draw(st.integers(1, 512)),
    }
    omitted = draw(st.sets(st.sampled_from(sorted(fields))))
    spec = draw(st.sampled_from(("pops(2,2)", "sk(2,2,1)", "sops(3)")))
    return spec, {k: v for k, v in fields.items() if k not in omitted}


def _normalized(spec, fields):
    """The ``/v1/temporal`` normalized dict, spelled out field by field."""
    return {
        "spec": spec,
        "process": fields.get("process", "coupler-renewal"),
        "faults": fields.get("faults", 1),
        "mtbf": float(fields.get("mtbf", 400)),
        "mttr": float(fields.get("mttr", 100)),
        "law": fields.get("law", "exponential"),
        "horizon": fields.get("horizon", 1000),
        "trials": fields.get("trials", 20),
        "seed": fields.get("seed", 0),
        "workload": fields.get("workload", "uniform"),
        "messages": fields.get("messages", 60),
        "bound": fields.get("bound"),
        "metrics": fields.get("metrics", "connectivity"),
        "curve_points": fields.get("curve_points", 16),
    }


def _cli_request(spec, fields):
    """The request ``repro temporal`` builds from the same flags."""
    argv = ["temporal", spec]
    for name, value in fields.items():
        if value is not None:
            argv += [f"--{name.replace('_', '-')}", str(value)]
    args = build_parser().parse_args(argv)
    return TemporalRequest(**_request_args(args, TemporalRequest))


def _experiment_request(spec, fields):
    """The request of a one-process-cell experiment over the same fields."""
    model = fields.get("process", "coupler-renewal")
    if "faults" in fields:
        model = f"{model}:{fields['faults']}"
    plan = {k: v for k, v in fields.items()
            if k in (*EXPERIMENT_FIELDS, "workload", "metrics")}
    plan.setdefault("trials", 20)  # the replay's own default
    (cell,) = Experiment(specs=spec, models=(model,), **plan).compile()
    assert cell[0] == spec
    return cell[1]


class TestOneRequestThroughEveryDoor:
    @given(valid_requests())
    @settings(max_examples=40)
    def test_doors_agree(self, drawn):
        spec, fields = drawn
        request = TemporalRequest(**fields)
        assert TemporalRequest.from_payload(request.to_payload()) == request
        # the serving door's normalized dict -- its coalescing key --
        # is unchanged, key for key
        assert validate_temporal({"spec": spec, **fields}) == _normalized(
            spec, fields
        )
        assert _cli_request(spec, fields) == request
        # an experiment carries no mtbf/mttr/law/horizon/curve_points:
        # its process cell is the request with those at their defaults
        carried = {k: v for k, v in fields.items()
                   if k not in ("mtbf", "mttr", "law", "horizon",
                                "curve_points")}
        assert _experiment_request(spec, fields) == TemporalRequest(**carried)

    @given(valid_requests())
    @settings(max_examples=20)
    def test_session_facade_and_module_bytes_agree(self, drawn):
        spec, fields = drawn
        fields = {**fields, "horizon": min(fields.get("horizon", 120), 120)}
        module = prepare_temporal_sweep(spec, **fields)
        cold = summarize_temporal(module, execute_temporal(module)).to_json()
        facade = repro.temporal_sweep(spec, **fields).to_json()
        with Session() as session:
            warm = session.temporal_sweep(spec, **fields).to_json()
            request = TemporalRequest(**fields)
            again = session.run_sweep(spec, request).to_json()
        assert warm == facade == cold == again

    def test_prepare_takes_a_ready_request(self):
        request = TemporalRequest(faults=2, trials=3, horizon=60, seed=4)
        a = prepare_temporal_sweep("sk(2,2,2)", request)
        b = prepare_temporal_sweep(
            "sk(2,2,2)", faults=2, trials=3, horizon=60, seed=4
        )
        assert a.plan == b.plan and a.request == b.request == request
