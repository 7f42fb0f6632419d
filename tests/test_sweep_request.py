"""One `SweepRequest` behind every door.

The facade, `Session`, the CLI, the serving validator, `Experiment` and
the design search all build the same frozen request, so they accept
exactly the same values: a value one door rejects, every door rejects
(``ValueError``, CLI exit 2, HTTP 400), and a valid parameter set means
the same request -- and the same summary bytes -- through each of them.
"""

import dataclasses
import json
import pickle
import threading
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


class TestTrafficTheMachineCannotCarry:
    """A ``full`` sweep whose baseline traffic cannot exist on the
    machine (one processor: no ``src != dst`` pair) is a rejected
    ``workload``, not an internal error."""

    CASES = [
        ("pops(1,1)", "uniform"),
        ("pops(1,1)", "hotspot"),
        ("sops(1)", "group-local"),
        ("sops(1)", "bernoulli"),
    ]

    def test_rejected_at_every_door(self, capsys):
        from repro.serve.client import ServeHTTPError, run_in_thread

        for spec, workload in self.CASES:
            kw = dict(trials=2, messages=4, workload=workload, metrics="full")
            with pytest.raises(ValueError, match="at least 2 processors") as err:
                repro.resilience_sweep(spec, **kw)
            assert err.value.field == "workload"
            argv = ["resilience", spec, "--trials", "2", "--messages", "4",
                    "--workload", workload]
            assert _cli_exit(argv) == 2
            assert "at least 2 processors" in capsys.readouterr().err
        with run_in_thread(workers=0) as client:
            for spec, workload in self.CASES:
                with pytest.raises(ServeHTTPError) as http:
                    client.sweep(spec, trials=2, messages=4, workload=workload)
                assert (http.value.status, http.value.code) == (400, "bad_request")
            with pytest.raises(ServeHTTPError) as http:
                client.experiment({"specs": ["pops(1,1)"], "models": ["coupler:1"],
                                   "trials": 2, "metrics": "full"})
            assert http.value.status == 400
            # traffic a one-processor machine can carry still runs
            for workload in ("permutation", "broadcast"):
                summary, _ = client.sweep("pops(1,1)", trials=2, workload=workload)
                assert summary["trials"] == 2


def _within(seconds, call):
    """``call()``'s raised error; fails if no answer comes within ``seconds``."""
    box = {}

    def target():
        try:
            call()
        except Exception as exc:  # handed to the test
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"no answer within {seconds} s"
    return box.get("error")


class TestSlotCapIsARequestError:
    """A ``max_slots`` too small for the traffic is the request's error
    (``ValueError``, HTTP 400), not an internal one, and never a hang --
    whether the intact baseline or a degraded trial hits it."""

    CASES = [
        ({"trials": 3, "max_slots": 2}, "the intact baseline"),
        ({"trials": 50, "seed": 1, "max_slots": 6}, "a degraded trial"),
    ]

    @pytest.mark.parametrize("workers", [0, 2])
    @pytest.mark.parametrize(("kw", "where"), CASES)
    def test_python_door(self, kw, where, workers):
        error = _within(60, lambda: repro.resilience_sweep(
            "sk(6,3,2)", faults=2, workers=workers, **kw
        ))
        assert isinstance(error, ValueError)
        assert (error.field, error.code) == ("max_slots", "bad_request")
        assert f"max_slots {kw['max_slots']} is too few" in str(error)
        assert where in str(error)

    @pytest.mark.parametrize("workers", [0, 2])
    def test_http_door(self, workers):
        from repro.serve.client import ServeHTTPError, run_in_thread

        with run_in_thread(workers=workers) as client:
            for kw, where in self.CASES:
                error = _within(60, lambda: client.sweep("sk(6,3,2)", faults=2, **kw))
                assert isinstance(error, ServeHTTPError)
                assert (error.status, error.code) == (400, "bad_request")
                assert where in str(error)
            # the pool still serves after a worker's chunk failed
            summary, _ = client.sweep("sk(6,3,2)", faults=2, trials=8)
            assert summary["trials"] == 8

    def test_engine_cap_stays_a_runtime_error(self):
        from repro.simulation.engine import SlotCapError

        view = repro.degrade("sk(2,2,2)", faults=1, seed=0)
        with pytest.raises(SlotCapError) as err:
            view.simulate(messages=40, max_slots=2)
        assert isinstance(err.value, RuntimeError)
        assert not isinstance(err.value, ValueError)

    def test_errors_survive_pickling(self):
        from repro.resilience.sweep import SweepRequestError
        from repro.simulation.engine import SlotCapError

        error = SweepRequestError(
            "max_slots", "too few", code="bad_request", details={"known": [1]}
        )
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is SweepRequestError and str(copy) == "too few"
        assert (copy.field, copy.code, copy.details) == (
            "max_slots", "bad_request", {"known": [1]}
        )
        cap = pickle.loads(pickle.dumps(SlotCapError(5, [3, 1])))
        assert (cap.cap, cap.stuck, str(cap)) == (
            5, [3, 1], "slot cap 5 reached with messages stuck: [3, 1]"
        )


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


class TestNegativeSeedsRunEverywhere:
    """Any integer seed is valid, in ``full`` mode's workloads too."""

    def test_full_sweep_and_replay_agree_at_every_door(self, capsys):
        from repro.serve.client import run_in_thread

        sweep = dict(seed=-1, trials=2, messages=8, metrics="full")
        replay = dict(sweep, horizon=100)
        expected = (
            repro.resilience_sweep("pops(2,2)", **sweep).to_json(),
            repro.temporal_sweep("pops(2,2)", **replay).to_json(),
        )
        with Session() as session:
            assert (
                session.resilience_sweep("pops(2,2)", **sweep).to_json(),
                session.temporal_sweep("pops(2,2)", **replay).to_json(),
            ) == expected
        common = ["pops(2,2)", "--seed", "-1", "--trials", "2",
                  "--messages", "8", "--metrics", "full", "--json"]
        outputs = []
        for argv in (["resilience", *common],
                     ["temporal", *common, "--horizon", "100"]):
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out.rstrip("\n"))
        assert tuple(outputs) == expected
        with run_in_thread(workers=0) as client:
            served = (
                client.sweep("pops(2,2)", **sweep)[0],
                client.temporal("pops(2,2)", **replay)[0],
            )
        assert tuple(
            json.dumps(body, indent=2, sort_keys=True) for body in served
        ) == expected

    def test_simulate_takes_a_negative_seed(self):
        report = repro.simulate("pops(2,2)", seed=-1, messages=20)
        assert report.num_messages == 20
        assert repro.simulate("pops(2,2)", seed=-1, messages=20) == report


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
