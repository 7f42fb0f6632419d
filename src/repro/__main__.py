"""Command-line interface: inspect designs, route, simulate, compare.

Every network-touching subcommand is spec-driven: a network is named
either by a canonical spec string (``"sk(6,3,2)"``, ``"pops(4,2)"``,
``"sii(4,3,10)"``, ``"sops(8)"``) or by the loose positional form
(``sk 6 3 2``).  Dispatch goes through the family registry, so a newly
registered family gets CLI coverage for free.  ``--json`` switches any
subcommand to machine-readable output.

Usage::

    python -m repro design sk 6 3 2            # Fig. 12 bill of materials
    python -m repro design "pops(4,2)" --json  # Fig. 11, as JSON
    python -m repro otis 3 6                   # Fig. 1 ASCII layout
    python -m repro route 6 3 2 0 71           # route through SK(6,3,2)
    python -m repro route "sii(4,3,10)" 0 39   # any family, spec-form
    python -m repro simulate 4 2 3 --messages 300
    python -m repro simulate "sops(8)" --workload hotspot
    python -m repro describe "sk(6,3,2)" --json
    python -m repro compare 48                 # equal-N design table
    python -m repro sweep "sk(2,2,2)" "pops(4,2)" --workloads uniform permutation
    python -m repro resilience "sk(6,3,2)" --faults 2 --trials 1000 --json
    python -m repro temporal "sk(6,3,2)" --mtbf 400 --mttr 100 --horizon 2000 --json
    python -m repro design-search --max-processors 48 --faults 2 --trials 200 --json
    python -m repro experiment "sk(2,2,2)" "pops(4,2)" --models coupler:1 link:2 --trials 200 --json
    python -m repro batch commands.txt --reuse-session
    python -m repro serve --port 8000 --workers 4 --queue-depth 8

``serve`` boots the HTTP serving tier (:mod:`repro.serve`): one warm
session shared by every request, identical concurrent requests
coalesced into a single execution, and a bounded admission queue in
front of the worker pools.

``batch`` reads one CLI invocation per line from a file (or stdin with
``-``) and runs them in-process; with ``--reuse-session`` all commands
share one warm session (spec-keyed build caches + persistent worker
pools), so repeated queries against the same machines skip cold-start
cost.
"""

from __future__ import annotations

import argparse
import inspect
import json
import re
import sys
from contextlib import contextmanager

from .core.spec import NetworkSpec, SpecError, _is_intlike as _is_int
from .resilience import (
    METRICS_MODES,
    SAMPLING_MODES,
    SWEEP_BACKENDS,
    SweepRequest,
)
from .temporal import RENEWAL_LAWS, TEMPORAL_METRICS_MODES, TemporalRequest


@contextmanager
def _trace_to(path):
    """Span-trace the wrapped command into a Chrome trace-event file.

    ``path`` falsy: no-op (tracing stays disabled, zero overhead).
    Otherwise every span the command emits -- sweep phases, chunk
    dispatch, cache builds, design-search candidates -- lands in one
    JSON file loadable by Perfetto / ``chrome://tracing``.
    """
    if not path:
        yield
        return
    from .obs.trace import Tracer, disable_tracing, enable_tracing

    tracer = Tracer()
    enable_tracing(tracer)
    try:
        yield
    finally:
        disable_tracing()
        tracer.export_chrome(path)
        print(f"trace: {len(tracer)} events -> {path}", file=sys.stderr)


def _bom_as_dict(bom) -> dict:
    """JSON-ready bill of materials (OTIS unit keys become ``"GxT"``)."""
    return {
        "otis_units": {f"{g}x{t}": q for (g, t), q in sorted(bom.otis_units.items())},
        "multiplexers": bom.multiplexers,
        "beam_splitters": bom.beam_splitters,
        "loop_fibers": bom.loop_fibers,
        "transmitters": bom.transmitters,
        "receivers": bom.receivers,
        "couplers": bom.couplers,
        "total_otis_stages": bom.total_otis_stages,
        "total_lenses": bom.total_lenses,
    }


def _cmd_design(args: argparse.Namespace) -> int:
    try:
        spec = NetworkSpec.from_argv(args.spec)
    except SpecError as exc:
        print(exc, file=sys.stderr)
        return 2
    design = spec.design()
    ok = design.verify()
    budget = design.worst_case_power_budget()
    if args.json:
        print(
            json.dumps(
                {
                    "spec": spec.canonical(),
                    "name": design.name,
                    "verified": ok,
                    "bill_of_materials": _bom_as_dict(design.bill_of_materials()),
                    "worst_case_loss_db": round(budget.total_loss_db(), 4),
                    "link_margin_db": round(budget.margin_db(), 4),
                },
                indent=2,
            )
        )
        return 0 if ok else 1
    print(f"design:   {design.name}")
    print(f"verified: {ok} (every light path == stack-graph hyperarc)")
    print()
    print(design.bill_of_materials().summary())
    print()
    print(
        f"worst-case link: {budget.total_loss_db():.2f} dB loss, "
        f"{budget.margin_db():.2f} dB margin"
    )
    return 0 if ok else 1


def _cmd_otis(args: argparse.Namespace) -> int:
    from .optical import OTIS, OTISLayout

    try:
        layout = OTISLayout(OTIS(args.groups, args.size))
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    print(layout.render_ascii())
    print()
    print(f"geometry realizes the transpose map: {layout.verify_transpose_geometry()}")
    return 0


def _cmd_route(args: argparse.Namespace) -> int:
    from .core.registry import get_family

    tokens = args.args
    try:
        if len(tokens) < 3:
            raise SpecError(
                "route needs a network spec plus src and dst processors"
            )
        if len(tokens) == 5 and all(_is_int(t) for t in tokens):
            # Back-compat positional form: s d k src dst on stack-Kautz.
            spec = NetworkSpec("sk", tuple(int(t) for t in tokens[:3]))
        else:
            spec = NetworkSpec.from_argv(tokens[:-2])
        if not _is_int(tokens[-2]) or not _is_int(tokens[-1]):
            raise SpecError(
                f"src/dst must be integers, got {tokens[-2]!r} {tokens[-1]!r}"
            )
    except SpecError as exc:
        print(exc, file=sys.stderr)
        return 2
    src, dst = int(tokens[-2]), int(tokens[-1])
    family = get_family(spec.family)
    net = spec.build()
    if not (0 <= src < net.num_processors and 0 <= dst < net.num_processors):
        print(f"processors must be in [0, {net.num_processors})", file=sys.stderr)
        return 2
    rt = family.route(net, src, dst)
    if args.json:
        print(
            json.dumps(
                {
                    "spec": spec.canonical(),
                    "src": src,
                    "dst": dst,
                    "num_hops": rt.num_hops,
                    "diameter": net.diameter,
                    "hops": [
                        {
                            "src_group": h.src_group,
                            "dst_group": h.dst_group,
                            "mux": h.mux,
                            "tx_port": h.tx_port,
                            "is_loop": h.is_loop,
                        }
                        for h in rt.hops
                    ],
                },
                indent=2,
            )
        )
        return 0
    src_tag, dst_tag = _processor_tags(net, src, dst)
    print(f"{net}: {src} {src_tag} -> {dst} {dst_tag}")
    print(f"hops: {rt.num_hops} (diameter {net.diameter})")
    loop_kind = "loop coupler"
    hop_kind = f"{family.coupler_kind} coupler"
    for i, hop in enumerate(rt.hops, start=1):
        kind = loop_kind if hop.is_loop else hop_kind
        print(
            f"  hop {i}: group {hop.src_group} -> {hop.dst_group}  "
            f"[{kind} (group {hop.src_group}, mux {hop.mux}), tx port {hop.tx_port}]"
        )
    return 0


def _processor_tags(net, src: int, dst: int) -> tuple[str, str]:
    """Human labels for the endpoints; group words when the family has them."""
    if hasattr(net, "group_word"):
        sw = "".join(map(str, net.group_word(net.label_of(src)[0])))
        dw = "".join(map(str, net.group_word(net.label_of(dst)[0])))
        return f"(group word {sw})", f"(group word {dw})"
    return f"{net.label_of(src)}", f"{net.label_of(dst)}"


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .core import simulate

    try:
        if len(args.spec) == 3 and all(_is_int(t) for t in args.spec):
            # Back-compat positional form: s d k on stack-Kautz.
            spec = NetworkSpec("sk", tuple(int(t) for t in args.spec))
        else:
            spec = NetworkSpec.from_argv(args.spec)
        rep = simulate(
            spec, args.workload, messages=args.messages, seed=args.seed
        )
    except (SpecError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.json:
        print(
            json.dumps(
                {
                    "spec": spec.canonical(),
                    "workload": args.workload,
                    "seed": args.seed,
                    "messages": rep.num_messages,
                    "slots": rep.slots,
                    "mean_latency": rep.mean_latency,
                    "p95_latency": rep.p95_latency,
                    "max_latency": rep.max_latency,
                    "mean_hops": rep.mean_hops,
                    "throughput": rep.throughput,
                    "coupler_utilization": rep.coupler_utilization,
                },
                indent=2,
            )
        )
        return 0
    print(f"{spec}: {rep.num_messages} {args.workload} messages, seed {args.seed}")
    print(rep.row())
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    from .core import describe

    try:
        info = describe(NetworkSpec.from_argv(args.spec))
    except SpecError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(info, indent=2))
        return 0
    width = max(len(k) for k in info)
    for key, value in info.items():
        print(f"{key:<{width}}  {value}")
    return 0


def _request_args(args: argparse.Namespace, request_type) -> dict:
    """The fields of ``request_type`` that ``args`` carries, by name.

    Every flag named like a field of the
    :class:`~repro.resilience.sweep.SweepRequest` or
    :class:`~repro.temporal.replay.TemporalRequest`;
    ``experiment``'s ``--metrics``/``--trials`` are grid axes of the
    same name.
    """
    return {
        name: getattr(args, name)
        for name in request_type.__dataclass_fields__
        if name in args
    }


def _run_and_print(args: argparse.Namespace, verb, **kwargs) -> int:
    """Run a result subcommand's ``verb`` and print what it returns.

    The one path of ``design-search``, ``resilience``, ``temporal``,
    ``experiment`` and ``sweep``: the parsed ``spec``/``specs`` and
    ``--workers`` join ``kwargs``, ``verb`` runs under ``--trace``, a
    ``SpecError``/``ValueError`` is one stderr line and exit 2, and
    the result prints as ``to_json()`` under ``--json``, else as
    ``formatted()``.  A design search that kept no candidate exits 1.
    """
    try:
        if "spec" in args:
            kwargs["spec"] = NetworkSpec.from_argv(args.spec)
        if "specs" in args:
            kwargs["specs"] = [NetworkSpec.parse(s) for s in args.specs]
        if "workers" in args:
            kwargs["workers"] = args.workers
        with _trace_to(args.trace):
            result = verb(**kwargs)
    except (SpecError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return 2
    print(result.to_json() if args.json else result.formatted())
    return 1 if args.command == "design-search" and not len(result) else 0


def _cmd_design_search(args: argparse.Namespace) -> int:
    from .core import design_search
    from .design_search.search import SEARCH_OPTIONS

    options = {name: getattr(args, name) for name in SEARCH_OPTIONS}
    sweep = _request_args(args, SweepRequest)
    return _run_and_print(args, design_search, **options, **sweep)


def _cmd_resilience(args: argparse.Namespace) -> int:
    from .core import resilience_sweep

    return _run_and_print(args, resilience_sweep, **_request_args(args, SweepRequest))


def _cmd_temporal(args: argparse.Namespace) -> int:
    from .core import temporal_sweep

    return _run_and_print(args, temporal_sweep, **_request_args(args, TemporalRequest))


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .core import experiment

    return _run_and_print(
        args,
        experiment,
        models=args.models,
        samplings=args.samplings,
        **_request_args(args, SweepRequest),
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .core import sweep

    return _run_and_print(
        args, sweep, workloads=args.workloads, messages=args.messages, seed=args.seed
    )


def _cmd_batch(args: argparse.Namespace) -> int:
    import shlex

    from .core.session import reset_default_session

    if args.file == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.file, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            print(exc, file=sys.stderr)
            return 2
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        argv = shlex.split(line)
        if argv and argv[0] == "repro":
            argv = argv[1:]  # tolerate pasted "repro ..." prefixes
        if argv and argv[0] == "batch":
            print(
                f"line {lineno}: batch cannot nest batch commands",
                file=sys.stderr,
            )
            return 2
        if not args.reuse_session:
            # cold semantics: every command starts from a fresh session
            reset_default_session()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse errors exit instead of return
            code = exc.code if isinstance(exc.code, int) else 2
        if code:
            print(
                f"batch stopped: line {lineno} ({line!r}) exited {code}",
                file=sys.stderr,
            )
            return code
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve.app import run_server

    try:
        run_server(
            host=args.host,
            port=args.port,
            workers=args.workers,
            concurrency=args.concurrency,
            queue_depth=args.queue_depth,
            shards=args.shards,
            access_log=args.access_log,
            ready=lambda port: print(
                f"serving on http://{args.host}:{port}", flush=True
            ),
        )
    except OSError as exc:  # port in use, bad interface, ...
        print(exc, file=sys.stderr)
        return 2
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .analysis import TopologyRow, equal_size_comparison
    from .analysis.comparison import DEFAULT_COMPARISON_FAMILIES
    from .core.registry import family_keys

    try:
        families = (
            DEFAULT_COMPARISON_FAMILIES
            if args.families is None
            else tuple(family_keys())
            if args.families == ["all"]
            else tuple(args.families)
        )
        rows = equal_size_comparison(args.n, families=families)
    except SpecError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps([row.as_dict() for row in rows], indent=2))
        return 0 if rows else 1
    if not rows:
        print(f"no registered configuration has exactly N = {args.n}")
        return 1
    print(TopologyRow.header())
    for row in rows:
        print(row.formatted())
    return 0


#: The constant each request checks a choice field against.
_CHOICES = {
    SweepRequest: {
        "metrics": METRICS_MODES,
        "backend": SWEEP_BACKENDS,
        "sampling": SAMPLING_MODES,
    },
    TemporalRequest: {"metrics": TEMPORAL_METRICS_MODES, "law": RENEWAL_LAWS},
}

#: The shared flags that name no request field: how a command runs and
#: prints, never what it computes.
_RUN_FLAGS = {
    "workers": dict(
        type=int,
        default=None,
        help="multiprocessing workers (results are worker-count independent)",
    ),
    "trace": dict(
        default=None,
        metavar="PATH",
        help="write a Chrome trace-event JSON of the run's spans to PATH "
        "(open in Perfetto or chrome://tracing; results are unchanged)",
    ),
    "json": dict(action="store_true", help="machine-readable output"),
}


def _parameter_help(request_type) -> dict[str, str]:
    """Each field's entry in the Parameters section of ``request_type``.

    The text ``docs/gen_ref.py`` renders on the API page, joined into
    one line, its RST markup stripped and ``%`` escaped for argparse.
    """
    doc = inspect.getdoc(request_type)
    section = doc.split("Parameters\n----------\n", 1)[1]
    entries: dict[str, list[str]] = {}
    for line in section.splitlines():
        header = re.match(r"(\w+) : ", line)
        if header:
            entry = entries.setdefault(header.group(1), [])
        elif line.startswith(" "):
            entry.append(line.strip())
        elif line:
            break  # the next section
    plain = {}
    for name, lines in entries.items():
        text = " ".join(" ".join(lines).split())
        text = re.sub(r":\w+:`~?(?:\w+\.)*(\w+)`", r"\1", text)
        plain[name] = text.replace("``", "").replace("%", "%%")
    return plain


def _add_flags(parser, names: str, request_type=None, **overrides) -> None:
    """Add one ``--name`` flag per space-separated entry of ``names``.

    A field of ``request_type`` takes its type and default from the
    dataclass field, its choices from the constant the request checks
    it against and its help from its Parameters entry, so the CLI
    cannot drift from the API, HTTP and the docs.  Any other name is
    one of :data:`_RUN_FLAGS`.  ``overrides`` maps a name to the
    door-level ``add_argument`` keywords that differ.
    """
    helps = _parameter_help(request_type) if request_type else {}
    for name in names.split():
        if name in _RUN_FLAGS:
            options = dict(_RUN_FLAGS[name])
        else:
            field = request_type.__dataclass_fields__[name]
            # "int", "float | None", "InitVar[int | None]", ...; else a string
            words = re.findall(r"\w+", str(field.type))
            options = {
                "type": next((t for t in (int, float) if t.__name__ in words), None),
                "default": field.default,
                "help": helps[name],
            }
            if name in _CHOICES[request_type]:
                options["choices"] = tuple(_CHOICES[request_type][name])
        options.update(overrides.get(name, {}))
        parser.add_argument(f"--{name.replace('_', '-')}", **options)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    from .design_search import PARALLELISM_MODES, RANKINGS

    spec_help = 'network spec ("sk(6,3,2)") or positional (sk 6 3 2)'
    parser = argparse.ArgumentParser(
        prog="repro",
        description="OTIS-based multi-OPS lightwave network toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="verify a design and print its BOM")
    p.add_argument(
        "spec",
        nargs="+",
        help='network spec: "sk(6,3,2)" or positional (sk 6 3 2; pops t g; sii s d n; sops n)',
    )
    _add_flags(p, "json")
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("otis", help="render an OTIS(G, T) lens layout")
    p.add_argument("groups", type=int)
    p.add_argument("size", type=int)
    p.set_defaults(func=_cmd_otis)

    p = sub.add_parser("route", help="route between two processors")
    p.add_argument(
        "args",
        nargs="+",
        help='spec + src + dst ("sk(6,3,2)" 0 71) or the positional SK form (6 3 2 0 71)',
    )
    _add_flags(p, "json")
    p.set_defaults(func=_cmd_route)

    p = sub.add_parser("simulate", help="run a workload on any network")
    p.add_argument(
        "spec",
        nargs="+",
        help='network spec ("pops(4,2)") or the positional SK form (s d k)',
    )
    p.add_argument("--messages", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--workload",
        default="uniform",
        help="workload name (uniform, permutation, hotspot, broadcast, group-local, bernoulli)",
    )
    _add_flags(p, "json")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("describe", help="JSON-ready summary of any network")
    p.add_argument(
        "spec",
        nargs="+",
        help='network spec: "sk(6,3,2)" or positional (sk 6 3 2)',
    )
    _add_flags(p, "json")
    p.set_defaults(func=_cmd_describe)

    p = sub.add_parser(
        "design-search",
        help="rank candidate designs by survivability per cost",
    )
    p.add_argument(
        "--max-processors",
        type=int,
        required=True,
        help="largest machine considered (candidate window upper bound)",
    )
    p.add_argument(
        "--min-processors",
        type=int,
        default=2,
        help="smallest machine considered (default 2)",
    )
    p.add_argument(
        "--families",
        nargs="+",
        default=None,
        help="family keys to search (default: every registered family)",
    )
    # a door-level default: the search scores connectivity, the fast path
    _add_flags(
        p,
        "model faults trials seed workers metrics workload messages",
        SweepRequest,
        metrics={"default": "connectivity"},
    )
    p.add_argument("--max-coupler-degree", type=int, default=None)
    p.add_argument(
        "--min-groups",
        type=int,
        default=None,
        help="drop designs with fewer groups (2 excludes single-star machines)",
    )
    p.add_argument("--max-groups", type=int, default=None)
    p.add_argument("--max-diameter", type=int, default=None)
    p.add_argument(
        "--min-margin-db",
        type=float,
        default=None,
        help="drop designs whose optical link margin is below this",
    )
    p.add_argument(
        "--top", type=int, default=None, help="report only the best TOP candidates"
    )
    p.add_argument(
        "--parallelism",
        choices=PARALLELISM_MODES,
        default="sweeps",
        help=(
            "worker scheduling on one pool: candidate sweeps one after "
            "another, or every candidate's trial chunks at once "
            "(identical results)"
        ),
    )
    _add_flags(p, "backend", SweepRequest)
    p.add_argument(
        "--rank-by",
        choices=RANKINGS,
        default="survivability-per-cost",
        help=(
            "ranking criterion; the path-metric rankings need "
            "--metrics paths or full"
        ),
    )
    _add_flags(p, "ci_target sampling trace json", SweepRequest)
    p.set_defaults(func=_cmd_design_search)

    p = sub.add_parser(
        "resilience",
        help="Monte-Carlo survivability under injected faults",
    )
    p.add_argument("spec", nargs="+", help=spec_help)
    _add_flags(
        p,
        "model faults trials seed workers messages workload metrics backend "
        "ci_target sampling trace json",
        SweepRequest,
    )
    p.set_defaults(func=_cmd_resilience)

    p = sub.add_parser(
        "temporal",
        help="replay seeded failure/repair processes: availability over time",
    )
    p.add_argument("spec", nargs="+", help=spec_help)
    _add_flags(
        p,
        "process faults mtbf mttr law horizon trials seed workers workload "
        "messages bound metrics curve_points trace json",
        TemporalRequest,
    )
    p.set_defaults(func=_cmd_temporal)

    p = sub.add_parser(
        "experiment",
        help="declarative specs x models x metrics x trials sweep grid",
    )
    p.add_argument(
        "specs",
        nargs="+",
        help='network specs forming the grid, e.g. "sk(2,2,2)" "pops(4,2)"',
    )
    p.add_argument(
        "--models",
        nargs="+",
        default=["coupler"],
        help=(
            "fault-model or fault-process grid entries: key or "
            "key:faults (e.g. coupler:2 link coupler-renewal:2)"
        ),
    )
    p.add_argument(
        "--metrics",
        nargs="+",
        choices=tuple(METRICS_MODES),
        default=["connectivity"],
        help="scoring-depth grid entries",
    )
    p.add_argument(
        "--trials",
        type=int,
        nargs="+",
        default=[100],
        help="Monte-Carlo trial-count grid entries",
    )
    _add_flags(p, "seed workers backend workload messages", SweepRequest)
    p.add_argument(
        "--samplings",
        nargs="+",
        choices=SAMPLING_MODES,
        default=["uniform"],
        help="trial-allocation grid entries (a grid axis)",
    )
    _add_flags(p, "ci_target trace json", SweepRequest)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser(
        "batch",
        help="run many CLI commands in-process, optionally on one warm session",
    )
    p.add_argument(
        "file",
        nargs="?",
        default="-",
        help="command file, one CLI invocation per line ('-' or omitted: stdin; "
        "'#' starts a comment)",
    )
    p.add_argument(
        "--reuse-session",
        action="store_true",
        help=(
            "share one warm session (build caches + persistent worker "
            "pools) across all commands instead of resetting between them"
        ),
    )
    p.set_defaults(func=_cmd_batch)

    p = sub.add_parser(
        "serve",
        help="HTTP serving tier: one warm session behind coalescing + admission control",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port",
        type=int,
        default=8000,
        help="TCP port to bind (0 picks an ephemeral port, printed on start)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="sweep worker-pool size of the shared session",
    )
    p.add_argument(
        "--concurrency",
        type=int,
        default=4,
        help="requests executing simultaneously (server thread-pool size)",
    )
    p.add_argument(
        "--queue-depth",
        type=int,
        default=8,
        help="admitted requests allowed to wait beyond --concurrency "
        "(overflow is rejected with a structured 429)",
    )
    p.add_argument(
        "--shards",
        type=int,
        default=0,
        help="default subprocess count for experiment requests "
        "(0: run on the shared session in-process)",
    )
    p.add_argument(
        "--access-log",
        nargs="?",
        const="-",
        default=None,
        metavar="PATH",
        help="structured JSON access log, one line per request "
        "(append to PATH; bare --access-log writes to stderr)",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("compare", help="equal-N design comparison table")
    p.add_argument("n", type=int)
    p.add_argument(
        "--families",
        nargs="+",
        default=None,
        help="family keys to include (default: pops sk; 'all' for every registered family)",
    )
    _add_flags(p, "json")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("sweep", help="specs x workloads scenario matrix")
    p.add_argument("specs", nargs="+", help='network specs, e.g. "sk(2,2,2)" "pops(4,2)"')
    p.add_argument(
        "--workloads",
        nargs="+",
        default=["uniform", "permutation"],
        help="workload names for the matrix columns",
    )
    p.add_argument("--messages", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    _add_flags(p, "trace json")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
