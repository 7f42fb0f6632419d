#!/usr/bin/env python3
"""Generate the docs site's reference pages from the code itself.

Stdlib-only (no mkdocstrings): the API page renders the facade verbs'
NumPy-style docstrings and the ``repro`` top-level export table; the
CLI page renders every ``python -m repro`` subcommand with its options
and the key set of its ``--json`` payload.  Output is deterministic --
``tests/test_docs.py`` regenerates both pages and fails when the
committed copies are stale, and cross-checks :data:`CLI_JSON_KEYS`
against the golden schemas in ``tests/test_cli_json_schema.py``.

Run from the repo root (writes ``docs/reference/*.md``)::

    PYTHONPATH=src python docs/gen_ref.py
"""

from __future__ import annotations

import argparse
import inspect
import sys
from pathlib import Path

DOCS_DIR = Path(__file__).resolve().parent
REPO_ROOT = DOCS_DIR.parent

#: Documented ``--json`` key sets per subcommand.  Those with golden
#: schemas in ``tests/test_cli_json_schema.py`` are cross-checked
#: against them; the rest are checked live against the CLI.
CLI_JSON_KEYS: dict[str, tuple[str, ...]] = {
    "design": (
        "spec",
        "name",
        "verified",
        "bill_of_materials",
        "worst_case_loss_db",
        "link_margin_db",
    ),
    "route": ("spec", "src", "dst", "num_hops", "diameter", "hops"),
    "simulate": (
        "spec",
        "workload",
        "seed",
        "messages",
        "slots",
        "mean_latency",
        "p95_latency",
        "max_latency",
        "mean_hops",
        "throughput",
        "coupler_utilization",
    ),
    "describe": (
        "spec",
        "family",
        "params",
        "processors",
        "groups",
        "couplers",
        "coupler_degree",
        "processor_degree",
        "diameter",
    ),
    "compare": (
        "name",
        "processors",
        "groups",
        "couplers",
        "coupler_degree",
        "transceivers_per_processor",
        "diameter",
        "otis_stages",
        "lenses",
        "splitting_loss_db",
        "link_margin_db",
    ),
    "sweep": (
        "spec",
        "workload",
        "processors",
        "messages",
        "slots",
        "mean_latency",
        "p95_latency",
        "max_latency",
        "mean_hops",
        "throughput",
        "coupler_utilization",
    ),
    "resilience": (
        "spec",
        "model",
        "faults",
        "trials",
        "seed",
        "workload",
        "messages",
        "bound",
        "quantiles",
        "within_bound_fraction",
        "partitioned_fraction",
    ),
    "temporal": (
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
        "quantiles",
        "availability_curve",
        "disconnected_fraction",
        "skipped_underfaulted",
    ),
    "design-search": (
        "max_processors",
        "min_processors",
        "families",
        "model",
        "faults",
        "trials",
        "seed",
        "metrics",
        "rank_by",
        "cost_model",
        "ci_target",
        "sampling",
        "pareto",
        "skipped_underfaulted",
        "candidates",
    ),
    "experiment": (
        "specs",
        "models",
        "metrics",
        "trials",
        "seed",
        "backend",
        "workload",
        "messages",
        "samplings",
        "ci_target",
        "cells",
    ),
}

#: Subcommands with no ``--json`` form (ASCII art; the batch runner,
#: whose output is its inner commands'; the server, which speaks JSON
#: over HTTP instead of stdout).
CLI_NO_JSON = ("otis", "batch", "serve")

#: Subcommands whose ``--json`` payload is a LIST of rows (the keys
#: documented above are per row).
CLI_JSON_LIST_PAYLOADS = ("compare", "sweep")

#: Candidate-row keys of ``design-search --json`` (its ``candidates``
#: list), also pinned by the golden schema test.
DESIGN_SEARCH_CANDIDATE_KEYS: tuple[str, ...] = (
    "spec",
    "family",
    "processors",
    "groups",
    "coupler_degree",
    "diameter",
    "cost",
    "link_margin_db",
    "survivability",
    "partitioned_fraction",
    "within_bound_fraction",
    "mean_stretch",
    "survivability_per_kilocost",
    "pareto",
    "trials_spent",
    "early_discarded",
)


def _verb_entries():
    """The facade verbs, in ``repro.core.facade.__all__`` order."""
    from repro.core import facade

    for name in facade.__all__:
        obj = getattr(facade, name)
        if inspect.isfunction(obj):
            yield name, obj


def render_api() -> str:
    """The API reference page (verbs, the request parameters, exports)."""
    import repro
    from repro.core import facade

    lines = [
        "# API reference",
        "",
        "<!-- GENERATED by docs/gen_ref.py -- edit the docstrings in",
        "     src/repro/core/facade.py, src/repro/resilience/sweep.py and",
        "     src/repro/temporal/replay.py instead and regenerate. -->",
        "",
        "Every verb below lives in `repro.core.facade` and is re-exported",
        "at the package top level (`repro.build`, `repro.route`, ...).",
        "A *spec* is anything `NetworkSpec.parse` accepts: a canonical",
        'string (`"sk(6,3,2)"`, `"pops(4,2)"`, `"sii(4,3,10)"`,',
        '`"sops(8)"`), a loose token string, a dict of named parameters,',
        "or an argv-style token list.  Every sweep parameter is",
        "documented once, on `repro.SweepRequest` below, and every",
        "temporal-sweep parameter on `repro.TemporalRequest`.",
        "",
    ]
    requests = [
        ("SweepRequest", repro.SweepRequest),
        ("TemporalRequest", repro.TemporalRequest),
    ]
    for name, obj in [*_verb_entries(), *requests]:
        signature = str(inspect.signature(obj))
        doc = inspect.getdoc(obj) or "(undocumented)"
        lines += [
            f"## `repro.{name}`",
            "",
            "```python",
            f"{name}{signature}",
            "```",
            "",
            "```text",
            doc,
            "```",
            "",
        ]
    for name in ("SweepCell", "SweepResult"):
        obj = getattr(facade, name)
        doc = (inspect.getdoc(obj) or "").splitlines()[0]
        lines += [f"## `repro.{name}`", "", doc, ""]
    lines += [
        "## Top-level exports",
        "",
        "Everything `import repro` re-exports, with its kind:",
        "",
        "| export | kind |",
        "|--------|------|",
    ]
    for name in sorted(repro.__all__):
        obj = getattr(repro, name)
        if inspect.ismodule(obj):
            kind = "subpackage"
        elif inspect.isclass(obj):
            kind = "class"
        elif callable(obj):
            kind = "function"
        elif name.isupper():
            kind = f"constant (`{type(obj).__name__}`)"
        else:
            kind = type(obj).__name__
        lines.append(f"| `repro.{name}` | {kind} |")
    lines.append("")
    return "\n".join(lines)


def _option_rows(parser: argparse.ArgumentParser):
    """(name, default, help) rows for one subparser's arguments."""
    for action in parser._actions:  # noqa: SLF001 - argparse has no API
        if isinstance(action, argparse._HelpAction):
            continue
        if action.option_strings:
            name = ", ".join(f"`{s}`" for s in action.option_strings)
        else:
            name = f"`{action.dest}`"
        if isinstance(action, argparse._StoreTrueAction) or action.default in (
            None,
            argparse.SUPPRESS,
        ):
            default = "--" if action.default in (False, None) else str(action.default)
        else:
            default = f"`{action.default}`"
        # argparse %-formats help, so the CLI escapes a literal "%"
        text = (action.help or "").replace("%%", "%").replace("|", "\\|")
        if action.choices is not None:
            choices = " / ".join(f"`{c}`" for c in action.choices)
            text = f"{text} ({choices})" if text else f"one of {choices}"
        yield name, default, text


def render_cli() -> str:
    """The CLI reference page, from the argparse tree itself."""
    from repro.__main__ import build_parser

    parser = build_parser()
    subactions = next(
        a
        for a in parser._actions  # noqa: SLF001
        if isinstance(a, argparse._SubParsersAction)
    )
    lines = [
        "# CLI reference",
        "",
        "<!-- GENERATED by docs/gen_ref.py -- edit the parser in",
        "     src/repro/__main__.py instead and regenerate. -->",
        "",
        "All subcommands of `python -m repro`.  Network-touching",
        "subcommands take a spec string (`\"sk(6,3,2)\"`) or the loose",
        "positional form (`sk 6 3 2`); `--json` switches any of them to",
        "machine-readable output whose key sets are pinned by",
        "`tests/test_cli_json_schema.py`.",
        "",
    ]
    for name, sub in subactions.choices.items():
        help_text = next(
            (c.help for c in subactions._choices_actions if c.dest == name),
            "",
        )
        lines += [f"## `repro {name}`", "", f"{help_text}.", ""]
        rows = list(_option_rows(sub))
        if rows:
            lines += [
                "| argument | default | description |",
                "|----------|---------|-------------|",
            ]
            lines += [
                f"| {arg} | {default} | {text} |" for arg, default, text in rows
            ]
            lines.append("")
        keys = CLI_JSON_KEYS.get(name)
        if keys:
            shape = (
                "a list of rows, each with keys"
                if name in CLI_JSON_LIST_PAYLOADS
                else "an object with keys"
            )
            joined = ", ".join(f"`{k}`" for k in keys)
            lines += [f"`--json` emits {shape}: {joined}.", ""]
            if name == "resilience":
                lines += [
                    "With `--ci-target` or a non-uniform `--sampling`"
                    " the object gains one extra key, `adaptive`, the"
                    " estimator record: `sampling`, `ci_target`,"
                    " `trials_requested`, `trials_spent`, `rounds`,"
                    " `survival`, `ci_low`, `ci_high`,"
                    " `ci_half_width`.",
                    "",
                ]
            if name == "design-search":
                joined = ", ".join(
                    f"`{k}`" for k in DESIGN_SEARCH_CANDIDATE_KEYS
                )
                lines += [
                    f"Each entry of `candidates` carries: {joined}.",
                    "",
                ]
        elif name in CLI_NO_JSON:
            lines += ["This subcommand has no `--json` form.", ""]
    return "\n".join(lines)


def main() -> int:
    """Write both reference pages under ``docs/reference/``."""
    out_dir = DOCS_DIR / "reference"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "api.md").write_text(render_api())
    (out_dir / "cli.md").write_text(render_cli())
    print(f"wrote {out_dir / 'api.md'} and {out_dir / 'cli.md'}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(REPO_ROOT / "src"))
    raise SystemExit(main())
