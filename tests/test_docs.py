"""Docs-site integrity tests.

The docs under ``docs/`` are part of the deliverable: the reference
pages are *generated* from the code by ``docs/gen_ref.py`` and
committed, so these tests pin three contracts:

* **freshness** -- regenerating the API and CLI reference pages
  reproduces the committed files byte for byte (if a docstring or the
  argparse tree changes, the pages must be regenerated);
* **golden cross-check** -- the ``--json`` key sets the CLI page
  documents equal the golden schemas in ``test_cli_json_schema.py``
  for the pinned subcommands, and match the live CLI output for the
  rest;
* **coverage** -- every facade verb and every CLI subcommand appears
  in the site, and every page in the mkdocs nav exists on disk.
"""

import argparse
import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest
import yaml

import test_cli_json_schema as golden
from repro.__main__ import build_parser, main
from repro.core import facade

REPO = Path(__file__).resolve().parent.parent
DOCS = REPO / "docs"


@pytest.fixture(scope="module")
def gen_ref():
    """The ``docs/gen_ref.py`` module, loaded from its file path."""
    spec = importlib.util.spec_from_file_location(
        "gen_ref", DOCS / "gen_ref.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("gen_ref", module)
    spec.loader.exec_module(module)
    return module


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    subactions = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    return dict(subactions.choices)


def _subcommands() -> list[str]:
    return list(_subparsers())


def _flag_help(subcommand: str, flag: str) -> str:
    """The rendered help text of one subcommand flag."""
    parser = _subparsers()[subcommand]
    (action,) = [a for a in parser._actions if flag in a.option_strings]
    return action.help % {}


class TestGeneratedPagesAreFresh:
    def test_api_page_matches_generator(self, gen_ref):
        committed = (DOCS / "reference" / "api.md").read_text()
        assert gen_ref.render_api() == committed, (
            "docs/reference/api.md is stale -- regenerate with "
            "`PYTHONPATH=src python docs/gen_ref.py`"
        )

    def test_cli_page_matches_generator(self, gen_ref):
        committed = (DOCS / "reference" / "cli.md").read_text()
        assert gen_ref.render_cli() == committed, (
            "docs/reference/cli.md is stale -- regenerate with "
            "`PYTHONPATH=src python docs/gen_ref.py`"
        )


class TestCliSchemaCrossCheck:
    """CLI_JSON_KEYS in the generator == the golden schema tests."""

    @pytest.mark.parametrize(
        "subcommand,schema_name",
        [
            ("describe", "DESCRIBE_SCHEMA"),
            ("sweep", "SWEEP_CELL_SCHEMA"),
            ("resilience", "RESILIENCE_SCHEMA"),
            ("temporal", "TEMPORAL_SCHEMA"),
            ("design-search", "DESIGN_SEARCH_SCHEMA"),
            ("experiment", "EXPERIMENT_SCHEMA"),
        ],
    )
    def test_documented_keys_equal_goldens(self, gen_ref, subcommand, schema_name):
        documented = set(gen_ref.CLI_JSON_KEYS[subcommand])
        assert documented == set(getattr(golden, schema_name)), subcommand

    def test_design_search_candidate_keys_equal_golden(self, gen_ref):
        assert set(gen_ref.DESIGN_SEARCH_CANDIDATE_KEYS) == set(
            golden.CANDIDATE_SCHEMA
        )

    @pytest.mark.parametrize(
        "argv,subcommand,is_list",
        [
            (["design", "pops(2,2)", "--json"], "design", False),
            (["route", "pops(2,2)", "0", "3", "--json"], "route", False),
            (
                ["simulate", "pops(2,2)", "--messages", "8", "--json"],
                "simulate",
                False,
            ),
            (["compare", "8", "--json"], "compare", True),
        ],
    )
    def test_unpinned_subcommands_checked_live(
        self, gen_ref, capsys, argv, subcommand, is_list
    ):
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        row = payload[0] if is_list else payload
        assert set(row) == set(gen_ref.CLI_JSON_KEYS[subcommand]), subcommand

    def test_every_json_subcommand_is_documented(self, gen_ref):
        # every subcommand carries --json except those the generator
        # explicitly lists as having no JSON form
        assert set(gen_ref.CLI_JSON_KEYS) == set(_subcommands()) - set(
            gen_ref.CLI_NO_JSON
        )


class TestCliHelp:
    """The request-field flags' help is their Parameters docstring entry."""

    @pytest.mark.parametrize("subcommand", _subcommands())
    def test_every_subcommand_renders_help(self, subcommand):
        # argparse %-formats help text: a stray "%" would break --help
        assert subcommand in _subparsers()[subcommand].format_help()

    def test_percent_signs_survive_help_and_reference(self):
        assert "95% confidence" in _subparsers()["resilience"].format_help()
        page = (DOCS / "reference" / "cli.md").read_text()
        assert "95% confidence" in page and "%%" not in page

    def test_model_help_names_every_fault_model(self):
        from repro.resilience.faults import FAULT_MODELS

        for subcommand in ("resilience", "design-search"):
            text = _flag_help(subcommand, "--model")
            for key in FAULT_MODELS:
                assert f'"{key}"' in text, (subcommand, key)

    def test_process_help_names_every_fault_process(self):
        from repro.temporal.processes import FAULT_PROCESSES

        text = _flag_help("temporal", "--process")
        for key in FAULT_PROCESSES:
            assert f'"{key}"' in text, key

    def test_help_carries_no_rst_markup(self):
        for parser in _subparsers().values():
            for action in parser._actions:
                assert "``" not in (action.help or ""), action.dest
                assert not re.search(r":\w+:`", action.help or ""), action.dest


class TestSiteCoverage:
    def test_every_facade_verb_on_the_api_page(self):
        page = (DOCS / "reference" / "api.md").read_text()
        for name in facade.__all__:
            assert f"`repro.{name}`" in page, name

    def test_readme_lists_every_subcommand(self):
        readme = (REPO / "README.md").read_text()
        (listed,) = re.findall(r"python -m repro\s+\{([^}]*)\}", readme)
        assert listed.split(",") == _subcommands()

    def test_every_subcommand_on_the_cli_page(self):
        page = (DOCS / "reference" / "cli.md").read_text()
        for name in _subcommands():
            assert f"## `repro {name}`" in page, name

    def test_mkdocs_nav_pages_exist(self):
        config = yaml.safe_load((REPO / "mkdocs.yml").read_text())
        assert config["strict"] is True

        def walk(node):
            if isinstance(node, str):
                yield node
            elif isinstance(node, list):
                for item in node:
                    yield from walk(item)
            elif isinstance(node, dict):
                for value in node.values():
                    yield from walk(value)

        pages = list(walk(config["nav"]))
        assert pages, "mkdocs nav must not be empty"
        for page in pages:
            assert (DOCS / page).is_file(), f"nav references missing {page}"

    def test_backend_guide_documents_all_three_backends(self):
        from repro.resilience import SWEEP_BACKENDS

        guide = (DOCS / "guides" / "sweep-backends.md").read_text()
        for backend in SWEEP_BACKENDS:
            assert f"`{backend}`" in guide, backend

    def test_internal_links_resolve(self):
        """Every relative .md link in the hand-written pages exists."""
        import re

        for page in DOCS.rglob("*.md"):
            text = page.read_text()
            for target in re.findall(r"\]\((?!https?://)([^)#]+\.md)", text):
                resolved = (page.parent / target).resolve()
                assert resolved.is_file(), f"{page.name} links missing {target}"
