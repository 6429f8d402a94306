"""The parser stays as it was: help text byte for byte, and the accepted names
that cli.py keeps as literals equal the library tables they come from."""

import importlib
import json
from pathlib import Path

import pytest

from symchar import characters, cli

# stdout of every `--help`, recorded with COLUMNS=80 before the parser's
# name tables became literals.
GOLDEN = json.loads((Path(__file__).parent / "cli_help.json").read_text())


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_help_is_byte_identical(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert cli.main(command.split()[1:]) == 0
    assert capsys.readouterr().out == GOLDEN[command]


def test_golden_covers_every_subcommand_and_action():
    def commands(parser, prefix):
        yield prefix
        for action in (parser._subparsers._group_actions if parser._subparsers else ()):
            for name, child in action.choices.items():
                yield from commands(child, f"{prefix} {name}")

    found = {f"{c} --help" for c in commands(cli.build_parser(), "symchar")}
    assert found == set(GOLDEN)


def test_branch_rules_match_the_library():
    assert cli._BRANCH_RULES == tuple(sorted(characters.BRANCH_SERIES))


def test_product_choices_cover_the_characters_functions():
    for module, name, _kind in cli._PRODUCTS.values():
        assert callable(getattr(importlib.import_module(f"symchar.{module}"), name))
