"""README names the contract that the code defines: every subcommand, flag,
config key, exit status and `validate` check, and the one size cap."""

import pathlib
import re

import pytest

from qnd_povm import cli, config, validate

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _keys(schema):
    """Every property name at every depth of a JSON-Schema dict."""
    for key, sub in schema.get("properties", {}).items():
        yield key
        yield from _keys(sub)
    if isinstance(schema.get("items"), dict):
        yield from _keys(schema["items"])


def _named(term, text):
    # a whole word: no letter, digit, "_", "-" or "^" runs on at either end
    return re.search(rf"(?<![\w^-]){re.escape(term)}(?![\w^-])", text) is not None


def _status_row(status, text):
    return re.search(rf"^\| *{status} *\|", text, re.M) is not None


CONTRACT = {
    "subcommand": lambda: sorted(cli._COMMANDS),
    "flag": lambda: sorted(cli._FLAGS),
    "config key": lambda: sorted({key for schema in config.SCHEMAS.values()
                                  for key in _keys(schema)}),
    "cap": lambda: ["2^24"],
    "validate check": lambda: [check.name for check in validate.run_all()],
}


@pytest.mark.parametrize("kind", sorted(CONTRACT))
def test_readme_names_each(kind):
    text = README.read_text(encoding="utf-8")
    terms = CONTRACT[kind]()
    assert terms
    assert [term for term in terms if not _named(term, text)] == []


def test_readme_has_a_row_per_exit_status():
    # each status the CLI returns starts a row of the exit-code table
    text = README.read_text(encoding="utf-8")
    assert [s for s in (0, 1, 2, 3, 4, 141) if not _status_row(s, text)] == []

