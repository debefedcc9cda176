"""Malformed input is refused with a message at every entry point: a
ValueError (or its InvalidCuspData / FamilyParameterError subclass) from
the library, exit code 2 from the CLI."""

import pytest

from cuspidal.cli import main
from cuspidal.enumerate import SearchConfig, enumerate_candidates
from cuspidal.families import FamilyParameterError, _exact_div
from cuspidal.invariants import (
    InvalidCuspData,
    delta_from_multiplicities,
    parse_multiplicity,
    parse_newton,
    self_intersection,
)
from cuspidal.records import OutputDocument
from cuspidal.semigroup import bl_check_unicuspidal


def _cli(*argv):
    raise SystemExit(main(list(argv)))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: parse_multiplicity("4,8"), InvalidCuspData, "strictly decrease"),
        (lambda: delta_from_multiplicities(((1, 2),)), InvalidCuspData, "must be >= 2"),
        (lambda: delta_from_multiplicities(((3, 0),)), InvalidCuspData, "counts must be >= 1"),
        (lambda: parse_newton(""), InvalidCuspData, "empty Newton pair"),
        (lambda: parse_newton("(a,b)"), InvalidCuspData, "malformed Newton pair"),
        (lambda: enumerate_candidates(SearchConfig(12, 0)), ValueError, "pair count"),
        (
            lambda: enumerate_candidates(SearchConfig(12, 3, mode="fast")),
            ValueError,
            "unknown search mode",
        ),
        (lambda: bl_check_unicuspidal(1, (2, 3)), ValueError, "degree must be >= 2"),
        (lambda: OutputDocument((), {}).render("xml"), ValueError, "unknown output format"),
        (lambda: _exact_div(7, 2, "q_1"), FamilyParameterError, "q_1 = 7/2"),
        (lambda: self_intersection(0, ((2, 3),)), ValueError, "degree must be >= 1"),
        (lambda: _cli("family", "ams", "--factors", "3,x"), SystemExit, "^2$"),
        (lambda: _cli("reduce", "--degree", "12", "--mult", "4,8"), SystemExit, "^2$"),
    ],
)
def test_input_errors(call, error, message, capsys):
    with pytest.raises(error, match=message):
        call()
    if error is SystemExit:
        assert capsys.readouterr().err.startswith("error: ")
