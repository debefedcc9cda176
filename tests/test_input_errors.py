"""Malformed input is refused with a message at every entry point: a
ValueError (or its InvalidCuspData / FamilyParameterError subclass) from
the library, exit code 2 from the CLI."""

import pytest

from cuspidal.cli import main
from cuspidal.enumerate import SearchConfig, enumerate_candidates
from cuspidal.families import (
    FamilyParameterError,
    _exact_div,
    ams_all,
    bunyakovsky_condition_check,
    family_curve,
    kashiwara_curve,
    ordered_factorization_count,
    ordered_factorizations,
    prime_degree_scan,
    tono_curve,
)
from cuspidal.invariants import (
    InvalidCuspData,
    delta_from_multiplicities,
    genus_target,
    parse_multiplicity,
    parse_newton,
    self_intersection,
)
from cuspidal.records import FamilySpec, OutputDocument
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
        (lambda: _cli("factorizations", "--n", "0"), SystemExit, "^2$"),
        (lambda: ordered_factorizations(0), ValueError, "n must be >= 1"),
        (lambda: ordered_factorization_count(0), ValueError, "n must be >= 1, got 0"),
        (lambda: ams_all(1), FamilyParameterError, "degree must be >= 2"),
        (
            lambda: family_curve(FamilySpec("kashiwara-ii-ge", (-1,))),
            FamilyParameterError,
            "l must be >= 0",
        ),
        (
            lambda: family_curve(FamilySpec("kashiwara-ii-ge", (0, 1))),
            FamilyParameterError,
            "takes no lambda",
        ),
        (
            lambda: family_curve(FamilySpec("kashiwara-ii-sp", (1, 1))),
            FamilyParameterError,
            "takes no lambda",
        ),
        (
            lambda: family_curve(FamilySpec("kashiwara-iiplus-ge", (1, -1))),
            FamilyParameterError,
            "lambda parameters must be >= 0",
        ),
        (lambda: kashiwara_curve("tono-ia", 3), FamilyParameterError, "unknown Kashiwara type"),
        (lambda: tono_curve("orevkov", (1,)), FamilyParameterError, "unknown Tono type"),
        (lambda: family_curve(FamilySpec("bogus", ())), FamilyParameterError, "unknown family kind"),
        (lambda: prime_degree_scan(1), ValueError, "limit must be >= 2"),
        (lambda: bunyakovsky_condition_check("sn2+1"), ValueError, "needs s >= 1"),
        (lambda: bunyakovsky_condition_check("x"), ValueError, "unknown family"),
        (lambda: genus_target(0), ValueError, "degree must be >= 1, got 0"),
    ],
)
def test_input_errors(call, error, message, capsys):
    with pytest.raises(error, match=message):
        call()
    if error is SystemExit:
        assert capsys.readouterr().err.startswith("error: ")
