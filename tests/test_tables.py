import pytest

from cuspidal import tables
from cuspidal.cli import main
from cuspidal.enumerate import SearchConfig, classify_record, enumerate_candidates, max_pairs_bound
from cuspidal.families import member_rows
from cuspidal.tables import (
    FOUR_PAIR_ROWS,
    REDUCTION_ROWS,
    THREE_PAIR_ROWS,
    TABLE_IDS,
    expected_table,
    reproduce,
)


def test_embedded_row_counts():
    assert len(THREE_PAIR_ROWS) == 22
    assert len(FOUR_PAIR_ROWS) == 1
    assert len(REDUCTION_ROWS) == 20
    assert len(member_rows(1, 30)) == 47
    assert len(member_rows(2, 30)) == 58


def test_expected_table_lookup():
    assert expected_table("threepairs") == THREE_PAIR_ROWS
    assert expected_table("induct") == REDUCTION_ROWS
    with pytest.raises(KeyError):
        expected_table("bogus")


def test_one_pair_rows_contains_sporadics():
    rows = set(member_rows(1, 30))
    assert (8, ((3, 22),)) in rows
    assert (16, ((6, 43),)) in rows
    assert (5, ((2, 13),)) in rows
    assert (13, ((5, 34),)) in rows
    assert (10, ((4, 25),)) in rows


def test_two_pair_rows_includes_degree25():
    assert (25, ((5, 31), (2, 3))) in set(member_rows(2, 30))


def test_pair_table_rows_are_built_once():
    # the family members' rows are walked on first use, then reused
    for identifier, pair_count in (("onepair", 1), ("twopairs", 2)):
        assert expected_table(identifier) is expected_table(identifier)
        assert expected_table(identifier) == member_rows(pair_count, 30)


def test_reproduce_unknown_id():
    with pytest.raises(KeyError):
        reproduce("bogus")


def test_reproduce_fourpairs():
    report = reproduce("fourpairs")
    assert report.ok and report.matched == 1


def test_reproduce_lct_orevkov():
    report = reproduce("lct-orevkov")
    assert report.ok and report.matched == 8


def test_reproduce_lct_tono_flags_iib():
    report = reproduce("lct-tono")
    assert report.ok
    assert sum("flagged inconsistent" in note for note in report.notes) == 12


def test_table_ids_complete():
    # the order is pinned too: CLI help and the benchmark iterate it
    assert TABLE_IDS == (
        "onepair",
        "twopairs",
        "threepairs",
        "fourpairs",
        "induct",
        "lct-kashiwara",
        "lct-tono",
        "lct-orevkov",
        "all",
    )


def test_every_table_reproduces():
    # the top-level gate: a correct build regenerates every table exactly
    for identifier in TABLE_IDS:
        report = reproduce(identifier)
        assert report.ok, report.render()
        assert report.matched == report.total > 0


def test_reproduce_reports_each_kind_of_failure(monkeypatch, capsys):
    # a two-step row the search gives is dropped from the table, and a
    # one-step row no curve has is added
    two_step = (16, "8_3,4_3,2_3", (8, "4_3,2_3"), (4, "2_3"))
    one_step = (13, "9,3_5", (3, "2"), None)
    rows = tuple(row for row in REDUCTION_ROWS if row != two_step) + (one_step,)
    monkeypatch.setattr(tables, "REDUCTION_ROWS", rows)
    report = reproduce("induct")
    assert not report.ok
    lines = report.render().splitlines()
    assert "  missing:    d=13 [9,3_5] -> d'=3 [2]" in lines
    assert "  unexpected: d=16 [8_3,4_3,2_3] -> d'=8 [4_3,2_3] -> d''=4 [2_3]" in lines
    assert main(["reproduce", "--table", "induct"]) == 1
    assert "FAIL" in capsys.readouterr().out

    # no chain counts as ending in the base registry
    monkeypatch.setattr(tables, "PROVED_REDUCTION", "no-such-status")
    report = reproduce("induct")
    assert not report.ok
    assert "  mismatch:   d=12 chain does not end in the base registry" in report.render()

    # closed forms that agree with the pairs' lct but not their C^2: a
    # flagged row shows no discrepancy, and an unflagged row differs
    def closed_forms(spec, newton):
        record = tables.family_curve(spec)
        return record.lct, record.self_intersection + 1

    monkeypatch.setattr(tables, "_closed_forms", closed_forms)
    report = reproduce("lct-tono")
    assert not report.ok
    text = report.render()
    assert "  mismatch:   tono-iib[2, 2]: expected a flagged discrepancy" in text
    assert "  mismatch:   tono-ia[3]: recomputed (lct=" in text


def _searched(k: int, max_degree: int) -> list:
    return [
        record
        for d in range(3, max_degree + 1)
        if max_pairs_bound(d) >= k
        for record in enumerate_candidates(SearchConfig(d, k))
    ]


def test_one_pair_search_equals_the_closed_form_to_degree_1000():
    # the one-pair list is a theorem at every degree (Fernandez de
    # Bobadilla, Luengo, Melle-Hernandez and Nemethi 2006): a search row it
    # lacks, or a row the search lost, is a fault of the search.  Above
    # d = 200, where the family cross-check of the walk stops, this is the
    # only ground truth for k = 1; d <= 1000 takes 0.8-1.2 s on 2 cores
    rows = {(r.degree, r.newton) for r in _searched(1, 1000)}
    assert len(rows) == 1508
    assert rows == set(member_rows(1, 1000))


def test_two_pair_search_covers_the_closed_form_to_degree_100():
    # every closed-form row is found; the surplus is exactly the unproved
    # two-pair candidates
    records = _searched(2, 100)
    rows = set(member_rows(2, 100))
    assert len(rows) == 359
    assert rows <= {(r.degree, r.newton) for r in records}
    surplus = [r for r in records if (r.degree, r.newton) not in rows]
    assert len(surplus) == 38
    assert [r for r in records if classify_record(r).existence == "candidate"] == surplus
    # the surplus, by degree and pairs: three series and two sporadic rows
    expect = {
        *((4 * a + 1, ((a, 4 * a + 1), (2, 2 * a + 1))) for a in range(2, 25)),
        *((8 * b + 2, ((b, 4 * b + 1), (4, 4 * b + 1))) for b in range(2, 13)),
        *((50 * c - 12, ((4 * c - 1, 25 * c - 6), (5, 5 * c - 1))) for c in (1, 2)),
        (17, ((2, 7), (4, 17))),
        (20, ((2, 3), (6, 31))),
    }
    assert len(expect) == 38
    assert {(r.degree, r.newton) for r in surplus} == expect
