import pytest

from cuspidal.enumerate import SearchConfig, classify_record, enumerate_candidates, max_pairs_bound
from cuspidal.tables import (
    FOUR_PAIR_ROWS,
    REDUCTION_ROWS,
    THREE_PAIR_ROWS,
    TABLE_IDS,
    expected_table,
    one_pair_rows,
    reproduce,
    two_pair_rows,
)


def test_embedded_row_counts():
    assert len(THREE_PAIR_ROWS) == 22
    assert len(FOUR_PAIR_ROWS) == 1
    assert len(REDUCTION_ROWS) == 20
    assert len(one_pair_rows(30)) == 47
    assert len(two_pair_rows(30)) == 58


def test_expected_table_lookup():
    assert expected_table("threepairs").rows == THREE_PAIR_ROWS
    assert expected_table("induct").rows == REDUCTION_ROWS
    with pytest.raises(KeyError):
        expected_table("bogus")


def test_one_pair_rows_contains_sporadics():
    rows = set(one_pair_rows(30))
    assert (8, ((3, 22),)) in rows
    assert (16, ((6, 43),)) in rows
    assert (5, ((2, 13),)) in rows
    assert (13, ((5, 34),)) in rows
    assert (10, ((4, 25),)) in rows


def test_two_pair_rows_includes_degree25():
    assert (25, ((5, 31), (2, 3))) in set(two_pair_rows(30))


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
    assert set(TABLE_IDS) == {
        "onepair",
        "twopairs",
        "threepairs",
        "fourpairs",
        "induct",
        "lct-kashiwara",
        "lct-tono",
        "lct-orevkov",
        "all",
    }


def test_every_table_reproduces():
    # the top-level gate: a correct build regenerates every table exactly
    for identifier in TABLE_IDS:
        report = reproduce(identifier)
        assert report.ok, report.render()
        assert report.matched == report.total > 0


def _searched(k: int, max_degree: int) -> list:
    return [
        record
        for d in range(3, max_degree + 1)
        if max_pairs_bound(d) >= k
        for record in enumerate_candidates(SearchConfig(d, k))
    ]


def test_one_pair_search_equals_the_closed_form_to_degree_300():
    # the one-pair list is a theorem at every degree: a search row it lacks,
    # or a row the search lost, is a fault of the search
    rows = {(r.degree, r.newton) for r in _searched(1, 300)}
    assert len(rows) == 456
    assert rows == set(one_pair_rows(300))


def test_two_pair_search_covers_the_closed_form_to_degree_100():
    # every closed-form row is found; the surplus is exactly the unproved
    # two-pair candidates
    records = _searched(2, 100)
    rows = set(two_pair_rows(100))
    assert len(rows) == 359
    assert rows <= {(r.degree, r.newton) for r in records}
    surplus = [r for r in records if (r.degree, r.newton) not in rows]
    assert len(surplus) == 38
    assert [r for r in records if classify_record(r).existence == "candidate"] == surplus
