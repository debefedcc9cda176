import hashlib
import os
from collections import Counter

import pytest

from cuspidal import enumerate as search
from cuspidal.enumerate import (
    PARANOID,
    PRUNED,
    PairCountBoundError,
    SearchConfig,
    classify_range,
    enumerate_candidates,
    max_pairs_bound,
)
from cuspidal.invariants import newton_to_puiseux
from cuspidal.records import CurveRecord, OutputDocument, record_to_flat_dict
from uncut_search import pruned_leaves, uncut_leaves


def test_max_pairs_bound():
    assert max_pairs_bound(30) == 4
    assert max_pairs_bound(16) == 3
    assert max_pairs_bound(33) == 5
    assert max_pairs_bound(3) == 1
    with pytest.raises(ValueError):
        max_pairs_bound(2)


def test_smallest_degree_with_five_pairs():
    assert max_pairs_bound(32) == 4
    assert max_pairs_bound(33) == 5


def test_degree5_single_pair():
    records = enumerate_candidates(SearchConfig(5, 1))
    assert [r.newton for r in records] == [((2, 13),), ((4, 5),)]


def test_degree12_three_pairs():
    records = enumerate_candidates(SearchConfig(12, 3))
    assert [r.newton for r in records] == [((2, 3), (2, 5), (2, 3))]
    assert records[0].existence == "candidate"


def test_degree24_four_pairs():
    records = enumerate_candidates(SearchConfig(24, 4))
    assert [r.newton for r in records] == [((2, 3), (2, 5), (2, 3), (2, 3))]


def test_degree7_two_pairs_empty():
    assert enumerate_candidates(SearchConfig(7, 2)) == []
    assert enumerate_candidates(SearchConfig(7, 2, PARANOID)) == []


def test_pair_count_bound_error():
    with pytest.raises(PairCountBoundError):
        enumerate_candidates(SearchConfig(7, 3))
    with pytest.raises(PairCountBoundError):
        enumerate_candidates(SearchConfig(30, 5))


def test_modes_agree_small():
    for d in range(3, 13):
        for k in range(1, min(3, max_pairs_bound(d)) + 1):
            pruned = enumerate_candidates(SearchConfig(d, k, PRUNED))
            paranoid = enumerate_candidates(SearchConfig(d, k, PARANOID))
            assert pruned == paranoid, (d, k)


def test_modes_agree_four_pairs():
    for d in range(17, 31):
        if max_pairs_bound(d) >= 4:
            pruned = enumerate_candidates(SearchConfig(d, 4, PRUNED))
            paranoid = enumerate_candidates(SearchConfig(d, 4, PARANOID))
            assert pruned == paranoid, d


def test_worker_count_does_not_change_output():
    base = enumerate_candidates(SearchConfig(20, 3, PRUNED, 1))
    assert enumerate_candidates(SearchConfig(20, 3, PRUNED, 4)) == base
    assert enumerate_candidates(SearchConfig(20, 3, PARANOID, 3)) == base


def test_classify_range_worker_count_does_not_change_output():
    assert classify_range(20, 2) == classify_range(20, 1)


def test_emitted_records_satisfy_multiplicity_bounds():
    # nothing filters on a <= d - 1 or m_1 + m_2 <= d: the counting check's
    # j = 1 condition implies both, also where the paranoid a range runs
    # past d - 1
    records = classify_range(40)
    for d in range(3, 21):
        for k in range(1, min(3, max_pairs_bound(d)) + 1):
            records += enumerate_candidates(SearchConfig(d, k, PARANOID))
    assert len(records) > 227
    for record in records:
        d = record.degree
        seq = [value for value, count in record.mult for _ in range(count)]
        assert newton_to_puiseux(record.newton)[0][0] <= d - 1
        m1 = seq[0]
        m2 = seq[1] if len(seq) > 1 else 1
        assert m1 + m2 <= d, (d, record.newton)


def test_classify_range_to_degree_four():
    records = classify_range(4)
    assert [(r.degree, r.newton) for r in records] == [
        (3, ((2, 3),)),
        (4, ((2, 7),)),
        (4, ((3, 4),)),
    ]
    assert all(r.existence == "proved-base" for r in records)
    assert records[0].family.kind == "ams"


def test_classify_range_degree8_single_pairs():
    records = [r for r in classify_range(8) if r.degree == 8 and len(r.newton) == 1]
    assert sorted(r.newton[0] for r in records) == [(3, 22), (4, 15), (7, 8)]
    by_pair = {r.newton[0]: r for r in records}
    assert by_pair[(3, 22)].family.kind == "orevkov"
    assert by_pair[(3, 22)].kodaira == 2
    assert by_pair[(7, 8)].family.kind == "ams"


def test_classify_marks_unconstructible_candidates():
    records = classify_range(9)
    flagged = [r for r in records if r.existence == "candidate"]
    assert [(r.degree, r.newton) for r in flagged] == [(9, ((2, 9), (2, 5)))]
    assert flagged[0].family is None


def test_every_family_curve_is_found_by_the_search():
    # the counting criterion is necessary, so no family member of degree
    # <= 30 may be missing from the enumeration output
    from cuspidal.families import (
        ams_all,
        kashiwara_curve,
        orevkov_curve,
        tono_curve,
    )

    family_members = []
    for d in range(2, 31):
        family_members.extend(ams_all(d))
    family_members += [
        kashiwara_curve("kashiwara-ii-sp", 1),
        kashiwara_curve("kashiwara-ii-sp", 2),
        kashiwara_curve("kashiwara-ii-ge", 0),
        kashiwara_curve("kashiwara-iiplus-sp", 0, (1,)),
        tono_curve("tono-ia", (3,)),
        tono_curve("tono-ia", (4,)),
        tono_curve("tono-ia", (5,)),
        tono_curve("tono-ib", (3, 2)),
        tono_curve("tono-ib", (3, 3)),
        orevkov_curve(1),
        orevkov_curve(1, starred=True),
    ]
    enumerated = {(r.degree, r.newton) for r in classify_range(30)}
    for record in family_members:
        if record.degree < 3:
            continue  # the degenerate smooth conic is not a cusp candidate
        assert (record.degree, record.newton) in enumerated, record.newton


def test_classify_range_kodaira_follows_family_kind():
    kodaira = {"tono": 1, "orevkov": 2, "ams": float("-inf"), "kashiwara": float("-inf")}
    kinds = set()
    for record in classify_range(30):
        if record.family is None:
            assert record.kodaira is None
            continue
        group = record.family.kind.split("-")[0]
        assert record.kodaira == kodaira[group], record.family
        kinds.add(group)
    assert kinds == set(kodaira)


def test_classify_range_flags_frontier_degrees():
    records = classify_range(31)
    above = [r for r in records if r.degree == 31]
    assert above and all("frontier" in r.flags for r in above)
    assert all("frontier" not in r.flags for r in records if r.degree <= 30)


def test_classify_range_searches_five_pairs():
    # k = 5 first becomes possible at d = 33; the first five-pair cusp is
    # the AMS member at d = 48
    records = classify_range(48)
    five = [r for r in records if len(r.newton) == 5]
    assert [(r.degree, r.newton) for r in five] == [
        (48, ((2, 3), (2, 5), (2, 3), (2, 3), (2, 3)))
    ]
    assert record_to_flat_dict(five[0])["family"] == "ams[3, 2, 2, 2, 2]"
    assert five[0].existence == "proved-reduction"
    assert "frontier" in five[0].flags


def _counted_checks(monkeypatch):
    # the degree of every counting check the search runs from here on
    calls = []
    check = search.bl_check_unicuspidal

    def counted(degree, generators):
        calls.append(degree)
        return check(degree, generators)

    monkeypatch.setattr(search, "bl_check_unicuspidal", counted)
    return calls


def test_one_counting_check_per_delta_solved_candidate(monkeypatch):
    calls = _counted_checks(monkeypatch)
    leaves = uncut = 0
    for d in range(3, 31):
        for k in range(1, min(4, max_pairs_bound(d)) + 1):
            enumerate_candidates(SearchConfig(d, k))
            leaves += sum(1 for _ in pruned_leaves(d, k))
            uncut += sum(1 for _ in uncut_leaves(d, k))
    # the two-sided prefix cut leaves 180 of the 10,136 delta-solved
    # candidates
    assert len(calls) == leaves == 180
    assert uncut == 10_136


def test_prefix_cut_is_lossless(monkeypatch):
    # the cut tree from a = d//3 + 1 gives the records of the uncut walk
    # over a = 2..d-1, and each side of the cut fires: the over-count side,
    # and the exact side where the over-count side alone keeps the node
    cuts = []
    span_miss = search._span_miss

    def counted(degree, last_j, gens, e):
        miss = span_miss(degree, last_j, gens, e)

        def counted_miss(w, floor):
            cut = miss(w, floor)
            # a floor of 0 leaves only the over-count side
            cuts.append((cut is not None, miss(w, 0) is not None))
            return cut

        return counted_miss

    monkeypatch.setattr(search, "_span_miss", counted)
    leaves = 0
    for d in range(3, 46):
        for k in range(1, max_pairs_bound(d) + 1):
            uncut = [search._finalize(d, a, bs) for a, bs in uncut_leaves(d, k)]
            leaves += len(uncut)
            expect = sorted((r for r in uncut if r is not None), key=CurveRecord.sort_key)
            assert enumerate_candidates(SearchConfig(d, k)) == expect, (d, k)
    assert leaves == 145_322
    assert any(over for _, over in cuts)
    assert any(cut and not over for cut, over in cuts)


def test_tree_counters_are_built_only_for_a_gcd_with_a_child(monkeypatch):
    # a counter closes a base table, so the tree builds one only at the
    # first child of its gcd, and every counter built is then called
    calls = []
    span_miss = search._span_miss

    def counted(degree, last_j, gens, e):
        miss = span_miss(degree, last_j, gens, e)
        index = len(calls)
        calls.append(0)

        def counted_miss(w, floor):
            calls[index] += 1
            return miss(w, floor)

        return counted_miss

    monkeypatch.setattr(search, "_span_miss", counted)
    leaves = 0
    for d in range(3, 41):
        for k in range(1, max_pairs_bound(d) + 1):
            leaves += sum(1 for _ in pruned_leaves(d, k))
    assert leaves == 295
    assert len(calls) == 1_295
    assert all(calls)


def test_worker_pool_is_capped_at_the_cpu_count(monkeypatch):
    # a fork pool starts every worker at the first task, so --jobs above
    # the CPU count must not ask for more; the fake pool maps in-process
    requested = []

    class InProcessPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(search, "ProcessPoolExecutor", InProcessPool)
    records = enumerate_candidates(SearchConfig(60, 3, PRUNED, 10**6))
    cpus = os.cpu_count() or 1
    assert all(n <= cpus for n in requested)
    assert requested or cpus == 1
    assert records == enumerate_candidates(SearchConfig(60, 3))


def test_classify_range_to_degree_100_is_pinned(monkeypatch):
    # the SHA-256 of the JSON pins every record's bytes; 1,321 counting
    # checks give the 1,043 records
    calls = _counted_checks(monkeypatch)
    records = classify_range(100)
    assert len(calls) == 1_321
    assert len(records) == 1_043
    assert Counter(r.existence for r in records) == {
        "candidate": 52,
        "proved-reduction": 574,
        "proved-family": 385,
        "proved-lemma212": 26,
        "proved-base": 6,
    }
    text = OutputDocument(tuple(records), {}).to_json()
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "523b3758bbc37765c117e165e83c354d04170ba8399d1b128399ccb3091d01d3"
    )
