import hashlib
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from cuspidal import enumerate as search
from cuspidal import invariants as inv
from cuspidal import semigroup
from cuspidal.enumerate import (
    PARANOID,
    PRUNED,
    PairCountBoundError,
    SearchConfig,
    classify_range,
    classify_record,
    enumerate_candidates,
    max_pairs_bound,
)
from cuspidal import families
from cuspidal.families import (
    FamilyParameterError,
    ams_grid,
    kashiwara_grid,
    member_rows,
    orevkov_grid,
    prime_degree_scan,
    tono_grid,
)
from cuspidal.invariants import newton_to_puiseux
from cuspidal.records import CurveRecord, OutputDocument, curve_record, record_to_flat_dict
from cuspidal.semigroup import TableTooLargeError, _generators, bl_check_unicuspidal
from uncut_search import naive_miss, pruned_leaves, uncut_leaves


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


def test_worker_count_does_not_change_output(monkeypatch):
    _forking_at_once(monkeypatch)
    forks = _recorded_forks(monkeypatch)
    base = enumerate_candidates(SearchConfig(20, 3, PRUNED, 1))
    assert forks == []
    assert enumerate_candidates(SearchConfig(20, 3, PRUNED, 4)) == base
    assert enumerate_candidates(SearchConfig(20, 3, PARANOID, 3)) == base
    assert len(forks) == 2


def test_classify_range_worker_count_does_not_change_output(monkeypatch):
    _forking_at_once(monkeypatch)
    forks = _recorded_forks(monkeypatch)
    assert classify_range(20, 2) == classify_range(20, 1)
    assert forks


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
    # the degree of every counting check the pruned search runs from here
    # on: each leaf's, where the walk solves it, off its node's Apery set
    calls = []
    check = search._leaf_check

    def counted(degree, generators, apery, first_j):
        calls.append(degree)
        return check(degree, generators, apery, first_j)

    monkeypatch.setattr(search, "_leaf_check", counted)
    return calls


def _counted_probes(monkeypatch):
    # a one-item list: the prefix-cut probes the search runs from here on
    probes = [0]
    span_miss = search._span_miss

    def counted(*group):
        miss = span_miss(*group)

        def counted_miss(w, floor):
            probes[0] += 1
            return miss(w, floor)

        return counted_miss

    monkeypatch.setattr(search, "_span_miss", counted)
    return probes


def _every_k(degree):
    return range(1, max_pairs_bound(degree) + 1)


def test_one_walk_serves_every_pair_count(monkeypatch):
    # at d = 300 one walk over every k probes each gcd group of b once
    # (1,335 probes), and finds the records of the searches for one k each
    probes = _counted_probes(monkeypatch)
    records = search._search([(300, _every_k(300))], PRUNED, 1)
    assert probes == [1_335]
    per_k = [r for k in _every_k(300) for r in enumerate_candidates(SearchConfig(300, k))]
    assert records == sorted(per_k, key=CurveRecord.sort_key)
    assert len(records) == 176


def test_one_walk_worker_count_does_not_change_output(monkeypatch):
    _forking_at_once(monkeypatch)
    forks = _recorded_forks(monkeypatch)
    cells = [(300, _every_k(300))]
    assert search._search(cells, PRUNED, 2) == search._search(cells, PRUNED, 1)
    assert len(forks) == 1


def test_search_records_pass_the_strict_checks():
    # the search builds its records without the strict re-check, which its
    # gcd chain and delta equation make redundant
    records = search._search([(d, _every_k(d)) for d in range(3, 41)], PRUNED, 1)
    assert len(records) == 227
    for record in records:
        assert curve_record(record.degree, record.newton) == record


def test_one_paranoid_walk_serves_every_pair_count():
    # the full scan follows the same rule: one walk per degree over every k
    # gives the pruned walk's records
    cells = [(d, _every_k(d)) for d in range(3, 21)]
    assert search._search(cells, PARANOID, 1) == search._search(cells, PRUNED, 1)


def test_single_pair_count_search_is_pinned(monkeypatch):
    # the --pairs path walks for its one k: 105 probes and 27 counting
    # checks give the 27 records at d = 60, k = 3 and 4
    probes = _counted_probes(monkeypatch)
    calls = _counted_checks(monkeypatch)
    records = [r for k in (3, 4) for r in enumerate_candidates(SearchConfig(60, k))]
    assert probes == [105]
    assert len(calls) == len(records) == 27
    text = OutputDocument(tuple(records), {}).to_json()
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "0fdbc2512799fa6656fdc7601e63f2ac8f15e2b98db14b90113a42e23c218ea6"
    )


def test_large_degree_search_is_pinned(monkeypatch):
    # the suite's largest search (~0.2 s): at d = 1500, k = 2, where the
    # prefix cut checks j up to J = 748, 4,569 probes give 35 records; the
    # SHA-256 of the JSON pins every record's bytes
    probes = _counted_probes(monkeypatch)
    records = enumerate_candidates(SearchConfig(1500, 2))
    assert probes == [4_569]
    assert len(records) == 35
    text = OutputDocument(tuple(records), {}).to_json()
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "ed49fd439671536ac8f869bec877254a7ea30afc7908b7e24b82aae6bc7a43fe"
    )


def test_one_walk_probe_counts_are_pinned(monkeypatch):
    # one walk per degree, b_1 only in the first pair's window and each gcd
    # group probed from its largest b: 344 probes to d = 30, 57,278 to
    # d = 200 (under a fifth of the 316,925 of a walk that probes every b
    # of a group), and 2,368 at d = 500 over every k; the SHA-256 of the
    # JSON pins every record's bytes to d = 200, and the closed-form routes
    # agree with its records
    probes = _counted_probes(monkeypatch)
    assert len(search._search([(d, _every_k(d)) for d in range(3, 31)], PRUNED, 1)) == 138
    assert probes == [344]
    probes[0] = 0
    records = classify_range(200)
    assert probes == [57_278]
    assert len(records) == 3_319
    assert sum(r.existence == "candidate" for r in records) == 121
    text = OutputDocument(tuple(records), {}).to_json()
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "99fff56ac162f86c8e6874b40bd9227e78668e1aa01de0e93cdd40e1dfbce537"
    )
    # the two-pair records hold every family row to d = 200, and the
    # surplus is exactly the two-pair candidates: three series and three
    # sporadic rows
    two = [r for r in records if len(r.newton) == 2]
    rows = set(member_rows(2, 200))
    assert len(two) == 992 and len(rows) == 914
    assert rows <= {(r.degree, r.newton) for r in two}
    surplus = [r for r in two if (r.degree, r.newton) not in rows]
    assert [r for r in two if r.existence == "candidate"] == surplus
    expect = {
        *((4 * a + 1, ((a, 4 * a + 1), (2, 2 * a + 1))) for a in range(2, 50)),
        *((8 * b + 2, ((b, 4 * b + 1), (4, 4 * b + 1))) for b in range(2, 25)),
        *((50 * c - 12, ((4 * c - 1, 25 * c - 6), (5, 5 * c - 1))) for c in range(1, 5)),
        (17, ((2, 7), (4, 17))),
        (20, ((2, 3), (6, 31))),
        (190, ((3, 19), (25, 19))),
    }
    assert len(surplus) == len(expect) == 78
    assert {(r.degree, r.newton) for r in surplus} == expect
    _closed_forms_agree_with_the_walk(records)
    probes[0] = 0
    assert len(search._search([(500, _every_k(500))], PRUNED, 1)) == 76
    assert probes == [2_368]


def _closed_forms_agree_with_the_walk(records):
    # the closed-form routes against the records of classify_range(200),
    # with no search of their own (~0.07 s).  The prime scan lists exactly
    # the prime degrees that hold a proved record other than the one-pair
    # (p-1, p): 19 primes with 27 such records.  Every family member of
    # degree 3-200 whose data builds is a record and none is a candidate,
    # the 3- and 4-pair members above d = 30 included.  Left out, as never
    # attributed: tono-iib, whose published data is inconsistent, and the
    # Kashiwara minus kinds, whose data never builds
    by_key = {(r.degree, r.newton): r for r in records}
    nontrivial = [
        r for r in records if r.existence != "candidate" and r.newton != ((r.degree - 1, r.degree),)
    ]
    scan = [p for p, _ in prime_degree_scan(200)]
    primes = {d for d in {r.degree for r in nontrivial} if all(d % f for f in range(2, d))}
    assert sorted(primes) == scan
    assert len(scan) == 19
    assert sum(r.degree in scan for r in nontrivial) == 27
    excepted = {families.TONO_IIB, families.KASHIWARA_IIMINUS_GE, families.KASHIWARA_IIMINUS_SP}
    grids = (ams_grid(200), kashiwara_grid(6, 4, 4), tono_grid(40, 40, 40), orevkov_grid(6))
    members = Counter()
    for spec in (spec for grid in grids for spec in grid if spec.kind not in excepted):
        try:
            degree, newton = families._family_data(spec)
        except FamilyParameterError:
            continue
        if 3 <= degree <= 200:
            record = by_key.get((degree, newton))
            assert record is not None and record.existence != "candidate", (spec, degree, newton)
            members[len(newton)] += 1
    # 3,193 members, each a different record; 1,956 of them have 3 or more
    # pairs and degree above 30
    assert members == {1: 305, 2: 909, 3: 1_117, 4: 642, 5: 193, 6: 26, 7: 1}


def test_one_counting_check_per_delta_solved_candidate(monkeypatch):
    calls = _counted_checks(monkeypatch)
    leaves = uncut = 0
    for d in range(3, 31):
        for k in range(1, min(4, max_pairs_bound(d)) + 1):
            enumerate_candidates(SearchConfig(d, k))
            leaves += len(pruned_leaves(d, k))
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

    def counted(*group):
        miss = span_miss(*group)

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
            uncut = list(uncut_leaves(d, k))
            leaves += len(uncut)
            # a record is built only for a leaf whose generators pass
            chains = ((bs, _generators(*inv.characteristic_chain(a, bs))) for a, bs in uncut)
            passed = (
                search._finalize(d, bs, gens) for bs, gens in chains if bl_check_unicuspidal(d, gens)
            )
            expect = sorted(passed, key=CurveRecord.sort_key)
            assert enumerate_candidates(SearchConfig(d, k)) == expect, (d, k)
    assert leaves == 145_322
    assert any(over for _, over in cuts)
    assert any(cut and not over for cut, over in cuts)


def test_tree_counters_are_built_only_for_a_gcd_with_a_child(monkeypatch):
    # the tree makes a gcd group's probe only once the group has a child,
    # and every probe made is then called
    calls = []
    span_miss = search._span_miss

    def counted(*group):
        miss = span_miss(*group)
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
            leaves += len(pruned_leaves(d, k))
    assert leaves == 295
    assert len(calls) == 828
    assert all(calls)


def test_each_gcd_group_passes_one_run_of_b(monkeypatch):
    # to d = 90 over every k, every b of each gcd group that the tree makes
    # a probe for is probed (7,624 groups, 33,199 probes; ~0.7 s): the b
    # that pass are one run in the group's b order, it is the run that
    # _passing_run finds, and the tree enters exactly the passing children
    span_miss, passing_run, extend = search._span_miss, search._passing_run, search._pruned_extend
    node_of = {}  # probe -> (degree, gens) of the node that made it
    groups, passing, entered = [], set(), set()

    def tagged(degree, last_j, first_j, gens, apery, n):
        miss = span_miss(degree, last_j, first_j, gens, apery, n)
        node_of[miss] = degree, gens
        return miss

    def checked(miss, ws, n):
        passes = [t for t, w in enumerate(ws) if miss(w, n * w + 1) is None]
        run = passing_run(miss, ws, n)
        assert passes == list(range(len(ws))[run]), (node_of[miss], ws, passes)
        degree, gens = node_of[miss]
        passing.update((degree, gens + (ws[t],)) for t in passes)
        groups.append(len(ws))
        return run

    def recorded(degree, ks, bs, partial, P, gens, p, apery):
        if bs:
            entered.add((degree, gens))
        return extend(degree, ks, bs, partial, P, gens, p, apery)

    monkeypatch.setattr(search, "_span_miss", tagged)
    monkeypatch.setattr(search, "_passing_run", checked)
    monkeypatch.setattr(search, "_pruned_extend", recorded)
    for d in range(3, 91):
        for k in _every_k(d):
            passing.clear()
            entered.clear()
            enumerate_candidates(SearchConfig(d, k))
            assert entered == passing, (d, k)
    assert (len(groups), sum(groups)) == (7_624, 33_199)


def test_prefix_probe_equals_a_naive_count(monkeypatch):
    # every probe of the per-degree walks over every k to d = 72 returns
    # the (j, R) of a brute-force count of <gens, w>, at the search's floor
    # n w + 1 and at floor 0 (the over-count side alone), with the search's
    # J = floor((d-3)/2); each side cuts somewhere
    probes = []
    span_miss = search._span_miss

    def recorded(degree, last_j, first_j, gens, apery, n):
        miss = span_miss(degree, last_j, first_j, gens, apery, n)

        def recorded_miss(w, floor):
            cut = miss(w, floor)
            probes.append((degree, last_j, gens + (w,), n * w + 1, floor, cut, miss(w, 0)))
            return cut

        return recorded_miss

    monkeypatch.setattr(search, "_span_miss", recorded)
    for d in range(3, 73):
        search._search([(d, _every_k(d))], PRUNED, 1)
    assert len(probes) == 4_110
    for degree, last_j, gens, floor, searched_floor, cut, over in probes:
        assert (last_j, searched_floor) == ((degree - 3) // 2, floor)
        assert cut == naive_miss(degree, last_j, gens, floor), (degree, gens)
        assert over == naive_miss(degree, last_j, gens, 0), (degree, gens)
    assert any(over for *_, over in probes)
    assert any(cut and not over for *_, cut, over in probes)


def test_search_closes_no_table(monkeypatch):
    # the probes and the leaf checks count off Apery sets, so with no
    # membership table to close the search still gives the pinned records
    def no_table(*args, **kwargs):
        raise AssertionError("a membership table was closed")

    monkeypatch.setattr(semigroup, "_close", no_table)
    for records, digest in (
        (classify_range(40), "42fb8f1d9ae7f90c66c81c34d5184f396477806cea8993c5a5875f7e3823af98"),
        (
            [r for k in (3, 4) for r in enumerate_candidates(SearchConfig(60, k))],
            "0fdbc2512799fa6656fdc7601e63f2ac8f15e2b98db14b90113a42e23c218ea6",
        ),
        (
            search._search([(300, _every_k(300))], PRUNED, 1),
            "146e59f4a3bdf226c6b8aeb1dfb462b29d9fd3b5826b1b9a01a6469e52e4a5fc",
        ),
    ):
        text = OutputDocument(tuple(records), {}).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_search_past_the_cap_raises_before_any_task(monkeypatch):
    # with a 256-bit cap every leaf of d = 30 that passes j <= 2 needs
    # J*d + 1 = 391 bits, so the search raises that leaf check's error
    # before it runs a task, for every k in both modes; classify_range(30)
    # meets the cap first at d = 25, with J*d + 1 = 276 bits
    monkeypatch.setattr(semigroup, "TABLE_BIT_CAP", 256)

    def no_task(*args):
        raise AssertionError("a search task ran")

    monkeypatch.setattr(search, "_search_a", no_task)
    message = "the counting check at degree {} needs a {}-bit table, over the cap of 256 bits"
    for mode in (PRUNED, PARANOID):
        for k in range(1, max_pairs_bound(30) + 1):
            with pytest.raises(TableTooLargeError) as caught:
                enumerate_candidates(SearchConfig(30, k, mode))
            assert str(caught.value) == message.format(30, 391), (mode, k)
    with pytest.raises(TableTooLargeError) as caught:
        classify_range(30)
    assert str(caught.value) == message.format(25, 276)


def test_search_is_refused_from_degree_46343(monkeypatch):
    # with the walk stubbed out: d = 46,342 reaches _run_tasks with its
    # 30,894 tasks (J*d + 1 = 1,073,697,799 bits, under 2^30), and
    # d = 46,343 raises before it (J*d + 1 = 1,073,767,311 bits)
    reached = []

    def stub(fn, tasks, worker_count):
        reached.append(len(tasks))
        return []

    monkeypatch.setattr(search, "_run_tasks", stub)
    assert enumerate_candidates(SearchConfig(46_342, 1)) == []
    assert reached == [30_894]
    with pytest.raises(TableTooLargeError, match="degree 46343 needs a 1073767311-bit table"):
        enumerate_candidates(SearchConfig(46_343, 1))
    assert reached == [30_894]


def test_passing_run_finds_every_run():
    # synthetic probes over ws = 0..L-1, L = 0..40: every w below the run
    # over-counts and every w above it misses on the exact side, and
    # _passing_run returns the whole run, whatever its start and length, in
    # at most 3 bit_length(L) probes.  With no run, one w may do both (the
    # probe reports whichever j comes first), every smaller w over-counts
    # and every larger one misses: nothing passes.  The largest w is probed
    # first, so a group that over-counts everywhere costs one probe, and a
    # run of the top w alone two
    over, exact = (1, 4), (1, 2)  # R(d+1) = 4 > 3, and 2 < 3 with d < floor
    n = 3

    def run_of(ws, first_miss):
        floors = []

        def miss(w, floor):
            floors.append((w, floor))
            return first_miss(w)

        run = search._passing_run(miss, ws, n)
        assert all(floor == n * w + 1 for w, floor in floors)
        assert len(floors) <= 3 * len(ws).bit_length()
        return ws[run], len(floors)

    for size in range(41):
        ws = list(range(size))
        for start in range(size + 1):
            for stop in range(start, size + 1):
                found, _ = run_of(ws, lambda w: over if w < start else exact if w >= stop else None)
                assert found == ws[start:stop], (size, start, stop)
        for both in range(size):
            for reported in (over, exact):
                found, _ = run_of(
                    ws, lambda w: over if w < both else exact if w > both else reported
                )
                assert found == [], (size, both, reported)
        if size:
            assert run_of(ws, lambda w: over) == ([], 1)
        if size >= 2:
            assert run_of(ws, lambda w: over if w < size - 1 else None) == ([size - 1], 2)


def _counted_everywhere(monkeypatch, module, name: str) -> list:
    # the positional arguments of every call of module.name from here on,
    # at every place a cuspidal module binds it
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for loaded in [m for n, m in sys.modules.items() if n.split(".")[0] == "cuspidal"]:
        if getattr(loaded, name, None) is original:
            monkeypatch.setattr(loaded, name, counted)
    return calls


def test_classification_builds_each_record_once(monkeypatch):
    # each leaf the walk solves is checked once, on its gcd chain's
    # generators; only a passing leaf reaches _finalize, after the walk,
    # and builds a record, once, with the generators that were checked and
    # its classification fields, and attribution builds none
    from cuspidal import families, invariants, records

    checked = []
    check = search._leaf_check

    def recorded_check(degree, generators, apery, first_j):
        verdict = check(degree, generators, apery, first_j)
        checked.append((degree, generators, verdict.passed))
        return verdict

    monkeypatch.setattr(search, "_leaf_check", recorded_check)
    built = _counted_everywhere(monkeypatch, records, "_record")
    replaced = _counted_everywhere(monkeypatch, search, "replace")
    family_built = _counted_everywhere(monkeypatch, families, "family_curve")
    finalized = _counted_everywhere(monkeypatch, search, "_finalize")
    probes = _counted_probes(monkeypatch)
    # classification keeps each built record's generators
    generators_of = {r.sort_key(): r.semigroup_generators for r in classify_range(40)}
    assert len(generators_of) == 227
    assert probes == [838]
    assert len(checked) == 295
    passing = [(d, gens) for d, gens, ok in checked if ok]
    assert len(passing) == len(finalized) == len(built) == 227
    for (d, bs, gens), generators, args in zip(finalized, passing, built):
        key = (d, invariants.newton_from_characteristic(gens[0], bs))
        assert args[:2] == key
        assert (d, args[5]) == (d, generators_of[key]) == generators
    assert replaced == family_built == []


def test_classified_records_are_built_in_one_step(monkeypatch):
    # the search builds each passing leaf's record already classified,
    # after a walk shared with a forked helper too: the same records, field
    # for field, as classifying a record rebuilt from each leaf's Newton
    # pairs
    leaves = search._search([(d, _every_k(d)) for d in range(3, 61)], PRUNED, 1)
    expect = [classify_record(curve_record(r.degree, r.newton, strict=False)) for r in leaves]
    assert len(expect) == 447
    assert classify_range(60) == expect
    _forking_at_once(monkeypatch)
    forks = _recorded_forks(monkeypatch)
    assert classify_range(60, worker_count=2) == expect
    assert len(forks) == 1


def _recorded_forks(monkeypatch) -> list[int]:
    # the pid of every helper the runner forks, seen from the caller
    pids = []
    fork = os.fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    return pids


def _two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def _forking_at_once(monkeypatch):
    # two CPUs and no delay: a call with two workers forks before its
    # first task, whatever the host
    _two_cpus(monkeypatch)
    monkeypatch.setattr(search, "_FORK_DELAY_S", 0)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _slow_caller(helper_action):
    # a task that runs helper_action in a forked helper only; the caller
    # sleeps on each of its tasks, so a helper takes some of them
    caller = os.getpid()

    def task(n):
        if os.getpid() != caller:
            helper_action()
        time.sleep(0.05)
        return [n]

    return task


def test_worker_pool_is_capped_at_the_cpu_count(monkeypatch):
    # the caller runs tasks too, so --jobs above the CPU count forks at
    # most one helper per other CPU; with no delay the call forks before
    # its first task, however fast the host
    monkeypatch.setattr(search, "_FORK_DELAY_S", 0)
    forks = _recorded_forks(monkeypatch)
    records = enumerate_candidates(SearchConfig(60, 3, PRUNED, 10**6))
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    assert len(forks) + 1 <= cpus
    assert forks or cpus == 1
    assert records == enumerate_candidates(SearchConfig(60, 3))
    _assert_no_child_left()


def test_worker_count_respects_cpu_affinity(monkeypatch):
    # a process pinned to one CPU forks nothing, however many the host has
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    forks = _recorded_forks(monkeypatch)
    records = enumerate_candidates(SearchConfig(60, 3, PRUNED, 8))
    assert forks == []
    assert records == enumerate_candidates(SearchConfig(60, 3))


def test_runner_hands_out_each_task_once_and_merges_in_order(monkeypatch):
    # more processes than cores share the task counter: a lost update
    # would run a task twice or skip it
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    forks = _recorded_forks(monkeypatch)

    def task(n):
        time.sleep(0.001)
        return [(n, os.getpid())]

    out = search._run_tasks(task, list(range(400)), 4)
    assert len(forks) == 3
    assert [n for n, _ in out] == list(range(400))
    assert len({pid for _, pid in out}) > 1
    _assert_no_child_left()


def test_runner_forks_only_past_the_delay(monkeypatch):
    # the clock advances only by what the tasks report, so the rule is
    # pinned exactly: a short list runs in the caller and makes no pipe; a
    # list whose first two tasks pass the delay forks one helper before the
    # third, and the token starts there
    _two_cpus(monkeypatch)
    clock = [0.0]
    monkeypatch.setattr(search, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
    forks = _recorded_forks(monkeypatch)
    pipes = []
    pipe = os.pipe

    def recorded_pipe():
        pipes.append(os.getpid())
        return pipe()

    monkeypatch.setattr(os, "pipe", recorded_pipe)
    caller = os.getpid()

    def task(n, seconds):
        clock[0] += seconds
        return [(n, os.getpid())]

    delay = search._FORK_DELAY_S
    short = search._run_tasks(lambda n: task(n, delay / 20), list(range(10)), 2)
    # past the delay with one task left: nothing to share
    last = search._run_tasks(lambda n: task(n, delay), [0, 1], 2)
    assert forks == [] and pipes == []
    assert short == [(n, caller) for n in range(10)]
    assert last == [(0, caller), (1, caller)]

    def long_task(n):
        if n < 2:
            return task(n, delay * 0.6)
        time.sleep(0.01)  # the helper takes tasks meanwhile
        return [(n, os.getpid())]

    out = search._run_tasks(long_task, list(range(12)), 2)
    assert len(forks) == 1
    assert pipes == [caller, caller]  # the token and the helper's pipe
    assert [n for n, _ in out] == list(range(12))
    assert out[:2] == [(0, caller), (1, caller)]
    assert {pid for _, pid in out[2:]} == {caller, forks[0]}
    _assert_no_child_left()


def test_runner_without_fork_runs_serially(monkeypatch):
    _two_cpus(monkeypatch)
    monkeypatch.delattr(os, "fork", raising=False)
    assert search._run_tasks(lambda n: [n], [3, 1, 2], 2) == [3, 1, 2]


def test_task_error_in_a_helper_reaches_the_caller(monkeypatch):
    _two_cpus(monkeypatch)

    def fail():
        raise ValueError("a task failed in a helper")

    with pytest.raises(ValueError, match="a task failed in a helper"):
        search._run_tasks(_slow_caller(fail), list(range(20)), 2)
    _assert_no_child_left()


def test_helper_dying_without_a_result_raises(monkeypatch):
    _two_cpus(monkeypatch)
    with pytest.raises(RuntimeError, match="without a result"):
        search._run_tasks(_slow_caller(lambda: os._exit(3)), list(range(20)), 2)
    _assert_no_child_left()


def test_failing_caller_kills_its_helpers(monkeypatch):
    _two_cpus(monkeypatch)
    forks = _recorded_forks(monkeypatch)
    caller = os.getpid()

    def task(n):
        if os.getpid() == caller:
            # task 0 passes the delay; on a later one a helper takes a
            # task meanwhile
            time.sleep(0.2)
            if n:
                raise ValueError("the caller failed")
            return [n]
        time.sleep(60)
        return [n]

    start = time.monotonic()
    with pytest.raises(ValueError, match="the caller failed"):
        search._run_tasks(task, [0, 1, 2, 3], 2)
    assert time.monotonic() - start < 30
    assert len(forks) == 1
    _assert_no_child_left()


def _fresh_python(script: str) -> list[str]:
    # run script in a new interpreter that imports this package: the
    # state a first call leaves behind shows only there
    src = str(Path(search.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def test_runner_imports_no_multiprocessing():
    assert _fresh_python(
        """
import os, sys
import cuspidal
print("multiprocessing" in sys.modules)
from cuspidal import enumerate as search
from cuspidal.enumerate import PRUNED, SearchConfig, enumerate_candidates
os.sched_getaffinity = lambda pid: {0, 1}
search._FORK_DELAY_S = 0  # this search is shorter than the delay
print(len(enumerate_candidates(SearchConfig(60, 3, PRUNED, 2))))
print("multiprocessing" in sys.modules)
"""
    ) == ["False", "21", "False"]


def test_runner_leaves_no_fd_open():
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("no /proc/self/fd")
    # in a fresh interpreter, so that a process's first parallel call is
    # among the four paths checked
    lines = _fresh_python(
        """
import os, time
from cuspidal import enumerate as search

os.sched_getaffinity = lambda pid: {0, 1}
caller = os.getpid()
fork = os.fork
forks = []


def recorded_fork():
    pid = fork()
    forks.append(pid)
    return pid


os.fork = recorded_fork


def fail():
    raise ValueError("a task failed")


def run(in_helper=lambda: None, in_caller=lambda: None):
    # task 0 passes the delay in the caller, so the caller forks before
    # task 1 and every action runs after the fork
    def task(n):
        if n:
            (in_caller if os.getpid() == caller else in_helper)()
        time.sleep(0.05)
        return [n]

    before = sorted(os.listdir("/proc/self/fd"))
    forked = len(forks)
    try:
        outcome = len(search._run_tasks(task, list(range(20)), 2))
    except (ValueError, RuntimeError) as exc:
        outcome = type(exc).__name__
    if len(forks) != forked + 1:
        raise SystemExit("no helper was forked")
    print(outcome, sorted(os.listdir("/proc/self/fd")) == before)


run()
run(in_helper=fail)
run(in_helper=lambda: os._exit(3))
run(in_helper=lambda: time.sleep(60), in_caller=fail)
"""
    )
    assert lines == ["20 True", "ValueError True", "RuntimeError True", "ValueError True"]


def test_classify_range_to_degree_100_is_pinned(monkeypatch):
    # the SHA-256 of the JSON pins every record's bytes; one walk per
    # degree makes 9,880 probes, and 1,321 counting checks give the 1,043
    # records
    calls = _counted_checks(monkeypatch)
    probes = _counted_probes(monkeypatch)
    records = classify_range(100)
    assert probes == [9_880]
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
