import hashlib
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

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
    # most one helper per other CPU
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
    caller = os.getpid()

    def task(n):
        if os.getpid() == caller:
            time.sleep(0.2)  # a helper takes a task meanwhile
            raise ValueError("the caller failed")
        time.sleep(60)
        return [n]

    start = time.monotonic()
    with pytest.raises(ValueError, match="the caller failed"):
        search._run_tasks(task, [1, 2, 3], 2)
    assert time.monotonic() - start < 30
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
from cuspidal.enumerate import PRUNED, SearchConfig, enumerate_candidates
os.sched_getaffinity = lambda pid: {0, 1}
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


def fail():
    raise ValueError("a task failed")


def run(in_helper=lambda: None, in_caller=lambda: None):
    def task(n):
        (in_caller if os.getpid() == caller else in_helper)()
        time.sleep(0.05)
        return [n]

    before = sorted(os.listdir("/proc/self/fd"))
    try:
        outcome = len(search._run_tasks(task, list(range(20)), 2))
    except (ValueError, RuntimeError) as exc:
        outcome = type(exc).__name__
    print(outcome, sorted(os.listdir("/proc/self/fd")) == before)


run()
run(in_helper=fail)
run(in_helper=lambda: os._exit(3))
run(in_helper=lambda: time.sleep(60), in_caller=fail)
"""
    )
    assert lines == ["20 True", "ValueError True", "RuntimeError True", "ValueError True"]


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
