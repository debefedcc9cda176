import tracemalloc
from fractions import Fraction
from functools import reduce
from itertools import accumulate, combinations, cycle
from math import gcd, inf, prod

import pytest
from hypothesis import given, settings, strategies as st

from cuspidal import enumerate as search
from cuspidal import invariants as inv
from cuspidal import semigroup
from cuspidal.enumerate import max_pairs_bound
from cuspidal.families import (
    FamilyParameterError,
    ams_grid,
    family_curve,
    kashiwara_grid,
    orevkov_grid,
    tono_grid,
)
from cuspidal.records import FLAG_INCONSISTENT
from cuspidal.semigroup import (
    BUCKET_GCD,
    BLCheckResult,
    TableTooLargeError,
    _apery,
    _close,
    _first_pair_window,
    _generators,
    _leaf_check,
    _round_robin,
    _sweep,
    _telescopic,
    bl_check_unicuspidal,
    generators_from_newton,
)
from uncut_search import naive_miss, uncut_leaves


def naive_members(generators, bound):
    """Plain combination enumerator: nested loops over multiples."""
    sums = {0}
    for g in generators:
        sums = {s + m * g for s in sums for m in range((bound - s) // g + 1)}
    return {s for s in sums if s <= bound}


def members(generators, bound):
    """The members of <generators> in [0, bound], off the table ``_close``
    builds."""
    bits = _close(generators, bound)
    return {x for x in range(bound + 1) if bits >> x & 1}


def count_below(generators, bound, k):
    """R(k), the members in [0, k), by a popcount of the masked table over
    [0, bound]."""
    return (_close(generators, bound) & ((1 << max(k, 0)) - 1)).bit_count()


def test_generator_examples():
    assert generators_from_newton(((2, 3), (2, 5), (2, 3))) == (8, 12, 34, 71)
    assert generators_from_newton(((2, 13),)) == (2, 13)
    assert generators_from_newton(((4, 5),)) == (4, 5)
    assert generators_from_newton(()) == (1,)


def _series_mul(f, g, bound):
    out = {}
    for ea, ca in f.items():
        for eb, cb in g.items():
            e = ea + eb
            if e <= bound:
                out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _valuation_semigroup(x_series, y_series, bound):
    """Leading t-orders of the subring generated by two power series, by
    Gaussian elimination on the truncated monomials x^i y^j."""
    vx = min(x_series)
    vy = min(y_series)
    monomials = []
    one = {0: Fraction(1)}
    for i in range((bound // vx) + 1):
        for j in range((bound // vy) + 1):
            if i * vx + j * vy > bound:
                break
            m = one
            for _ in range(i):
                m = _series_mul(m, x_series, bound)
            for _ in range(j):
                m = _series_mul(m, y_series, bound)
            if m:
                monomials.append(m)
    basis = {}
    for m in sorted(monomials, key=min):
        while m:
            v = min(m)
            if v not in basis:
                basis[v] = m
                break
            pivot = basis[v]
            scale = m[v] / pivot[v]
            m = {
                e: c
                for e in set(m) | set(pivot)
                if (c := m.get(e, 0) - scale * pivot.get(e, 0))
            }
    return set(basis)


def test_generators_against_vanishing_orders():
    # the branch (t^8, t^12 + t^22 + t^25) must realize exactly the
    # semigroup generated by (8, 12, 34, 71)
    frac = Fraction(1)
    x = {8: frac}
    y = {12: frac, 22: frac, 25: frac}
    bound = 130  # past the conductor 2*delta = 110
    achieved = _valuation_semigroup(x, y, bound)
    assert achieved == members((8, 12, 34, 71), bound)
    gaps = bound + 1 - len(achieved)
    assert gaps == 55  # delta of the degree-12 curve


def test_generators_against_vanishing_orders_two_pairs():
    # (t^6, t^15 + t^16) has characteristic data (6; 15, 16) and
    # generators (6, 15, 31)
    assert generators_from_newton(((2, 5), (3, 1))) == (6, 15, 31)
    frac = Fraction(1)
    achieved = _valuation_semigroup({6: frac}, {15: frac, 16: frac}, 90)
    assert achieved == members((6, 15, 31), 90)


def test_membership_examples():
    assert members((2, 3), 6) == {0, 2, 3, 4, 5, 6}
    assert members((4, 5), 3) == {0}
    assert members((3, 7), 10) == {0, 3, 6, 7, 9, 10}


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(1, 40), min_size=1, max_size=4),
    st.integers(0, 200),
)
def test_membership_matches_naive(generators, bound):
    assert members(tuple(generators), bound) == naive_members(generators, bound)


def test_counting_examples():
    assert count_below((2, 3), 20, 4) == 3
    assert count_below((2, 3), 20, 1) == 1
    assert count_below((2, 3), 20, 0) == 0
    assert count_below((2, 3), 20, -7) == 0
    # every x <= 20 but 1 is a member, and the table holds no bit past 20
    assert count_below((2, 3), 20, 21) == count_below((2, 3), 20, 99) == 20


def test_counting_monotone_steps():
    previous = 0
    for k in range(1, 122):
        value = count_below((5, 7, 11), 120, k)
        assert value - previous in (0, 1)
        previous = value


def test_single_pair_gap_count():
    # for a single pair the number of gaps equals (a-1)(b-1)/2
    for a, b in [(2, 3), (3, 4), (4, 5), (2, 13), (3, 22), (6, 43)]:
        delta = (a - 1) * (b - 1) // 2
        bound = 2 * delta + 20
        assert count_below((a, b), bound, bound + 1) == bound + 1 - delta


def test_bl_check_examples():
    assert bl_check_unicuspidal(3, (2, 3)).passed
    assert bl_check_unicuspidal(5, (2, 13)).passed
    verdict = bl_check_unicuspidal(5, (3, 7))
    assert not verdict.passed
    assert verdict.first_failing_j == 1
    assert verdict.failing_count == 2
    assert verdict.failing_expected == 3
    # a failing verdict is falsy, though the tuple of its fields is not
    failing = bl_check_unicuspidal(10, (5, 18))
    assert bool(tuple(failing)) and not failing


def test_bl_check_validation():
    with pytest.raises(ValueError, match="numerical semigroup"):
        bl_check_unicuspidal(5, (4, 6))
    with pytest.raises(ValueError, match="need at least one generator"):
        bl_check_unicuspidal(5, ())
    with pytest.raises(ValueError, match="must be positive"):
        bl_check_unicuspidal(5, (0, 1))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(1, 60), min_size=1, max_size=4).filter(
        lambda gens: reduce(gcd, gens) == 1
    ),
    st.integers(2, 30),
)
def test_bl_check_matches_naive_count(generators, degree):
    # the one-pass check against a plain count of every point, j = 0..d-2
    members = naive_members(generators, (degree - 2) * degree + 1)
    expect = (True, None, None, None)
    for j in range(degree - 1):
        count = sum(1 for m in members if m < j * degree + 1)
        wanted = (j + 1) * (j + 2) // 2
        if count != wanted:
            expect = (False, j, count, wanted)
            break
    verdict = bl_check_unicuspidal(degree, tuple(generators))
    assert verdict.degree == degree
    assert (
        verdict.passed,
        verdict.first_failing_j,
        verdict.failing_count,
        verdict.failing_expected,
    ) == expect


def test_bl_accepts_all_listed_curves():
    from cuspidal.tables import FOUR_PAIR_ROWS, THREE_PAIR_ROWS

    for degree, pairs, _ in THREE_PAIR_ROWS + FOUR_PAIR_ROWS:
        gens = generators_from_newton(pairs)
        assert bl_check_unicuspidal(degree, gens).passed, (degree, pairs)


def _count_bit_range(data: bytes, lo: int, hi: int) -> int:
    chunk = int.from_bytes(data[lo // 8 : hi // 8 + 1], "little")
    chunk >>= lo - 8 * (lo // 8)
    chunk &= (1 << (hi - lo)) - 1
    return chunk.bit_count()


def full_table_check(degree, generators):
    """The one-pass check over the full table [0, (d-2)d + 1], kept as the
    oracle of the staged kernel."""
    bound = (degree - 2) * degree + 1
    data = _close(generators, bound).to_bytes(bound // 8 + 1, "little")
    count = 0
    prev = 0
    for j in range(degree - 1):
        point = j * degree + 1
        count += _count_bit_range(data, prev, point)
        prev = point
        if count != (j + 1) * (j + 2) // 2:
            return BLCheckResult(degree, j, count)
    return BLCheckResult(degree)


# BUCKET_GCD selects the store of the stage-two sweep; 1 forces the
# per-bucket counts on every input, inf the w_1-bit int
STAGE_TWO_GCDS = (BUCKET_GCD, 1, inf)


def check_every_stage_two_count(monkeypatch, degree, gens, want, leaf=False):
    # ``leaf``: gens are a gcd chain's with delta = genus, so the search's
    # leaf check must give the same result, off the Apery set of the node
    # that would solve the leaf: from j = 1, and resumed at the first j past
    # the node's checked prefix p_(k-1) w_k whenever no j there fails
    for bucket_gcd in STAGE_TWO_GCDS:
        monkeypatch.setattr(semigroup, "BUCKET_GCD", bucket_gcd)
        assert bl_check_unicuspidal(degree, gens) == want, (degree, gens, bucket_gcd)
        if leaf:
            node, prefix = node_of(gens)
            first_j = prefix // degree + 1
            assert _leaf_check(degree, gens, node, 1) == want, (degree, gens, bucket_gcd)
            if want.passed or want.first_failing_j >= first_j:
                got = _leaf_check(degree, gens, node, first_j)
                assert got == want, (degree, gens, bucket_gcd)


def node_of(gens):
    # the sorted Apery set of w_1 in <w_1..w_k> for a gcd chain's
    # generators w_1..w_(k+1), and the prefix p_(k-1) w_k that the probe
    # entering that node checks (0 at the root, k = 1)
    ps = chain_ps(gens)
    return _apery(gens[:-1], ps[:-1]), (ps[-2] * gens[-2] if len(ps) > 1 else 0)


def chain_ps(gens):
    # the Newton p_j = P_j / P_(j+1) of a gcd chain's generators, with
    # P_j = gcd(w_1, ..., w_j)
    P = list(accumulate(gens, gcd))
    return [e // f for e, f in zip(P, P[1:])]


def delta_solved_sequences(max_degree):
    # every (degree, a, bs) the pruned search would hand to the counting
    # check without its prefix cut, k <= min(4, bound)
    for degree in range(3, max_degree + 1):
        for k in range(1, min(4, max_pairs_bound(degree)) + 1):
            for a, bs in uncut_leaves(degree, k):
                yield degree, a, bs


def delta_solved_candidates(max_degree):
    # the same candidates as (degree, generators), through the Newton pairs
    for degree, a, bs in delta_solved_sequences(max_degree):
        yield degree, generators_from_newton(inv.newton_from_characteristic(a, bs))


def test_characteristic_generators_match_newton_path_on_candidates():
    inputs = list(delta_solved_sequences(30))
    assert len(inputs) == 10_136
    for degree, a, bs in inputs:
        expect = generators_from_newton(inv.newton_from_characteristic(a, bs))
        assert _generators(*inv.characteristic_chain(a, bs)) == expect, (degree, a, bs)


@st.composite
def characteristic_sequences(draw):
    # a valid (a; b_1..b_k): the gcd chain e_j = p_(j+1) ... p_k drops by
    # p_j >= 2 at every b_j, and b_j - b_(j-1) = m_j e_j with m_j coprime to
    # p_j (m_1 > p_1, so that b_1 > a)
    ps = draw(st.lists(st.integers(2, 7), min_size=1, max_size=4))
    e = [prod(ps[j:]) for j in range(len(ps) + 1)]
    bs, prev = [], 0
    for j, p in enumerate(ps):
        m = draw(st.integers(p + 1 if j == 0 else 1, 40))
        while gcd(m, p) != 1:
            m += 1
        prev += m * e[j + 1]
        bs.append(prev)
    return e[0], tuple(bs)


@settings(max_examples=300, deadline=None)
@given(characteristic_sequences())
def test_characteristic_generators_match_newton_path(sequence):
    a, bs = sequence
    expect = generators_from_newton(inv.newton_from_characteristic(a, bs))
    assert _generators(*inv.characteristic_chain(a, bs)) == expect


def test_stage_one_cap_is_checked_before_any_table(monkeypatch):
    # stage one at d = 2^29 + 1 needs 2d + 1 = 2^30 + 3 bits
    def no_table(*args, **kwargs):
        raise AssertionError("a table was built")

    monkeypatch.setattr(semigroup, "_close", no_table)
    with pytest.raises(TableTooLargeError, match="1073741827-bit table"):
        bl_check_unicuspidal(2**29 + 1, (2, 3))


def test_leaf_check_past_the_cap_keeps_stage_one(monkeypatch):
    # a 256-bit cap at d = 30 admits stage one's 2d + 1 = 61 bits but not
    # the J*d + 1 = 391 of the rest: the general check still returns the
    # failure of a leaf that fails at j <= 2, and raises for one that
    # passes j <= 2 (the search refuses the degree before its walk; see
    # test_search_past_the_cap_raises_before_any_task)
    monkeypatch.setattr(semigroup, "TABLE_BIT_CAP", 256)
    failed = raised = 0
    for k in range(1, max_pairs_bound(30) + 1):
        for a, bs in uncut_leaves(30, k):
            gens = _generators(*inv.characteristic_chain(a, bs))
            want = full_table_check(30, gens)
            if not want.passed and want.first_failing_j <= 2:
                assert bl_check_unicuspidal(30, gens) == want
                failed += 1
                continue
            with pytest.raises(TableTooLargeError) as caught:
                bl_check_unicuspidal(30, gens)
            assert str(caught.value) == (
                "the counting check at degree 30 needs a 391-bit table, "
                "over the cap of 256 bits"
            )
            raised += 1
    assert (failed, raised) == (1_760, 113)


def test_prefix_cut_exact_side():
    # d = 10, the node a = 6, b_1 = 14: T = <6, 14> = 2 <3, 7>, p' = 6/2 = 3,
    # so every later generator is at least 3 * 14 + 1 = 43.  R_T(11) = 2
    # counts {0, 6} where the criterion asks 3, and T has no more members
    # than asked at j = 2, 3, so only the exact side cuts it
    assert naive_miss(10, 3, (6, 14), 43) == (1, 2)
    assert naive_miss(10, 3, (6, 14), 0) is None
    # and indeed the search's leaf check fails every candidate below that
    # node, off the node's Apery set {0, 14, 28} of 6 in T
    below = [_generators(*inv.characteristic_chain(a, bs)) for a, bs in uncut_leaves(10, 2)]
    below = [gens for gens in below if gens[:2] == (6, 14)]
    assert below and all(node_of(gens)[0] == [0, 14, 28] for gens in below)
    assert all(not _leaf_check(10, gens, [0, 14, 28], 1).passed for gens in below)


def test_prefix_cut_keeps_the_prefixes_of_a_record():
    # d = 12, (2,3),(2,5),(2,3): a = 8, b = (12, 22, 25), generators
    # (8, 12, 34, 71); the child fixing w_(i+1) has gcd P_(i+1) and floor
    # p_i w_(i+1) + 1
    degree, newton = 12, ((2, 3), (2, 5), (2, 3))
    a, bs = inv.characteristic_seq(newton)
    ps, Qs = inv.characteristic_chain(a, bs)
    gens = _generators(ps, Qs)
    for i in range(1, len(newton)):
        floor = ps[i - 1] * gens[i] + 1
        assert naive_miss(degree, (degree - 3) // 2, gens[: i + 1], floor) is None, i


def test_first_pair_window_equals_the_probe():
    # exhaustive to d = 200: for every a the search tries, every gcd g >= 2
    # a child of the root can have, and every b > a of gcd g within the
    # first stage's budget, b lies in the window for J iff <a, b> passes
    # the root's probe at j <= min(J, 2), for J = 0, 1, 2 and the search's
    # own J.  The first miss over j <= 2 gives the probe's verdict for
    # J = 1 too, and J = 0 probes nothing.
    cut_at = [0, 0, 0]  # b first missed at j = 1, at j = 2, and not missed
    for degree in range(3, 201):
        target = (degree - 1) * (degree - 2)
        last_j = (degree - 3) // 2
        for a in search._a_range(degree, search.PRUNED):
            top = (target + a - 2) // (a - 1)
            for g in (g for g in range(2, a) if a % g == 0):
                window = [_first_pair_window(degree, j, a, g) for j in (0, 1, 2)]
                assert window[0] == (0, inf)
                assert _first_pair_window(degree, last_j, a, g) == window[min(last_j, 2)]
                (lo1, hi1), (lo2, hi2) = window[1:]
                for b in range(a + g, top + 1, g):
                    if gcd(a, b) != g:
                        continue
                    first = naive_miss(degree, 2, (a, b), a // g * b + 1)
                    first_j = 3 if first is None else first[0]
                    in_window = (lo1 < b <= hi1, lo2 < b <= hi2)
                    assert in_window == (first_j > 1, first_j > 2), (degree, a, b)
                    cut_at[first_j - 1] += 1
    assert cut_at == [287_584, 214_965, 150_710]


def test_bl_check_matches_full_table_on_candidates(monkeypatch):
    inputs = list(delta_solved_candidates(30))
    assert len(inputs) == 10_136
    staged = 0
    for degree, gens in inputs:
        # delta = genus: telescopic with conductor (d-1)(d-2), so the
        # half range and the table-free Apery count are in play
        frobenius, _ = _telescopic(gens)
        assert frobenius + 1 == (degree - 1) * (degree - 2)
        expect = full_table_check(degree, gens)
        check_every_stage_two_count(monkeypatch, degree, gens, expect, leaf=True)
        staged += expect.passed or expect.first_failing_j > 2
    assert staged == 1_174  # candidates that reach stage two


def test_leaf_check_in_the_walk_matches_the_general_check(monkeypatch):
    # every leaf the pruned walk solves, over every k at each d <= 60,
    # failing ones included, gets the verdict of bl_check_unicuspidal on its
    # generators field for field, under each stage-two store; the check
    # runs off the walk's own node set and starts at the first j past the
    # prefix that the probe entering the node checked, past j = 1 for most
    # leaves
    checks = []

    def recorded(degree, generators, apery, first_j):
        verdict = _leaf_check(degree, generators, apery, first_j)
        checks.append((degree, generators, first_j, verdict))
        return verdict

    monkeypatch.setattr(search, "_leaf_check", recorded)
    for bucket_gcd in STAGE_TWO_GCDS:
        monkeypatch.setattr(semigroup, "BUCKET_GCD", bucket_gcd)
        checks.clear()
        for degree in range(3, 61):
            search._search([(degree, range(1, max_pairs_bound(degree) + 1))], search.PRUNED, 1)
        for degree, gens, _, verdict in checks:
            assert verdict == bl_check_unicuspidal(degree, gens), (degree, gens, bucket_gcd)
        assert len(checks) == 577
        assert sum(not verdict.passed for *_, verdict in checks) == 130
        assert sum(first_j > 1 for _, _, first_j, _ in checks) == 375


def test_bl_check_matches_full_table_on_two_generator_semigroups(monkeypatch):
    # every <a, b> is telescopic, with conductor (a-1)(b-1): most differ
    # from (d-1)(d-2), and the staged kernel must keep the full range there
    past_half = 0
    for a in range(2, 41):
        for b in range(a + 1, 41):
            if gcd(a, b) == 1:
                for degree in range(2, 21):
                    expect = full_table_check(degree, (a, b))
                    check_every_stage_two_count(monkeypatch, degree, (b, a), expect)
                    past_half += not expect.passed and expect.first_failing_j > (degree - 3) // 2
    # e.g. (5, 18) at d = 10, conductor 68 != 72, first fails at j = 6 > 3
    assert full_table_check(10, (5, 18)).first_failing_j == 6
    assert past_half > 0


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(1, 30), min_size=1, max_size=4).filter(
        lambda gens: reduce(gcd, gens) == 1
    )
)
def test_telescopic_matches_brute_force(generators):
    gens = tuple(sorted(set(generators)))
    bound = gens[0] * gens[-1]  # past the Frobenius number (Brauer)
    members = naive_members(gens, bound)
    gaps = [x for x in range(bound + 1) if x not in members]
    # the least member of each class mod w_1, the Apery set, whatever the
    # generators; each is at most F + w_1 < w_1 w_k = bound
    least = {}
    for m in sorted(members):
        least.setdefault(m % gens[0], m)
    assert len(least) == gens[0]
    assert _round_robin(gens) == sorted(least.values())
    ns = []
    for i in range(1, len(gens)):
        n = reduce(gcd, gens[:i]) // reduce(gcd, gens[: i + 1])
        if n * gens[i] not in naive_members(gens[:i], n * gens[i]):
            assert _telescopic(gens) is None
            return
        ns.append(n)
    frobenius, got_ns = _telescopic(gens)
    assert got_ns == ns
    assert frobenius == max(gaps, default=-1)
    assert 2 * len(gaps) == frobenius + 1  # symmetric
    # the box sums 0 <= a_i < n_i are the Apery set
    assert _apery(gens, got_ns) == sorted(least.values())


def family_members(max_degree):
    # (degree, generators) of every unflagged member of the criterion-7
    # grids up to max_degree
    members = []
    for grid in (ams_grid(30), kashiwara_grid(3, 2, 2), tono_grid(7, 4, 5), orevkov_grid(4)):
        for spec in grid:
            try:
                record = family_curve(spec)
            except FamilyParameterError:
                continue
            if FLAG_INCONSISTENT not in record.flags and record.degree <= max_degree:
                members.append((record.degree, record.semigroup_generators))
    return members


def test_bl_check_matches_full_table_on_family_members(monkeypatch):
    members = family_members(8_000)
    assert len(members) == 182
    # the members that reach the per-bucket count unforced
    assert sum(gcd(degree, gens[0]) >= BUCKET_GCD for degree, gens in members) == 8
    for degree, gens in members:
        expect = full_table_check(degree, gens)
        check_every_stage_two_count(monkeypatch, degree, gens, expect, leaf=True)


def test_every_benchmark_family_member_passes_on_both_stores(monkeypatch):
    # the counting checks of the family-crosscheck benchmark: every
    # unflagged member of the criterion-7 grids up to d = 20,000, past the
    # d <= 8,000 that the full-table oracle checks.  The bucket store meets its
    # largest real inputs here (7 members at d = 11,050-17,940).  Each
    # passes on the default store and on the forced w_1-bit int; ~0.1 s
    members = family_members(20_000)
    assert len(members) == 189
    assert sum(gcd(degree, gens[0]) >= BUCKET_GCD for degree, gens in members) == 15
    assert sum(degree > 8_000 for degree, _ in members) == 7
    for bucket_gcd in (BUCKET_GCD, inf):
        monkeypatch.setattr(semigroup, "BUCKET_GCD", bucket_gcd)
        for degree, gens in members:
            assert bl_check_unicuspidal(degree, gens) == BLCheckResult(degree), (degree, bucket_gcd)


def test_stage_two_count_is_selected_by_the_gcd(monkeypatch):
    # <2 * 127, w> at d = 5 * 127 and <2 * 128, w> at d = 5 * 128 pass stage
    # one (w > 2d): g = 127 keeps the w_1-bit int, g = BUCKET_GCD = 128
    # takes the buckets.  Only the bucket store's loop runs over a cycle of
    # its query steps, one lap of w_1/g = 2 of them here, so the cycles
    # made in the module show which store the sweep took.
    assert BUCKET_GCD == 128
    laps = []

    def traced_cycle(steps):
        laps.append(len(steps))
        return cycle(steps)

    monkeypatch.setattr(semigroup, "cycle", traced_cycle)
    took_buckets = []
    for degree, gens in ((635, (254, 1271)), (640, (256, 1281))):
        before = len(laps)
        assert bl_check_unicuspidal(degree, gens) == full_table_check(degree, gens)
        took_buckets.append(laps[before:])
    assert took_buckets == [[], [2]]


def apery_check(degree, w1, apery, last_j, floor=inf, first_j=1):
    # the first (j, R(j*d + 1)), j = first_j..last_j, with R, summed over
    # the Apery set of w_1 term by term, above (j+1)(j+2)/2, or other than
    # it with j*d < floor
    for j in range(first_j, last_j + 1):
        point = j * degree
        count = sum((point - r) // w1 + 1 for r in apery if r <= point)
        expected = (j + 1) * (j + 2) // 2
        if count > expected or (count != expected and point < floor):
            return j, count
    return None


@settings(max_examples=150, deadline=None)
@given(characteristic_sequences(), st.data())
def test_sweep_matches_the_apery_count_on_every_store(sequence, data):
    # d = g m with g | w_1 and gcd(m, w_1/g) = 1 puts gcd(d, w_1) = g
    # anywhere in 1..w_1; m runs past 3 w_1/g, so d lies on both sides of
    # w_1 and s wraps past w_1; the floor lies at and just past each point.
    # The sets are the Apery sets of w_1 in every prefix span <w_1..w_i>,
    # the full box included: the small ones put the stop of a sweep with a
    # floor well before last_j.  The sweep starts at any first_j
    a, bs = sequence
    ps, Qs = inv.characteristic_chain(a, bs)
    gens = _generators(ps, Qs)
    spans = [_apery(gens[: i + 1], ps[:i]) for i in range(len(ps) + 1)]
    g = data.draw(st.sampled_from([x for x in range(1, a + 1) if a % x == 0]))
    m = data.draw(st.integers(1, 3 * a // g + 3).filter(lambda m: gcd(m, a // g) == 1))
    degree = g * m
    last_j = data.draw(st.integers(0, 20))
    first_j = data.draw(st.sampled_from([1, 1, 2, max(1, last_j // 2), last_j + 1]))
    floors = [inf, 0, *(j * degree + e for j in range(1, last_j + 1) for e in (0, 1))]
    for bucket_gcd in STAGE_TWO_GCDS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(semigroup, "BUCKET_GCD", bucket_gcd)
            for apery, floor in ((apery, floor) for apery in spans for floor in floors):
                want = apery_check(degree, a, apery, last_j, floor, first_j)
                got = _sweep(degree, a, apery, last_j, floor, first_j)
                assert got == want, (apery, bucket_gcd, floor)


def test_round_robin_inputs_match_full_table_on_every_stage_two_count(monkeypatch):
    # the non-telescopic sets of test_stage_two_of_any_input_builds_no_table
    staged = [
        (degree, gens, want)
        for size in (3, 4)
        for gens in combinations(range(2, 26), size)
        if gcd(*gens) == 1 and _telescopic(gens) is None
        for degree in range(5, 21)
        if (want := full_table_check(degree, gens)).passed or want.first_failing_j > 2
    ]
    assert len(staged) == 1_126
    for degree, gens, want in staged:
        check_every_stage_two_count(monkeypatch, degree, gens, want)


def test_bucket_count_matches_full_table_on_failing_inputs(monkeypatch):
    # inputs with gcd(d, w_1) >= BUCKET_GCD that pass stage one and fail
    # later: family generators at other degrees that share w_1's large
    # factor, and with their last generator moved, which leaves some sets
    # telescopic and others not (those take the round-robin Apery set)
    members = [
        (degree, gens)
        for degree, gens in family_members(8_000)
        if gcd(degree, gens[0]) >= BUCKET_GCD
    ]
    inputs = [
        (other, gens)
        for degree, gens in members
        for other in range(gcd(degree, gens[0]), 4_000, gcd(degree, gens[0]))
        if other != degree and gcd(other, gens[0]) >= BUCKET_GCD
    ]
    inputs += [
        (degree, gens[:-1] + (w,))
        for degree, gens in members
        if degree < 2_500
        for w in range(gens[-2] + 1, gens[-2] + 4_000, 97)
        if gcd(*gens[:-1], w) == 1
    ]
    staged = [
        (degree, gens)
        for degree, gens in inputs
        if naive_miss(degree, 2, gens, inf) is None
    ]
    failing_j = set()
    telescopic = 0
    for degree, gens in staged:
        want = full_table_check(degree, gens)
        assert not want.passed
        failing_j.add(want.first_failing_j)
        telescopic += _telescopic(gens) is not None
        check_every_stage_two_count(monkeypatch, degree, gens, want)
    assert (len(staged), telescopic) == (93, 53)
    assert failing_j == {3, 4, 5, 11, 12, 13, *range(23, 29)}


def test_stage_two_of_telescopic_inputs_builds_no_table(monkeypatch):
    # stage one closes at most [0, 2d]; the Apery count of stage two must
    # not close anything, and still give the oracle's result
    inputs = list(delta_solved_candidates(30)) + family_members(8_000)
    expect = [full_table_check(degree, gens) for degree, gens in inputs]
    close = semigroup._close
    limit = 0

    def small_close(generators, bound):
        assert bound <= limit, f"a {bound + 1}-bit table was built"
        return close(generators, bound)

    monkeypatch.setattr(semigroup, "_close", small_close)
    for (degree, gens), want in zip(inputs, expect):
        assert _telescopic(gens) is not None
        limit = 2 * degree
        assert bl_check_unicuspidal(degree, gens) == want, (degree, gens)


def test_large_degree_check_runs_in_little_memory():
    # a stage-two table here has floor((d-3)/2)*d bits, ~19 MiB, and closing
    # one peaked at ~95 MiB
    tracemalloc.start()
    try:
        verdict = bl_check_unicuspidal(17_940, (6900, 46575, 186575, 12873744))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict.passed
    assert peak < 8 * 2**20, peak


def test_stage_two_of_any_input_builds_no_table(monkeypatch):
    # non-telescopic generator sets that reach stage two (every two-generator
    # set is telescopic): the round-robin Apery set must not close anything
    # past stage one's [0, 2d], and still give the oracle's result
    staged = [
        (degree, gens, want)
        for size in (3, 4)
        for gens in combinations(range(2, 26), size)
        if gcd(*gens) == 1 and _telescopic(gens) is None
        for degree in range(5, 21)
        if (want := full_table_check(degree, gens)).passed or want.first_failing_j > 2
    ]
    assert len(staged) == 1_126
    close = semigroup._close
    limit = 0

    def small_close(generators, bound):
        assert bound <= limit, f"a {bound + 1}-bit table was built"
        return close(generators, bound)

    monkeypatch.setattr(semigroup, "_close", small_close)
    for degree, gens, want in staged:
        limit = 2 * degree
        assert bl_check_unicuspidal(degree, gens) == want, (degree, gens)


def test_non_telescopic_check_runs_in_little_memory():
    # (19999, 20000, 40001) is not telescopic and fails at j = 3; a table
    # over the full range [0, (d-2)d] has ~4e8 bits, ~48 MiB
    tracemalloc.start()
    try:
        verdict = bl_check_unicuspidal(20_000, (19_999, 20_000, 40_001))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict == BLCheckResult(20_000, 3, 11)
    assert peak < 8 * 2**20, peak
