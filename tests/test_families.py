import hashlib
import random
from collections import Counter
from fractions import Fraction
from itertools import takewhile

import pytest

from cuspidal.families import (
    PRIME_SCAN_LIMIT,
    FamilyParameterError,
    _closed_forms,
    _family_data,
    _miller_rabin,
    _specs_of_pairs,
    ams_all,
    ams_curve,
    ams_grid,
    attribute_family,
    bunyakovsky_condition_check,
    family_curve,
    invariant_closed_forms,
    kashiwara_curve,
    kashiwara_grid,
    member_rows,
    ordered_factorization_count,
    ordered_factorizations,
    orevkov_curve,
    orevkov_grid,
    prime_degree_scan,
    tono_curve,
    tono_grid,
)
from cuspidal import families
from cuspidal import invariants as inv
from cuspidal.invariants import fibonacci, format_multiplicity, genus_target
from cuspidal.records import FLAG_INCONSISTENT, FamilySpec


def test_ams_curve_examples():
    assert ams_curve((3, 2, 2)).newton == ((2, 3), (2, 5), (2, 3))
    assert ams_curve((3, 2, 2)).degree == 12
    assert ams_curve((12,)).newton == ((11, 12),)
    assert ams_curve((2, 3)).newton == ((3, 11),)
    with pytest.raises(FamilyParameterError):
        ams_curve((3, 1))
    with pytest.raises(FamilyParameterError):
        ams_curve(())


def test_ams_degenerate_conic():
    record = ams_curve((2,))
    assert record.degree == 2
    assert record.newton == ()
    assert record.delta == 0
    assert record.lct == 1
    assert record.self_intersection == 4
    assert record.semigroup_generators == (1,)


def test_ams_all():
    six = ams_all(6)
    assert sorted(r.newton for r in six) == [
        ((2, 3), (2, 5)),
        ((3, 11),),
        ((5, 6),),
    ]
    assert len(ams_all(12)) == 8
    assert len(ams_all(7)) == 1 and ams_all(7)[0].newton == ((6, 7),)


def test_ordered_factorizations():
    assert ordered_factorizations(6) == ((2, 3), (3, 2), (6,))
    assert ordered_factorization_count(12) == 8
    assert ordered_factorization_count(7) == 1
    assert ordered_factorization_count(8) == 4
    # the divisor-pair sum against the plain definition over proper divisors
    plain = {1: 1}
    for n in range(2, 501):
        plain[n] = sum(plain[d] for d in range(1, n) if n % d == 0)
        assert ordered_factorization_count(n) == plain[n], n


def test_ordered_factorization_count_proves_a_large_prime_cofactor():
    # a cofactor above the trial-division bound counts as one prime once
    # Miller-Rabin proves it, so only the exponent signature matters
    p = 1_000_000_007
    assert ordered_factorization_count(2**5 * p) == ordered_factorization_count(2**5 * 3)
    assert ordered_factorization_count(6 * (2**61 - 1)) == ordered_factorization_count(30)
    # the cofactor 10**18 + 9 is 1 mod 4, so proving it runs the squaring loop
    assert ordered_factorization_count(7 * (10**18 + 9)) == 3
    # a strong pseudoprime to every prime base up to 23 is found composite
    assert not _miller_rabin(3825123056546413051)
    # two primes above the bound, a composite cofactor, or a prime past the
    # test's exact range, are refused; the last composite is 399165290221 *
    # 798330580441, a strong pseudoprime to every prime base up to 37, so
    # only base 41 refuses it
    for n in (p * (2**61 - 1), (2**61 - 1) ** 2, 2**89 - 1, 318665857834031151167461):
        with pytest.raises(ValueError, match="cannot factor"):
            ordered_factorization_count(n)


def test_ams_count_matches_kalmar():
    for d in range(2, 31):
        records = ams_all(d)
        assert len(records) == ordered_factorization_count(d)
        assert len({r.newton for r in records}) == len(records)


def test_kashiwara_examples():
    assert kashiwara_curve("kashiwara-ii-sp", 1).newton == ((2, 13),)
    assert kashiwara_curve("kashiwara-ii-sp", 1).degree == 5
    assert kashiwara_curve("kashiwara-ii-ge", 0).newton == ((4, 25),)
    record = kashiwara_curve("kashiwara-iiplus-sp", 0, (1,))
    assert record.degree == 25
    assert record.newton == ((5, 31), (2, 3))
    assert record.delta == 276


def test_kashiwara_matches_one_pair_families():
    # the two one-pair types must reproduce the Fibonacci one-pair data
    for l in range(0, 5):
        ge = kashiwara_curve("kashiwara-ii-ge", l)
        j = 2 * l + 5
        assert ge.degree == fibonacci(j - 2) * fibonacci(j)
        assert ge.newton == ((fibonacci(j - 2) ** 2, fibonacci(j) ** 2),)
    for l in range(1, 6):
        sp = kashiwara_curve("kashiwara-ii-sp", l)
        j = 2 * l + 3
        assert sp.degree == fibonacci(j)
        assert sp.newton == ((fibonacci(j - 2), fibonacci(j + 2)),)


def test_kashiwara_rejections():
    with pytest.raises(FamilyParameterError, match="l >= 1"):
        kashiwara_curve("kashiwara-ii-sp", 0)
    with pytest.raises(FamilyParameterError, match="lambda"):
        kashiwara_curve("kashiwara-iiplus-sp", 0, (0,))
    # the minus types never produce genuine cusp data
    with pytest.raises(FamilyParameterError):
        kashiwara_curve("kashiwara-iiminus-sp", 1, (0,))
    with pytest.raises(FamilyParameterError):
        kashiwara_curve("kashiwara-iiminus-ge", 0, (1,))


def test_kashiwara_minus_always_rejected():
    rejected = 0
    generated = 0
    for spec in kashiwara_grid(3, 2, 2):
        if "minus" not in spec.kind:
            continue
        try:
            family_curve(spec)
            generated += 1
        except FamilyParameterError:
            rejected += 1
    assert generated == 0 and rejected > 0


def _benchmark_grids():
    return (
        *ams_grid(30),
        *kashiwara_grid(3, 2, 2),
        *tono_grid(7, 4, 5),
        *orevkov_grid(4),
    )


def _outcome(function, spec):
    try:
        return function(spec)
    except FamilyParameterError as exc:
        return str(exc)


def test_closed_forms_reject_exactly_what_family_curve_rejects():
    # 96 minus specs of kashiwara_grid(3, 2, 2), 84 of which once got
    # closed forms, e.g. kashiwara-iiminus-ge (0, 1) gave (3/10, 0); the
    # grids hold the smooth conic ams (2,) and every flagged tono-iib
    # member, which takes the lenient path
    def from_the_record(spec):
        return _closed_forms(spec, family_curve(spec).newton)

    specs = (*_benchmark_grids(), *_wide_grids())
    outcomes = [_outcome(from_the_record, spec) for spec in specs]
    assert [_outcome(invariant_closed_forms, spec) for spec in specs] == outcomes
    rejected = [isinstance(outcome, str) for outcome in outcomes]
    assert (len(specs), sum(rejected)) == (362 + 4400, 109 + 2003)
    flagged = {spec: out for spec, out in zip(specs, outcomes) if spec.kind == "tono-iib"}
    assert len(flagged) == 14 * 7
    assert not any(isinstance(outcome, str) for outcome in flagged.values())
    assert invariant_closed_forms(FamilySpec("ams", (2,))) == (1, 4)
    with pytest.raises(FamilyParameterError, match="q must exceed p"):
        invariant_closed_forms(FamilySpec("kashiwara-iiminus-ge", (0, 1)))
    # s = 1 is outside the iib domain, but the threshold's own check comes
    # first
    with pytest.raises(FamilyParameterError, match="s >= 2"):
        family_curve(FamilySpec("tono-iib", (2, 1)))
    with pytest.raises(FamilyParameterError, match="singular at s = 1"):
        invariant_closed_forms(FamilySpec("tono-iib", (2, 1)))


def test_closed_forms_build_no_record(monkeypatch):
    # the closed forms answer with the record builder gone, and reject with
    # the same message as family_curve
    specs = _benchmark_grids()
    expected = [_outcome(invariant_closed_forms, spec) for spec in specs]

    def no_record(*args, **kwargs):
        raise AssertionError("a record was built")

    monkeypatch.setattr(families, "curve_record", no_record)
    assert [_outcome(invariant_closed_forms, spec) for spec in specs] == expected
    assert sum(isinstance(outcome, str) for outcome in expected) == 109


def test_tono_examples():
    record = tono_curve("tono-ib", (3, 2))
    assert record.degree == 19
    assert record.newton == ((2, 3), (2, 7), (3, 7))
    assert tono_curve("tono-ia", (3,)).newton == ((2, 3), (3, 16))
    assert tono_curve("tono-ia", (3,)).degree == 10
    record = tono_curve("tono-ib", (3, 3))
    assert record.degree == 28
    assert format_multiplicity(record.mult) == "18,9_5,3_6"
    with pytest.raises(FamilyParameterError):
        tono_curve("tono-ia", (2,))
    with pytest.raises(FamilyParameterError):
        tono_curve("tono-ib", (3, 1))


def test_tono_iib_flagged():
    record = tono_curve("tono-iib", (2, 2))
    assert FLAG_INCONSISTENT in record.flags
    assert record.degree == 2 * 81 * 2 - 4 * 2 * 5
    # the published pair data does not satisfy the rationality equation
    assert record.delta != genus_target(record.degree)
    table_lct, table_si = invariant_closed_forms(FamilySpec("tono-iib", (2, 2)))
    assert record.lct != table_lct  # both values visible, discrepancy kept
    assert table_si == -2
    with pytest.raises(FamilyParameterError, match="singular"):
        invariant_closed_forms(FamilySpec("tono-iib", (2, 1)))


def test_orevkov_examples():
    assert orevkov_curve(1).degree == 8
    assert orevkov_curve(1).newton == ((3, 22),)
    assert orevkov_curve(2).degree == 55
    assert orevkov_curve(2).newton == ((7, 48), (3, 1))
    assert orevkov_curve(1, starred=True).degree == 16
    assert orevkov_curve(1, starred=True).newton == ((6, 43),)
    assert orevkov_curve(2, starred=True).degree == 110
    with pytest.raises(FamilyParameterError):
        orevkov_curve(0)


def test_closed_forms():
    lct, si = invariant_closed_forms(FamilySpec("kashiwara-ii-sp", (1,)))
    assert (lct, si) == (Fraction(15, 26), -1)
    lct, si = invariant_closed_forms(FamilySpec("tono-ia", (3,)))
    assert si == -2
    lct, si = invariant_closed_forms(FamilySpec("orevkov", (1,)))
    assert (lct, si) == (Fraction(25, 66), -2)
    lct, si = invariant_closed_forms(FamilySpec("ams", (3, 2, 2)))
    assert (lct, si) == (Fraction(5, 24), 2)
    # first-factor-2 branch uses the actual leading Puiseux exponent
    record = ams_curve((2, 3))
    lct, si = invariant_closed_forms(FamilySpec("ams", (2, 3)))
    assert (record.lct, record.self_intersection) == (lct, si) == (Fraction(14, 33), 3)


def test_closed_forms_reject_specs_outside_the_domain():
    # the first four once divided by zero, the last two returned a value
    specs = (
        FamilySpec("tono-ia", (1,)),
        FamilySpec("tono-ib", (1, 1)),
        FamilySpec("tono-iia", (0,)),
        FamilySpec("orevkov", (0,)),
        FamilySpec("tono-ia", (2,)),
        FamilySpec("kashiwara-ii-sp", (0,)),
    )
    for spec in specs:
        with pytest.raises(FamilyParameterError):
            family_curve(spec)
        with pytest.raises(FamilyParameterError):
            invariant_closed_forms(spec)


def test_attribution_examples():
    assert attribute_family(12, ((2, 3), (2, 5), (2, 3))) == FamilySpec("ams", (3, 2, 2))
    assert attribute_family(8, ((3, 22),)) == FamilySpec("orevkov", (1,))
    assert attribute_family(19, ((2, 3), (2, 7), (3, 7))) == FamilySpec("tono-ib", (3, 2))
    assert attribute_family(25, ((5, 31), (2, 3))) == FamilySpec(
        "kashiwara-iiplus-sp", (0, 1)
    )
    assert attribute_family(9, ((2, 9), (2, 5))) is None


def test_attribution_round_trip_over_families():
    specs = [
        FamilySpec("ams", (4, 3, 2)),
        FamilySpec("kashiwara-ii-ge", (1,)),
        FamilySpec("kashiwara-ii-sp", (2,)),
        FamilySpec("tono-ia", (4,)),
        FamilySpec("tono-ib", (4, 3)),
        FamilySpec("tono-iia", (2,)),
        FamilySpec("orevkov", (2,)),
        FamilySpec("orevkov-star", (2,)),
    ]
    for spec in specs:
        record = family_curve(spec)
        assert attribute_family(record.degree, record.newton) == spec


def test_attribution_over_family_grids():
    # every genuine grid member of moderate degree is attributed to a spec
    # that generates the same curve (possibly another kind with equal data);
    # the flagged tono-iib data is never attributed
    grids = (
        ams_grid(30),
        kashiwara_grid(3, 2, 2),
        tono_grid(7, 4, 5),
        orevkov_grid(4),
    )
    attributed = flagged = 0
    for spec in (spec for grid in grids for spec in grid):
        try:
            record = family_curve(spec)
        except FamilyParameterError:
            continue
        if record.degree > 2000:
            continue
        found = attribute_family(record.degree, record.newton)
        if record.flags:
            assert spec.kind == "tono-iib"
            assert found is None, spec
            flagged += 1
            continue
        assert found is not None, spec
        match = family_curve(found)
        assert (match.degree, match.newton) == (record.degree, record.newton), spec
        attributed += 1
    assert (flagged, attributed) == (9, 173)


def _wide_grids():
    return (
        *ams_grid(60),
        *kashiwara_grid(5, 3, 4),
        *tono_grid(20, 8, 15),
        *orevkov_grid(8),
    )


def _never_attributed(kind: str) -> bool:
    # the kinds that attribution does not try
    return kind == "tono-iib" or "minus" in kind


def test_attribution_is_exact_over_wider_grids():
    # the pairs fix the spec, so every member of a kind that attribution
    # tries is attributed to itself at any degree (no two specs here share
    # data)
    import time

    attributed = never = 0
    for spec in _wide_grids():
        try:
            degree, newton = _family_data(spec)
        except FamilyParameterError:
            continue
        if _never_attributed(spec.kind):
            assert attribute_family(degree, newton) is None, spec
            never += 1
        else:
            assert attribute_family(degree, newton) == spec
            attributed += 1
    assert (attributed, never) == (2299, 1816)
    assert attribute_family(2, ()) == FamilySpec("ams", (2,))
    assert attribute_family(5, ()) is None
    factors = (3,) + (2,) * 17
    record = ams_curve(factors)
    assert record.degree == 393_216
    start = time.monotonic()
    assert attribute_family(record.degree, record.newton) == FamilySpec("ams", factors)
    assert time.monotonic() - start < 1.0
    with pytest.raises(ValueError):
        attribute_family(0, ((2, 3),))


def _every_level_specs(degree, newton):
    # the candidates of attribution before each kind's level was read off
    # its data: every Kashiwara level l with phi_(2l+3) <= degree and every
    # Orevkov k with phi_(4k+2) <= degree, each within the Fibonacci bound
    if not newton:
        yield FamilySpec("ams", (2,))
        return
    ps = tuple(p for p, _ in newton)
    p1, q1 = newton[0]
    yield FamilySpec("ams", (q1, *ps[1:]) if q1 == p1 + 1 else (2, *ps))
    top = inv.FIBONACCI_INDEX_BOUND
    levels = tuple(takewhile(lambda l: fibonacci(2 * l + 3) <= degree, range((top - 3) // 2)))
    for kind in ("kashiwara-ii-ge", "kashiwara-ii-sp"):
        yield from (FamilySpec(kind, (l,)) for l in levels)
    for kind in ("kashiwara-iiplus-ge", "kashiwara-iiplus-sp"):
        for l in levels:
            square = fibonacci(2 * l + 3) ** 2
            yield FamilySpec(kind, (l, *(n // square for n in ps[:-1])))
    yield FamilySpec("tono-ia", (q1,))
    if len(ps) > 1:
        yield FamilySpec("tono-ib", (q1, ps[1]))
    yield FamilySpec("tono-iia", (p1,))
    ks = tuple(takewhile(lambda k: fibonacci(4 * k + 2) <= degree, range(1, top // 4)))
    for kind in ("orevkov", "orevkov-star"):
        yield from (FamilySpec(kind, (k,)) for k in ks)


def _reference_attribution(degree, newton):
    # attribution that tries every level of every kind, builds the family
    # record of each matching spec and keeps it only when the record
    # validates and carries no flag
    for spec in _every_level_specs(degree, newton):
        try:
            if _family_data(spec) == (degree, newton) and not family_curve(spec).flags:
                return spec
        except FamilyParameterError:
            continue
    return None


def _random_data(rng):
    # pair sequences whose entries and degree are often a Fibonacci number,
    # its square or its double, so that levels of every kind are named
    def value():
        F = fibonacci(rng.randint(3, 25))
        return rng.choice((rng.randint(2, 500), F, F * F))

    newton = tuple((value(), value()) for _ in range(rng.randint(1, 3)))
    return rng.choice((value(), 2 * value())), newton


def test_attribution_by_data_agrees_with_the_record_building_reference():
    # equal data are enough because every spec of a kind that attribution
    # tries, once its data are accepted, builds a strict record (family_curve
    # raises otherwise) with no flag: 2,299 such specs in these grids; one
    # level per kind is enough because each kind's data name their level
    from cuspidal.enumerate import classify_range

    inputs = [(r.degree, r.newton) for r in classify_range(60)]
    tried = 0
    for spec in _wide_grids():
        try:
            data = _family_data(spec)
        except FamilyParameterError:
            continue
        inputs.append(data)
        if not _never_attributed(spec.kind):
            record = family_curve(spec)
            assert record.existence == "proved-family" and not record.flags, spec
            tried += 1
    assert tried == 2299
    assert len(inputs) == 447 + 2299 + 1816
    for spec in (*kashiwara_grid(40, 1, 2), *orevkov_grid(60)):
        try:
            inputs.append(_family_data(spec))
        except FamilyParameterError:
            continue
    rng = random.Random(2311)
    inputs += [_random_data(rng) for _ in range(2000)]
    assert len(inputs) == 447 + 2299 + 1816 + 689 + 2000
    found = [attribute_family(*data) for data in inputs]
    assert found == [_reference_attribution(*data) for data in inputs]
    assert sum(spec is not None for spec in found[:447]) == 420
    assert sum(spec is not None for spec in found) == 420 + 2299 + 445


def test_attribution_makes_at_most_one_data_call_per_kind(monkeypatch):
    from cuspidal.enumerate import classify_range

    records = [(r.degree, r.newton) for r in classify_range(40)]
    grid = []
    for spec in _wide_grids():
        try:
            grid.append(_family_data(spec))
        except FamilyParameterError:
            continue
    large = _family_data(FamilySpec("orevkov", (2000,)))
    calls = Counter()

    def counted(spec):
        calls[spec.kind] += 1
        return _family_data(spec)

    monkeypatch.setattr(families, "_family_data", counted)
    totals = []
    for inputs in (records, grid, [large]):
        total = 0
        for data in inputs:
            calls.clear()
            attribute_family(*data)
            assert max(calls.values()) == 1, data
            total += sum(calls.values())
        totals.append(total)
    # the every-level scan made 679 calls on the records and 18,004 on the
    # large Orevkov member
    assert totals == [336, 14_683, 5]


def test_wrong_parameter_count_is_a_family_error():
    specs = (
        FamilySpec("kashiwara-ii-ge", ()),
        FamilySpec("orevkov", ()),
        FamilySpec("tono-ia", (3, 1)),
        FamilySpec("tono-ib", (3,)),
    )
    for spec in specs:
        for function in (family_curve, invariant_closed_forms):
            with pytest.raises(FamilyParameterError, match=spec.kind):
                function(spec)


def test_prime_degree_scan():
    hits = prime_degree_scan(50)
    assert [p for p, _ in hits] == [5, 13, 17, 19, 37, 41]
    tags = dict(hits)
    assert tags[5] == (("fibonacci", 5),)
    assert tags[13] == (("fibonacci", 7),)
    assert tags[17] == (("square-family", 4, 1),)
    assert tags[19] == (("square-family", 3, 2),)
    assert set(tags[37]) == {("square-family", 3, 4), ("square-family", 6, 1)}
    assert tags[41] == (("tono-iia", 2),)
    assert prime_degree_scan(4) == []
    assert [p for p, _ in prime_degree_scan(13)] == [5, 13]


def test_prime_degree_scan_is_pinned_and_bounded():
    # one sieve serves every candidate; the output to 10^5 is the one that
    # trial division gave, and a limit past the sieve's bound is refused
    hits = prime_degree_scan(10**5)
    assert len(hits) == 3_333
    assert (
        hashlib.sha256(repr(hits).encode()).hexdigest()
        == "d9646844fc1f9644bf219bfcf68c5ae10381208e4442f3bbe6bceca46122b334"
    )
    assert PRIME_SCAN_LIMIT == 10**7
    with pytest.raises(ValueError, match="prime-scan bound"):
        prime_degree_scan(PRIME_SCAN_LIMIT + 1)


def test_bunyakovsky_evidence():
    values, g = bunyakovsky_condition_check("sn2+1", 2)
    assert values == (3, 9, 19) and g == 1
    values, g = bunyakovsky_condition_check("sn2+1", 5)
    assert values == (6, 21, 46) and g == 1
    values, g = bunyakovsky_condition_check("8n2+4n+1")
    assert values == (13, 41) and g == 1
    for s in range(1, 60):
        _, g = bunyakovsky_condition_check("sn2+1", s)
        assert g == 1


def test_attribution_tries_every_level_within_the_fibonacci_bound():
    # Kashiwara level l needs phi_(2l+5) and Orevkov k phi_(4k+4): the top
    # members within the bound are attributed to themselves, and data that
    # name a level past it are attributed to None without raising
    top = inv.FIBONACCI_INDEX_BOUND
    assert 2 * 5143 + 5 <= top < 2 * 5144 + 5 and 4 * 2572 + 4 <= top < 4 * 2573 + 4
    for spec in (FamilySpec("kashiwara-ii-sp", (5143,)), FamilySpec("orevkov", (2572,))):
        assert attribute_family(*_family_data(spec)) == spec
    phi = [0, 1]
    while len(phi) <= top + 4:
        phi.append(phi[-1] + phi[-2])
    l, k = 5144, 2573
    past = (
        (phi[2 * l + 3], ((phi[2 * l + 1], phi[2 * l + 5]),)),  # kashiwara-ii-sp
        (phi[2 * l + 3] * phi[2 * l + 5], ((phi[2 * l + 3] ** 2, phi[2 * l + 5] ** 2),)),  # ii-ge
        (phi[4 * k + 2], ((phi[4 * k] // 3, phi[4 * k + 4] // 3), (3, 1))),  # orevkov
        (2 * phi[4 * k + 2], ((phi[4 * k] // 3, phi[4 * k + 4] // 3), (6, 1))),  # orevkov-star
    )
    for degree, newton in past:
        assert attribute_family(degree, newton) is None


def test_fibonacci_loops_stop_at_the_bound(monkeypatch):
    # every loop that walks Fibonacci numbers up to a degree stops at the
    # bound instead of raising there; with phi_12 = 144 the bound cuts
    # rows, witnesses and specs that these degrees would otherwise reach
    def walks():
        return (
            set(member_rows(1, 300)),
            set(member_rows(2, 3000)),
            set(prime_degree_scan(300)),
            # kashiwara-ii-sp at l = 4, whose phi_13 the bound 12 cuts
            set(_specs_of_pairs(89, ((34, 233),))),
        )

    full = walks()
    monkeypatch.setattr(inv, "FIBONACCI_INDEX_BOUND", 12)
    for cut, whole in zip(walks(), full):
        assert cut < whole


def test_member_rows_are_the_closed_form_lists():
    # the rows of the closed-form one- and two-pair lists that the family
    # walk replaced, by count and by the SHA-256 of their repr
    pinned = (
        (1, 30, 47, "b2bf1ec7abdfed4ecda77d7faa144c5cce04588362eccd81ac810b88cae747ae"),
        (2, 30, 58, "d1d76fee142a00cf9ef024705a63c4bc58e0ab504758152f5f917729aa756200"),
        (1, 300, 456, "eea1e3df3cc259b451d3e009851f10126921baeddbd583d6be0c48350fe8ccab"),
        (2, 300, 1_544, "ab377e62c2072de7980b91bc3aa454931cc5cbf29fc1c1fcab32716f625b1cda"),
        (2, 3000, 25_524, "186b2794d79ff0090b939cf0ca24ce00ffa3e1c92c32304170b304002223bf60"),
    )
    for pair_count, max_degree, count, digest in pinned:
        rows = member_rows(pair_count, max_degree)
        assert len(rows) == count
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest
