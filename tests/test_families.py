from fractions import Fraction

import pytest

from cuspidal.families import (
    FamilyParameterError,
    _family_data,
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
    ordered_factorization_count,
    ordered_factorizations,
    orevkov_curve,
    orevkov_grid,
    prime_degree_scan,
    tono_curve,
    tono_grid,
)
from cuspidal import invariants as inv
from cuspidal.invariants import fibonacci, format_multiplicity, genus_target
from cuspidal.records import FLAG_INCONSISTENT, FamilySpec
from cuspidal.tables import one_pair_rows, two_pair_rows


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
    # two primes above the bound, a composite cofactor, or a prime past the
    # test's exact range, are refused
    for n in (p * (2**61 - 1), (2**61 - 1) ** 2, 2**89 - 1):
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


def test_closed_forms_reject_exactly_what_family_curve_rejects():
    # 96 minus specs, 84 of which once got closed forms, e.g.
    # kashiwara-iiminus-ge (0, 1) gave (3/10, 0)
    rejected = []
    for spec in kashiwara_grid(3, 2, 2):
        outcomes = []
        for function in (family_curve, invariant_closed_forms):
            try:
                function(spec)
                outcomes.append(False)
            except FamilyParameterError:
                outcomes.append(True)
        assert outcomes[0] == outcomes[1], spec
        rejected.append(outcomes[0])
    assert sum(rejected) == 109
    with pytest.raises(FamilyParameterError, match="q must exceed p"):
        invariant_closed_forms(FamilySpec("kashiwara-iiminus-ge", (0, 1)))


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


def test_attribution_is_exact_over_wider_grids():
    # the pairs fix the spec, so every unflagged member of these grids is
    # attributed to itself at any degree (no two specs here share data)
    import time

    grids = (
        ams_grid(60),
        kashiwara_grid(4, 3, 3),
        tono_grid(12, 8, 10),
        orevkov_grid(6),
    )
    attributed = never = 0
    for spec in (spec for grid in grids for spec in grid):
        if spec.kind == "tono-iib" or "minus" in spec.kind:
            try:
                degree, newton = _family_data(spec)
            except FamilyParameterError:
                continue
            assert attribute_family(degree, newton) is None, spec
            never += 1
            continue
        try:
            record = family_curve(spec)
        except FamilyParameterError:
            continue
        assert not record.flags, spec
        assert attribute_family(record.degree, record.newton) == spec
        attributed += 1
    assert (attributed, never) == (1256, 813)
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
    # Kashiwara level l needs phi_(2l+5) and Orevkov k phi_(4k+4): the last
    # ones tried are the last within the bound
    specs = list(_specs_of_pairs(10**4299, ((2, 3),)))
    levels = [s.params[0] for s in specs if s.kind == "kashiwara-ii-sp"]
    ks = [s.params[0] for s in specs if s.kind == "orevkov"]
    top = inv.FIBONACCI_INDEX_BOUND
    assert levels == list(range(5144)) and 2 * 5143 + 5 <= top < 2 * 5144 + 5
    assert ks == list(range(1, 2573)) and 4 * 2572 + 4 <= top < 4 * 2573 + 4


def test_fibonacci_loops_stop_at_the_bound(monkeypatch):
    # every loop that walks Fibonacci numbers up to a degree stops at the
    # bound instead of raising there; with phi_12 = 144 the bound cuts
    # rows, witnesses and specs that these degrees would otherwise reach
    def walks():
        return (
            set(one_pair_rows(300)),
            set(two_pair_rows(3000)),
            set(prime_degree_scan(300)),
            set(_specs_of_pairs(10**6, ((2, 3),))),
        )

    full = walks()
    monkeypatch.setattr(inv, "FIBONACCI_INDEX_BOUND", 12)
    for cut, whole in zip(walks(), full):
        assert cut < whole
