"""Acceptance suite: one test per top-level criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s`` to see
the lines as they go)."""

import random
import time
from fractions import Fraction
from math import gcd

from cuspidal.enumerate import (
    PARANOID,
    PRUNED,
    SearchConfig,
    enumerate_candidates,
    max_pairs_bound,
)
from cuspidal.families import (
    FamilyParameterError,
    ams_all,
    ams_grid,
    family_curve,
    invariant_closed_forms,
    kashiwara_grid,
    ordered_factorization_count,
    orevkov_grid,
    prime_degree_scan,
    tono_grid,
)
from cuspidal.invariants import (
    delta_from_multiplicities,
    delta_from_puiseux,
    fibonacci,
    format_multiplicity,
    genus_target,
    lct,
    multiplicity_sequence,
    newton_to_puiseux,
    self_intersection,
)
from cuspidal.records import FLAG_INCONSISTENT
from cuspidal.semigroup import bl_check_unicuspidal
from cuspidal.tables import reproduce

# Above this degree the counting criterion is not run: for delta = genus it
# probes floor((d-3)/2)*d + 1 points, which passes TABLE_BIT_CAP from
# d = 46,343 on, where the check raises TableTooLargeError.  Below it the
# check builds no table over 2d + 1 bits (stage two counts off the Apery set
# of w_1), so it takes milliseconds even at d ~ 36,000.  Only the
# largest Kashiwara grid members are affected, and every invariant that
# does not need the check is still checked for them.
BL_DEGREE_CAP = 46_000


def _report(num: int, ok: bool, description: str, detail: str = "") -> None:
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_three_pair_table():
    single = reproduce("threepairs", worker_count=1)
    eight = reproduce("threepairs", worker_count=8)
    ok = (
        single.ok
        and eight.ok
        and single.matched == single.total == 22
        and single.elapsed <= 60
        and eight.elapsed <= 10
    )
    _report(
        1,
        ok,
        "three-pair table regenerates exactly",
        f"22 rows, {single.elapsed:.2f}s single / {eight.elapsed:.2f}s with 8 workers",
    )


def test_criterion_02_four_pair_table():
    start = time.monotonic()
    records = []
    for d in range(3, 31):
        if max_pairs_bound(d) >= 4:
            records.extend(enumerate_candidates(SearchConfig(d, 4)))
    elapsed = time.monotonic() - start
    ok = (
        len(records) == 1
        and records[0].degree == 24
        and records[0].newton == ((2, 3), (2, 5), (2, 3), (2, 3))
        and format_multiplicity(records[0].mult) == "16,8_4,4_3,2_3"
        and elapsed <= 60
    )
    _report(2, ok, "four-pair sweep finds exactly the degree-24 curve", f"{elapsed:.2f}s")


def test_criterion_03_reduction_table():
    report = reproduce("induct")
    ok = report.ok and report.matched == report.total == 20 and report.elapsed < 1.0
    _report(
        3,
        ok,
        "every reduction chain matches and ends in the base registry",
        f"{report.matched}/{report.total} rows, {report.elapsed:.2f}s",
    )


def test_criterion_04_invariant_spot_checks():
    quintic = newton_to_puiseux(((2, 13),))
    octic = newton_to_puiseux(((3, 22),))
    ok = (
        self_intersection(5, quintic) == -1
        and lct(octic) == Fraction(1, 3) + Fraction(1, 22)
        and self_intersection(8, octic) == -2
    )
    _report(4, ok, "spot checks: degree-5 and degree-8 curves", "exact rationals")


def test_criterion_05_oracle_equivalence():
    start = time.monotonic()
    mismatches = []
    for d in range(3, 31):
        for k in range(1, min(4, max_pairs_bound(d)) + 1):
            pruned = enumerate_candidates(SearchConfig(d, k, PRUNED))
            paranoid = enumerate_candidates(SearchConfig(d, k, PARANOID))
            if pruned != paranoid:
                mismatches.append((d, k))
    elapsed = time.monotonic() - start
    ok = not mismatches and elapsed <= 600
    _report(
        5,
        ok,
        "pruned and full-scan enumeration agree for degree <= 30, <= 4 pairs",
        f"{elapsed:.2f}s" + (f", mismatches {mismatches}" if mismatches else ""),
    )


def _random_newton(rng: random.Random):
    while True:
        k = rng.randint(1, 3)
        p = rng.randint(2, 29)
        q = rng.randint(p + 1, 30)
        if gcd(p, q) != 1:
            continue
        pairs = [(p, q)]
        for _ in range(k - 1):
            p = rng.randint(2, 30)
            q = rng.randint(1, 30)
            if gcd(p, q) != 1:
                break
            pairs.append((p, q))
        else:
            return tuple(pairs)


def test_criterion_06_delta_two_routes():
    rng = random.Random(2024)
    cases = 10_000
    for _ in range(cases):
        pairs = _random_newton(rng)
        via_exponents = delta_from_puiseux(newton_to_puiseux(pairs))
        via_blowups = delta_from_multiplicities(multiplicity_sequence(pairs))
        if via_exponents != via_blowups:
            _report(6, False, "delta agreement", f"counterexample {pairs}")
    _report(6, True, "delta via exponents equals delta via blow-ups", f"{cases} cases")


def test_criterion_07_family_cross_checks():
    start = time.monotonic()
    grids = [
        ("ams", ams_grid(30)),
        ("kashiwara", kashiwara_grid(3, 2, 2)),
        ("tono", tono_grid(7, 4, 5)),
        ("orevkov", orevkov_grid(4)),
    ]
    generated = rejected = flagged = bl_skipped = 0
    problems = []
    for label, grid in grids:
        for spec in grid:
            try:
                record = family_curve(spec)
            except FamilyParameterError:
                rejected += 1
                continue
            generated += 1
            d = record.degree
            three_over_d = Fraction(3, d)
            expected_lct, expected_si = invariant_closed_forms(spec)

            if FLAG_INCONSISTENT in record.flags:
                flagged += 1
                # published tono-iib data: both threshold values must stay
                # visible and genuinely differ; nothing else is certifiable
                if record.lct == expected_lct:
                    problems.append(f"{spec.describe()}: discrepancy not flagged")
                continue

            if record.delta != genus_target(d):
                problems.append(f"{spec.describe()}: delta != genus")
            if record.lct != expected_lct or record.self_intersection != expected_si:
                problems.append(f"{spec.describe()}: closed forms disagree")
            if record.kodaira == 2:
                if record.lct <= three_over_d:
                    problems.append(f"{spec.describe()}: lct not above 3/d")
            elif record.newton:  # the factorization (2,) is the smooth conic
                if record.lct >= three_over_d:
                    problems.append(f"{spec.describe()}: lct not below 3/d")
            if d <= BL_DEGREE_CAP:
                if not bl_check_unicuspidal(d, record.semigroup_generators).passed:
                    problems.append(f"{spec.describe()}: counting criterion fails")
            else:
                bl_skipped += 1
    elapsed = time.monotonic() - start
    ok = not problems and elapsed <= 120
    detail = (
        f"{generated} curves checked, {rejected} invalid parameter combos rejected, "
        f"{flagged} flagged inconsistent, {bl_skipped} counting checks skipped beyond "
        f"degree {BL_DEGREE_CAP}, {elapsed:.1f}s"
    )
    if problems:
        detail += "; " + "; ".join(problems[:5])
    _report(7, ok, "family grids: genus, counting criterion, closed forms, 3/d splits", detail)


def test_criterion_08_ordered_factorization_count():
    ok = ordered_factorization_count(12) == 8
    for d in range(2, 31):
        records = ams_all(d)
        if len(records) != ordered_factorization_count(d):
            ok = False
        if len({r.newton for r in records}) != len(records):
            ok = False
    _report(8, ok, "one distinct curve per ordered factorization, degree 2..30")


def test_criterion_09_pair_count_bound():
    first_five = next(d for d in range(3, 50) if max_pairs_bound(d) >= 5)
    ok = max_pairs_bound(30) == 4 and first_five == 33
    _report(9, ok, "pair-count bound: 4 at degree 30, five pairs need degree 33")


def _is_prime(n):
    return n > 1 and all(n % f for f in range(2, int(n**0.5) + 1))


def test_criterion_10_prime_scan():
    hits = prime_degree_scan(50)
    got = [p for p, _ in hits]
    # independent per-item search over the stated parameter boxes
    oracle = set()
    for j in (5, 7, 11, 13):
        if fibonacci(j) <= 50 and _is_prime(fibonacci(j)):
            oracle.add(fibonacci(j))
    for a in range(3, 8):
        for s in range(1, 7):
            if a * a * s + 1 <= 50 and _is_prime(a * a * s + 1):
                oracle.add(a * a * s + 1)
    for n in range(2, 3):
        if 8 * n * n + 4 * n + 1 <= 50 and _is_prime(8 * n * n + 4 * n + 1):
            oracle.add(8 * n * n + 4 * n + 1)
    tags = dict(hits)
    ok = (
        got == sorted(oracle) == [5, 13, 17, 19, 37, 41]
        and tags[5] == (("fibonacci", 5),)
        and tags[41] == (("tono-iia", 2),)
        and ("square-family", 3, 2) in tags[19]
    )
    _report(10, ok, "prime-degree scan to 50 with correct witnesses", f"{got}")
