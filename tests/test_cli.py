import hashlib
import json
import re
import time

import pytest

from cuspidal.cli import main
from cuspidal.enumerate import classify_range
from cuspidal.records import record_to_json_dict


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, "enumerate", "--degree", "12", "--pairs", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["metadata"]["mode"] == "pruned"
    assert [r["newton_pairs"] for r in payload["records"]] == [[[2, 3], [2, 5], [2, 3]]]


def test_enumerate_deterministic_across_jobs(capsys):
    _, out1, _ = run(capsys, "enumerate", "--degree", "24", "--pairs", "3", "--jobs", "1")
    _, out2, _ = run(capsys, "enumerate", "--degree", "24", "--pairs", "3", "--jobs", "4")
    records1 = json.loads(out1)["records"]
    records2 = json.loads(out2)["records"]
    assert records1 == records2


def test_enumerate_beyond_bound_is_provably_empty(capsys):
    code, out, _ = run(capsys, "enumerate", "--degree", "7", "--pairs", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["records"] == []
    assert "provably empty" in payload["metadata"]["note"]


def test_enumerate_five_pairs_rejected(capsys):
    code, _, err = run(capsys, "enumerate", "--degree", "30", "--pairs", "5")
    assert code == 2
    assert "exceeds the bound" in err


def test_enumerate_classify_flags_frontier_degrees(capsys):
    # the same records as classify_range, frontier flags included: at d = 33
    # one of them is the unproved candidate (8,33),(2,17)
    code, out, _ = run(capsys, "enumerate", "--degree", "33", "--pairs", "2", "--classify")
    assert code == 0
    want = [r for r in classify_range(33) if r.degree == 33 and len(r.newton) == 2]
    records = json.loads(out)["records"]
    assert records == [record_to_json_dict(r) for r in want]
    assert len(want) == 3 and all("frontier" in r.flags for r in want)
    assert [[8, 33], [2, 17]] in [r["newton_pairs"] for r in records]


def test_invariants_orevkov(capsys):
    code, out, _ = run(capsys, "invariants", "--pairs", "(3,22)", "--degree", "8")
    assert code == 0
    payload = json.loads(out)
    record = payload["records"][0]
    assert record["lct"] == {"num": 25, "den": 66}
    assert record["self_intersection"] == -2
    assert record["family"]["kind"] == "orevkov"
    assert payload["metadata"]["bl_check"]["passed"] is True


def test_invariants_counting_failure(capsys):
    code, out, _ = run(capsys, "invariants", "--pairs", "(3,7)", "--degree", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["metadata"]["bl_check"] == {"passed": False, "first_failing_j": 1}
    assert payload["records"][0]["existence"] == "candidate"


def test_invariants_cubic(capsys):
    code, out, _ = run(capsys, "invariants", "--pairs", "(2,3)", "--degree", "3")
    payload = json.loads(out)
    assert payload["records"][0]["delta"] == 1
    assert payload["records"][0]["multiplicity_sequence"] == "2"
    assert payload["metadata"]["bl_check"]["passed"] is True


def test_invariants_delta_genus_mismatch(capsys):
    code, out, _ = run(capsys, "invariants", "--pairs", "(2,3)", "--degree", "4")
    assert code == 0
    payload = json.loads(out)
    record = payload["records"][0]
    assert record["flags"] == ["delta-genus-mismatch"]
    assert record["delta"] == 1
    assert record["semigroup_generators"] == [2, 3]
    assert record["lct"] == {"num": 5, "den": 6}
    assert record["self_intersection"] == 6
    assert record["existence"] == "candidate"
    assert payload["metadata"]["delta_matches_genus"] is False


def test_invariants_invalid_pairs(capsys):
    code, _, err = run(capsys, "invariants", "--pairs", "(4,6)", "--degree", "8")
    assert code == 2
    assert "gcd" in err


def test_reproduce_exit_codes(capsys):
    code, out, _ = run(capsys, "reproduce", "--table", "fourpairs")
    assert code == 0
    assert "1/1 rows match" in out
    code, _, err = run(capsys, "reproduce", "--table", "nonsense")
    assert code == 2


def test_reproduce_all_with_workers(capsys):
    code, out, _ = run(capsys, "reproduce", "--table", "all", "--jobs", "2")
    assert code == 0
    assert "128/128 rows match" in out


def test_reproduce_mismatch_exits_one(capsys, monkeypatch):
    import cuspidal.cli as cli
    from cuspidal.tables import ReproduceReport

    def fake(identifier, worker_count=1):
        return ReproduceReport(identifier, matched=21, total=22, missing=["d=12 ..."])

    monkeypatch.setattr(cli, "reproduce", fake)
    code, out, _ = run(capsys, "reproduce", "--table", "threepairs")
    assert code == 1
    assert "missing" in out


def test_family_command(capsys):
    code, out, _ = run(capsys, "family", "tono-ib", "--a", "3", "--s", "2")
    assert code == 0
    record = json.loads(out)["records"][0]
    assert record["degree"] == 19
    code, _, err = run(capsys, "family", "tono-ib", "--a", "3")
    assert code == 2
    assert err == "error: tono-ib needs --a and --s\n"
    code, _, err = run(capsys, "family", "kashiwara-iiplus-sp", "--lambdas", "1")
    assert code == 2
    assert err == "error: kashiwara-iiplus-sp needs --l\n"
    code, _, err = run(capsys, "family", "orevkov-star")
    assert code == 2
    assert err == "error: orevkov-star needs --k\n"
    code, _, err = run(capsys, "family", "ams")
    assert code == 2
    assert err == "error: ams needs --factors\n"
    code, _, err = run(capsys, "family", "klein", "--k", "1")
    assert code == 2
    assert err.startswith("error: unknown family kind 'klein'; choose from ams, ")
    code, _, err = run(capsys, "family", "ams", "--factors", "3,1")
    assert code == 2
    code, _, err = run(capsys, "family", "kashiwara-iiminus-ge", "--l", "0", "--lambdas", "1")
    assert code == 2
    assert err == (
        "error: kashiwara-iiminus-ge(l=0, lambdas=(1,)): "
        "first pair: q must exceed p, got (5, 1)\n"
    )


# one member of every family kind and the options that select it
FAMILY_MEMBERS = (
    (("ams", "--factors", "3,2,2"), ("ams", (3, 2, 2))),
    (("kashiwara-ii-ge", "--l", "1"), ("kashiwara-ii-ge", (1,))),
    (("kashiwara-ii-sp", "--l", "2"), ("kashiwara-ii-sp", (2,))),
    (("kashiwara-iiplus-ge", "--l", "0", "--lambdas", "1"), ("kashiwara-iiplus-ge", (0, 1))),
    (("kashiwara-iiplus-sp", "--l", "0", "--lambdas", "1,1"), ("kashiwara-iiplus-sp", (0, 1, 1))),
    (("kashiwara-iiminus-ge", "--l", "0", "--lambdas", "1"), ("kashiwara-iiminus-ge", (0, 1))),
    (("kashiwara-iiminus-sp", "--l", "1", "--lambdas", "0"), ("kashiwara-iiminus-sp", (1, 0))),
    (("tono-ia", "--a", "4"), ("tono-ia", (4,))),
    (("tono-ib", "--a", "3", "--s", "2"), ("tono-ib", (3, 2))),
    (("tono-iia", "--n", "2"), ("tono-iia", (2,))),
    (("tono-iib", "--n", "2", "--s", "3"), ("tono-iib", (2, 3))),
    (("orevkov", "--k", "2"), ("orevkov", (2,))),
    (("orevkov-star", "--k", "1"), ("orevkov-star", (1,))),
)


def test_family_command_matches_family_curve(capsys):
    from cuspidal.families import ALL_KINDS, FamilyParameterError, family_curve
    from cuspidal.records import FamilySpec, record_to_json_dict

    assert [spec[0] for _, spec in FAMILY_MEMBERS] == list(ALL_KINDS)
    for argv, (kind, params) in FAMILY_MEMBERS:
        code, out, err = run(capsys, "family", *argv)
        try:
            record = family_curve(FamilySpec(kind, params))
        except FamilyParameterError as exc:
            # the minus types never give genuine cusp data
            assert (code, out, err) == (2, "", f"error: {exc}\n"), argv
            continue
        assert code == 0, argv
        payload = json.loads(out)
        assert payload["records"] == [record_to_json_dict(record)], argv
        assert payload["metadata"]["kind"] == kind


def test_family_past_the_fibonacci_bound_exits_2_at_once(capsys):
    # each of these walked ~10^4 to 10^6 Fibonacci numbers before failing
    for argv in (
        ("kashiwara-ii-ge", "--l", "20000"),
        ("orevkov", "--k", "100000"),
        ("kashiwara-ii-sp", "--l", "1000000"),
    ):
        start = time.monotonic()
        code, out, err = run(capsys, "family", *argv)
        assert time.monotonic() - start < 1, argv
        assert (code, out) == (2, ""), argv
        assert "past the bound 10292" in err, argv


def test_large_family_members_print_the_same_bytes(capsys):
    # SHA-256 of the JSON output, elapsed time zeroed: members close to the
    # Fibonacci bound print exactly what they printed before it existed
    pins = {
        ("kashiwara-ii-ge", "--l", "2500"): "8815cc6f893ade61ac5372b0c1b7319b645141ffaccc2e1e33c3520cf3b23c7a",
        ("kashiwara-ii-sp", "--l", "5000"): "a7e2923ad8576a922a0cd9bc8f6e4336ffda03e095aa5615c93dff5b9040a2f1",
        ("orevkov-star", "--k", "2570"): "72d57d1e556cf2a52e18ba87cd23b10f390cb433996141a76fda952f0b0148cf",
    }
    for argv, digest in pins.items():
        code, out, _ = run(capsys, "family", *argv)
        assert code == 0, argv
        out = re.sub(r'"elapsed_seconds": [0-9.e-]+', '"elapsed_seconds": 0', out)
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_reduce_command(capsys):
    code, out, _ = run(capsys, "reduce", "--degree", "24", "--mult", "16,8_4,4_3,2_3")
    assert code == 0
    assert "proved-reduction" in out
    assert "d=8" in out and "d=4" in out
    code, out, _ = run(
        capsys, "reduce", "--degree", "24", "--mult", "16,8x4,4x3,2x3", "--format", "json"
    )
    assert json.loads(out)["status"] == "proved-reduction"


def test_reduce_rejects_degrees_below_one(capsys):
    # like every other subcommand, with exit 2 and the genus_target wording
    for degree in ("0", "-3"):
        code, out, err = run(capsys, "reduce", "--degree", degree, "--mult", "2")
        assert code == 2 and out == ""
        assert err == f"error: degree must be >= 1, got {degree}\n"


def test_huge_run_counts_stay_bounded(capsys):
    # multiplicities are kept as runs end to end: a count of 10^10 would
    # need well over 100 GB if any step expanded it entry by entry
    import time

    start = time.monotonic()
    code, out, _ = run(capsys, "reduce", "--degree", "5", "--mult", "2_10000000000")
    assert code == 0
    assert out == "d=5 [2_10000000000]: candidate\n"
    code, out, _ = run(capsys, "invariants", "--pairs", "(2,10000000001)", "--degree", "3")
    assert code == 0
    record = json.loads(out)["records"][0]
    assert record["multiplicity_sequence"] == "2_5000000000"
    assert record["delta"] == 5_000_000_000
    assert time.monotonic() - start < 1.0


def test_lemma212_match_is_bounded_for_huge_degrees(capsys):
    # the grafting pattern fixes a from the runs; a search over a with
    # a^2 <= d - 1 would take ~10^8 steps at this degree
    import time

    start = time.monotonic()
    code, out, _ = run(capsys, "reduce", "--degree", "10000000000000001", "--mult", "2")
    assert code == 0
    assert out == "d=10000000000000001 [2]: candidate\n"
    assert time.monotonic() - start < 1.0


def test_counting_table_is_bounded_for_huge_degrees(capsys):
    # (2,3) fails at j = 1 on a table of 2d + 1 bits; (999999,1000000)
    # passes j <= 2 and would need ~5 * 10^11 bits for the rest, over the
    # table cap, so it exits 2 with a message instead of exhausting memory
    import time

    start = time.monotonic()
    code, out, _ = run(capsys, "invariants", "--pairs", "(2,3)", "--degree", "1000000")
    assert code == 0
    assert json.loads(out)["metadata"]["bl_check"] == {"passed": False, "first_failing_j": 1}
    code, out, err = run(
        capsys, "invariants", "--pairs", "(999999,1000000)", "--degree", "1000000"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "degree 1000000" in err and "Traceback" not in err
    assert time.monotonic() - start < 5.0


def test_factorizations_command(capsys):
    code, out, _ = run(capsys, "factorizations", "--n", "12")
    assert code == 0 and out.strip() == "8"
    # 10^8 = 2^8 5^8 must answer at once; the count depends only on the
    # prime signature, and a scan over every d < n gives it for 2^8 3^8
    code, out, _ = run(capsys, "factorizations", "--n", "100000000")
    assert code == 0 and out.strip() == "34013312"
    # a(n) is a closed form in the prime exponents: 10^24 = 2^24 5^24 and
    # 2^80 answer at once, where a sum over divisor pairs i <= sqrt(n)
    # would take ~10^12 steps; a(2^m) = 2^(m-1)
    import time

    start = time.monotonic()
    code, out, _ = run(capsys, "factorizations", "--n", str(10**24))
    assert code == 0 and out.strip() == "2304671139169299718995968"
    code, out, _ = run(capsys, "factorizations", "--n", str(2**80))
    assert code == 0 and out.strip() == str(2**79)
    assert time.monotonic() - start < 1.0


def test_factorizations_out_of_range_is_an_input_error(capsys):
    # a product of two primes near 2^30 has no factor the bounded trial
    # division finds and is composite, so no exponent signature is proved:
    # exit 2 at once rather than ~10^9 trial divisions
    import time

    start = time.monotonic()
    code, _, err = run(capsys, "factorizations", "--n", str(998244353 * 1000000007))
    assert code == 2 and "cannot factor" in err
    assert time.monotonic() - start < 1.0


def test_prime_scan_command(capsys):
    code, out, _ = run(capsys, "prime-scan", "--max", "50")
    assert code == 0
    primes = [int(line.split(":")[0]) for line in out.strip().splitlines()]
    assert primes == [5, 13, 17, 19, 37, 41]


def test_csv_format(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--degree", "12", "--pairs", "3", "--format", "csv"
    )
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.startswith("degree,newton_pairs")
    assert row.startswith('12,"(2,3),(2,5),(2,3)"')


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--degree", "12"])  # missing --pairs
    assert exc.value.code == 2


def test_jobs_defaults_from_environment(monkeypatch):
    from cuspidal.cli import build_parser

    monkeypatch.setenv("CUSPIDAL_JOBS", "3")
    args = build_parser().parse_args(["enumerate", "--degree", "12", "--pairs", "3"])
    assert args.jobs == 3
    monkeypatch.setenv("CUSPIDAL_JOBS", "junk")
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["enumerate", "--degree", "12", "--pairs", "3"])
    assert exc.value.code == 2


def test_nonpositive_jobs_is_a_usage_error(monkeypatch, capsys):
    for argv in (["--jobs", "0"], ["--jobs", "-2"], ["--jobs", "two"]):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--degree", "12", "--pairs", "3", *argv])
        assert exc.value.code == 2
        assert "positive integer" in capsys.readouterr().err
    monkeypatch.setenv("CUSPIDAL_JOBS", "0")
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "--table", "fourpairs"])
    assert exc.value.code == 2
    assert "CUSPIDAL_JOBS" in capsys.readouterr().err
    # subcommands without --jobs ignore the variable
    code, out, _ = run(capsys, "factorizations", "--n", "12")
    assert code == 0 and out.strip() == "8"
