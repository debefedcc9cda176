import json

import pytest

from cuspidal.cli import main


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
    code, _, err = run(capsys, "family", "ams", "--factors", "3,1")
    assert code == 2


def test_reduce_command(capsys):
    code, out, _ = run(capsys, "reduce", "--degree", "24", "--mult", "16,8_4,4_3,2_3")
    assert code == 0
    assert "proved-reduction" in out
    assert "d=8" in out and "d=4" in out
    code, out, _ = run(
        capsys, "reduce", "--degree", "24", "--mult", "16,8x4,4x3,2x3", "--format", "json"
    )
    assert json.loads(out)["status"] == "proved-reduction"


def test_factorizations_command(capsys):
    code, out, _ = run(capsys, "factorizations", "--n", "12")
    assert code == 0 and out.strip() == "8"


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
