"""Command-line interface.

Subcommands: enumerate, invariants, reproduce, family, reduce,
factorizations, prime-scan.  Record output is JSON by default (CSV and
Markdown carry the same data); everything is UTF-8 with LF line endings.

Exit codes: 0 on success (for ``reproduce``: every row matches), 1 when a
reproduced table differs from the embedded one, 2 for usage and domain
errors.  The environment variable ``CUSPIDAL_JOBS`` sets the default
worker count; a worker count below 1, from either source, is a usage error.

``main(argv)`` may be called repeatedly in one process.  It builds one
parser on its first call and reuses it for every later call and every
subcommand; each call reads ``CUSPIDAL_JOBS`` afresh, so a change to it
between calls takes effect as it would in a new process.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace

from . import __version__
from . import invariants as inv
from .enumerate import (
    PARANOID,
    PRUNED,
    PairCountBoundError,
    SearchConfig,
    classify_record,
    enumerate_candidates,
)
from .existence import resolve_existence
from .families import (
    ALL_KINDS,
    AMS,
    KASHIWARA_KINDS,
    PARAM_NAMES,
    family_curve,
    ordered_factorization_count,
    prime_degree_scan,
)
from .records import FamilySpec, OutputDocument, curve_record
from .semigroup import bl_check_unicuspidal
from .tables import TABLE_IDS, reproduce


def _jobs(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"worker count (--jobs or CUSPIDAL_JOBS) must be a positive integer, got {text!r}"
        )
    return value


def _metadata(command: str, elapsed: float, **extra) -> dict:
    meta = {
        "tool": "cuspidal",
        "version": __version__,
        "command": command,
        "elapsed_seconds": round(elapsed, 3),
    }
    meta.update(extra)
    return meta


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cuspidal",
        description="Enumerate, classify and verify rational unicuspidal plane curves",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # a string default goes through _jobs too, so a bad CUSPIDAL_JOBS is a
    # usage error of the subcommands that take --jobs; main refreshes both
    # defaults on every call
    jobs = os.environ.get("CUSPIDAL_JOBS", "1")
    parser.jobs_actions = []

    p = sub.add_parser("enumerate", help="search candidate cusps at one (degree, pair count)")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--pairs", type=int, required=True, help="number of Newton pairs")
    p.add_argument("--paranoid", action="store_true", help="full-scan oracle mode")
    parser.jobs_actions.append(p.add_argument("--jobs", type=_jobs, default=jobs))
    p.add_argument("--format", choices=("json", "csv", "md"), default="json")
    p.add_argument("--classify", action="store_true", help="attach family/existence data")

    p = sub.add_parser("invariants", help="full record for given Newton pairs")
    p.add_argument("--pairs", required=True, help='e.g. "(2,3),(2,5),(2,3)"')
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv", "md"), default="json")

    p = sub.add_parser("reproduce", help="regenerate a reference table and diff it")
    p.add_argument("--table", required=True, help=f"one of {', '.join(TABLE_IDS)}")
    parser.jobs_actions.append(p.add_argument("--jobs", type=_jobs, default=jobs))

    p = sub.add_parser("family", help="generate one closed-form family member")
    p.add_argument("kind", help=f"one of {', '.join(ALL_KINDS)}")
    p.add_argument("--factors", help="ams: ordered factorization, e.g. 3,2,2")
    p.add_argument("--l", type=int, help="kashiwara level parameter")
    p.add_argument("--lambdas", help="kashiwara lambda list, e.g. 1,1")
    p.add_argument("--a", type=int, help="tono-ia/ib parameter")
    p.add_argument("--s", type=int, help="tono-ib/iib parameter")
    p.add_argument("--n", type=int, help="tono-iia/iib parameter")
    p.add_argument("--k", type=int, help="orevkov parameter")
    p.add_argument("--format", choices=("json", "csv", "md"), default="json")

    p = sub.add_parser("reduce", help="resolve existence of (degree, multiplicity sequence)")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--mult", required=True, help='e.g. "16,8_4,4_3,2_3" (8x4 also accepted)')
    p.add_argument("--format", choices=("json", "text"), default="text")

    p = sub.add_parser("factorizations", help="ordered factorization count")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("prime-scan", help="primes admitting a nontrivial curve")
    p.add_argument("--max", type=int, required=True)

    return parser


def _cmd_enumerate(args) -> int:
    config = SearchConfig(
        degree=args.degree,
        pair_count=args.pairs,
        mode=PARANOID if args.paranoid else PRUNED,
        worker_count=args.jobs,
    )
    start = time.monotonic()
    note = None
    try:
        records = enumerate_candidates(config)
    except PairCountBoundError as exc:
        if args.pairs > 4:
            raise  # past the bound, k >= 5 is an input error (exit 2), not an empty result
        records, note = [], f"provably empty: {exc}"
    if args.classify:
        records = [classify_record(r) for r in records]
    extra = {} if note is None else {"note": note}
    meta = _metadata(
        "enumerate",
        time.monotonic() - start,
        degree=args.degree,
        pairs=args.pairs,
        mode=config.mode,
        jobs=args.jobs,
        **extra,
    )
    sys.stdout.write(OutputDocument(tuple(records), meta).render(args.format))
    return 0


def _cmd_invariants(args) -> int:
    pairs = inv.parse_newton(args.pairs)
    inv.validate_newton_pairs(pairs)
    start = time.monotonic()
    # validated above; the genus check is done here, so a mismatch is
    # reported on the record rather than raised
    record = curve_record(args.degree, pairs, strict=False)
    verdict = bl_check_unicuspidal(args.degree, record.semigroup_generators)
    matches = record.delta == inv.genus_target(args.degree)
    if matches:
        record = classify_record(record)
    else:
        record = replace(record, flags=("delta-genus-mismatch",))
    meta = _metadata(
        "invariants",
        time.monotonic() - start,
        bl_check={
            "passed": verdict.passed,
            "first_failing_j": verdict.first_failing_j,
        },
        delta_matches_genus=matches,
    )
    sys.stdout.write(OutputDocument((record,), meta).render(args.format))
    return 0


def _cmd_reproduce(args) -> int:
    if args.table not in TABLE_IDS:
        raise ValueError(f"unknown table {args.table!r}; choose from {', '.join(TABLE_IDS)}")
    report = reproduce(args.table, worker_count=args.jobs)
    print(report.render())
    return 0 if report.ok else 1


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"{what} must be a comma-separated integer list, got {text!r}") from None


def _cmd_family(args) -> int:
    kind = args.kind
    start = time.monotonic()
    if kind not in PARAM_NAMES:
        raise ValueError(f"unknown family kind {kind!r}; choose from {', '.join(ALL_KINDS)}")
    # one option per param name; a Kashiwara kind appends the optional
    # --lambdas list to its --l
    options = PARAM_NAMES[kind]
    params = tuple(getattr(args, option) for option in options)
    if None in params:
        raise ValueError(f"{kind} needs {' and '.join('--' + o for o in options)}")
    if kind == AMS:
        params = _parse_int_list(args.factors, "--factors")
    elif kind in KASHIWARA_KINDS and args.lambdas is not None:
        params += _parse_int_list(args.lambdas, "--lambdas")
    record = family_curve(FamilySpec(kind, params))
    meta = _metadata("family", time.monotonic() - start, kind=kind)
    sys.stdout.write(OutputDocument((record,), meta).render(args.format))
    return 0


def _cmd_reduce(args) -> int:
    runs = inv.parse_multiplicity(args.mult)
    status, chain = resolve_existence(args.degree, runs)
    if args.format == "json":
        import json

        payload = {
            "degree": args.degree,
            "multiplicity_sequence": inv.format_multiplicity(runs),
            "status": status,
            "chain": [step.describe() for step in chain],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"d={args.degree} [{inv.format_multiplicity(runs)}]: {status}")
        for step in chain:
            print(f"  {step.describe()}")
    return 0


def _cmd_factorizations(args) -> int:
    print(ordered_factorization_count(args.n))
    return 0


def _cmd_prime_scan(args) -> int:
    for prime, witnesses in prime_degree_scan(args.max):
        tags = "; ".join(
            w[0] + "(" + ",".join(map(str, w[1:])) + ")" for w in witnesses
        )
        print(f"{prime}: {tags}")
    return 0


_parser = None  # built by the first call of main and reused by every later one


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    jobs = os.environ.get("CUSPIDAL_JOBS", "1")
    for action in _parser.jobs_actions:
        action.default = jobs
    args = _parser.parse_args(argv)
    handlers = {
        "enumerate": _cmd_enumerate,
        "invariants": _cmd_invariants,
        "reproduce": _cmd_reproduce,
        "family": _cmd_family,
        "reduce": _cmd_reduce,
        "factorizations": _cmd_factorizations,
        "prime-scan": _cmd_prime_scan,
    }
    try:
        return handlers[args.command](args)
    except ValueError as exc:  # usage errors, InvalidCuspData and FamilyParameterError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
