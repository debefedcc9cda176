"""The benchmark's workloads: input generation, body and output checks.

Every workload is deterministic and exhaustive.  The seed sets only the
order in which ``family-crosscheck`` visits its grid members; outputs are
compared as sets or counts, so no optimisation can depend on the order.

The package is reached through module attributes (``tables.reproduce``,
``cli.main``, ...) and never through names imported into this module, so
the tracer's wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from collections import Counter

import cuspidal
import cuspidal.cli
import cuspidal.enumerate
import cuspidal.families
import cuspidal.records
import cuspidal.semigroup
import cuspidal.tables

# Members above this degree are counted, not checked.  It equals the
# acceptance suite's counting-check cap at the time the benchmark was
# defined and stays fixed here even if that cap is raised later, so the
# workload does the same work on every commit.
FAMILY_DEGREE_LIMIT = 20_000

# Worker count of each workload's untraced run; the traced run always uses 1,
# because wrappers cannot see inside worker processes.
JOBS = {"classify-d40": 1, "enumerate-d60": 2, "family-crosscheck": 1}

ENUMERATE_PAIR_COUNTS = (3, 4)


def prepare(name: str, seed: int):
    """The workload's inputs, made from the seed."""
    if name == "classify-d40":
        return {"tables": list(cuspidal.tables.TABLE_IDS), "max_degree": 40}
    if name == "enumerate-d60":
        return [
            ["enumerate", "--degree", "60", "--pairs", str(k)]
            for k in ENUMERATE_PAIR_COUNTS
        ]
    if name == "family-crosscheck":
        families = cuspidal.families
        specs = [
            *families.ams_grid(30),
            *families.kashiwara_grid(3, 2, 2),
            *families.tono_grid(7, 4, 5),
            *families.orevkov_grid(4),
        ]
        random.Random(seed).shuffle(specs)
        return specs
    raise KeyError(f"unknown workload {name!r}")


def parts(name: str, inputs, jobs: int) -> list:
    """The workload body as an ordered list of (part name, step).  A step
    takes the outputs of the earlier parts, by name, and returns its own."""
    if name == "classify-d40":
        steps = [
            (f"reproduce {table}", lambda out, t=table: cuspidal.tables.reproduce(t, worker_count=jobs).ok)
            for table in inputs["tables"]
        ]
        steps.append(
            ("classify_range", lambda out: cuspidal.enumerate.classify_range(inputs["max_degree"], jobs))
        )
        for fmt in ("json", "csv", "md"):
            steps.append(
                (
                    f"render {fmt}",
                    lambda out, f=fmt: cuspidal.records.OutputDocument(tuple(out["classify_range"]), {}).render(f),
                )
            )
        return steps
    if name == "enumerate-d60":
        return [
            (" ".join(argv[1:]), lambda out, a=argv: _cli(a + ["--jobs", str(jobs)])) for argv in inputs
        ]
    if name == "family-crosscheck":
        return [(spec.describe(), lambda out, s=spec: _family_member(s)) for spec in inputs]
    raise KeyError(f"unknown workload {name!r}")


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cuspidal.cli.main(argv)
    return code, buf.getvalue()


def _family_member(spec) -> tuple[str, str | None]:
    """(outcome, problem or None) of one grid member."""
    families = cuspidal.families
    try:
        record = families.family_curve(spec)
    except families.FamilyParameterError:
        return "rejected", None
    if record.degree > FAMILY_DEGREE_LIMIT:
        return "skipped_above_cap", None
    expected_lct, expected_si = families.invariant_closed_forms(spec)
    if cuspidal.records.FLAG_INCONSISTENT in record.flags:
        # published data known to disagree: the discrepancy must stay visible
        return "flagged", "discrepancy not flagged" if record.lct == expected_lct else None
    if (record.lct, record.self_intersection) != (expected_lct, expected_si):
        return "closed forms disagree", "closed forms disagree"
    existence = cuspidal.enumerate.classify_record(record).existence
    verdict = cuspidal.semigroup.bl_check_unicuspidal(record.degree, record.semigroup_generators)
    if not verdict.passed:
        return "counting criterion fails", "counting criterion fails"
    return "existence:" + existence, None


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def summarize(name: str, outputs: dict) -> dict:
    """The comparable facts of one body's outputs (by part name): digests and counts."""
    if name == "classify-d40":
        return {
            "reports_ok": sorted(p.split()[1] for p, ok in outputs.items() if p.startswith("reproduce") and ok),
            "records": len(outputs["classify_range"]),
            "rendered_sha256": _digest("".join(outputs[f"render {f}"] for f in ("json", "csv", "md"))),
        }
    if name == "enumerate-d60":
        summary = {}
        for part, (code, text) in outputs.items():
            payload = json.loads(text)
            # the run time and the worker count describe the run, not the result
            payload["metadata"].pop("elapsed_seconds")
            payload["metadata"].pop("jobs")
            summary[str(payload["metadata"]["pairs"])] = {
                "exit_code": code,
                "records": len(payload["records"]),
                "json_sha256": _digest(json.dumps(payload, indent=2)),
            }
        return summary
    if name == "family-crosscheck":
        counts = Counter(outcome for outcome, _ in outputs.values())
        return {
            "members": len(outputs),
            "counts": dict(sorted(counts.items())),
            "problems": sorted(f"{part}: {problem}" for part, (_, problem) in outputs.items() if problem),
        }
    raise KeyError(f"unknown workload {name!r}")


def check(name: str, summary: dict, expected: dict) -> list[tuple[str, bool]]:
    """Named pass/fail output checks of one body against the expected results."""
    if name == "classify-d40":
        checks = [
            (f"reproduce {table} ok", table in summary["reports_ok"])
            for table in expected["tables"]
        ]
        checks.append(("classify_range records", summary["records"] == expected["records"]))
        checks.append(
            ("rendered sha256", summary["rendered_sha256"] == expected["rendered_sha256"])
        )
        return checks
    if name == "enumerate-d60":
        checks = []
        for pairs, want in expected.items():
            got = summary.get(pairs, {})
            for key in ("exit_code", "records", "json_sha256"):
                checks.append((f"pairs={pairs} {key}", got.get(key) == want[key]))
        return checks
    if name == "family-crosscheck":
        checks = [
            ("members visited", summary["members"] == expected["members"]),
            ("closed forms and counting checks", not summary["problems"]),
        ]
        for key, want in expected["counts"].items():
            checks.append((key, summary["counts"].get(key, 0) == want))
        checks.append(("no unexpected outcome", summary["counts"].keys() <= expected["counts"].keys()))
        return checks
    raise KeyError(f"unknown workload {name!r}")
