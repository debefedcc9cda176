"""The measured process of one benchmark run.

    python3 perfbench/measure.py WORKLOAD SEED SECONDS TRACE SPANS_PATH

``run.py`` starts this in a fresh interpreter with ``src`` on the path and
reads the JSON object it prints last.

TRACE 0: bodies at the workload's worker count, at least MIN_BODIES of
them, and more until SECONDS have passed unless the next would end past
MAX_RUN_SHARE x SECONDS.  A speed probe (``speed.py``) runs during each part,
in the part's own processes, and each part's time is scaled by the probe's
factor for that part; ``scaled_wall_s`` sums, over the body's parts, each
part's median scaled time across the bodies.  The first body is counted
like the others.  Also reports each body's wall time and CPU use (the
probe's bursts excluded), the same sum of unscaled medians, the probe's mean
unit time and the process's peak RSS.

TRACE 1: one untraced body at the workload's worker count (for the parallel
efficiency), one more untraced body with one worker if that count is not 1,
and one traced body with one worker (the tracing overhead is the difference
of the last two); then the per-layer metrics from the spans, which are
written to SPANS_PATH.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import speed
import tracing
import workloads

EXPECTED = Path(__file__).resolve().parent / "expected.json"

# Each part's time is the median over at least this many bodies.
MIN_BODIES = 2
# Beyond MIN_BODIES, a body starts only before SECONDS have passed and if, at
# the last body's pace, it ends within this multiple of SECONDS, so a run on
# a slow host stays bounded.
MAX_RUN_SHARE = 1.5


class Body:
    """Runs the workload body part by part and checks every output against
    the expected results."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.inputs = workloads.prepare(name, seed)
        self.expected = json.loads(EXPECTED.read_text())[name]
        self.checks: list[tuple[str, bool]] = []
        self.summary: dict | None = None
        # the probe's factor for each part of the last probed body
        self.factors: dict[str, float] = {}

    def __call__(self, jobs: int, probe: speed.Probe | None = None) -> dict[str, float]:
        """Wall time of each part of one body; a raised error counts as a
        failed check."""
        times, outputs = {}, {}
        try:
            for part, step in workloads.parts(self.name, self.inputs, jobs):
                if probe is not None:
                    outputs[part], times[part], self.factors[part] = probe.time_part(step, outputs)
                    continue
                start = time.perf_counter()
                outputs[part] = step(outputs)
                times[part] = time.perf_counter() - start
            self.summary = workloads.summarize(self.name, outputs)
        except Exception as exc:  # a failed body must not hide the others' results
            traceback.print_exc()
            self.checks.append((f"body raised {exc!r}", False))
            return times
        self.checks += workloads.check(self.name, self.summary, self.expected)
        return times


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux; the children figure is the largest single child
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def _timed(
    body: Body, jobs: int, probe: speed.Probe | None = None
) -> tuple[dict[str, float], float, float]:
    """(part times, wall, parallel efficiency) of one body; the probe's
    bursts are taken out of the wall and CPU times, and the part times are
    not scaled."""
    burst = probe.burst_s if probe is not None else 0.0
    cpu, start = _cpu_s(), time.perf_counter()
    parts = body(jobs, probe)
    burst = (probe.burst_s if probe is not None else 0.0) - burst
    wall = time.perf_counter() - start - burst
    return parts, wall, (_cpu_s() - cpu - burst) / (wall * jobs)


def robust_wall(bodies: list[dict[str, float]]) -> float:
    """Sum over the parts of each part's median time across the bodies."""
    names = dict.fromkeys(part for times in bodies for part in times)
    return sum(statistics.median(t[p] for t in bodies if p in t) for p in names)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def workload_counters(name: str, summary: dict | None) -> dict:
    """Deterministic counts the workload itself reports."""
    if summary is None:
        return {}
    if name == "classify-d40":
        return {"classify_range.records": summary["records"]}
    if name == "enumerate-d60":
        return {f"enumerate.pairs{k}.records": v["records"] for k, v in summary.items()}
    return {f"families.{k}": v for k, v in summary["counts"].items()}


def layer_metrics(tracer: tracing.Tracer, summary: dict | None) -> dict:
    """Every per-layer metric that the spans and observers give."""
    fn = tracer.per_function()
    counts = tracer.counts
    candidates = tracer.calls_from("semigroup.bl_check", "enumerate.enumerate_candidates")
    # enumerations that tables starts itself, not those inside classify_range
    enumerate_calls = tracer.calls_from("enumerate.enumerate_candidates", "tables.reproduce")
    layer_self = {
        layer: sum(v["self_s"] for k, v in fn.items() if k.split(".")[0] == layer)
        for layer in tracing.LAYERS
    }
    bl = fn["semigroup.bl_check"]
    built = fn["records.curve_record"]["calls"]
    records_out = counts["enumerate.records_out"]
    skipped = 0
    if summary is not None and "counts" in summary:
        skipped = summary["counts"].get("skipped_above_cap", 0)
    return {
        "semigroup.bl_check.calls": bl["calls"],
        "semigroup.bl_check.self_s": bl["self_s"],
        "semigroup.bl_check.pass_ratio": _ratio(counts["semigroup.bl_check.passed"], bl["calls"]),
        "semigroup.bl_check.reject_j1": counts["semigroup.bl_check.reject_j1"],
        "semigroup.bl_check.reject_j2": counts["semigroup.bl_check.reject_j2"],
        "semigroup.bl_check.reject_j3plus": counts["semigroup.bl_check.reject_j3plus"],
        "semigroup.bl_check.table_bits": counts["semigroup.bl_check.table_bits"],
        "semigroup.bl_check.max_call_s": bl["max_call_s"],
        "semigroup.generators.calls": fn["semigroup.generators"]["calls"],
        "semigroup.generators.self_s": fn["semigroup.generators"]["self_s"],
        "enumerate.self_s": layer_self["enumerate"],
        "enumerate.candidates": candidates,
        "enumerate.records_out": records_out,
        "enumerate.yield_ratio": _ratio(records_out, candidates),
        "invariants.self_s": layer_self["invariants"],
        "invariants.newton_to_puiseux.calls": fn["invariants.newton_to_puiseux"]["calls"],
        "invariants.newton_to_puiseux.per_record": _ratio(fn["invariants.newton_to_puiseux"]["calls"], built),
        "invariants.validate_newton_pairs.calls": fn["invariants.validate_newton_pairs"]["calls"],
        "invariants.validate_newton_pairs.per_record": _ratio(
            fn["invariants.validate_newton_pairs"]["calls"], built
        ),
        "records.curve_record.calls": built,
        "records.curve_record.self_s": fn["records.curve_record"]["self_s"],
        "records.render.self_s": fn["records.render"]["self_s"],
        "records.render.bytes": counts["records.render.bytes"],
        "families.family_curve.calls": fn["families.family_curve"]["calls"],
        "families.family_curve.self_s": fn["families.family_curve"]["self_s"],
        "families.attribute_family.calls": fn["families.attribute_family"]["calls"],
        "families.attribute_family.self_s": fn["families.attribute_family"]["self_s"],
        "families.attribute_family.hit_ratio": _ratio(
            counts["families.attribute_family.hits"], fn["families.attribute_family"]["calls"]
        ),
        "families.invariant_closed_forms.self_s": fn["families.invariant_closed_forms"]["self_s"],
        "families.skipped_above_cap": skipped,
        "existence.resolve_existence.calls": fn["existence.resolve_existence"]["calls"],
        "existence.resolve_existence.self_s": fn["existence.resolve_existence"]["self_s"],
        "existence.proved_ratio": _ratio(
            counts["existence.resolve_existence.proved"], fn["existence.resolve_existence"]["calls"]
        ),
        "tables.reproduce.self_s": fn["tables.reproduce"]["self_s"],
        "tables.enumerate_calls": enumerate_calls,
        "cli.main.self_s": fn["cli.main"]["self_s"],
    }


def traced_body(body: Body) -> tuple[tracing.Tracer, float]:
    """One body with one worker under the tracer: (tracer, wall)."""
    with tracing.Tracer() as tracer:
        start = time.perf_counter()
        body(1)
        wall = time.perf_counter() - start
    return tracer, wall


def main(argv: list[str]) -> int:
    name, seed, seconds, trace, spans_path = argv
    body = Body(name, int(seed))
    jobs = workloads.JOBS[name]
    if trace == "0":
        bodies, scaled, walls, efficiencies = [], [], [], []
        probe = speed.Probe()
        limit = float(seconds)
        last_body_s = 0.0
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if len(bodies) >= MIN_BODIES and (
                elapsed >= limit or elapsed + last_body_s > MAX_RUN_SHARE * limit
            ):
                break
            parts, wall, efficiency = _timed(body, jobs, probe)
            last_body_s = time.perf_counter() - start - elapsed
            bodies.append(parts)
            scaled.append({part: t * body.factors[part] for part, t in parts.items()})
            walls.append(wall)
            efficiencies.append(efficiency)
        result = {
            "scaled_wall_s": robust_wall(scaled),
            "samples": {
                "body_s": walls,
                "parallel_efficiency": efficiencies,
                "wall_s": robust_wall(bodies),
                "probe_unit_s": probe.unit_s(),
                "probe_units": probe.units,
            },
            "peak_rss_mb": _peak_rss_mib(),
        }
    else:
        _, untraced, efficiency = _timed(body, jobs)
        if jobs != 1:
            _, untraced, _ = _timed(body, 1)
        tracer, traced = traced_body(body)
        metrics = layer_metrics(tracer, body.summary)
        metrics["enumerate.parallel_efficiency"] = efficiency
        metrics["trace.overhead_s"] = traced - untraced
        result = {"metrics": metrics, "spans": len(tracer.start)}
        tracer.write(spans_path)
    result["jobs"] = jobs
    result["checks"] = body.checks
    result["counters"] = workload_counters(name, body.summary)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
