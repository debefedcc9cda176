"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds run records appended by ``run.py --out``.  One row is
printed per (workload, metric): each side's median and quartiles over its
runs, and the change of the median.  An end-to-end row is marked
``REGRESSION`` when the new median is worse than the base median by more
than the metric's bound in ``BENCHMARK.json``, and ``unresolved`` when the
run-to-run spread (quartile distance over median) of either side is wider
than the bound, unless every new run reads better than every base run.
Per-layer counts are printed as counts, never as speed-ups; per-layer times
have no bound and are printed for reading only.  Exits 1 if any row is a
regression.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict:
    """{(workload, metric): [value per run]} over the file's run records."""
    values = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                for name, metric in record["metrics"].items():
                    values[(record["workload"], name)].append(metric["value"])
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float | None:
    """Quartile distance as a share of the median; None for a single run."""
    if len(values) < 2:
        return None
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    sign = 1 if better == "lower" else -1
    b_med, n_med = statistics.median(base), statistics.median(new)
    worse = sign * (n_med - b_med) / abs(b_med) if b_med else sign * (n_med - b_med)
    all_better = all(sign * n < sign * b for n in new for b in base)
    spreads = [spread(base), spread(new)]
    if any(s is None or s > bound for s in spreads) and not all_better:
        return "unresolved"
    if worse > bound:
        return "REGRESSION"
    return "better" if all_better else "ok"


def _fmt(values: list[float], unit: str) -> str:
    q1, median, q3 = quartiles(values)
    if unit == "count":
        return f"{median:.0f} n={len(values)}"
    return f"{median:.6g} [{q1:.4g}, {q3:.4g}] n={len(values)}"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    per_layer = {m["name"]: m for m in spec["per_layer"]}
    base, new = load(argv[0]), load(argv[1])
    regressions = 0
    print(f"{'workload':18s} {'metric':46s} {'base median [q1, q3]':34s} {'new median [q1, q3]':34s} change")
    for workload in [w["name"] for w in spec["workloads"]]:
        for name, metric in {**end_to_end, **per_layer}.items():
            key = (workload, name)
            if key not in base or key not in new:
                continue
            b, n = base[key], new[key]
            b_med, n_med = statistics.median(b), statistics.median(n)
            if metric["unit"] == "count":
                change = f"count {b_med:.0f} -> {n_med:.0f} ({n_med - b_med:+.0f})"
            else:
                rel = f"{(n_med - b_med) / abs(b_med):+.1%}" if b_med else f"{n_med - b_med:+.4g}"
                change = f"{rel} {metric['unit']}"
                if name in end_to_end:
                    mark = verdict(b, n, metric["better"], metric["bound"])
                    regressions += mark == "REGRESSION"
                    change += f"  {mark} (bound {metric['bound']:.0%})"
            print(f"{workload:18s} {name:46s} {_fmt(b, metric['unit']):34s} {_fmt(n, metric['unit']):34s} {change}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
