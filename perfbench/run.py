"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Run from the root of a source checkout; the package is imported from its
``src`` directory.  ``--trace 0`` prints the end-to-end metrics and
``--trace 1`` the per-layer metrics named in ``BENCHMARK.json``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--out`` appends the full run
record (samples, counters, interpreter, revision) to a JSON-lines file that
``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench"

# Fresh interpreters started per run to time set-up.  Each time is scaled by
# the factor of a speed probe run for SETUP_SPEED_PROBE_S right after it, and
# the median of the scaled times is reported.
SETUP_PROBES = 15
SETUP_SPEED_PROBE_S = 0.03
SETUP_PROBE_CODE = "import sys, workloads; workloads.prepare(sys.argv[1], int(sys.argv[2]))"
CHILD_TIMEOUT_S = 165
# Units of the deterministic work counters among the per-layer metrics.
COUNTER_UNITS = ("count", "bit")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    return env


def _run_child(argv: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run a child in its own process group; on timeout the whole group is killed."""
    with subprocess.Popen(
        argv, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True, start_new_session=True
    ) as proc:
        try:
            stdout, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        return subprocess.CompletedProcess(argv, proc.returncode, stdout)


def setup_seconds(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters that import the package and make the
    inputs, and the speed probe's factor right after each."""
    times, factors, probe = [], [], speed.Probe()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        done = _run_child(
            [sys.executable, "-c", SETUP_PROBE_CODE, workload, str(seed)], timeout=60
        )
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe exited with {done.returncode}")
        factors.append(probe.burst(SETUP_SPEED_PROBE_S))
    return times, factors


def _git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return None
    return done.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--out", type=Path, help="append the run record to this JSON-lines file")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    if not (SRC / "cuspidal" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'cuspidal'}", file=sys.stderr)
        return 2

    spans_path = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    if args.trace == "1":
        SPANS_DIR.mkdir(exist_ok=True)
    setup, setup_factors = setup_seconds(args.workload, args.seed) if args.trace == "0" else ([], [])
    child = _run_child(
        [
            sys.executable,
            str(BENCH / "measure.py"),
            args.workload,
            str(args.seed),
            str(args.seconds),
            args.trace,
            str(spans_path),
        ],
        timeout=CHILD_TIMEOUT_S,
    )
    if child.returncode != 0:
        print(f"error: measured process exited with {child.returncode}", file=sys.stderr)
        return 1
    measured = json.loads(child.stdout.splitlines()[-1])

    checks = measured["checks"]
    failed = [name for name, ok in checks if not ok]
    if args.trace == "0":
        measured["samples"]["setup_s"] = setup
        measured["samples"]["setup_factors"] = setup_factors
        values = {
            "scaled_wall_s": measured["scaled_wall_s"],
            "setup_s": statistics.median(t * f for t, f in zip(setup, setup_factors)),
            "peak_rss_mb": measured["peak_rss_mb"],
            "ok_ratio": (len(checks) - len(failed)) / len(checks),
        }
        wanted = spec["end_to_end"]
    else:
        values = measured["metrics"]
        wanted = spec["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    counters = dict(measured["counters"])
    counters.update((name, m["value"]) for name, m in metrics.items() if m["unit"] in COUNTER_UNITS)

    print(f"workload {args.workload}  seed {args.seed}  jobs {measured['jobs']}  trace {args.trace}")
    for name, metric in metrics.items():
        print(f"  {name:48s} {metric['value']:>16.6g} {metric['unit']}")
    if args.trace == "0":
        print(
            f"  samples: bodies {len(measured['samples']['body_s'])}, setup_s {len(setup)}; "
            f"failed_ratio {len(failed)}/{len(checks)}"
        )
    else:
        print(f"  spans: {measured['spans']} written to {spans_path.relative_to(ROOT)}")
    for name in failed:
        print(f"  FAILED check: {name}")

    if args.out is not None:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": int(args.trace),
            "jobs": measured["jobs"],
            "python": platform.python_implementation() + " " + platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "git_revision": _git_revision(),
            "source_sha256": _source_digest(),
            "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "metrics": metrics,
            "samples": measured.get("samples", {}),
            "counters": counters,
            "failed_checks": failed,
        }
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")

    result = {"correct": not failed, "attempted": len(checks), "failed": len(failed), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
