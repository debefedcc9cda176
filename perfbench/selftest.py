"""Tests of the benchmark's tracer and counters.

    PYTHONPATH=src:perfbench python3 -m unittest perfbench/selftest.py

Each workload body runs twice under the tracer, with different seeds.  The
deterministic counters must repeat exactly, and a few must equal values
known independently of the tracer: 137,586 counting checks and 27 records
on enumerate-d60, 227 records from classify_range(40), 52 family members
skipped above the degree limit.  A binding site the wrappers missed would
lower these counts.  Also checks that the speed probe runs its units in the
worker process that does a part's work.  Takes about a minute.
"""

from __future__ import annotations

import json
import multiprocessing
import signal
import unittest
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import cuspidal.semigroup
import measure
import run
import speed
import tracing
import workloads

SEEDS = (1, 2)


def traced(name: str, seed: int):
    body = measure.Body(name, seed)
    tracer, _ = measure.traced_body(body)
    return tracer, body, measure.layer_metrics(tracer, body.summary)


def deterministic(metrics: dict) -> dict:
    """The work counters: every per-layer metric counted in calls or bits.
    (``records.render.bytes`` is not one: the CLI's JSON carries its own
    elapsed time.)"""
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return {k: v for k, v in metrics.items() if units[k] in run.COUNTER_UNITS}


class TracedCounters(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.runs = {name: [traced(name, seed) for seed in SEEDS] for name in workloads.JOBS}

    def test_outputs_pass_their_checks(self):
        for name, runs in self.runs.items():
            for _, body, _ in runs:
                self.assertEqual([c for c in body.checks if not c[1]], [], name)

    def test_counters_repeat_exactly(self):
        for name, runs in self.runs.items():
            first, second = (deterministic(metrics) for _, _, metrics in runs)
            self.assertEqual(first, second, name)

    def test_enumerate_counts(self):
        metrics = self.runs["enumerate-d60"][0][2]
        self.assertEqual(metrics["enumerate.candidates"], 137_586)
        self.assertEqual(metrics["semigroup.bl_check.calls"], 137_586)
        self.assertEqual(metrics["enumerate.records_out"], 27)

    def test_classify_range_records(self):
        tracer = self.runs["classify-d40"][0][0]
        top = tracer.labels.index("enumerate.classify_range")
        classify = tracer.labels.index("enumerate.classify_record")
        roots = {i for i, (n, p) in enumerate(zip(tracer.name, tracer.parent)) if n == top and p == tracing.NO_PARENT}
        self.assertEqual(len(roots), 1)
        records = sum(1 for n, p in zip(tracer.name, tracer.parent) if n == classify and p in roots)
        self.assertEqual(records, 227)

    def test_family_skips(self):
        metrics = self.runs["family-crosscheck"][0][2]
        self.assertEqual(metrics["families.skipped_above_cap"], 52)

    def test_tracer_restores_every_binding(self):
        original = cuspidal.semigroup.bl_check_unicuspidal
        with tracing.Tracer():
            self.assertIsNot(cuspidal.enumerate.bl_check_unicuspidal, original)
        self.assertIs(cuspidal.enumerate.bl_check_unicuspidal, original)
        self.assertIs(cuspidal.cli.bl_check_unicuspidal, original)


def _units(n: int) -> int:
    return sum(speed.unit() for _ in range(n))


class SpeedProbe(unittest.TestCase):
    def test_units_run_in_the_worker_that_does_the_work(self):
        probe = speed.Probe()
        # like the package's pools (fork is the default on Linux): the probe
        # reaches their workers through an at-fork hook
        fork = multiprocessing.get_context("fork")

        def part():
            with ProcessPoolExecutor(1, mp_context=fork) as pool:
                return pool.submit(_units, 300).result()

        _, seconds, factor = probe.time_part(part)
        self.assertGreater(factor, 0)
        # the measuring process waits, so the worker ran the units: about one
        # per SAMPLE_INTERVAL_S of its CPU time, and no burst was needed
        self.assertGreater(probe.units, 0.5 * seconds / speed.SAMPLE_INTERVAL_S)
        self.assertLess(probe.burst_s, 0.01)
        self.assertEqual(signal.getitimer(signal.ITIMER_PROF), (0.0, 0.0))

    def test_a_part_too_short_for_a_tick_gets_a_burst(self):
        probe = speed.Probe()
        probe.time_part(lambda: None)
        self.assertEqual(probe.units, speed.MIN_PART_UNITS)
        self.assertGreater(probe.burst_s, 0)


if __name__ == "__main__":
    unittest.main()
