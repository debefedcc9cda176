"""A probe of how fast the shared host runs the package's kind of work.

On a shared host the same code runs up to 1.8x slower for minutes at a
time, and the process's CPU time grows with its wall time, so the slowdown
is not visible from inside the process.  A fixed unit of work measures it:
the unit's nominal time over its mean measured time is the factor by which
a timing is scaled back to the nominal speed.

The slowdown is not the same for every kind of work, so the unit imitates
the package's: an interpreter loop over a list and a dict, membership
closures of small semigroups in Python integers with a byte-wise count (the
counting check at d ~ 60), and one closure over 700,000 bits (the large
tables of the family checks).  It is frozen here and calls no package code,
so it does the same work on every commit.

The units run where the work runs, in the same thread: one on each tick of
a SAMPLE_INTERVAL_S timer of the process's CPU time, in the measuring
process and in every worker process forked while a part runs (an at-fork
hook starts the timer there; the counts go to shared memory).  So a busy
process is sampled in proportion to its work, an idle one not at all, and a
unit never competes with the work for a CPU.  The CPUs of a shared host are
not slowed alike, and a probe on another CPU than the work's misses that.
A unit is timed by the CPU time of its thread: the host's slowdown shows
there (it is contention for the cores' shared resources; the hypervisor
steals almost no time).  The ticks take the same share of every process's
CPU time on every commit, about 5%, so they are left in the part's time.
A part too short for MIN_PART_UNITS ticks gets the rest in a burst right
after it, in the measuring process; the burst is not in the part's time.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

# Mean seconds per unit on a quiet 2-core host (Python 3.11).  A constant
# of the benchmark: changing it changes every scaled figure.
NOMINAL_UNIT_S = 0.002
# One unit runs per this much CPU time of a process, so about 5% of it.
SAMPLE_INTERVAL_S = 0.04
# A part that ran fewer units than this gets the rest right after it.
MIN_PART_UNITS = 5

_TABLE = list(range(512))
# (generators, bound) of the small closures: d = 60 tables, (d-2)d + 1 bits
_SMALL = tuple(
    (gens, 3481)
    for gens in (
        (7, 11, 13), (9, 14, 61), (12, 17, 95), (15, 22, 49), (8, 21, 55), (10, 13, 77), (11, 19, 40)
    )
)
_LARGE = ((1531, 10007, 300001), 700_000)


def _closure(generators: tuple[int, ...], bound: int) -> int:
    mask, bits = (1 << (bound + 1)) - 1, 1
    for g in generators:
        shift = g
        while shift <= bound:
            bits |= (bits << shift) & mask
            shift <<= 1
    return bits


def unit() -> int:
    """A fixed piece of work, about NOMINAL_UNIT_S long: a third each of
    interpreter loop, small closures with counts, and one large closure."""
    table, seen, acc = _TABLE, {}, 0
    for i in range(4000):
        acc = (acc * 31 + table[i & 511]) & 0xFFFF
        seen[acc & 255] = i
    for generators, bound in _SMALL + _SMALL:
        data = _closure(generators, bound).to_bytes(bound // 8 + 1, "little")
        for lo in range(0, bound - 59, 59):
            chunk = int.from_bytes(data[lo // 8 : (lo + 59) // 8 + 1], "little") >> (lo % 8)
            acc += (chunk & ((1 << 59) - 1)).bit_count()
    acc += _closure(*_LARGE).bit_count()
    return acc + len(seen)


class Probe:
    """Times the parts of a body and the units run during and after each.
    Create one per process, before any worker is forked."""

    def __init__(self) -> None:
        # units and their seconds, summed over this process and its workers
        self._totals = multiprocessing.RawArray("d", 2)
        self._lock = multiprocessing.Lock()
        self._ticking = False
        self._in_unit = False
        self.burst_s = 0.0  # wall time of the bursts
        signal.signal(signal.SIGPROF, self._on_tick)
        os.register_at_fork(after_in_child=self._after_fork)

    @property
    def units(self) -> int:
        return int(self._totals[0])

    def unit_s(self) -> float:
        """Mean measured seconds per unit over the run."""
        return self._totals[1] / self._totals[0]

    def _run_unit(self) -> None:
        # a tick while the lock is held would deadlock on it, so ticks are
        # ignored until the unit is counted
        self._in_unit = True
        try:
            start = time.thread_time()
            unit()
            spent = time.thread_time() - start
            with self._lock:
                self._totals[0] += 1
                self._totals[1] += spent
        finally:
            self._in_unit = False

    def _on_tick(self, signum, frame) -> None:
        if not self._in_unit:
            self._run_unit()

    def _after_fork(self) -> None:
        if self._ticking:  # a worker forked while a part runs
            signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def time_part(self, step, *args):
        """(result, seconds, factor) of ``step(*args)``: its wall time and
        the factor of the units run during it (and right after it, if they
        were fewer than MIN_PART_UNITS)."""
        before = tuple(self._totals)
        self._ticking = True
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        start = time.perf_counter()
        try:
            result = step(*args)
        finally:
            seconds = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_PROF, 0)
            self._ticking = False
        return result, seconds, self._burst(before, min_units=MIN_PART_UNITS)

    def burst(self, seconds: float) -> float:
        """The factor of units run for about ``seconds``, at least one."""
        return self._burst(tuple(self._totals), min_units=1, seconds=seconds)

    def _burst(self, before: tuple[float, float], min_units: int, seconds: float = 0.0) -> float:
        """Run units until at least ``min_units`` ran since ``before`` and
        ``seconds`` have passed; the factor of the units since ``before``."""
        start = time.perf_counter()
        while self._totals[0] - before[0] < min_units or time.perf_counter() - start < seconds:
            self._run_unit()
        self.burst_s += time.perf_counter() - start
        units, spent = (now - then for now, then in zip(self._totals, before))
        return NOMINAL_UNIT_S * units / spent
