"""Exhaustive, pruned search for candidate cusps of a given degree.

A degree-d candidate with k Newton pairs is determined by its
characteristic data (a; b_1 < ... < b_k).  The search iterates over that
data subject to:

(i)   chain validity -- every b_j must strictly drop the running gcd chain
      P_{j+1} = gcd(P_j, b_j) by a factor >= 2, ending at 1;
(ii)  the rationality equation: the delta invariant must equal
      (d-1)(d-2)/2, i.e. the bracket (P_1-1)(Q_1-1) + sum (P_j-1) Q_j
      must equal (d-1)(d-2);
(iii) the unicuspidal counting criterion (see :mod:`cuspidal.semigroup`),
      run once per delta-solved candidate that the cuts below leave, on
      semigroup generators read straight off the gcd chain of
      (a; b_1..b_k); only the survivors become Newton pairs and records.

These are the only filters: repeated identical pairs and unit exponents
(q_j = 1 for j >= 2) are legal and occur in genuine curves, so no ad-hoc
exclusions are applied, and every cut below only skips candidates that
one of the three would reject.

Two modes produce identical sets and cross-validate each other:

* ``pruned`` iterates only (a, b_1, ..., b_{k-1}) and solves the final
  exponent exactly from the delta residual, collapsing one loop dimension.
  Its cuts:

  - a runs over floor(d/3) + 1 .. d - 1 (Matsuoka-Sakai 1989): with
    3a <= d the members 0, a, 2a, 3a put R(d+1) >= 4, and a >= d puts
    R(d+1) <= 2, so (iii) fails at j = 1 either way;
  - each b_j is capped by positivity of the remaining delta budget, since
    every later stage contributes at least 1 to the bracket;
  - the gcd chain value must keep at least as many prime factors as
    there are stages left;
  - the prefix cut, two-sided: a node that has fixed (a; b_1..b_i) has
    fixed the generators w_1..w_(i+1) of every candidate below it too, by
    w_1 = a and w_(i+1) = p_(i-1) w_i + b_i - b_(i-1) with b_0 = 0 and
    p_0 = 0.  They span a sub-semigroup T of each candidate's semigroup S,
    so R_S >= R_T; and every later generator is at least p_i w_(i+1) + 1,
    so S and T have the same members up to p_i w_(i+1).  If, for some
    j <= J = floor((d-3)/2), R_T(j*d + 1) > (j+1)(j+2)/2, or
    j*d <= p_i w_(i+1) and R_T(j*d + 1) != (j+1)(j+2)/2, every candidate
    below fails (iii) and the node is not entered.  ``semigroup._span_miss``
    owns the tables and the count, one counter per child gcd; J is lowered
    where the tables would pass ``TABLE_BIT_CAP``, which only cuts less.
    Only the leaves that survive it reach the counting check.

* ``paranoid`` scans the full characteristic box with only
  provably-lossless cuts: the budget bound b_j <= (d-1)(d-2) + 1 (the
  delta bracket dominates the telescoped exponent differences) and the
  monotone budget break within each loop.

Emitted records always satisfy a <= d - 1 and m_1 + m_2 <= d, the
tangent-line bound.  Neither is a filter of its own: the counting
criterion's j = 1 condition implies both (see ``_finalize``).

The search is embarrassingly parallel over the leading multiplicity a:
each a is one task.  With more than one worker the process forks helpers
and works alongside them, every process taking the next task index from
one token passed around through a pipe, and the results are merged by a
canonical sort, so output is deterministic for any worker count.
"""

from __future__ import annotations

import os
import pickle
import signal
from collections.abc import Sequence
from dataclasses import dataclass, replace
from math import gcd, isqrt

from . import invariants as inv
from .existence import CANDIDATE, PROVED_FAMILY, resolve_existence
from .families import attribute_family, kodaira_of_kind
from .records import FLAG_FRONTIER, CurveRecord, curve_record
from .semigroup import _generators, _prefix_last_j, _span_miss, bl_check_unicuspidal

PRUNED = "pruned"
PARANOID = "paranoid"


class PairCountBoundError(ValueError):
    """Requested pair count exceeds the proven bound for the degree."""


@dataclass(frozen=True)
class SearchConfig:
    degree: int
    pair_count: int
    mode: str = PRUNED
    worker_count: int = 1


def max_pairs_bound(degree: int) -> int:
    """Largest k with (d-1)(d-2) >= (2^k - 1) 2^k, the proven cap on the
    number of Newton pairs of a degree-d cusp (k = 5 needs d >= 33)."""
    if degree < 3:
        raise ValueError(f"degree must be >= 3, got {degree}")
    target = (degree - 1) * (degree - 2)
    k = 1
    while (2 ** (k + 1) - 1) * 2 ** (k + 1) <= target:
        k += 1
    return k


def enumerate_candidates(config: SearchConfig) -> list[CurveRecord]:
    """All candidate cusps at (degree, pair_count): exactly the Newton
    sequences satisfying the type invariants, the rationality equation and
    the counting criterion.  Records come back canonically sorted with
    existence "candidate"."""
    d, k, mode = config.degree, config.pair_count, config.mode
    if k < 1:
        raise ValueError(f"pair count must be >= 1, got {k}")
    bound = max_pairs_bound(d)
    if k > bound:
        raise PairCountBoundError(
            f"pair count {k} exceeds the bound {bound} for degree {d}"
        )
    if mode not in (PRUNED, PARANOID):
        raise ValueError(f"unknown search mode {mode!r}")
    records = _run_tasks(lambda a: _search_a(d, k, mode, a), _a_range(d, mode), config.worker_count)
    records.sort(key=CurveRecord.sort_key)
    return records


def _run_tasks(fn, tasks: Sequence, worker_count: int) -> list:
    """Map ``fn`` over ``tasks`` and concatenate the resulting lists in task
    order.

    With W = min(worker_count, len(tasks), CPUs) > 1 the process forks W - 1
    helpers and runs tasks itself too.  A helper inherits the caller's
    memory, so ``fn`` may be any callable, a closure included, and the
    tasks are never pickled.  Every process takes the next task index from
    the token, one 8-byte message in a pipe that the caller fills with
    index 0 before it forks (see :func:`_take_tasks`), so the tasks are
    handed out as processes free up.  A helper sends its (index, result)
    pairs, or the exception a task raised, pickled through a pipe of its
    own and leaves by ``os._exit``; the caller reads every pipe, reaps
    every helper and re-raises a helper's exception.  A helper that ends
    without a payload raises RuntimeError.  Whatever goes wrong, no helper
    outlives the call and no pipe is left open.  One worker, or a platform
    without ``os.fork``, runs the tasks serially.  Forking copies only the
    calling thread; the package starts no others.
    """
    workers = min(worker_count, len(tasks), _cpu_count())
    if workers <= 1 or not hasattr(os, "fork"):
        return [item for task in tasks for item in fn(task)]
    token = os.pipe()
    pipes = {}  # pid -> read end of the helper's pipe, until it is reaped
    try:
        os.write(token[1], (0).to_bytes(8, "little"))
        for _ in range(workers - 1):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                inherited = [read, *(pipe.fileno() for pipe in pipes.values())]
                _helper(fn, tasks, token, write, inherited)
            os.close(write)
            pipes[pid] = open(read, "rb")
        done = _take_tasks(fn, tasks, token)
        for pid, pipe in list(pipes.items()):
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del pipes[pid]
            if not data:
                raise RuntimeError(
                    f"worker process {pid} ended without a result "
                    f"(exit code {os.waitstatus_to_exitcode(status)})"
                )
            ok, payload = pickle.loads(data)
            if not ok:
                raise payload
            done += payload
    finally:
        for pid, pipe in pipes.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for fd in token:
            os.close(fd)
    done.sort(key=lambda pair: pair[0])
    return [item for _, part in done for item in part]


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _take_tasks(fn, tasks: Sequence, token: tuple[int, int]) -> list:
    """(index, fn(task)) for each task index this process takes.

    ``token`` is the (read, write) pair of the pipe that holds the next
    task index as one 8-byte message.  A process reads the message, writes
    back index + 1 and only then runs the task.  A write of at most
    PIPE_BUF bytes is atomic and the pipe never holds more than one
    message, so every read gets a whole index, and the read and the write
    act as a lock's acquire and release: no index is taken twice or
    skipped.  Past the last task each process still writes the token back,
    so the others see the end too.  A process killed while it holds the
    token stalls the others, as one killed while holding a lock would.
    """
    read, write = token
    done = []
    while True:
        index = int.from_bytes(os.read(read, 8), "little")
        os.write(write, (index + 1).to_bytes(8, "little"))
        if index >= len(tasks):
            return done
        done.append((index, fn(tasks[index])))


def _helper(fn, tasks: Sequence, token: tuple[int, int], write: int, inherited: list[int]):
    """A forked helper's whole life: close the pipe ends it inherited, take
    tasks, send the pickled (True, pairs) or (False, exception) through
    ``write`` and leave by ``os._exit``, which runs no exit handler and
    flushes no inherited buffer.  A payload that does not pickle leaves
    nothing in the pipe."""
    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        try:
            payload = (True, _take_tasks(fn, tasks, token))
        except BaseException as exc:
            payload = (False, exc)
        data = pickle.dumps(payload)
        with open(write, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def _a_range(degree: int, mode: str) -> range:
    target = (degree - 1) * (degree - 2)
    if mode == PRUNED:
        # 3a <= d puts 0, a, 2a, 3a below d + 1: R(d+1) >= 4 fails j = 1
        return range(degree // 3 + 1, degree)
    # budget-only cap: b_1 > a forces (a-1) a <= target
    return range(2, isqrt(target) + 2)


def _search_a(degree: int, k: int, mode: str, a: int) -> list[CurveRecord]:
    """The records with leading multiplicity a at (degree, k)."""
    if mode == PRUNED:
        leaves = _pruned_extend(degree, k, (), 1 - a, a, (a,), 0)
    else:
        leaves = _paranoid_extend(k, (degree - 1) * (degree - 2), a, (), 1 - a, a)
    records = (_finalize(degree, a, bs) for _, bs in leaves)
    return [record for record in records if record is not None]


def _omega_at_least(n: int, count: int) -> bool:
    # does n have at least `count` prime factors (with multiplicity)?
    if n < 2 ** count:
        return False
    found = 0
    f = 2
    while f * f <= n and found < count:
        while n % f == 0:
            n //= f
            found += 1
        f += 1
    if n > 1:
        found += 1
    return found >= count


def _pruned_extend(degree, k, bs, partial, P, gens, p):
    """Yield (a, (b_1..b_k)) with the final exponent solved exactly.

    The node has fixed bs = (b_1..b_i), the gcd P = P_(i+1) of a, b_1..b_i,
    the delta bracket ``partial`` of those stages and the generators
    gens = (w_1..w_(i+1)) of every leaf below it; p is the Newton
    p_i = P_i/P_(i+1) that w_(i+2) needs.  The root is the node i = 0 with
    b_0 = 0, p_0 = 0 and partial = 1 - a: the first stage's
    (a-1)(b_1-1) = (a-1)(b_1 - b_0) + 1 - a, so every stage adds
    (P-1)(b - prev), w_2 = p_0 w_1 + b_1 - b_0 = b_1, and one rule serves
    every depth.  Every b exceeds max(prev, a).

    The children are grouped by their gcd g = gcd(P, b_(i+1)): for each
    proper divisor g of P with enough prime factors, ``_span_miss`` closes
    the span of gens/g once, at the first such child (a gcd with no child
    builds nothing), and each b with gcd(P, b) = g adds only its
    generator w/g to it.  Such a child has Newton p' = P/g, and every later
    generator of a leaf below it is at least p' w + 1: w_(m+1) = p_m w_m +
    Q_m with Q_m >= 1, and the generators increase.  So each leaf's
    semigroup contains the child's span and agrees with it below that
    floor, and a child whose span misses the criterion there is not
    entered.
    """
    depth = len(bs) + 1
    target = (degree - 1) * (degree - 2)
    prev = bs[-1] if bs else 0
    low = max(prev, gens[0])
    if depth == k:
        Q, r = divmod(target - partial, P - 1)
        if r == 0 and prev + Q > low and gcd(P, Q) == 1:
            yield gens[0], bs + (prev + Q,)
        return
    # the budget: each later stage adds at least 1 to the bracket, so the
    # term of b, increasing in b, may use at most `room`
    room = target - partial - (k - depth)
    last_j = _prefix_last_j(degree, k)
    for g in range(2, P // 2 + 1):
        if P % g or not _omega_at_least(g, k - depth):
            continue
        miss = None
        for b in range(low // g * g + g, prev + room // (P - 1) + 1, g):
            if gcd(P, b) != g:
                continue
            if miss is None:
                miss = _span_miss(degree, last_j, gens, g)
            # w_(i+2) = p_i w_(i+1) + b_(i+1) - b_i
            w = p * gens[-1] + b - prev
            if miss(w, P // g * w + 1):
                continue
            term = (P - 1) * (b - prev)
            yield from _pruned_extend(degree, k, bs + (b,), partial + term, g, gens + (w,), P // g)


def _paranoid_extend(k, target, a, bs, partial, P):
    """Scan every exponent level explicitly (no solving).  Nodes follow the
    convention of :func:`_pruned_extend`: the root has b_0 = 0, the bracket
    ``partial`` = 1 - a and P = a, every stage adds (P-1)(b - prev), and
    every b exceeds max(prev, a)."""
    depth = len(bs) + 1
    prev = bs[-1] if bs else 0
    for b in range(max(prev, a) + 1, target + 2):
        total = partial + (P - 1) * (b - prev)
        if total + (k - depth) > target:
            return
        Pn = gcd(P, b)
        if depth == k:
            if total == target and Pn == 1:
                yield a, bs + (b,)
        elif 2 <= Pn < P:
            yield from _paranoid_extend(k, target, a, bs + (b,), total, Pn)


def _finalize(degree: int, a: int, bs: tuple[int, ...]) -> CurveRecord | None:
    # One gcd-chain walk validates the search's data and gives the
    # generators; only survivors of the counting check become Newton pairs
    # (validated again; a valid characteristic sequence has valid Newton
    # pairs) and a record.  No tangent-line filter is needed: the three
    # smallest members are 0, a and min(2a, b_1) = m_1 + m_2, and for d >= 3
    # the check's j = 1 condition R(d+1) = 3 forces min(2a, b_1) <= d.
    generators = _generators(*inv.characteristic_chain(a, bs))
    if not bl_check_unicuspidal(degree, generators).passed:
        return None
    return curve_record(degree, inv.newton_from_characteristic(a, bs), existence=CANDIDATE)


# ---------------------------------------------------------------------------
# classification: attribution + existence resolution

def classify_record(record: CurveRecord) -> CurveRecord:
    """Attach family attribution, Kodaira dimension and existence status.

    Existence is proved complete only for degrees <= 30, so a record above
    30 is flagged "frontier"."""
    spec = attribute_family(record.degree, record.newton)
    status, chain = resolve_existence(record.degree, record.mult)
    if status == CANDIDATE and spec is not None:
        status = PROVED_FAMILY
    flags = record.flags
    if record.degree > 30 and FLAG_FRONTIER not in flags:
        flags = flags + (FLAG_FRONTIER,)
    return replace(
        record,
        family=spec,
        kodaira=None if spec is None else kodaira_of_kind(spec.kind),
        existence=status,
        reduction_chain=chain,
        flags=flags,
    )


def classify_range(max_degree: int, worker_count: int = 1) -> list[CurveRecord]:
    """Every candidate of degree <= max_degree over every admissible pair
    count k = 1..max_pairs_bound(d), attributed and existence-resolved.

    The candidate list is exhaustive at every degree.  Existence is proved
    complete only for degrees <= 30; records above 30 are flagged
    "frontier".  Workers parallelize over the (degree, pair count) grid;
    the merge preserves canonical order.
    """
    cells = [
        (d, k)
        for d in range(3, max_degree + 1)
        for k in range(1, max_pairs_bound(d) + 1)
    ]
    return _classify_cells(cells, worker_count)


def _classify_cells(cells: list[tuple[int, int]], worker_count: int) -> list[CurveRecord]:
    """The classified candidates of the (degree, pair count) cells, one
    search task per cell, in canonical order."""
    # the cells are distinct and k = len(newton): no record repeats
    records = _run_tasks(lambda cell: enumerate_candidates(SearchConfig(*cell)), cells, worker_count)
    records.sort(key=CurveRecord.sort_key)
    return [classify_record(record) for record in records]
