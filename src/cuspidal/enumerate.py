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
      the semigroup generators of its gcd chain, where the walk solves
      it.  The chain and the delta solve prove what the general check
      would test, so ``pruned`` counts straight off the Apery set of the
      node that solved the leaf, joined with the last generator, and
      resumes past the j that the probe which entered the node checked
      (``semigroup._leaf_check``); ``paranoid`` runs the general
      ``bl_check_unicuspidal``.  Only a survivor leaves the walk, and its
      record is built after the walk, once, with the generators that were
      checked (``_finalize``).

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
    below fails (iii) and the node is not entered.  The probe builds no
    table: each node carries the Apery set of a in the span of its
    generators, a child's set follows from its parent's in one merge, and
    the stage-two sweep of the counting check (``semigroup._sweep``)
    counts R_T off it (``_span_miss``), stopping at the last j that can
    still cut (``_sweep`` proves the bound).  Only the leaves that survive
    the cut reach the counting check.  Every count below a node, its
    children's probes and its leaf's check, starts past the j*d <=
    p_i w_(i+1) that the probe entering the node found exact.
  - the first pair's window: at the root, T = <a, b_1> for a child of gcd
    g, and every member of it is x a + y b_1 with 0 <= y < a/g in exactly
    one way.  So the b_1 that pass the prefix cut at j <= min(J, 2) form
    one interval per (a, g) in closed form (``semigroup._first_pair_window``
    proves it), and the root runs its b_1 loop over that interval only.  It
    cuts exactly the b_1 that the probe would cut at j <= 2, without a
    probe, and each b_1 left is still probed at every j <= J.
  - one run per child gcd: the child's span T only loses members below
    each point as b rises, so the b of one gcd g that pass the prefix cut
    form one run (``_pruned_extend`` proves it).  Each node finds its ends
    from the group's largest b down (``_passing_run``), O(log) probes per
    gcd and one for a group that over-counts at its largest b, and enters
    every b between them unprobed.

* ``paranoid`` scans the full characteristic box with only
  provably-lossless cuts: the budget bound b_j <= (d-1)(d-2) + 1 (the
  delta bracket dominates the telescoped exponent differences) and the
  monotone budget break within each loop.

Emitted records always satisfy a <= d - 1 and m_1 + m_2 <= d, the
tangent-line bound.  Neither is a filter of its own: the counting
criterion's j = 1 condition implies both (see ``_finalize``).

One walk serves a range of pair counts: a node that has fixed b_1..b_i
solves the leaf with i + 1 pairs when that count is served and goes
deeper while a larger one is, so ``classify_range`` walks each degree's
tree once for every k, while ``enumerate_candidates`` serves its one k
(see ``_pruned_extend`` for why the shared cuts lose nothing).

The search is embarrassingly parallel over (degree, leading multiplicity
a): each pair is one task (``pruned`` skips an a with fewer prime factors
than the smallest pair count, which serves no leaf), and one task list
serves every caller (``_search``).  Before it makes any task the search
refuses a degree whose leaves the counting check would refuse
(``semigroup._check_leaf_size``), from d = 46,343 on: no record of such a
degree exists, as every leaf there fails at j <= 2 or needs more than
``TABLE_BIT_CAP`` bits, so the task list stays bounded.  A search runs in
two passes: the tasks walk their trees and return only the leaves that
pass the counting check, and then the caller builds their records in task
order, classified for ``classify_range`` and the tables.  The calling
process runs the tasks in order.
With more than one worker, once the call has run for a fixed delay (10 ms) and
tasks remain, it forks helpers and works alongside them on the rest,
every process taking the next task index from one token passed around
through a pipe; so a search shorter than the delay never forks.  The
results are merged by a canonical sort, so output is deterministic for
any worker count.
"""

from __future__ import annotations

import os
import pickle
import signal
import time
from collections.abc import Sequence
from dataclasses import dataclass, replace
from math import gcd, inf, isqrt

from . import invariants as inv
from .existence import CANDIDATE, MAX_DEGREE, PROVED_FAMILY, resolve_existence
from .families import attribute_family, kodaira_of_kind
from .records import FLAG_FRONTIER, CurveRecord, _record
from .semigroup import _check_leaf_size, _first_pair_window, _generators, _join, _leaf_check
from .semigroup import _sweep, bl_check_unicuspidal

PRUNED = "pruned"
PARANOID = "paranoid"

# how long a call runs its tasks alone before it forks helpers (see
# _run_tasks): about three times a d=60, k=3 search (2.9 ms serial at best on
# a shared 2-core host, medians 3.0-5.0 ms as its load varies), so short
# searches stay serial; a longer delay only costs long calls more
_FORK_DELAY_S = 0.01


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
    return _search([(d, range(k, k + 1))], mode, config.worker_count)


def _search(
    cells: Sequence[tuple[int, range]], mode: str, worker_count: int, classify: bool = False
) -> list[CurveRecord]:
    """The records of every cell (degree, range of pair counts), in
    canonical order, from the one ``_run_tasks`` call of a search;
    attributed and existence-resolved when ``classify`` is set.

    Two passes.  In the first, one task per (degree, a) walks the tree
    below a once for every pair count of its cell and checks each leaf
    where it is solved, and only the passing leaves come back.  In the
    second, the caller builds their records, in task order
    (``_finalize``).  The callers' cells hold each (degree, k) once, and
    k = len(newton), so no record repeats.

    A task that built its own records would switch between the walk and
    the record code once per task, and that costs more than building them
    all in one run.  Building them in the caller keeps one fork per search,
    and helpers send back leaves, which pickle smaller than records.

    Each cell's degree is first checked against the counting cap
    (``semigroup._check_leaf_size``), which raises the error of the leaf
    check before any task is made; past the cap no leaf can pass, so no
    record is lost.

    ``pruned`` makes no task for an a with fewer prime factors (with
    multiplicity) than the smallest pair count k of the cell, the start of
    ``ks`` (``_omega_at_least``), and loses nothing by it.  A leaf with k
    pairs has a = p_1 ... p_k with every p_j >= 2, so Omega(a) >= k.  For
    an a with Omega(a) < k, the task's root serves no leaf, since
    depth 1 < k; and every proper divisor g of a has Omega(g) <=
    Omega(a) - 1 < k - 1, so the root's prime-factor filter passes no
    child, and the task would end without a probe.
    ``paranoid`` keeps every a, as the oracle of the cuts.  The cut changes
    nothing for a cell with k = 1, such as every cell of
    ``classify_range``; at d = 60 with k = 3 and with k = 4 it leaves 22
    of the 78 tasks.

    The task list is bounded: for one degree at most 30,894 tasks, 3.0 MiB
    (d = 46,342, k = 1; ``paranoid`` 46,340 and 4.5 MiB), and about N^2/3
    tasks for ``classify_range(N)``, 0.8 MiB at N = 200 and 31 MiB at
    N = 1,000.
    """
    for degree, _ in cells:
        _check_leaf_size(degree)
    tasks = [
        (d, ks, a) for d, ks in cells for a in _a_range(d, mode)
        if mode == PARANOID or _omega_at_least(a, ks.start)
    ]
    leaves = _run_tasks(lambda task: _search_a(*task, mode), tasks, worker_count)
    records = [_finalize(*leaf, classify=classify) for leaf in leaves]
    records.sort(key=CurveRecord.sort_key)
    return records


def _run_tasks(fn, tasks: Sequence, worker_count: int) -> list:
    """Map ``fn`` over ``tasks`` and concatenate the resulting lists in task
    order.

    The caller runs the tasks in order.  With W = min(worker_count,
    len(tasks), CPUs) > 1, once ``_FORK_DELAY_S`` has passed since the call
    began and at least two tasks are left, it forks min(W, tasks left) - 1
    helpers and shares the rest with them (see :func:`_share_tasks`),
    whose results follow its own in task order.  One worker, or a
    platform without ``os.fork``, never forks.

    Cost: a call shorter than the delay saves the whole fork, copy-on-write
    and join cost (~2-5 ms for a search on 2 cores).  A longer call works
    alone for the delay plus the rest of the task running when it passes,
    and is slower than forking at once.  With short tasks it loses 1 - 1/W
    of that stretch, so ``_FORK_DELAY_S``/2 with two workers; it loses up
    to the whole stretch when one long task, run after the fork, sets when
    the call ends.  When the delay passes inside a long task near the end
    of the list, the call forks with almost no work left and pays the fork
    for nothing.

    The search hands it a list of every task, bounded because the search
    refuses a degree past the counting cap before it makes one.
    """
    workers = min(worker_count, len(tasks), _cpu_count()) if hasattr(os, "fork") else 1
    fork_at = time.perf_counter() + _FORK_DELAY_S if workers > 1 else inf
    parts = []
    for index, task in enumerate(tasks):
        left = len(tasks) - index
        if left > 1 and time.perf_counter() >= fork_at:
            parts += _share_tasks(fn, tasks, index, min(workers, left))
            break
        parts.append(fn(task))
    return [item for part in parts for item in part]


def _share_tasks(fn, tasks: Sequence, start: int, workers: int) -> list:
    """fn(task) for every task from index ``start`` on, in task order, run
    by the caller and ``workers`` - 1 forked helpers.

    A helper inherits the caller's memory, so ``fn`` may be any callable, a
    closure included, and the tasks are never pickled.  Every process takes
    the next task index from the token, one 8-byte message in a pipe that
    the caller fills with ``start`` before it forks (see
    :func:`_take_tasks`), so the tasks are handed out as processes free up.
    A helper sends its (index, result) pairs, or the exception a task
    raised, pickled through a pipe of its own and leaves by ``os._exit``;
    the caller reads every pipe, reaps every helper and re-raises a
    helper's exception.  A helper that ends without a payload raises
    RuntimeError.  Whatever goes wrong, no helper outlives the call and no
    pipe is left open.  Forking copies only the calling thread; the package
    starts no others.
    """
    token = os.pipe()
    pipes = {}  # pid -> read end of the helper's pipe, until it is reaped
    try:
        os.write(token[1], start.to_bytes(8, "little"))
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
    return [part for _, part in done]


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


def _search_a(degree: int, ks: range, a: int, mode: str) -> list[tuple]:
    """(degree, (b_1..b_k), generators) of every leaf with leading
    multiplicity a at degree d that passes the counting check, for every
    pair count in ``ks``.

    Each walk checks a leaf where it solves it: ``pruned`` off its node's
    Apery set (``semigroup._leaf_check``), ``paranoid`` on the generators
    of the leaf's gcd chain with the general ``bl_check_unicuspidal``,
    which proves what the leaf check assumes.  The two agree on every
    leaf, so the modes still cross-validate the cuts.
    """
    if mode == PRUNED:
        leaves = _pruned_extend(degree, ks, (), 1 - a, a, (a,), 0, [0])
    else:
        leaves = _paranoid_extend(degree, ks, a, (), 1 - a, a)
    return [(degree, bs, gens) for bs, gens in leaves]


def _omega_at_least(n: int, count: int) -> bool:
    # does n have at least `count` prime factors (with multiplicity)?  A
    # cofactor left above 1 is one more prime, so trial division stops one
    # factor short of count
    if n < 2 ** count:
        return False
    found = 0
    f = 2
    while f * f <= n and found < count - 1:
        while n % f == 0:
            n //= f
            found += 1
        f += 1
    if n > 1:
        found += 1
    return found >= count


def _pruned_extend(degree, ks, bs, partial, P, gens, p, apery):
    """Yield ((b_1..b_k), (w_1..w_(k+1))) of every leaf that passes the
    counting check, for every pair count k in the range ``ks``, with the
    final exponent solved exactly.

    The node has fixed bs = (b_1..b_i), the gcd P = P_(i+1) of a, b_1..b_i,
    the delta bracket ``partial`` of those stages and the generators
    gens = (w_1..w_(i+1)) of every leaf below it; p is the Newton
    p_i = P_i/P_(i+1) that w_(i+2) needs.  The root is the node i = 0 with
    b_0 = 0, p_0 = 0 and partial = 1 - a: the first stage's
    (a-1)(b_1-1) = (a-1)(b_1 - b_0) + 1 - a, so every stage adds
    (P-1)(b - prev), w_2 = p_0 w_1 + b_1 - b_0 = b_1, and one rule serves
    every depth.  Every b exceeds max(prev, a).

    Every count below the node starts at first_j = p w_(i+1)//d + 1.  The
    probe that entered the node (or the run it lies in) found the node's
    span exact at every j*d <= p w_(i+1), that is at every j < first_j.  A
    child's span and the leaf's semigroup add a generator w > p w_(i+1) to
    the node's span, so at those j they count what the node's span does,
    and no floor can cut there; the root, p = 0, counts from j = 1.

    The node solves its leaf, b = prev + Q, and checks it on the spot
    (``semigroup._leaf_check``).  The leaf's last generator is w = p
    w_(i+1) + Q with gcd(P, w) = gcd(P, Q) = 1, so by the span rule below,
    with g = 1 and n = P, its Apery set of a is {s + c w : s in ``apery``,
    0 <= c < P}.  Only a passing leaf is yielded, with its generators.

    One walk serves every k in ``ks``: the node solves the leaf with
    k = i + 1 pairs when that k is served, and enters its children only
    while a larger k is.  The budget and the prime-factor filter take the
    loosest larger k served, max(ks.start, i + 2), and that is lossless for
    every k: both only skip a child below which no leaf of k pairs exists,
    and both skip less for a smaller k (each of the k - i - 1 later stages
    adds at least 1 to the bracket, and the gcd drops at each of them, so g
    has at least k - i - 1 prime factors).  The leaf solve reads no bound,
    so every served k gets exactly the leaves of a walk of its own.  No
    other cut depends on k: the prefix cut checks every j <= J =
    floor((d-3)/2).

    The children are grouped by their gcd g = gcd(P, b_(i+1)): for each
    proper divisor g of P with enough prime factors that has a b, the node
    makes one probe (``_span_miss``; a gcd with no child makes none).  The
    node carries ``apery``, the sorted Apery set of a = w_1 in <gens>: the
    least member of each residue class mod a that <gens> meets, a/P of
    them, the root's being [0].  Its child T = <gens, w> of gcd g gets
    {s + c w : s in ``apery``, 0 <= c < n}, n = P/g (proved below), and
    ``semigroup._sweep`` counts R_T(j*d + 1) off it as the counting check
    counts R off the Apery set of w_1.  The probe builds the set of each w
    it probes, and a child the node enters builds its own (``_join``).
    Such a child has Newton p' = P/g, and every later generator of a leaf
    below it is at least p' w + 1: w_(m+1) = p_m w_m + Q_m with Q_m >= 1,
    and the generators increase.  So each leaf's semigroup contains the
    child's span and agrees with it below that floor, and a child whose
    span misses the criterion there is not entered.  At the root (bs = ())
    the b range of each gcd is first narrowed to the window of b_1 whose
    span <a, b_1> passes j <= min(J, 2) (``_first_pair_window``); a b_1
    outside it would miss there, so the narrowing cuts what the probe
    would, with no probe.

    The b of one group that the probe passes form one run, so the node
    finds its ends from the group's largest b down (``_passing_run``) and
    enters every b between them with no probe of its own.  Let n = P/g and
    write P_l = gcd(w_1..w_l), n_l = P_(l-1)/P_l = p_(l-1).

    - The gens are telescopic, so n w > F, the largest multiple of P
      outside <gens>.  Each w_(l+1) = n_l w_l + b_l - b_(l-1) exceeds
      n_l w_l, as b_l > b_(l-1) (Zariski's condition on the semigroup of a
      plane branch).  Let F_l be the largest multiple of P_l outside
      <w_1..w_l>, so F_1 = -w_1 < n_1 w_1 = 0.  If F_(l-1) <
      n_(l-1) w_(l-1), then n_l w_l, a multiple of P_(l-1) and at least
      w_l > n_(l-1) w_(l-1) > F_(l-1), lies in <w_1..w_(l-1)>, so F_l =
      F_(l-1) + (n_l - 1) w_l (Kirfel-Pellikaan 1995), which is below
      n_l w_l.  So F = F_(i+1) < p w_(i+1) < w < n w.
    - So each member of T = <gens, w> has one representation s + c w with
      s in <gens> and 0 <= c < n: n w is a multiple of P above F, so it
      lies in <gens>, and gcd(P, w) = gcd(P, b) = g, so no c w with
      0 < c < n is a multiple of P.
    - So T's Apery set of a is {s + c w : s in ``apery``, 0 <= c < n}.
      Every member of T is s + c w + t a with s in ``apery`` and t >= 0,
      so the least member of each class has the form s + c w.  Two of
      them in one class mod a, c >= c', have (c - c') w = s' - s (mod a);
      P divides a, s and s', so P divides (c - c') w, n divides c - c'
      and c = c'.  Then s = s', as ``apery`` holds one member per class.
    - So R_T(M) = sum over c < n of R_<gens>(M - c w), and R_T(j*d + 1) can
      only fall as b, and with it w, rises.
    - So the passing b lie between a down-set and an up-set.  A b that
      over-counts at j makes every smaller b over-count at j.  A b that
      misses on the exact side at j (R_T(j*d + 1) below (j+1)(j+2)/2 with
      j*d <= n w) makes every larger b miss there too, since R_T only
      falls and the floor n w + 1 only rises.  The passing b are those in
      neither set.

    A b in both sets fails, every smaller b over-counts and every larger
    one misses: the group has no passing b, so whichever way the search
    for the run steps from it, it loses nothing.
    """
    depth = len(bs) + 1
    target = (degree - 1) * (degree - 2)
    prev = bs[-1] if bs else 0
    low = max(prev, gens[0])
    # the probe that entered this node checked every j*d <= p w_(i+1)
    first_j = p * gens[-1] // degree + 1
    # depth <= ks[-1] at every node, so depth >= ks.start means depth in ks
    if depth >= ks.start:
        Q, r = divmod(target - partial, P - 1)
        if r == 0 and prev + Q > low and gcd(P, Q) == 1:
            leaf = gens + (p * gens[-1] + Q,)
            if _leaf_check(degree, leaf, apery, first_j).passed:
                yield bs + (prev + Q,), leaf
        if depth == ks[-1]:
            return
    # the stages after this one, for the loosest k served below the node
    later = ks.start - depth if depth < ks.start else 1
    # the budget: each later stage adds at least 1 to the bracket, so the
    # term of b, increasing in b, may use at most `room`
    room = target - partial - later
    last_j = (degree - 3) // 2
    # a child's generator w_(i+2) = p_i w_(i+1) + b_(i+1) - b_i = b + shift
    shift = p * gens[-1] - prev
    for g in range(2, P // 2 + 1):
        if P % g or not _omega_at_least(g, later):
            continue
        start, top = low, prev + room // (P - 1)
        if not bs:  # b_1 outside the window fails the probe at j <= 2
            lo, hi = _first_pair_window(degree, last_j, P, g)
            start, top = max(start, lo), min(top, hi)
        ws = []
        for b in range(start // g * g + g, top + 1, g):
            if gcd(P, b) == g:
                ws.append(b + shift)
        if not ws:
            continue
        n = P // g
        miss = _span_miss(degree, last_j, first_j, gens, apery, n)
        for w in ws[_passing_run(miss, ws, n)]:
            b = w - shift
            term = (P - 1) * (b - prev)
            yield from _pruned_extend(
                degree, ks, bs + (b,), partial + term, g, gens + (w,), n, _join(apery, w, n)
            )


def _span_miss(degree, last_j, first_j, gens, apery, n):
    """The prefix probe of a node's children of one gcd g, n = P/g:
    ``miss(w, floor)``, the first (j, R_T(j*d + 1)) of T = <gens, w> that
    ``semigroup._sweep`` reports with that floor, counted from ``first_j``.

    ``apery`` is the node's Apery set of a = w_1 in <gens>, a/P members.
    T's is {s + c w : s in ``apery``, 0 <= c < n} (see
    :func:`_pruned_extend`), built by ``semigroup._join`` for each w
    probed, so the sweep counts exactly what a table of T's members would.

    A miss means that every semigroup S which contains T and has the same
    members below ``floor`` fails the counting criterion, which asks
    R_S(j*d + 1) = (j+1)(j+2)/2 at every j <= d-2: T <= S gives
    R_S(x) >= R_T(x), and S and T agree on [0, j*d] when j*d < floor, so
    R_S(j*d + 1) = R_T(j*d + 1).  The search probes with floor n w + 1,
    below every later generator of a leaf under the child, so a child that
    misses is cut losslessly.  Starting at ``first_j`` = p w_(i+1)//d + 1
    changes no answer, at any floor: for j*d <= p w_(i+1) < w, T counts
    what the node's span does, and the probe that entered the node found
    that exact, so neither side can cut there.
    """

    def miss(w, floor):
        return _sweep(degree, gens[0], _join(apery, w, n), last_j, floor, first_j)

    return miss


def _passing_run(miss, ws: Sequence[int], n: int) -> slice:
    """The w of the increasing list ``ws`` that pass ``miss(w, n*w + 1)``,
    as a slice of it, in at most 3 bit_length(len(ws)) probes.

    The passing w form one run (see :func:`_pruned_extend`): the w that
    over-count form a down-set and those that miss on the exact side an
    up-set, so a failing w below a passing one over-counts and a failing w
    above it misses on the exact side.  A bisection of ``ws`` that probes
    the largest w first finds one passing w:

    - the largest over-counts: so does every smaller w, and nothing passes
      (one probe);
    - it misses on the exact side: the run lies below it, and the
      bisection goes on over the rest, stepping up from a w that
      over-counts and down from one that misses;
    - it passes: the run ends at the top.

    Below the passing w every failing w over-counts and above it every
    failing w misses, so two more bisections find the ends.  The start of
    a run that ends at the top is galloped for instead: the probes step
    down to the top less 1, 2, 4, ... until a w fails, then bisect between
    that w and the last one that passed, so a run of the top w alone costs
    two probes.

    No order loses a run: a w that both over-counts and misses (the probe
    reports whichever j comes first) makes every smaller w over-count and
    every larger one miss, so no w passes, and either step is safe.
    """
    lo, hi = 0, len(ws) - 1
    mid = hi
    while lo <= hi:
        cut = miss(ws[mid], n * ws[mid] + 1)
        if cut is None:
            break
        j, count = cut
        if count > (j + 1) * (j + 2) // 2:
            lo = mid + 1
        else:
            hi = mid - 1
        mid = (lo + hi) // 2
    else:
        return slice(0)
    first = last = mid
    # a run that ends at the top gallops down to the top less step = 1, 2,
    # 4, ... until a w fails, then bisects (step 0)
    step = 1 if last == len(ws) - 1 else 0
    while lo < first:
        t = max(last - step, lo) if step else (lo + first) // 2
        if miss(ws[t], n * ws[t] + 1) is None:
            first, step = t, 2 * step
        else:
            lo, step = t + 1, 0
    while last < hi:
        t = (last + hi + 1) // 2
        if miss(ws[t], n * ws[t] + 1) is None:
            last = t
        else:
            hi = t - 1
    return slice(first, last + 1)


def _paranoid_extend(degree, ks, a, bs, partial, P):
    """Yield ((b_1..b_k), (w_1..w_(k+1))) of every leaf that passes the
    general counting check, for every pair count k in ``ks``, scanning every
    exponent level explicitly (no solving).  Nodes follow the convention of
    :func:`_pruned_extend`: the root has b_0 = 0, the bracket ``partial`` =
    1 - a and P = a, every stage adds (P-1)(b - prev), and every b exceeds
    max(prev, a); the budget break takes the loosest k served at or below
    the node."""
    depth = len(bs) + 1
    target = (degree - 1) * (degree - 2)
    prev = bs[-1] if bs else 0
    later = max(ks.start, depth) - depth
    for b in range(max(prev, a) + 1, target + 2):
        total = partial + (P - 1) * (b - prev)
        if total + later > target:
            return
        Pn = gcd(P, b)
        if depth in ks and total == target and Pn == 1:
            gens = _generators(*inv.characteristic_chain(a, bs + (b,)))
            if bl_check_unicuspidal(degree, gens).passed:
                yield bs + (b,), gens
        elif depth < ks[-1] and 2 <= Pn < P:
            yield from _paranoid_extend(degree, ks, a, bs + (b,), total, Pn)


def _finalize(
    degree: int, bs: tuple[int, ...], gens: tuple[int, ...], *, classify: bool = False
) -> CurveRecord:
    """The record of a leaf (a; ``bs``), a = gens[0], that passed the
    counting check in the search's first pass (``_search_a``), built once
    by ``records._record`` with the generators that were checked and, when
    ``classify`` is set, with the fields of ``classify_record``
    (``_classification``) as positional arguments.

    Every field comes off the leaf's one gcd chain
    (``invariants.characteristic_chain``, which validates it): the Newton
    and the Puiseux pairs both (``invariants._pairs_from_chain``), the
    multiplicity runs from the Puiseux pairs (``invariants._staged_euclid``).
    It needs no strict re-check: the chain proves the Newton pairs valid
    (see :func:`~cuspidal.invariants.newton_from_characteristic`), and the
    delta equation the walk solved makes delta the genus, so delta is not
    recomputed from the runs.  No tangent-line filter is needed: the three
    smallest members are 0, a and min(2a, b_1) = m_1 + m_2, and for d >= 3
    the check's j = 1 condition R(d+1) = 3 forces min(2a, b_1) <= d.
    """
    a = gens[0]
    newton, puiseux = inv._pairs_from_chain(a, *inv.characteristic_chain(a, bs))
    mult = inv._staged_euclid(puiseux)
    delta = inv.genus_target(degree)
    if not classify:
        return _record(degree, newton, puiseux, mult, delta, gens)
    classified = _classification(degree, newton, mult)
    return _record(degree, newton, puiseux, mult, delta, gens, *classified)


# ---------------------------------------------------------------------------
# classification: attribution + existence resolution

def classify_record(record: CurveRecord) -> CurveRecord:
    """Attach family attribution, Kodaira dimension and existence status.

    Existence is proved complete only for degrees <= MAX_DEGREE (30), so a
    record above it is flagged "frontier"."""
    fields = _classification(record.degree, record.newton, record.mult, record.flags)
    return replace(record, **dict(zip(_CLASSIFIED, fields)))


# the fields classify_record attaches, in CurveRecord's order
_CLASSIFIED = ("family", "kodaira", "existence", "reduction_chain", "flags")


def _classification(degree: int, newton: inv.Pairs, mult: inv.MultRuns, flags=()) -> tuple:
    # the values of the _CLASSIFIED fields, for the search's leaves too,
    # which are built with them
    spec = attribute_family(degree, newton)
    status, chain = resolve_existence(degree, mult)
    if status == CANDIDATE and spec is not None:
        status = PROVED_FAMILY
    if degree > MAX_DEGREE and FLAG_FRONTIER not in flags:
        flags = flags + (FLAG_FRONTIER,)
    return spec, None if spec is None else kodaira_of_kind(spec.kind), status, chain, flags


def classify_range(max_degree: int, worker_count: int = 1) -> list[CurveRecord]:
    """Every candidate of degree <= max_degree over every admissible pair
    count k = 1..max_pairs_bound(d), attributed and existence-resolved.

    The candidate list is exhaustive at every degree.  Existence is proved
    complete only for degrees <= 30; records above 30 are flagged
    "frontier".  Each (degree, a) is one search task, whose one walk serves
    every pair count of its degree; workers share the tasks of all
    degrees, and after the walk each passing leaf's record is built once,
    with the fields of :func:`classify_record`, and the merge preserves
    canonical order.
    """
    cells = [(d, range(1, max_pairs_bound(d) + 1)) for d in range(3, max_degree + 1)]
    return _search(cells, PRUNED, worker_count, classify=True)
