"""Numerical semigroup of a cusp and the unicuspidal counting criterion.

The local intersection multiplicities of a cusp with other curve germs form
a numerical semigroup.  Its minimal generators come from the Newton pairs by
the recursion ``w_1 = P_1``, ``w_2 = Q_1``, ``w_j = p_{j-2} w_{j-1} +
Q_{j-1}`` (``_generators``, shared by every caller).  A search candidate
is checked on the generators of its gcd chain, at O(k) cost, and only a
passing one gets a record, built once with the same generators.
Membership up to a bound is materialized as a bitset inside one Python
integer (bit x set iff x is in the semigroup), which keeps the closure
computation and the counting function at C speed even for bounds in the
tens of millions.

The Borodzik-Livingston counting criterion, specialized to a single cusp of
a degree-d rational cuspidal curve, demands

    R(j*d + 1) = (j+1)(j+2)/2   for every j in {0, ..., d-2},

where R(k) counts semigroup elements in [0, k).  It is a necessary
condition for a candidate cusp to be realized by a plane curve and is the
main pruning filter of the enumerator.  The check builds no membership
bit it does not read, and each saving is lossless:

1. A table closed over [0, B] is exact on [0, B], so checking j <= 2 needs
   only [0, 2d].  Stage one checks j <= 2, where most candidates fail, on
   O(d) bits, with one popcount of the table int per j; only the survivors
   go on to stage two, which builds no table.  Stage one's is the only
   membership table the package closes: the search's prefix cut counts
   each span off its Apery set with the stage-two sweep (item 3).
2. A plane-branch semigroup is symmetric (Kunz 1970).  When S is symmetric
   with conductor (d-1)(d-2), i.e. delta equals the genus,
   R(j*d + 1) - (j+1)(j+2)/2 = R((d-3-j)*d + 1) - (d-2-j)(d-1-j)/2, so the
   first failing j is always <= floor((d-3)/2) and stage two stops there.
3. Stage two needs no table: it counts R off the Apery set of w_1, the
   least member of each residue class mod w_1 that the semigroup meets.
   In any semigroup of non-negative integers that contains w_1 the members
   <= M are r + t w_1 for Apery members r <= M and 0 <= t <= (M - r)//w_1,
   each once, which gives R(M + 1) in closed form per Apery member; one
   ascending sweep over the sorted set serves every j, at w_1 <= d members
   for a numerical semigroup that passes j = 1.  The generators of a plane
   branch are telescopic (Kirfel-Pellikaan 1995), and then the Apery set
   is a box: every member has exactly one representation sum a_i w_i with
   a_1 >= 0 and 0 <= a_i < n_i for i >= 2, so the box sums
   sum_(i>=2) a_i w_i are pairwise incongruent mod w_1 (two in one class,
   r < r', would give r' the second representation r + t w_1), there are
   prod n_i = w_1 of them, and each is the least member of its class,
   since every member is a_1 w_1 plus one of them.  Any other generators
   get their Apery set from a round-robin pass (``_round_robin``).  At
   the point M = j*d the sweep (``_sweep``) needs
   #{r <= M : r mod w_1 > s} for s = M mod w_1.  It steps M by d as
   (M//w_1, s) and keeps the residues of the Apery members added so far
   in one of two stores.  Every such s is a multiple
   of g = gcd(d, w_1).  When g >= ``BUCKET_GCD`` it keeps w_1/g + 1
   counts, one per bucket ceil(rho/g), and sums those above s/g, which is
   exact since rho > s iff ceil(rho/g) > s/g.  Otherwise it keeps the
   residues as the bits of a w_1-bit int, shifted and popcounted at each
   point.  A large g makes the bucket list short, while each insert into
   the int costs O(w_1).

Symmetry, the conductor and the telescopic order are not assumed: an
O(k^2) test on the generators proves them.  No stage whose largest probe
passes ``TABLE_BIT_CAP`` bits runs.

A search leaf enters next to stages 1-2 (``_leaf_check``), where the walk
solves it: its gcd chain makes the generators telescopic and its delta
solve fixes the conductor (d-1)(d-2), so the leaf needs neither the test
nor stage one's table and runs the stage-two sweep alone, which reports
the same first failing j and R as the two stages would.  It counts off
the Apery set of its node joined with the last generator (``_join``), and
resumes past the j that the probe which entered the node already checked
exactly.  The search's prefix probe (``enumerate._span_miss``) runs the
same sweep, with a floor, on the Apery set of w_1 in the span of the
generators a node has fixed, resumes past the same j, and stops at the
last j that can still cut (``_sweep``).  The search refuses a degree past
the cap before it makes any task (``_check_leaf_size``), so a leaf is
only ever checked below it.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd, inf, prod
from typing import NamedTuple

from .invariants import Pairs, newton_to_puiseux

# Largest range [0, J*d] a counting-check stage covers, in bits: the size of
# stage one's membership table, and for stage two a bound on its work
TABLE_BIT_CAP = 1 << 30

# The store of the stage-two sweep (``_sweep``): from gcd(d, w_1) =
# BUCKET_GCD up it keeps the added residues as per-bucket counts, below it
# as the bits of a w_1-bit int.  On the criterion-7 family members up to
# d = 20,000, every threshold from 16 to 128 cut stage two by the same third
# and 256 by less; below 32 the search leaves at d <= 60 (g <= 30) take the
# buckets and get slower
BUCKET_GCD = 128


def generators_from_newton(pairs: Pairs) -> tuple[int, ...]:
    """Minimal semigroup generators (w_1, ..., w_{k+1}) of the cusp.

    The empty sequence (a smooth branch) yields (1,): a smooth point meets
    other curves with every intersection order.
    """
    if not pairs:
        return (1,)
    puiseux = newton_to_puiseux(pairs)
    return _generators([p for p, _ in pairs], [Q for _, Q in puiseux])


def _generators(ps: Sequence[int], Qs: Sequence[int]) -> tuple[int, ...]:
    """The generator recursion, unvalidated: from the Newton p_1..p_k and
    the Puiseux Q_1..Q_k, w_1 = P_1 = p_1 ... p_k, w_2 = Q_1 and
    w_(j+1) = p_(j-1) w_j + Q_j for j >= 2."""
    w = [prod(ps), Qs[0]]
    for p, Q in zip(ps, Qs[1:]):
        w.append(p * w[-1] + Q)
    return tuple(w)


def _sorted_generators(generators: tuple[int, ...]) -> tuple[int, ...]:
    if not generators:
        raise ValueError("need at least one generator")
    if min(generators) < 1:
        raise ValueError("generators must be positive")
    return tuple(sorted(set(generators)))


def _close(generators: Sequence[int], bound: int) -> int:
    """Bitset of the members of <generators> in [0, bound].

    Closes the table {0} under addition of each generator g by shift-or with
    doubling strides g, 2g, 4g, ... up to the bound: after the strides up to
    2^t g every multiple m g with m < 2^(t+1) has been added.  The table is
    exact on [0, bound] whatever the bound: a member x <= bound is a sum of
    generators, whose partial sums all stay <= x, so the mask never drops
    one that is needed.
    """
    mask = (1 << (bound + 1)) - 1
    bits = 1
    for g in generators:
        shift = g
        while shift <= bound:
            bits |= (bits << shift) & mask
            shift <<= 1
    return bits


def _first_pair_window(degree: int, last_j: int, a: int, g: int) -> tuple[int, float]:
    """(lo, hi) such that, for d/3 < a < b with gcd(a, b) = g < a, the span
    T = <a, b> passes the search's prefix probe (``enumerate._span_miss``)
    with floor n b + 1, n = a/g, at every j <= min(last_j, 2) iff
    lo < b <= hi.

    The probe at j asks R_T(j*d + 1) <= (j+1)(j+2)/2, with equality when
    j*d <= n b.  Every member of T is x a + y b with x >= 0 and
    0 <= y < n, in exactly one way, since n b = (b/g) a and no smaller
    multiple of b is a multiple of a.  Count them, with 3a > d and b > a:

    - 2a <= d.  j = 1: 0, a, 2a and b <= d would be 4 > 3, while b > d
      gives exactly 3.  j = 2, with b > d, so 2b > 2d and 2d < n b: the
      count is 5 + [5a <= 2d] (0, a, .., 4a, 5a; 6a > 2d) plus the
      x a + b <= 2d, and it must be 6.  With 5a <= 2d that means b > 2d;
      otherwise it means b <= 2d < a + b, i.e. 2d - a < b <= 2d.
    - 2a > d.  j = 1: 0, a, and b if b <= d; b > d leaves 2 < 3 with
      d < n b, so b <= d.  j = 2, with a < b <= d:
      * n >= 3: 0, a, 2a, b, a + b, 2b are six distinct members, and 3a is
        a seventh when 3a <= 2d.  When 3a > 2d every other member is a sum
        of at least three generators and passes 2d.  So b <= d when
        3a > 2d, and no b otherwise.
      * n = 2: b is an odd multiple of g = a/2 and b <= d < 2a, so b = 3g
        and 2b = 3a <= 2d.  The count is 0, a, 2a, 3a, b, a + b, and
        2a + b if at most 2d (4a and 3a + b pass 2d): 6 exactly when
        2d - 2a < b <= d.  With 3a > 2d no b of gcd g lies there.

    last_j = 0 probes nothing, so every b passes.
    """
    if last_j == 0:
        return 0, inf
    if 2 * a <= degree:
        if last_j == 1:
            return degree, inf
        if 5 * a <= 2 * degree:
            return 2 * degree, inf
        return 2 * degree - a, 2 * degree
    if last_j == 1:
        return 0, degree
    if a // g == 2:
        return 2 * degree - 2 * a, degree
    return (0, degree) if 3 * a > 2 * degree else (0, 0)


def _telescopic(generators: tuple[int, ...]) -> tuple[int, list[int]] | None:
    """Frobenius number and box sizes n_2..n_k of a telescopic semigroup,
    or None.

    For sorted generators w_1 < ... < w_k with gcd 1 let e_i = gcd(w_1..w_i)
    and n_i = e_(i-1) / e_i.  The sequence is telescopic when n_i w_i lies
    in <w_1..w_(i-1)> for every i >= 2, as the generators of a plane branch
    do (Kirfel-Pellikaan 1995).  Then every member has exactly one
    representation sum a_i w_i with a_1 >= 0 and 0 <= a_i < n_i for i >= 2,
    the semigroup is symmetric, and its Frobenius number is
    sum_(i>=2) (n_i - 1) w_i - w_1.  The test reads membership of n_i w_i off
    that representation over the prefix, already known to be telescopic:
    for l = i-1 down to 2, a_l is fixed mod n_l by x - a_l w_l = 0 (mod e_(l-1)),
    and x is a member iff what is left for a_1 is >= 0.  O(k^2) steps.

    By the representation, coefficients a_i >= n_i add no new members, and
    the box 0 <= a_i < n_i is the Apery set of w_1 (``_apery``).
    """
    e = [generators[0]]
    n = [1]
    for i, w in enumerate(generators[1:], 1):
        e.append(gcd(e[-1], w))
        n.append(e[-2] // e[-1])
        x = n[i] * w
        for l in range(i - 1, 0, -1):
            x -= (x // e[l]) * pow(generators[l] // e[l], -1, n[l]) % n[l] * generators[l]
        if x < 0:
            return None
    frobenius = sum((ni - 1) * w for ni, w in zip(n, generators)) - generators[0]
    return frobenius, n[1:]


def _apery(generators: tuple[int, ...], ns: Sequence[int]) -> list[int]:
    """Sorted Apery set of w_1 in a telescopic semigroup, the least member
    of each residue class mod w_1: the w_1 box sums sum_(i>=2) a_i w_i with
    0 <= a_i < n_i, for the n_2..n_k of ``_telescopic`` (item 3 of the
    module docstring says why)."""
    sums = [0]
    for w, n in zip(generators[1:], ns):
        sums = [s + t for t in range(0, n * w, w) for s in sums]
    return sorted(sums)


def _round_robin(generators: tuple[int, ...]) -> list[int]:
    """Sorted Apery set of w_1 for any sorted generators with gcd 1, by the
    round-robin algorithm (Boecker-Liptak 2007) in O(k w_1) steps.

    least[r] is the least member of class r mod w_1 found so far, starting
    from the members of <w_1>.  Adding a generator w to a semigroup with
    least members L makes the least member of class r the minimum of
    L[r - t w] + t w over 0 <= t < w_1/g, g = gcd(w, w_1) (t = w_1/g adds a
    multiple of w_1).  Relaxing class r + w from class r walks one cycle of
    r -> r + w (mod w_1), of length w_1/g; two laps from any start contain
    every run of fewer than w_1/g consecutive steps, so every such minimum
    is reached, and relaxing in place only lowers a class to another of its
    members.
    """
    w1 = generators[0]
    least = [0] + [inf] * (w1 - 1)
    for w in generators[1:]:
        g = gcd(w, w1)
        for r in range(g):  # each cycle holds one class below g
            for _ in range(2 * w1 // g):
                nxt = (r + w) % w1
                least[nxt] = min(least[nxt], least[r] + w)
                r = nxt
    return sorted(least)


class BLCheckResult(NamedTuple):
    """Outcome of the unicuspidal counting criterion at one degree.

    Stores only what the check measured: the first failing j and R(j*d + 1)
    there, both None when every j holds.  ``passed``, the expected count
    (j+1)(j+2)/2 and truthiness follow from them.
    """

    degree: int
    first_failing_j: int | None = None
    failing_count: int | None = None

    @property
    def passed(self) -> bool:
        return self.first_failing_j is None

    @property
    def failing_expected(self) -> int | None:
        j = self.first_failing_j
        return None if j is None else (j + 1) * (j + 2) // 2

    def __bool__(self) -> bool:
        return self.passed


class TableTooLargeError(ValueError):
    """The counting check would need a table of more than TABLE_BIT_CAP bits."""


def _check_table_size(degree: int, bound: int) -> None:
    if bound + 1 > TABLE_BIT_CAP:
        raise TableTooLargeError(
            f"the counting check at degree {degree} needs a {bound + 1}-bit table, "
            f"over the cap of {TABLE_BIT_CAP} bits"
        )


def bl_check_unicuspidal(degree: int, generators: tuple[int, ...]) -> BLCheckResult:
    """Check R(j*d + 1) = (j+1)(j+2)/2 for j = 0, 1, ..., d-2 in turn.

    Returns a :class:`BLCheckResult` with the first failing j and R there,
    from which the expected count and the verdict follow.  The check runs
    in two stages, each over j = 0..J:

    1. J = min(d-2, 2), on a membership table closed over [0, J*d], the
       bits below the largest point it probes.  Most candidates fail here,
       on O(d) bits.  R(d+1) and R(2d+1) are popcounts of the masked table
       int; j = 0 is not probed, as R(1) = 1 always holds.
    2. Only for a cusp that passes stage 1: J = d-2, unless the sorted
       generators are telescopic (``_telescopic``) with Frobenius number
       (d-1)(d-2) - 1, i.e. delta equals the genus; then J = floor((d-3)/2).
       R is counted off the Apery set of w_1, with no table, by one sweep
       (``_sweep``): R(d+1) = 3 puts w_1 <= d, so it costs O(d) steps.
       With g = gcd(d, w_1) it keeps the residues of the added Apery
       members in one of two stores: the bits of a w_1-bit int when
       g < ``BUCKET_GCD``, and w_1/g + 1 bucket counts ceil(rho/g)
       otherwise.  Telescopic generators give the Apery set as a box
       (``_apery``), any other input by round robin (``_round_robin``,
       O(k d) steps).

    The search checks its leaves with ``_leaf_check``, which runs stage 2
    alone, off the Apery set of the node that solved the leaf, from the
    first j that the probe entering that node has not checked, and returns
    the same result.  It checks the cap once per degree, before any task
    (``_check_leaf_size``), and raises there what this check would.

    Each saving is lossless, so the result equals, field for field, that of
    one pass over the full table:

    (1) a table closed over [0, B] is exact on [0, B] (``_close``);
    (2) a telescopic semigroup is symmetric, so with conductor
        c = (d-1)(d-2), R(c - x) = R(x) + c/2 - x for 0 <= x <= c, which
        gives R(j*d + 1) - (j+1)(j+2)/2 = R((d-3-j)*d + 1) - (d-2-j)(d-1-j)/2:
        j fails iff d-3-j does, j = d-2 always holds, and the first failing
        j is at most floor((d-3)/2);
    (3) the members <= M of a numerical semigroup are r + t w_1 with r in
        the Apery set of w_1, r <= M and 0 <= t <= (M - r)//w_1, each once;
    (4) g divides s = j*d mod w_1, so a residue rho exceeds s iff
        ceil(rho/g) > s/g, and the bucket counts above s/g give the
        residues above s.

    Any stage whose J*d + 1 passes TABLE_BIT_CAP raises
    ``TableTooLargeError`` (a ``ValueError``) before any work is done.  Only
    stage one builds a table; for stage two the cap bounds the work, not
    the memory.
    """
    if degree < 2:
        raise ValueError(f"degree must be >= 2, got {degree}")
    gens = _sorted_generators(generators)
    if gcd(*gens) != 1:
        raise ValueError(f"generators {generators} do not generate a numerical semigroup")
    # stage one: j <= min(d-2, 2) on a table over [0, J*d]
    last_j = min(degree - 2, 2)
    _check_table_size(degree, last_j * degree)
    bits = _close(gens, last_j * degree)
    for j in range(1, last_j + 1):
        count = (bits & ((2 << j * degree) - 1)).bit_count()
        if count != (j + 1) * (j + 2) // 2:
            return BLCheckResult(degree, j, count)
    if degree <= 4:  # every j checked
        return BLCheckResult(degree)
    last_j = degree - 2
    telescopic = _telescopic(gens)
    if telescopic is not None and telescopic[0] + 1 == (degree - 1) * (degree - 2):
        last_j = (degree - 3) // 2
    _check_table_size(degree, last_j * degree)
    apery = _round_robin(gens) if telescopic is None else _apery(gens, telescopic[1])
    return BLCheckResult(degree, *(_sweep(degree, gens[0], apery, last_j) or ()))


def _sweep(
    degree: int, w1: int, apery: list[int], last_j: int, floor: float = inf, first_j: int = 1
) -> tuple[int, int] | None:
    """The first (j, R(j*d + 1)), j in first_j..last_j, with R(j*d + 1) >
    (j+1)(j+2)/2, or with R(j*d + 1) != (j+1)(j+2)/2 and j*d < floor, or
    None if there is none; R counts the members of a semigroup S that
    contains w1, off the sorted Apery set ``apery`` of w1 in S.

    With no floor (floor = inf) and first_j = 1 that is the first failing j
    of the counting check past j = 0, where R(1) = 1 always holds; stage two
    of ``bl_check_unicuspidal``, ``_leaf_check`` and the search's prefix
    probe (``enumerate._span_miss``) all count here, the last two from the
    first j that the probe entering their node has not checked.  S need not
    be numerical: its members are r + t w1 for r in ``apery`` and t >= 0,
    each once, in whatever residue classes mod w1 S meets, so the set may
    hold fewer than w1 members (item 3 of the module docstring).

    With a floor the sweep stops at the last j that can still cut,
    L = max(first_j, floor((floor - 1)/d), |apery| ceil(d/w1) - 2), and
    that loses nothing.  A step of the point from M to M + d adds at most
    ceil(d/w1) points r + t w1 per Apery member r, whether r <= M or
    M < r <= M + d (then M + d - r < d), so R((j+1)d + 1) - R(j*d + 1) <=
    |apery| ceil(d/w1) <= j + 2, the step of (j+1)(j+2)/2, once
    j >= |apery| ceil(d/w1) - 2.  So from L on the excess R(j*d + 1) -
    (j+1)(j+2)/2 never rises.  If L, which the sweep checks, does not cut,
    its excess is 0 (L*d < floor) or at most 0 (L*d >= floor), so no later
    j over-counts; and every j > L has j*d >= floor, where only an
    over-count cuts.
    """
    # with q, s = divmod(M, w_1) at M = j*d, R(M + 1) = sum over r <= M of
    # (M - r)//w_1 + 1 = c(q + 1) - U - #{r <= M : r mod w_1 > s}, where c
    # counts the r <= M and U sums their r//w_1.  One pointer adds each r
    # once, and the point steps by d as (q + 1, s).  ``buckets`` is
    # allocated only for the per-bucket store, g = gcd(d, w_1) >= BUCKET_GCD,
    # whose buckets ceil(rho/g) above s/g hold the residues above s.
    if floor < inf:
        stop = max(first_j, (floor - 1) // degree, len(apery) * -(-degree // w1) - 2)
        last_j = min(last_j, stop)
    g = gcd(degree, w1)
    buckets = [0] * (w1 // g + 1) if g >= BUCKET_GCD else None
    step_q, step_s = divmod(degree, w1)
    point = first_j * degree
    q, s = divmod(point + w1, w1)
    c = u = residues = 0
    size = len(apery)
    expected = (first_j + 1) * (first_j + 2) // 2
    nxt = apery[0]
    for j in range(first_j, last_j + 1):
        while nxt <= point:
            q_r, s_r = divmod(nxt, w1)
            u += q_r
            if buckets is None:
                residues |= 1 << s_r
            else:
                buckets[-(-s_r // g)] += 1
            c += 1
            nxt = apery[c] if c < size else inf
        above = (residues >> s + 1).bit_count() if buckets is None else sum(buckets[s // g + 1:])
        count = c * q - u - above
        if count != expected and (count > expected or point < floor):
            return j, count
        expected += j + 2
        point += degree
        q += step_q
        s += step_s
        if s >= w1:
            s -= w1
            q += 1
    return None


def _join(apery: list[int], w: int, n: int) -> list[int]:
    """Sorted {s + c w : s in ``apery``, 0 <= c < n}: the Apery set of w_1
    in <S, w> from the sorted set ``apery`` of w_1 in S, when every member
    of <S, w> is s' + c w with s' in S and 0 <= c < n in one way
    (``enumerate._pruned_extend`` proves it for a search node's child)."""
    members = []
    for s in apery:  # one ascending run per s, merged by the sort
        members += range(s, s + n * w, w)
    members.sort()
    return members


def _check_leaf_size(degree: int) -> None:
    """Raise what ``bl_check_unicuspidal`` raises for a search leaf of this
    degree that passes j <= 2, and nothing where it raises nothing: stage
    one's bound 2d first, then the leaf's J*d, J = floor((d-3)/2) (see
    ``_leaf_check``), each through ``_check_table_size``.

    Past either bound every leaf of the degree fails at j <= 2 or raises,
    so no record of that degree exists, and the search calls this for each
    of its degrees before it makes any task (``enumerate._search``).
    """
    _check_table_size(degree, min(degree - 2, 2) * degree)
    _check_table_size(degree, (degree - 3) // 2 * degree)


def _leaf_check(
    degree: int, generators: tuple[int, ...], apery: list[int], first_j: int
) -> BLCheckResult:
    """The counting check of a search leaf, off the Apery set of the node
    that solved it: the result of ``bl_check_unicuspidal(degree,
    generators)``, field for field, for the generators w_1 < ... < w_(k+1)
    of a valid gcd chain with Newton p_1..p_k whose delta equals the genus
    (d-1)(d-2)/2, given the sorted Apery set ``apery`` of w_1 in
    <w_1..w_k> and that R(j*d + 1) = (j+1)(j+2)/2 holds at every j below
    ``first_j``.

    The chain proves what stage two of ``bl_check_unicuspidal`` tests, so
    the check goes straight to its sweep.  The generators of a plane branch
    are telescopic (Kirfel-Pellikaan 1995; ``enumerate._pruned_extend``
    proves it for a chain), so every member is s + c w_(k+1) with s in
    <w_1..w_k> and 0 <= c < p_k in one way, and the leaf's Apery set of w_1
    is {s + c w_(k+1) : s in ``apery``, 0 <= c < p_k} (``_join``); ``apery``
    holds w_1/p_k members, which gives p_k.  Telescopic means symmetric, and
    the conductor is 2 delta = (d-1)(d-2), which the delta solve fixed, so
    J = floor((d-3)/2), the J of stage two.  Nothing is lost by skipping
    stage one: the sweep counts R exactly, so a leaf that fails at j <= 2
    gets the same first failing j and R there as stage one would report.

    The search solves the leaf at a node with generators w_1..w_k, entered
    because its span T passed the prefix probe with floor p_(k-1) w_k + 1
    (the root, k = 1, with p_0 = 0, passed none): R_T(j*d + 1) =
    (j+1)(j+2)/2 at every j*d <= p_(k-1) w_k.  The leaf's semigroup agrees
    with T up to w_(k+1) - 1 >= p_(k-1) w_k, so those j hold for the leaf
    too, and the sweep starts at ``first_j`` = p_(k-1) w_k // d + 1, the
    first j past them.  With ``first_j`` = 1 it needs no node.

    The check runs below the cap only: the search refuses a degree whose
    2d + 1 or J*d + 1 passes ``TABLE_BIT_CAP`` before any task
    (``_check_leaf_size``), with the error ``bl_check_unicuspidal`` raises.
    """
    w1 = generators[0]
    box = _join(apery, generators[-1], w1 // len(apery))
    miss = _sweep(degree, w1, box, (degree - 3) // 2, first_j=first_j)
    return BLCheckResult(degree, *(miss or ()))
