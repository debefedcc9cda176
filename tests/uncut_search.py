"""The pruned search walk without the prefix-semigroup cut, as an oracle.

``uncut_leaves`` yields every delta-solved candidate the pruned search
would hand to the counting check if no inner node were cut and the
leading multiplicity ran over 2..d-1.  The full-table and naive-count
oracles and the losslessness test of the cut read their inputs from it.
``pruned_leaves`` lists the leaves the cut search itself solves and
checks.
``naive_miss`` is the prefix-cut probe by brute-force membership.
"""

from math import gcd

import pytest

from cuspidal import enumerate as search
from cuspidal.enumerate import PRUNED, _omega_at_least
from cuspidal.semigroup import _leaf_check


def _uncut_extend(k, target, a, bs, partial, P, depth):
    """Yield (a, (b_1..b_k)) with the final exponent solved exactly."""
    if depth == k:
        rem = target - partial
        if depth == 1:
            if rem <= 0 or rem % (a - 1):
                return
            b = rem // (a - 1) + 1
            if b <= a or gcd(a, b) != 1:
                return
            yield a, (b,)
        else:
            if rem < P - 1 or rem % (P - 1):
                return
            Q = rem // (P - 1)
            if gcd(P, Q) != 1:
                return
            yield a, bs + (bs[-1] + Q,)
        return
    min_future = k - depth  # each later stage adds at least 1 to the bracket
    prev = bs[-1] if bs else 0
    b = (a if depth == 1 else prev) + 1
    while True:
        term = (a - 1) * (b - 1) if depth == 1 else (P - 1) * (b - prev)
        if partial + term + min_future > target:
            return
        Pn = gcd(P, b)
        if 2 <= Pn < P and _omega_at_least(Pn, k - depth):
            yield from _uncut_extend(k, target, a, bs + (b,), partial + term, Pn, depth + 1)
        b += 1


def uncut_leaves(degree, k):
    """Every (a, (b_1..b_k)) of the uncut walk at (degree, k), a = 2..d-1."""
    target = (degree - 1) * (degree - 2)
    for a in range(2, degree):
        yield from _uncut_extend(k, target, a, (), 0, a, 1)


def pruned_leaves(degree, k):
    """The generators of every leaf that the pruned search at (degree, k)
    solves and checks, passing or not: its walk's calls of the leaf check,
    recorded in place of any wrapper the caller has set on it."""
    checked = []

    def recorded(degree, generators, apery, first_j):
        checked.append(generators)
        return _leaf_check(degree, generators, apery, first_j)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "_leaf_check", recorded)
        search._search([(degree, range(k, k + 1))], PRUNED, 1)
    return checked


def naive_miss(degree, last_j, gens, floor):
    """The first (j, R(j*d + 1)), j in 1..last_j, of the semigroup <gens>
    with R(j*d + 1) > (j+1)(j+2)/2, or with R(j*d + 1) != (j+1)(j+2)/2 and
    j*d < floor; None if there is none.

    Membership in [0, last_j*d] is closed one multiple of one generator at
    a time, bound//w shifts of the table by w, and R is a popcount of the
    table below each point.
    """
    bound = last_j * degree
    mask = (2 << bound) - 1
    bits = 1
    for w in gens:
        for _ in range(bound // w):
            bits |= (bits << w) & mask
    for j in range(1, last_j + 1):
        count = (bits & ((2 << j * degree) - 1)).bit_count()
        expected = (j + 1) * (j + 2) // 2
        if count > expected or (count != expected and j * degree < floor):
            return j, count
    return None
